"""Public surface checks.

Every name a submodule lists in ``__all__``, and every top-level function
and class, is either re-exported by the package or used somewhere in
``src/mstiff``: an export that nothing calls is dead code with a promise
attached, and a helper that nothing calls is dead code.
"""
import ast
import importlib
from pathlib import Path

import mstiff

SRC = Path(mstiff.__file__).parent


def used_names() -> set[str]:
    """Names read anywhere in the package: loads, attribute reads and
    imports.  Definitions, assignment targets and the strings of an
    ``__all__`` list are not uses."""
    out: set[str] = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def test_no_dead_exports():
    used = used_names() | set(mstiff.__all__)
    dead = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"mstiff.{path.stem}")
        dead += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if name not in used
        ]
    assert not dead, f"exported but never used: {dead}"


def test_no_uncalled_module_helpers():
    # a top-level function or class that nothing in src/ reads and the
    # package does not re-export is code no caller can reach
    used = used_names() | set(mstiff.__all__)
    uncalled = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not uncalled, f"defined but never used in src/: {uncalled}"
