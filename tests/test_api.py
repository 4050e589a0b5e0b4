"""Public surface checks.

Every name a submodule lists in ``__all__``, and every top-level function
and class, is either re-exported by the package or used somewhere in
``src/mstiff``: an export that nothing calls is dead code with a promise
attached, and a helper that nothing calls is dead code.  The same holds
for every method and property of a class, dunders aside.
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


def test_no_unread_methods():
    # a method or property nothing in src/ reads is an answer nobody asks
    # for; dunders are called by the language, not by name
    used = used_names()
    unread = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used
    ]
    assert not unread, f"methods never read in src/: {unread}"


def test_only_main_writes_stdout():
    # the CLI is a thin layer: each command returns its exit code and text,
    # and main alone writes stdout; other functions write to stderr only
    def writes_stdout(node) -> bool:
        if isinstance(node, ast.Attribute):
            return ast.unparse(node) == "sys.stdout"
        if isinstance(node, ast.Name):
            return node.id == "_emit"
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "print"
                and not any(k.arg == "file"
                            and ast.unparse(k.value) == "sys.stderr"
                            for k in node.keywords))

    writers = sorted({
        fn.name
        for fn in ast.walk(ast.parse((SRC / "cli.py").read_text()))
        if isinstance(fn, ast.FunctionDef) and fn.name != "main"
        for node in ast.walk(fn) if writes_stdout(node)
    })
    assert not writers, f"functions other than main write stdout: {writers}"


# the benchmark's traced run wraps library functions by name and reads
# verdict and witness fields by name, so a rename must fail here rather
# than in that run; the tracer is parsed, never imported
TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"


def _has_attr(cls, name: str) -> bool:
    return name in getattr(cls, "__dataclass_fields__", {}) \
        or hasattr(cls, name)


def test_bench_tracer_names_resolve():
    tree = ast.parse(TRACER.read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)]
        == ["TRACED"]
    )
    assert traced
    missing = [
        f"{layer}.{fn}" for layer, fn, _ in traced
        if not hasattr(importlib.import_module(f"mstiff.{layer}"), fn)
    ]
    assert not missing, f"traced but not in mstiff: {missing}"


def test_bench_tracer_reads_existing_witness_fields():
    tree = ast.parse(TRACER.read_text())
    stiffness = importlib.import_module("mstiff.stiffness")
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == \
                "mstiff.stiffness":
            for alias in node.names:
                assert hasattr(stiffness, alias.name), alias.name
    stage = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "decided_stage")
    # (class, field) for each `verdict.X`, and each `w.X` under an
    # `if isinstance(w, Class)`
    reads = {(stiffness.StiffVerdict, node.attr)
             for node in ast.walk(stage)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id == "verdict"}
    for branch in ast.walk(stage):
        test = getattr(branch, "test", None)
        if not (isinstance(branch, ast.If) and isinstance(test, ast.Call)
                and getattr(test.func, "id", None) == "isinstance"):
            continue
        var, cls = test.args[0].id, getattr(stiffness, test.args[1].id)
        reads |= {(cls, node.attr)
                  for stmt in branch.body for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == var}
    assert {name for _, name in reads} >= {"newton", "prime"}
    gone = [f"{cls.__name__}.{name}" for cls, name in reads
            if not _has_attr(cls, name)]
    assert not gone, f"decided_stage reads missing fields: {gone}"
