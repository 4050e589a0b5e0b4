"""The benchmark's workloads: seeded inputs, one pass over them, and the
checks on what each operation returned.

Every workload drives mstiff from outside, through ``mstiff.cli.main`` or
the public library functions, one operation at a time in this process.
Functions are looked up on their module at call time so that the traced
run sees the calls.  The seed picks inputs within fixed bands; the bands
are chosen so that every seed asks for about the same amount of work.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from mstiff import cli, diophantine, render, search, stiffness

# dims-even: strata of even dimensions, far apart in cost; the seed takes
# one of each stratum.  Every one is complete (below the d = 86 frontier).
# The latency median always falls among the middle stratum's samples and
# the 90th percentile among the top one's; those strata hold one dimension
# each, because neighbouring even d differ by about 11% in candidates, and
# a seed's choice there would move the percentiles more than the machine's
# noise does.
_EVEN_STRATA = {
    "full": ((56, 58), (62,), (66,)),
    "tiny": ((20, 22), (24,), (26,)),
}
# dims-odd: the seed takes one of d, d + 2 for d = lo, lo + 4, ..., so a
# pass covers half the odd d of the band (50 of 100 at full size) and at
# least two passes fit in a run; `keep` is always taken (degrees 4 and 5
# both exist there).
_ODD_BAND = {"full": (201, 399, 241), "tiny": (3, 25, 23)}
_CERTIFY_LIMIT = {"full": 10**25, "tiny": 10**6}
_TABLE_FORMATS = ("text", "csv", "json", "markdown")
# deg-sweep: max-d band, calls per sweep, cubic x-bound band, scan cap, m
_SWEEP = {
    "full": ((980, 1020), 20, (1900, 2100), 64, (6, 7, 8, 9, 10)),
    "tiny": ((58, 62), 4, (90, 110), 10, (6, 7)),
}


def _expected_degrees(d: int) -> tuple[int, ...]:
    extra = []
    if d in diophantine.dims_for_degree4(d + 1):
        extra.append(4)
    if d in diophantine.dims_for_degree5(d + 1):
        extra.append(5)
    return (1, 2, 3, *extra)


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs and expected outputs for one run; a pure function of its
    arguments."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "dims-even":
        dims = [rng.choice(stratum) for stratum in _EVEN_STRATA[size]]
    elif workload == "dims-odd":
        lo, hi, keep = _ODD_BAND[size]
        dims = [
            keep if keep in (d, d + 2) else rng.choice((d, d + 2))
            for d in range(lo, hi, 4)
        ]
    elif workload == "certify":
        return _certify_inputs(rng, size)
    elif workload == "deg-sweep":
        (lo, hi), calls, (x_lo, x_hi), scan_cap, degrees = _SWEEP[size]
        max_d = rng.randint(lo, hi)
        return {
            "max_d": max_d,
            # a budget that always takes `calls` resumptions per sweep
            "budget": math.ceil((max_d - 2) / calls),
            "x_bound": rng.randint(x_lo, x_hi),
            "scan_cap": scan_cap,
            "degrees": list(degrees),
            "admissible": [],
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(dims)
    return {"dims": dims, "expected": {d: _expected_degrees(d) for d in dims}}


def _certify_inputs(rng: random.Random, size: str) -> dict:
    limit = _CERTIFY_LIMIT[size]
    streams = {4: diophantine.dims_for_degree4(limit),
               5: diophantine.dims_for_degree5(limit)}
    ops: list[list] = []
    for m, dims in streams.items():
        for d in dims:
            if d >= 3:
                ops += [["exists", m, d + k] for k in (0, 1, 2)]
    ops += [["tables", which, fmt] for which in ("m4", "m5")
            for fmt in _TABLE_FORMATS]
    ops += [["verify", tag, rng.randint(20, 30)]
            for tag in search.theorem_tags()]
    rng.shuffle(ops)
    return {
        "limit": limit,
        "ops": ops,
        "streams": {m: list(dims) for m, dims in streams.items()},
    }


# ---------------------------------------------------------------------------
# one pass

@dataclass
class Op:
    label: str
    seconds: float
    result: Any = None
    check: Optional[Callable[[Any], Optional[str]]] = None
    error: Optional[str] = None
    digest: bytes = b""  # sha256 of the output bytes, once checked


@dataclass
class Pass:
    """The operations of one pass over a workload's inputs, in order."""

    ops: list[Op] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    wall: float = 0.0
    sha256: str = ""  # of all output bytes, kept for the first pass only

    def call(self, label: str, fn: Callable[[], Any],
             check: Callable[[Any], Optional[str]]) -> Any:
        """Time fn(); its result is checked after the pass.  Returns the
        result, or None when fn raised."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            self.ops.append(Op(label, time.perf_counter() - t0,
                               error=f"raised {exc!r}"))
            return None
        self.ops.append(Op(label, time.perf_counter() - t0, result, check))
        return result

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


def run_cli(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_pass(workload: str, inputs: dict, workdir: Path) -> Pass:
    p = Pass()
    t0 = time.perf_counter()
    if workload in ("dims-even", "dims-odd"):
        _dims_pass(p, inputs)
    elif workload == "certify":
        _certify_pass(p, inputs)
    else:
        _sweep_pass(p, inputs, workdir)
    p.wall = time.perf_counter() - t0
    return p


def _dims_pass(p: Pass, inputs: dict) -> None:
    for d in inputs["dims"]:
        expected = inputs["expected"][d]

        def check(c, d=d, expected=expected) -> Optional[str]:
            if c.degrees != expected or not c.complete:
                return (f"d={d}: degrees {c.degrees} complete={c.complete}, "
                        f"expected {expected} complete")
            return None

        p.call(f"classify_dimension({d})",
               lambda d=d: search.classify_dimension(d), check)


def _certify_pass(p: Pass, inputs: dict) -> None:
    limit = inputs["limit"]
    for op in inputs["ops"]:
        kind = op[0]
        if kind == "exists":
            _, m, d = op
            argv = ["exists", "--m", str(m), "--d", str(d), "--format", "json"]
            check = _exists_check(m, d, d in inputs["streams"][m])
        elif kind == "tables":
            _, which, fmt = op
            argv = ["tables", "--which", which, "--limit", str(limit),
                    "--format", fmt]
            check = _tables_check(fmt, inputs["streams"][int(which[1])])
        else:
            _, tag, window = op
            argv = ["verify", tag, "--limit", str(window), "--format", "json"]
            check = _verify_check
        p.call(" ".join(argv), lambda argv=argv: run_cli(argv), check)


def _sweep_pass(p: Pass, inputs: dict, workdir: Path) -> None:
    max_d, budget = inputs["max_d"], inputs["budget"]
    cells = max_d - 2
    max_calls = cells // budget + 1
    for m in inputs["degrees"]:
        ckpt = workdir / f"sweep-m{m}.jsonl"
        ckpt.unlink(missing_ok=True)
        argv = ["classify", "--deg", str(m), "--max-d", str(max_d),
                "--format", "json", "--checkpoint", str(ckpt),
                "--budget", str(budget), "--workers", "1"]
        check = _sweep_check(cells, inputs["admissible"])
        for _ in range(max_calls):
            res = p.call(f"classify --deg {m}", lambda: run_cli(argv), check)
            summary = _last_json(res)
            if summary is None:
                break
            p.count("cli.cells_replayed", summary.get("cells_replayed", 0))
            if not summary.get("budget_exhausted"):
                break
        if ckpt.exists():
            p.count("cli.ckpt_bytes", ckpt.stat().st_size)

        def degree_check(c, m=m) -> Optional[str]:
            if c.method != "bounded-search" or c.complete:
                return (f"classify_degree({m}): method {c.method} "
                        f"complete={c.complete}, expected an incomplete "
                        "bounded-search")
            low = [d for d in c.dims if 3 <= d <= max_d]
            if low != inputs["admissible"]:
                return (f"classify_degree({m}): admissible d <= {max_d} "
                        f"{low}, the sweep expects {inputs['admissible']}")
            return None

        p.call(f"classify_degree({m})",
               lambda m=m: search.classify_degree(
                   m, scan_cap=inputs["scan_cap"],
                   cubic_x_bound=inputs["x_bound"]),
               degree_check)


def _last_json(res) -> Optional[dict]:
    if res is None:
        return None
    try:
        summary = json.loads(res[1].splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return summary if isinstance(summary, dict) else None


# ---------------------------------------------------------------------------
# output checks: None when the output is right, else what is wrong

def _exists_check(m: int, d: int, exists: bool):
    def check(res) -> Optional[str]:
        code, out = res
        want = (0, "exists") if exists else (3, "not_exists")
        payload = json.loads(out)
        if (code, payload["verdict"]) != want:
            return f"exists m={m} d={d}: {code}/{payload['verdict']}, want {want}"
        if not exists:
            return None
        # the table row comes from the closed-form quadrature, independently
        # of the decision pipeline that produced the roots
        row = render.quadrature_row(m, d)
        squares = sorted((1 / Fraction(r) for r in payload["roots"]),
                         reverse=True)
        zeros = [render.node_str(s) for s in squares]
        if zeros != [z for z in row.zeros if z != "0"]:
            return f"exists m={m} d={d}: roots {payload['roots']} vs row {row.zeros}"
        if payload["lambdas"] != list(row.lambdas):
            return f"exists m={m} d={d}: lambdas differ from the table row"
        return None

    return check


def _table_dims(fmt: str, text: str) -> list[int]:
    if fmt == "json":
        return [row["d"] for row in json.loads(text)]
    lines = text.splitlines()
    if fmt == "csv":
        return [int(line.split(",", 1)[0]) for line in lines[1:]]
    if fmt == "markdown":
        return [int(line.split("|")[1]) for line in lines[2:]]
    return [int(line.split()[0]) for line in lines[1:]]


def _tables_check(fmt: str, stream: list[int]):
    def check(res) -> Optional[str]:
        code, out = res
        if code != 0:
            return f"tables --format {fmt}: exit {code}"
        dims = _table_dims(fmt, out)
        if dims != stream:
            return f"tables --format {fmt}: rows {dims[:5]}..., want {stream[:5]}..."
        return None

    return check


def _verify_check(res) -> Optional[str]:
    code, out = res
    payload = json.loads(out)
    if code != 0 or not payload["passed"]:
        return f"verify {payload.get('tag')}: exit {code}, passed={payload['passed']}"
    return None


def _sweep_check(cells: int, admissible: list[int]):
    def check(res) -> Optional[str]:
        code, out = res
        lines = out.splitlines()
        summary = json.loads(lines[-1])
        if code != 0 or summary["admissible"] != admissible or summary["undecided"]:
            return (f"sweep m={summary.get('m')}: exit {code}, admissible "
                    f"{summary['admissible']}, undecided {summary['undecided']}")
        if summary["budget_exhausted"]:
            return None
        # the last resumption covers the whole grid, replayed or examined
        seen = summary["cells_replayed"] + summary["cells_examined"]
        if seen != cells or summary["cells"] != cells or len(lines) - 1 != cells:
            return (f"sweep m={summary['m']}: {seen} cells replayed+examined, "
                    f"{len(lines) - 1} emitted, want {cells}")
        return None

    return check


def deep_check(workload: str, inputs: dict, p: Pass) -> None:
    """Checks too costly for every pass: each Exists verdict of certify is
    re-decided by the library and its certificate re-verified."""
    if workload != "certify":
        return
    for op, spec in zip(p.ops, inputs["ops"]):
        if spec[0] != "exists" or op.error:
            continue
        _, m, d = spec
        if d not in inputs["streams"][m]:
            continue
        try:
            verdict = stiffness.stiff_exists(m, d)
            stiffness.verify_certificate(verdict.certificate)
        except (ValueError, AttributeError, stiffness.UndecidedError) as exc:
            op.error = f"exists m={m} d={d}: certificate rejected: {exc!r}"


def output_bytes(result: Any) -> bytes:
    """What a user sees of one operation's result, as bytes."""
    if isinstance(result, tuple):  # a CLI call: exit code and stdout
        code, out = result
        return f"exit {code}\n{out}".encode("utf-8")
    if isinstance(result, search.DimClassification):
        fields = {"dim": result.dim, "degrees": list(result.degrees),
                  "complete": result.complete}
    else:  # a DegreeClassification
        fields = {"m": result.m, "dims": list(result.dims),
                  "complete": result.complete, "method": result.method,
                  "evidence": list(result.evidence)}
    return (json.dumps(fields, sort_keys=True) + "\n").encode("utf-8")
