"""Command-line front end.

Commands: exists, classify, tables, pell, newton, bounds, verify.  Exit
codes are stable: 0 Exists (or a successful run), 3 NotExists (or a
failed verification), 2 usage errors, 4 state errors such as a corrupt
checkpoint.  All result bytes go to stdout and are a pure function of the
run configuration; checkpoint files are the only place timestamps live.

Degree sweeps (classify --deg with m >= 6) walk a dimension grid cell by
cell.  Each decided cell is appended to the checkpoint file as a JSON
line, and a resumed run replays those cells instead of recomputing them;
the emitted result set is identical either way, whatever --workers was.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .diophantine import UnitElement, fundamental_unit, pell_representatives
from .exact_core import (
    NewtonPolygon,
    is_probable_prime,
    newton_polygon_from_valuations,
    ord_p,
    perfect_square_root,
)
from .render import (
    TableRow,
    decimal_str,
    fraction_str,
    node_str,
    render_table,
    surd_str,
    table_rows,
    unit_str,
)
from .gegenbauer import QuadSurd
from .search import (
    classify_dimension,
    resolve_theorem_tag,
    theorem_tags,
    verdict_stage,
    verify_theorem,
)
from .stiffness import (
    BoundExceeded,
    IrrationalRoot,
    NonIntegerCoefficient,
    StiffVerdict,
    UndecidedError,
    n_upper_bound,
    s_poly,
    stiff_exists,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_EXISTS = 3
EXIT_STATE = 4


class UsageError(Exception):
    pass


class StateError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on; equal configs give equal bytes."""

    command: str
    parameters: dict
    output_format: str
    budget: Optional[int]
    checkpoint_path: Optional[str]
    worker_count: int
    precision: int

    def validate(self) -> None:
        if not 20 <= self.precision <= _MAX_EXPONENT:
            raise UsageError(
                f"--precision must be between 20 and {_MAX_EXPONENT}"
            )
        if self.worker_count < 1:
            raise UsageError("--workers must be at least 1")
        if self.budget is not None and self.budget < 1:
            raise UsageError("--budget must be at least 1")


# ---------------------------------------------------------------------------
# shared rendering helpers

def _emit(text: str) -> None:
    sys.stdout.write(text)


def _require_format(fmt: str, allowed: Sequence[str]) -> None:
    if fmt not in allowed:
        raise UsageError(
            f"format {fmt!r} is not supported here (choose from "
            f"{', '.join(allowed)})"
        )


def _witness_json(witness) -> dict:
    if isinstance(witness, NonIntegerCoefficient):
        return {
            "type": "coefficient",
            "index": witness.index,
            "prime": witness.prime,
            "valuation": witness.valuation,
            "value": None if witness.value is None
            else fraction_str(witness.value),
            "detail": witness.detail,
        }
    if isinstance(witness, BoundExceeded):
        return {
            "type": "bound",
            "tag": witness.tag,
            "threshold": witness.threshold,
            "n": witness.n,
            "conservative": witness.conservative,
        }
    if isinstance(witness, IrrationalRoot):
        if witness.newton is not None:
            poly = witness.newton
            return {
                "type": "newton-slope",
                "prime": poly.prime,
                "vertices": [list(v) for v in poly.vertices],
                "slopes": [fraction_str(s) for s in poly.slopes],
            }
        w = witness.root_witness
        return {
            "type": "root",
            "kind": w.kind,
            "detail": w.detail,
            "interval": None if w.interval is None
            else [fraction_str(w.interval[0]), fraction_str(w.interval[1])],
        }
    raise AssertionError(f"unknown witness {witness!r}")


def _witness_text(witness) -> str:
    if isinstance(witness, NonIntegerCoefficient):
        head = f"coefficient u_{witness.index} is not an integer"
        if witness.value is not None:
            head += f" (u_{witness.index} = {fraction_str(witness.value)})"
        if witness.detail:
            head += f"; {witness.detail}"
        return head
    if isinstance(witness, BoundExceeded):
        kind = "conservative " if witness.conservative else ""
        return (
            f"degree parameter n = {witness.n} is past the {kind}"
            f"nonexistence threshold {witness.threshold} ({witness.tag})"
        )
    if isinstance(witness, IrrationalRoot):
        if witness.newton is not None:
            poly = witness.newton
            bad = [fraction_str(s) for s in poly.slopes if s.denominator != 1]
            return (
                f"Newton polygon at p = {poly.prime} has non-integer "
                f"slope(s) {', '.join(bad)}"
            )
        w = witness.root_witness
        return f"root certification ({w.kind}): {w.detail}"
    raise AssertionError(f"unknown witness {witness!r}")


def _verdict_sections(verdict: StiffVerdict) -> tuple[list[str], list[str]]:
    """(zeros, lambdas) strings in outer-to-inner order, center last."""
    cert = verdict.certificate
    if cert is None:
        return [], []
    if cert.kind == "equal-weight":
        count = verdict.m // 2 + verdict.m % 2
        return [], [fraction_str(Fraction(1, verdict.m))] * count
    zeros = []
    lambdas = []
    for square, weight in reversed(cert.quadrature.pairs):
        zeros.append(node_str(square))
        lambdas.append(fraction_str(weight))
    if cert.quadrature.center_weight is not None:
        zeros.append("0")
        lambdas.append(fraction_str(cert.quadrature.center_weight))
    return zeros, lambdas


# ---------------------------------------------------------------------------
# exists

def _exists_json(verdict: StiffVerdict) -> dict:
    """The object `exists --format json` prints for one cell."""
    return {
        "m": verdict.m,
        "d": verdict.dim,
        "verdict": "exists" if verdict.exists else "not_exists",
        "roots": [fraction_str(r) for r in
                  (verdict.certificate.s_roots if verdict.exists else ())],
        "lambdas": _verdict_sections(verdict)[1],
        "witness": None if verdict.exists else _witness_json(verdict.witness),
    }


def cmd_exists(cfg: RunConfig) -> int:
    _require_format(cfg.output_format, ("text", "json"))
    m = cfg.parameters["m"]
    d = cfg.parameters["d"]
    if m < 1:
        raise UsageError("--m must be at least 1")
    if d < 2:
        raise UsageError("--d must be at least 2")
    try:
        verdict = stiff_exists(m, d)
    except UndecidedError as e:
        raise StateError(str(e)) from e

    if cfg.output_format == "json":
        _emit(json.dumps(_exists_json(verdict), indent=2) + "\n")
        return EXIT_OK if verdict.exists else EXIT_NOT_EXISTS

    zeros, lambdas = _verdict_sections(verdict)
    if not verdict.exists:
        _emit(
            f"NotExists: no {m}-stiff configuration on S^{d - 1} (d = {d})\n"
            f"  witness: {_witness_text(verdict.witness)}\n"
        )
        return EXIT_NOT_EXISTS

    lines = [f"Exists: a {m}-stiff configuration on S^{d - 1} (d = {d})"]
    cert = verdict.certificate
    if cert.kind == "equal-weight":
        lines.append(
            f"  the regular {2 * m}-gon on the circle; every section "
            f"weight {fraction_str(Fraction(1, m))}"
        )
    else:
        if cert.s_roots:
            lines.append(
                "  section polynomial roots: "
                + ", ".join(fraction_str(r) for r in cert.s_roots)
            )
        shown = []
        for square, z in zip(
            [sq for sq, _ in reversed(cert.quadrature.pairs)], zeros
        ):
            shown.append(f"+-{z} (~ {decimal_str(square, cfg.precision)})")
        if cert.quadrature.center_weight is not None:
            shown.append("0")
        lines.append("  sections (outer to inner): " + ", ".join(shown))
        lines.append("  weights: " + ", ".join(lambdas))
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables

def cmd_tables(cfg: RunConfig) -> int:
    which = cfg.parameters["which"]
    limit = cfg.parameters["limit"]
    if limit < 1:
        raise UsageError("--limit must be at least 1")
    rows = table_rows(which, limit)
    _emit(render_table(rows, cfg.output_format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify

def _dim_classification_json(c) -> dict:
    branches = []
    for b in c.branches:
        branches.append(
            {
                "parity": "odd" if b.odd_deg else "even",
                "method": b.method,
                "complete": b.complete,
                "bound": None if b.bound is None else {
                    "threshold": b.bound.threshold,
                    "tag": b.bound.tag,
                    "conservative": b.bound.conservative,
                },
                "candidates": [
                    {"n": r.n, "m": r.m, "status": r.status}
                    for r in b.candidates
                ],
                "existing": list(b.existing),
                "unresolved": list(b.unresolved),
                "detail": b.detail,
            }
        )
    return {
        "dim": c.dim,
        "all_degrees": c.all_degrees,
        "degrees": "all" if c.all_degrees else list(c.degrees),
        "complete": c.complete,
        "branches": branches,
    }


def _classify_dim(cfg: RunConfig) -> int:
    _require_format(cfg.output_format, ("text", "json"))
    dim = cfg.parameters["dim"]
    if dim < 2:
        raise UsageError("--dim must be at least 2")
    c = classify_dimension(dim)
    max_m = cfg.parameters.get("max_m")
    if cfg.output_format == "json":
        payload = _dim_classification_json(c)
        if max_m is not None and not c.all_degrees:
            payload["degrees"] = [m for m in payload["degrees"] if m <= max_m]
            payload["max_m"] = max_m
        _emit(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    if c.all_degrees:
        _emit(
            "dimension 2: every degree is admissible "
            "(the regular 2m-gon is the m-stiff configuration)\n"
        )
        return EXIT_OK
    degrees = [m for m in c.degrees if max_m is None or m <= max_m]
    lines = [
        f"dimension {dim}: admissible degrees "
        + (", ".join(str(m) for m in degrees) if degrees else "none")
    ]
    lines.append(f"  classification complete: {'yes' if c.complete else 'no'}")
    for b in c.branches:
        parity = "odd" if b.odd_deg else "even"
        cands = ", ".join(str(r.n) for r in b.candidates[:12])
        if len(b.candidates) > 12:
            cands += ", ..."
        lines.append(
            f"  {parity} degrees [{b.method}]: "
            + (f"candidates n in ({cands}); " if cands else "no candidates; ")
            + (
                f"admissible m = {', '.join(str(m) for m in b.existing)}"
                if b.existing else "none admissible"
            )
        )
        if b.unresolved:
            lines.append(
                f"    unresolved degrees: "
                + ", ".join(str(m) for m in b.unresolved)
            )
        lines.append(f"    {b.detail}")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def _digest(verdict: dict) -> str:
    blob = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def _load_checkpoint(path: Path, kind: str, m: int) -> dict[int, dict]:
    """Cell verdicts keyed by dimension; raises StateError when corrupt.

    A crash mid-append leaves one unterminated final line.  If it does not
    parse, it is dropped and cut from the file; if it does, the file gets
    its newline.  Either way the next append starts on a fresh line."""
    replayed: dict[int, dict] = {}
    try:
        data = path.read_bytes()
        keep = data.rfind(b"\n") + 1
        if keep < len(data):
            with path.open("r+b") as fh:
                try:
                    json.loads(data[keep:])
                except ValueError:
                    fh.truncate(keep)
                    data = data[:keep]
                else:
                    fh.seek(0, 2)
                    fh.write(b"\n")
    except FileNotFoundError:
        return replayed
    except OSError as e:
        raise StateError(f"cannot read checkpoint {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise StateError(f"checkpoint {path}: not UTF-8 text ({e})") from e
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise StateError(
                f"checkpoint {path} line {lineno}: invalid JSON ({e.msg})"
            ) from e
        missing = {"kind", "cell", "verdict", "digest", "ts", "version"} \
            - set(obj)
        if missing:
            raise StateError(
                f"checkpoint {path} line {lineno}: missing fields "
                f"{sorted(missing)}"
            )
        if obj["kind"] != kind:
            raise StateError(
                f"checkpoint {path} line {lineno}: kind {obj['kind']!r} "
                f"does not match this run ({kind!r})"
            )
        if obj["version"] != __version__:
            raise StateError(
                f"checkpoint {path} line {lineno}: version "
                f"{obj['version']!r} does not match {__version__!r}"
            )
        cell = obj["cell"]
        if (
            not isinstance(cell, list) or len(cell) != 2
            or not all(isinstance(v, int) for v in cell)
        ):
            raise StateError(
                f"checkpoint {path} line {lineno}: malformed cell {cell!r}"
            )
        if cell[0] != m:
            raise StateError(
                f"checkpoint {path} line {lineno}: cell degree {cell[0]} "
                f"belongs to a different sweep (this run is m = {m})"
            )
        if _digest(obj["verdict"]) != obj["digest"]:
            raise StateError(
                f"checkpoint {path} line {lineno}: digest mismatch "
                "(record corrupt)"
            )
        replayed[cell[1]] = obj["verdict"]
    return replayed


def _checkpoint_line(kind: str, m: int, verdict: dict) -> str:
    record = {
        "kind": kind,
        "cell": [m, verdict["d"]],
        "verdict": verdict,
        "digest": _digest(verdict),
        "ts": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    return json.dumps(record, sort_keys=True) + "\n"


def _sweep_cell(args: tuple[int, int]) -> dict:
    m, d = args
    try:
        verdict = stiff_exists(m, d)
    except UndecidedError as e:
        return {"m": m, "d": d, "verdict": "undecided", "reason": e.reason}
    if verdict.exists:
        return {
            "m": m,
            "d": d,
            "verdict": "exists",
            "roots": [fraction_str(r) for r in verdict.certificate.s_roots],
        }
    return {
        "m": m,
        "d": d,
        "verdict": "not_exists",
        "witness": verdict_stage(verdict),
    }


def _classify_deg_sweep(cfg: RunConfig) -> int:
    m = cfg.parameters["deg"]
    max_d = cfg.parameters["max_d"]
    if max_d < 3:
        raise UsageError("--max-d must be at least 3 (the range is empty)")
    kind = "classify-deg"
    grid = list(range(3, max_d + 1))
    replayed: dict[int, dict] = {}
    ckpt: Optional[Path] = None
    if cfg.checkpoint_path is not None:
        ckpt = Path(cfg.checkpoint_path)
        in_grid = set(grid)
        replayed = {
            d: v for d, v in _load_checkpoint(ckpt, kind, m).items()
            if d in in_grid
        }
    todo = [d for d in grid if d not in replayed]
    budget_exhausted = False
    if cfg.budget is not None and len(todo) > cfg.budget:
        todo = todo[: cfg.budget]
        budget_exhausted = True

    computed: list[dict] = []
    args = [(m, d) for d in todo]
    with ExitStack() as stack:
        if cfg.worker_count > 1 and len(args) > 1:
            chunk = max(1, len(args) // (cfg.worker_count * 8))
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=cfg.worker_count)
            )
            results = pool.map(_sweep_cell, args, chunksize=chunk)
        else:
            results = map(_sweep_cell, args)
        fh = None
        if ckpt is not None and args:
            fh = stack.enter_context(
                ckpt.open("a", encoding="utf-8", newline="\n")
            )
        # each cell reaches the checkpoint as soon as it is decided, so an
        # interrupted sweep resumes where it stopped
        for cell in results:
            computed.append(cell)
            if fh is not None:
                fh.write(_checkpoint_line(kind, m, cell))
                fh.flush()

    cells = sorted(
        list(replayed.values()) + computed, key=lambda c: c["d"]
    )
    positives = [c for c in cells if c["verdict"] == "exists"]
    undecided = [c for c in cells if c["verdict"] == "undecided"]
    complete = not budget_exhausted and not undecided
    summary = {
        "summary": True,
        "m": m,
        "max_d": max_d,
        "cells": len(grid),
        "cells_examined": len(computed),
        "cells_replayed": len(replayed),
        "admissible": [c["d"] for c in positives],
        "undecided": [c["d"] for c in undecided],
        "complete_below_max_d": complete,
        "note": (
            "d = 2 admits every degree and is not part of the grid; "
            "dimensions beyond max-d are unexplored, not refuted"
        ),
        "budget": cfg.budget,
        "wall_clock_cap": None,
        "budget_exhausted": budget_exhausted,
    }

    if cfg.output_format == "json":
        out = [json.dumps(c, sort_keys=True) for c in cells]
        out.append(json.dumps(summary, sort_keys=True))
        _emit("\n".join(out) + "\n")
        return EXIT_OK
    if cfg.output_format == "csv":
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        w = _csv.writer(buf)
        w.writerow(["m", "d", "verdict", "detail"])
        for c in cells:
            w.writerow(
                [c["m"], c["d"], c["verdict"],
                 c.get("witness") or c.get("reason") or ""]
            )
        _emit(buf.getvalue())
        return EXIT_OK
    # text
    lines = [f"degree {m} sweep over 3 <= d <= {max_d}"]
    if positives:
        for c in positives:
            lines.append(f"  d = {c['d']}: exists")
    else:
        lines.append("  no admissible dimensions in the grid")
    if undecided:
        lines.append(
            "  undecided: " + ", ".join(str(c["d"]) for c in undecided)
        )
    lines.append(
        f"  cells: {len(grid)} ({len(computed)} examined, "
        f"{len(replayed)} replayed)"
    )
    lines.append(f"  complete below max-d: {'yes' if complete else 'no'}")
    if budget_exhausted:
        lines.append(f"  budget of {cfg.budget} cells exhausted")
    lines.append("  d = 2 admits every degree; beyond max-d is unexplored")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def _classify_deg(cfg: RunConfig) -> int:
    m = cfg.parameters["deg"]
    if m < 1:
        raise UsageError("--deg must be at least 1")
    if m <= 3:
        _require_format(cfg.output_format, ("text", "json"))
        if cfg.output_format == "json":
            _emit(json.dumps(
                {"m": m, "dims": "all", "complete": True}, indent=2
            ) + "\n")
        else:
            _emit(
                f"degree {m}: every dimension d >= 2 is admissible\n"
            )
        return EXIT_OK
    if m in (4, 5):
        if cfg.checkpoint_path is not None:
            raise UsageError(
                "checkpointing applies to the bounded sweeps (--deg with "
                "m >= 6); the degree-4/5 streams are complete"
            )
        max_d = cfg.parameters["max_d"]
        rows = table_rows("m4" if m == 4 else "m5", max_d + 1)
        if cfg.output_format == "json":
            out = []
            for r in rows:
                out.append(json.dumps({
                    "m": m,
                    "d": r.d,
                    "verdict": "exists",
                    "zeros": list(r.zeros),
                    "lambdas": list(r.lambdas),
                }, sort_keys=True))
            out.append(json.dumps({
                "summary": True,
                "m": m,
                "max_d": max_d,
                "admissible": [r.d for r in rows],
                "complete": True,
                "method": "pell-stream",
                "budget": cfg.budget,
                "wall_clock_cap": None,
            }, sort_keys=True))
            _emit("\n".join(out) + "\n")
            return EXIT_OK
        if cfg.output_format in ("csv", "markdown"):
            _emit(render_table(rows, cfg.output_format))
            return EXIT_OK
        _emit(
            f"degree {m}: admissible dimensions d <= {max_d} "
            "(complete, recurrence stream)\n"
        )
        _emit(render_table(rows, "text"))
        return EXIT_OK
    _require_format(cfg.output_format, ("text", "csv", "json"))
    return _classify_deg_sweep(cfg)


def cmd_classify(cfg: RunConfig) -> int:
    if cfg.parameters.get("dim") is not None:
        if cfg.checkpoint_path is not None:
            raise UsageError(
                "checkpointing applies to degree sweeps, not --dim"
            )
        return _classify_dim(cfg)
    if cfg.parameters.get("deg") is not None:
        return _classify_deg(cfg)
    raise UsageError("classify needs exactly one of --dim or --deg")


# ---------------------------------------------------------------------------
# pell

def cmd_pell(cfg: RunConfig) -> int:
    _require_format(cfg.output_format, ("text", "json"))
    d = cfg.parameters["D"]
    m = cfg.parameters["M"]
    orbit_len = cfg.parameters["limit"]
    if d < 2 or perfect_square_root(d) is not None:
        raise UsageError("--D must be a nonsquare integer >= 2")
    if m == 0:
        raise UsageError("--M must be nonzero")
    if orbit_len < 1:
        raise UsageError("--limit must be at least 1")
    unit = fundamental_unit(d)
    u0 = unit if unit.norm == 1 else unit * unit
    reps = pell_representatives(d, m)
    classes = []
    for rep in reps:
        elem = UnitElement(rep.x, rep.y, d)
        orbit = []
        for _ in range(orbit_len):
            orbit.append(elem)
            elem = elem * u0
        classes.append((rep, orbit))

    if cfg.output_format == "json":
        payload = {
            "D": d,
            "M": m,
            "fundamental_unit": {
                "x": unit.x, "y": unit.y, "norm": unit.norm,
                "str": unit_str(unit),
            },
            "orbit_generator": {
                "x": u0.x, "y": u0.y, "str": unit_str(u0),
            },
            "classes": [
                {
                    "x": rep.x,
                    "y": rep.y,
                    "str": surd_str(
                        QuadSurd(Fraction(rep.x), Fraction(rep.y), d)
                    ),
                    "orbit": [unit_str(e) for e in orbit],
                }
                for rep, orbit in classes
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    lines = [
        f"fundamental unit of Z[sqrt({d})]: {unit_str(unit)} "
        f"(norm {unit.norm})"
    ]
    if u0 is not unit:
        lines.append(f"norm-1 orbit generator: {unit_str(u0)}")
    count = len(classes)
    noun = "class" if count == 1 else "classes"
    lines.append(
        f"solutions of x^2 - {d}*y^2 = {m}: "
        + (f"{count} {noun}" if count else "none")
    )
    for rep, orbit in classes:
        rep_str = surd_str(QuadSurd(Fraction(rep.x), Fraction(rep.y), d))
        lines.append(
            f"  class {rep_str}: orbit "
            + ", ".join(unit_str(e) for e in orbit)
        )
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# newton

def _parse_coeffs(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"cannot parse coefficients {text!r}: {e}") from e


def cmd_newton(cfg: RunConfig) -> int:
    _require_format(cfg.output_format, ("text", "json"))
    p = cfg.parameters["p"]
    if not is_probable_prime(p):
        raise UsageError(f"--p must be prime, got {p}")
    coeffs_text = cfg.parameters.get("coeffs")
    m = cfg.parameters.get("m")
    d = cfg.parameters.get("d")
    if coeffs_text is not None:
        if m is not None or d is not None:
            raise UsageError("give either coefficients or --m/--d, not both")
        coeffs = _parse_coeffs(coeffs_text)  # descending, as written
        if not coeffs or coeffs[0] == 0:
            raise UsageError("leading coefficient must be nonzero")
        coeffs = list(reversed(coeffs))  # ascending for the polygon
        source = "explicit polynomial"
    else:
        if m is None or d is None:
            raise UsageError("newton needs --m and --d, or coefficients")
        if m < 2:
            raise UsageError("--m must be at least 2 (degree >= 1)")
        if d < 2:
            raise UsageError("--d must be at least 2")
        coeffs = list(s_poly(m, d).coeffs)
        source = f"degree-{len(coeffs) - 1} section polynomial (m = {m}, d = {d})"

    non_integral = [
        i for i, c in enumerate(coeffs) if Fraction(c).denominator != 1
    ]
    vals = [
        None if c == 0 else int(ord_p(Fraction(c), p)) for c in coeffs
    ]
    polygon = newton_polygon_from_valuations(vals, p)
    fractional = [s for s in polygon.slopes if s.denominator != 1]

    if cfg.output_format == "json":
        payload = {
            "prime": p,
            "source": source,
            "points": [list(pt) for pt in polygon.points],
            "vertices": [list(v) for v in polygon.vertices],
            "slopes": [fraction_str(s) for s in polygon.slopes],
            "all_slopes_integer": polygon.all_slopes_integer,
            "fractional_slopes": [fraction_str(s) for s in fractional],
            "non_integral_coefficient_indices": non_integral,
        }
        _emit(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    def fmt_pts(pts) -> str:
        return ", ".join(f"({a}, {b})" for a, b in pts)

    lines = [f"Newton polygon of the {source} at p = {p}"]
    lines.append(f"  points: {fmt_pts(polygon.points)}")
    lines.append(f"  vertices: {fmt_pts(polygon.vertices)}")
    lines.append(
        "  slopes: "
        + (", ".join(fraction_str(s) for s in polygon.slopes)
           if polygon.slopes else "none")
    )
    if non_integral:
        lines.append(
            "  note: coefficients at positions "
            + ", ".join(str(i) for i in non_integral)
            + " are not integers; the integer-slope necessity only binds "
            "integer polynomials"
        )
    if fractional:
        lines.append(
            "  non-integer slope "
            + ", ".join(fraction_str(s) for s in fractional)
            + ": some root is not an integer"
        )
    else:
        lines.append("  all slopes are integers: no obstruction here")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds

def cmd_bounds(cfg: RunConfig) -> int:
    _require_format(cfg.output_format, ("text", "json"))
    d = cfg.parameters["d"]
    if d < 2:
        raise UsageError("--d must be at least 2")
    rows = []
    for odd_deg in (False, True):
        bound = n_upper_bound(d, odd_deg)
        rows.append((odd_deg, bound))

    if cfg.output_format == "json":
        payload = {
            "d": d,
            "bounds": [
                {
                    "parity": "odd" if odd_deg else "even",
                    "threshold": None if b is None else b.threshold,
                    "tag": None if b is None else b.tag,
                    "conservative": None if b is None else b.conservative,
                }
                for odd_deg, b in rows
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK

    lines = [f"degree-parameter thresholds for dimension {d}"]
    for odd_deg, b in rows:
        parity = "odd degrees (m = 2n+1)" if odd_deg \
            else "even degrees (m = 2n)"
        if b is None:
            lines.append(f"  {parity}: no finite threshold (dimension 2)")
            continue
        extra = ", conservative" if b.conservative else ""
        lines.append(
            f"  {parity}: none exist with n >= {b.threshold} "
            f"({b.tag}{extra})"
        )
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(cfg: RunConfig) -> int:
    _require_format(cfg.output_format, ("text", "json"))
    tag = cfg.parameters["tag"]
    try:
        canonical = resolve_theorem_tag(tag)
    except KeyError:
        raise UsageError(
            f"unknown theorem tag {tag!r}; known tags: "
            + ", ".join(theorem_tags())
        ) from None
    window = cfg.parameters["limit"]
    if window < 0:
        raise UsageError("--limit (window size) must be nonnegative")
    report = verify_theorem(canonical, window=window, below_cap=cfg.budget)

    if cfg.output_format == "json":
        payload = {
            "tag": report.tag,
            "alias": report.alias,
            "claim": report.claim,
            "passed": report.passed,
            "checks": list(report.checks),
        }
        _emit(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK if report.passed else EXIT_NOT_EXISTS

    alias = f" (alias {report.alias})" if report.alias else ""
    lines = [
        f"theorem check {report.tag}{alias}: "
        + ("PASSED" if report.passed else "NOT CONFIRMED")
    ]
    lines.append(f"  claim: {report.claim}")
    for check in report.checks:
        lines.append(f"  - {check}")
    _emit("\n".join(lines) + "\n")
    return EXIT_OK if report.passed else EXIT_NOT_EXISTS


# ---------------------------------------------------------------------------
# argument parsing

# 1eN is expanded exactly into an N-digit integer; larger N is refused,
# and so is a --precision of more digits
_MAX_EXPONENT = 10_000


def _parse_int(text: str, what: str) -> int:
    try:
        if "e" in text.lower():
            if abs(int(text.lower().rpartition("e")[2])) > _MAX_EXPONENT:
                raise UsageError(f"{what}: exponent of {text!r} is too large")
            value = Fraction(text)
            if value.denominator != 1:
                raise ValueError
            return int(value)
        return int(text, 10)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


@functools.lru_cache(maxsize=1)  # parsing leaves it unchanged: share it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mstiff",
        description=(
            "Exact existence decisions, classifications, and tables for "
            "stiff configurations on spheres."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", default="text",
            choices=("text", "csv", "json", "markdown"),
        )
        p.add_argument("--precision", default="50")

    p = sub.add_parser("exists", help="decide one (m, d) cell")
    p.add_argument("--m", required=True)
    p.add_argument("--d", required=True)
    add_common(p)

    p = sub.add_parser("classify", help="sweep one axis of the (m, d) grid")
    p.add_argument("--dim", default=None)
    p.add_argument("--deg", default=None)
    p.add_argument("--max-d", default="100000000",
                   help="largest dimension, inclusive")
    p.add_argument("--max-m", default=None)
    p.add_argument("--budget", default=None,
                   help="grid cells examined at most")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--workers", default="1")
    add_common(p)

    p = sub.add_parser("tables", help="reproduce a classification table")
    p.add_argument("--which", required=True, choices=("m4", "m5"))
    p.add_argument("--limit", default="1e8",
                   help="strict upper bound on d (the caption's 'less than')")
    add_common(p)

    p = sub.add_parser("pell", help="fundamental unit and solution classes")
    p.add_argument("--D", required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--limit", default="3", help="orbit elements per class")
    add_common(p)

    p = sub.add_parser("newton", help="render a Newton polygon")
    p.add_argument("coeffs", nargs="?", default=None,
                   help="comma-separated coefficients, leading first")
    p.add_argument("--m", default=None)
    p.add_argument("--d", default=None)
    p.add_argument("--p", default="2")
    add_common(p)

    p = sub.add_parser("bounds", help="nonexistence thresholds per parity")
    p.add_argument("--d", required=True)
    add_common(p)

    p = sub.add_parser("verify", help="recompute a nonexistence statement")
    p.add_argument("tag", help="theorem tag or alias")
    p.add_argument("--limit", default="25",
                   help="degrees sampled past the threshold")
    p.add_argument("--budget", default=None,
                   help="cap on the below-threshold sweep")
    add_common(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params: dict = {}
    budget = None
    checkpoint = None
    workers = 1

    def opt_int(name: str, value, what: str) -> Optional[int]:
        return None if value is None else _parse_int(value, what)

    if args.command == "exists":
        params["m"] = _parse_int(args.m, "--m")
        params["d"] = _parse_int(args.d, "--d")
    elif args.command == "classify":
        params["dim"] = opt_int("dim", args.dim, "--dim")
        params["deg"] = opt_int("deg", args.deg, "--deg")
        if params["dim"] is not None and params["deg"] is not None:
            raise UsageError("classify needs exactly one of --dim or --deg")
        params["max_d"] = _parse_int(args.max_d, "--max-d")
        params["max_m"] = opt_int("max_m", args.max_m, "--max-m")
        budget = opt_int("budget", args.budget, "--budget")
        checkpoint = args.checkpoint
        workers = _parse_int(args.workers, "--workers")
    elif args.command == "tables":
        params["which"] = args.which
        params["limit"] = _parse_int(args.limit, "--limit")
    elif args.command == "pell":
        params["D"] = _parse_int(args.D, "--D")
        params["M"] = _parse_int(args.M, "--M")
        params["limit"] = _parse_int(args.limit, "--limit")
    elif args.command == "newton":
        params["coeffs"] = args.coeffs
        params["m"] = opt_int("m", args.m, "--m")
        params["d"] = opt_int("d", args.d, "--d")
        params["p"] = _parse_int(args.p, "--p")
    elif args.command == "bounds":
        params["d"] = _parse_int(args.d, "--d")
    elif args.command == "verify":
        params["tag"] = args.tag
        params["limit"] = _parse_int(args.limit, "--limit")
        budget = opt_int("budget", args.budget, "--budget")

    cfg = RunConfig(
        command=args.command,
        parameters=params,
        output_format=args.format,
        budget=budget,
        checkpoint_path=checkpoint,
        worker_count=workers,
        precision=_parse_int(args.precision, "--precision"),
    )
    cfg.validate()
    return cfg


_COMMANDS = {
    "exists": cmd_exists,
    "classify": cmd_classify,
    "tables": cmd_tables,
    "pell": cmd_pell,
    "newton": cmd_newton,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact results can outgrow Python's 4,300-digit int-to-str limit;
    # builds before 3.10.7 have no limit and no setter
    getattr(sys, "set_int_max_str_digits", lambda n: None)(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse already printed a message; exit 2 on bad usage
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StateError as e:
        print(f"state error: {e}", file=sys.stderr)
        return EXIT_STATE


if __name__ == "__main__":
    sys.exit(main())
