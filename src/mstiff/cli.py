"""Command-line front end.

Commands: exists, classify, tables, pell, newton, bounds, verify.  Exit
codes are stable: 0 Exists (or a successful run), 3 NotExists (or a
failed verification), 2 usage errors, 4 state errors such as a corrupt
checkpoint.  argparse converts and bounds every argument and rejects a
--format the subcommand does not render, so a bad one exits 2 with an
argparse message; each command then reads the parsed namespace and
returns its exit code with the text to print, and `main` alone writes
that text to stdout.  Results that render themselves (verdicts, dimension
classifications, theorem reports) only have their format picked here.
All result bytes are a function of the arguments alone; checkpoint files
are the only place timestamps live.

Degree sweeps (classify --deg with m >= 6) walk a dimension grid cell by
cell.  Each decided cell is appended to the checkpoint file as a JSON
line, and a resumed run replays those cells instead of recomputing them;
the emitted result set is identical either way, whatever --workers was.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import re
import sys
from contextlib import ExitStack
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import __version__
from .diophantine import UnitElement, fundamental_unit, pell_representatives
from .exact_core import (
    PRIME_PROVEN_BELOW,
    is_probable_prime,
    newton_polygon_from_valuations,
    ord_p,
    perfect_square_root,
)
from .render import fraction_str, render_table, table_rows, unit_str
from .search import (
    classify_dimension,
    resolve_theorem_tag,
    theorem_tags,
    verify_theorem,
)
from .stiffness import (
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


# what a command returns: its exit code and the text main prints
Output = tuple[int, str]


def _json(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _lines(lines: Sequence[str]) -> str:
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exists

def cmd_exists(args: argparse.Namespace) -> Output:
    try:
        verdict = stiff_exists(args.m, args.d)
    except UndecidedError as e:
        raise StateError(str(e)) from e
    code = EXIT_OK if verdict.exists else EXIT_NOT_EXISTS
    if args.format == "json":
        return code, _json(verdict.to_json())
    return code, verdict.to_text(args.precision) + "\n"


# ---------------------------------------------------------------------------
# tables

def cmd_tables(args: argparse.Namespace) -> Output:
    return EXIT_OK, render_table(table_rows(args.which, args.limit),
                                 args.format)


# ---------------------------------------------------------------------------
# classify

def _require_format(fmt: str, allowed: Sequence[str]) -> None:
    """classify's modes render different formats; the parser allows all."""
    if fmt not in allowed:
        raise UsageError(
            f"--format {fmt} is not supported here (choose from "
            f"{', '.join(allowed)})"
        )


# Dimensions past these are refused before any work, since the work and
# memory grow without bound (2 cores, Python 3.11).  An even dimension's
# scan covers n below n* ~ 0.23 d^2: d = 10^4 takes 2.7 s and 122 MB, and
# its sieve runs out of memory long before 10^25.  An odd one scans n up
# to 2d + 9, and every n past the full-screen budget (d > 99,996) is left
# unresolved: d = 10^5 + 1 takes 1.6 s, 10^6 + 1 10.5 s and 501 MB.
_MAX_SCAN_DIM = (10**4, 10**5)  # (even, odd)


def _classify_dim(args: argparse.Namespace) -> Output:
    _require_format(args.format, ("text", "json"))
    if args.dim > _MAX_SCAN_DIM[args.dim % 2]:
        raise UsageError(
            f"--dim {args.dim} is too large: classify --dim scans even "
            f"dimensions up to {_MAX_SCAN_DIM[0]} and odd ones up to "
            f"{_MAX_SCAN_DIM[1]}"
        )
    c = classify_dimension(args.dim)
    if args.format == "json":
        return EXIT_OK, _json(c.to_json(args.max_m))
    return EXIT_OK, c.to_text(args.max_m) + "\n"


# json.dumps(obj, sort_keys=True) builds a new encoder on every call, which
# a sweep pays per cell and per record; these encode the same bytes
_SORTED_JSON = json.JSONEncoder(sort_keys=True)
_COMPACT_SORTED_JSON = json.JSONEncoder(
    sort_keys=True, separators=(",", ":")
)


def _digest(verdict: dict) -> str:
    return _digest_of(_COMPACT_SORTED_JSON.encode(verdict))


def _digest_of(compact: str) -> str:
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()[:12]


# the verdict words a sweep cell can record (see _sweep_cell)
_CELL_VERDICTS = ("exists", "not_exists", "undecided")


class SweepRow(NamedTuple):
    """One sweep cell as the outputs print it: the verdict word (text),
    the CSV detail column, and the JSON row."""
    verdict: str
    detail: object
    row: str


def _sweep_row(verdict: dict) -> SweepRow:
    return SweepRow(
        verdict["verdict"],
        verdict.get("witness") or verdict.get("reason") or "",
        _SORTED_JSON.encode(verdict),
    )


# A record in the form _checkpoint_line writes: sorted keys, ", " and ": "
# separators, ASCII only, integers as 0|-?[1-9][0-9]*, strings without
# escapes.  Such a line is valid JSON, and its verdict object's bytes are
# the sweep row.  The strings inside the verdict also hold no "," or ":",
# so dropping the space after every ", " and ": " in the row leaves the
# compact encoding _digest hashes.
_INT = r"0|-?[1-9][0-9]*"
# printable ASCII less the quote and the backslash; a reused string (_WORD)
# also holds no comma or colon
_TEXT = r'[\x20\x21\x23-\x5b\x5d-\x7e]*'
_WORD = r'[\x20\x21\x23-\x2b\x2d-\x39\x3b-\x5b\x5d-\x7e]*'
_CANONICAL_RECORD = re.compile(
    rf'\{{"cell": \[(?P<cell_m>{_INT}), (?P<cell_d>{_INT})\], '
    rf'"digest": "(?P<digest>[0-9a-f]{{12}})", '
    rf'"kind": "(?P<kind>{_TEXT})", "ts": "{_TEXT}", '
    rf'"verdict": (?P<row>\{{"d": (?P<d>{_INT}), "m": (?P<m>{_INT}), '
    rf'(?:"reason": "(?P<reason>{_WORD})", )?'
    rf'(?:"roots": \[(?:"{_WORD}"(?:, "{_WORD}")*)?\], )?'
    rf'"verdict": "(?P<verdict>{"|".join(_CELL_VERDICTS)})"'
    rf'(?:, "witness": "(?P<witness>{_WORD})")?\}}), '
    rf'"version": "(?P<version>{_TEXT})"\}}'
)


def _canonical_record(
    line: str, kind: str, m: int
) -> Optional[tuple[int, SweepRow]]:
    """(d, row) of a canonical record that passes every check
    `_checked_record` makes, read without decoding JSON; None for any other
    line, which `_checked_record` then decides."""
    match = _CANONICAL_RECORD.fullmatch(line)
    if match is None:
        return None
    (cell_m, cell_d, digest, rec_kind, row, d, vm, reason, word, witness,
     version) = match.group(
        "cell_m", "cell_d", "digest", "kind", "row", "d", "m", "reason",
        "verdict", "witness", "version")
    if (
        rec_kind != kind or version != __version__ or int(cell_m) != m
        or vm != cell_m or d != cell_d
        or _digest_of(row.replace(", ", ",").replace(": ", ":")) != digest
    ):
        return None
    return int(d), SweepRow(word, witness or reason or "", row)


def _checked_record(
    line: str, kind: str, m: int, where: str
) -> tuple[int, SweepRow]:
    """(d, row) of one checkpoint line, decoded as JSON; raises StateError
    naming `where` when the record is refused."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise StateError(f"{where}: invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict):
        raise StateError(f"{where}: record is not a JSON object")
    missing = {"kind", "cell", "verdict", "digest", "ts", "version"} \
        - set(obj)
    if missing:
        raise StateError(f"{where}: missing fields {sorted(missing)}")
    if obj["kind"] != kind:
        raise StateError(
            f"{where}: kind {obj['kind']!r} does not match this run "
            f"({kind!r})"
        )
    if obj["version"] != __version__:
        raise StateError(
            f"{where}: version {obj['version']!r} does not match "
            f"{__version__!r}"
        )
    cell = obj["cell"]
    if (
        not isinstance(cell, list) or len(cell) != 2
        or not all(type(v) is int for v in cell)
    ):
        raise StateError(f"{where}: malformed cell {cell!r}")
    if cell[0] != m:
        raise StateError(
            f"{where}: cell degree {cell[0]} belongs to a different sweep "
            f"(this run is m = {m})"
        )
    if _digest(obj["verdict"]) != obj["digest"]:
        raise StateError(f"{where}: digest mismatch (record corrupt)")
    verdict = obj["verdict"]
    if (
        not isinstance(verdict, dict)
        or [verdict.get("m"), verdict.get("d")] != cell
        or [type(verdict["m"]), type(verdict["d"])] != [int, int]
        or verdict.get("verdict") not in _CELL_VERDICTS
    ):
        raise StateError(
            f"{where}: verdict is not an {'/'.join(_CELL_VERDICTS)} record "
            f"of cell {cell}"
        )
    return cell[1], _sweep_row(verdict)


def _load_checkpoint(path: Path, kind: str, m: int) -> dict[int, SweepRow]:
    """Sweep rows keyed by dimension; raises StateError when corrupt.

    Each line must be a JSON object with every record field, of this
    sweep's kind, version and degree, with its digest, and with a verdict
    object whose m and d are the integers of its cell and whose verdict
    word is one `_sweep_cell` writes; anything else names its line.  Two
    records of one cell must agree on its row (concurrent sweeps write the
    same row under different timestamps); a disagreeing pair names both
    lines.

    A line in the canonical form `_checkpoint_line` writes is checked by
    one pattern match and one sha256, without decoding or re-encoding JSON
    (`_canonical_record`); its verdict bytes are the row the sweep prints.
    Any other line, valid or not, is decoded and checked field by field
    (`_checked_record`), which also gives every refusal its message.

    A crash mid-append leaves one unterminated final line.  If it does not
    parse, it is dropped; if it does, it is checked like any record.  Only
    once every record is accepted is the file repaired: a dropped line is
    cut from it, a kept one gets its newline, so the next append starts
    on a fresh line.  A refused file is left as it was."""
    replayed: dict[int, SweepRow] = {}
    first_line: dict[int, int] = {}
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return replayed
    except OSError as e:
        raise StateError(f"cannot read checkpoint {path}: {e}") from e
    keep = data.rfind(b"\n") + 1
    torn = False
    if keep < len(data):
        try:
            json.loads(data[keep:])
        except ValueError:
            torn = True
    try:
        text = (data[:keep] if torn else data).decode("utf-8")
    except UnicodeDecodeError as e:
        raise StateError(f"checkpoint {path}: not UTF-8 text ({e})") from e
    # not splitlines(): a JSON string may hold U+2028 and its other breaks
    for lineno, line in enumerate(text.split("\n"), 1):
        record = _canonical_record(line, kind, m)
        if record is None:
            if not line.strip():
                continue
            record = _checked_record(
                line, kind, m, f"checkpoint {path} line {lineno}"
            )
        d, row = record
        earlier = replayed.get(d)
        if earlier is None:
            replayed[d] = row
            first_line[d] = lineno
        elif earlier.row != row.row:
            raise StateError(
                f"checkpoint {path} line {lineno}: cell {[m, d]} disagrees "
                f"with line {first_line[d]}"
            )
    if keep < len(data):
        try:
            with path.open("r+b") as fh:
                if torn:
                    fh.truncate(keep)
                else:
                    fh.seek(0, 2)
                    fh.write(b"\n")
        except OSError as e:
            raise StateError(f"cannot repair checkpoint {path}: {e}") from e
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
    return _SORTED_JSON.encode(record) + "\n"


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
        "witness": verdict.stage,
    }


def _classify_deg_sweep(args: argparse.Namespace) -> Output:
    m, max_d, budget = args.deg, args.max_d, args.budget
    if max_d < 3:
        raise UsageError("--max-d must be at least 3 (the range is empty)")
    kind = "classify-deg"
    grid = range(3, max_d + 1)
    cells: dict[int, SweepRow] = {}
    ckpt: Optional[Path] = None
    if args.checkpoint is not None:
        ckpt = Path(args.checkpoint)
        cells = {
            d: row for d, row in _load_checkpoint(ckpt, kind, m).items()
            if d in grid
        }
    replayed = len(cells)
    # walked lazily, so a budgeted run never builds the whole grid
    pending = ((m, d) for d in grid if d not in cells)
    todo = list(
        pending if budget is None else itertools.islice(pending, budget + 1)
    )
    budget_exhausted = budget is not None and len(todo) > budget
    if budget_exhausted:
        todo.pop()

    with ExitStack() as stack:
        if args.workers > 1 and len(todo) > 1:
            # imported here: the pool's modules add about 2 MB of resident
            # memory to every run, and only a sweep with workers uses them
            from concurrent.futures import ProcessPoolExecutor

            chunk = max(1, len(todo) // (args.workers * 8))
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=args.workers)
            )
            results = pool.map(_sweep_cell, todo, chunksize=chunk)
        else:
            results = map(_sweep_cell, todo)
        fh = None
        if ckpt is not None and todo:
            fh = stack.enter_context(
                ckpt.open("a", encoding="utf-8", newline="\n")
            )
        # each cell reaches the checkpoint as soon as it is decided, so an
        # interrupted sweep resumes where it stopped
        for cell in results:
            cells[cell["d"]] = _sweep_row(cell)
            if fh is not None:
                fh.write(_checkpoint_line(kind, m, cell))
                fh.flush()

    ordered = sorted(cells.items())
    positives = [d for d, c in ordered if c.verdict == "exists"]
    undecided = [d for d, c in ordered if c.verdict == "undecided"]
    complete = not budget_exhausted and not undecided
    summary = {
        "summary": True,
        "m": m,
        "max_d": max_d,
        "cells": len(grid),
        "cells_examined": len(todo),
        "cells_replayed": replayed,
        "admissible": positives,
        "undecided": undecided,
        "complete_below_max_d": complete,
        "note": (
            "d = 2 admits every degree and is not part of the grid; "
            "dimensions beyond max-d are unexplored, not refuted"
        ),
        "budget": budget,
        "wall_clock_cap": None,
        "budget_exhausted": budget_exhausted,
    }

    if args.format == "json":
        return EXIT_OK, _lines(
            [*(c.row for _, c in ordered), _SORTED_JSON.encode(summary)]
        )
    if args.format == "csv":
        import csv as _csv
        import io as _io

        buf = _io.StringIO()
        w = _csv.writer(buf)
        w.writerow(["m", "d", "verdict", "detail"])
        for d, c in ordered:
            w.writerow([m, d, c.verdict, c.detail])
        return EXIT_OK, buf.getvalue()
    # text
    lines = [f"degree {m} sweep over 3 <= d <= {max_d}"]
    if positives:
        for d in positives:
            lines.append(f"  d = {d}: exists")
    else:
        lines.append("  no admissible dimensions in the grid")
    if undecided:
        lines.append(
            "  undecided: " + ", ".join(str(d) for d in undecided)
        )
    lines.append(
        f"  cells: {len(grid)} ({len(todo)} examined, "
        f"{replayed} replayed)"
    )
    lines.append(f"  complete below max-d: {'yes' if complete else 'no'}")
    if budget_exhausted:
        lines.append(f"  budget of {budget} cells exhausted")
    lines.append("  d = 2 admits every degree; beyond max-d is unexplored")
    return EXIT_OK, _lines(lines)


def _classify_deg(args: argparse.Namespace) -> Output:
    m = args.deg
    if m <= 3:
        _require_format(args.format, ("text", "json"))
        if args.format == "json":
            return EXIT_OK, _json({"m": m, "dims": "all", "complete": True})
        return EXIT_OK, f"degree {m}: every dimension d >= 2 is admissible\n"
    if m in (4, 5):
        max_d = args.max_d
        rows = table_rows("m4" if m == 4 else "m5", max_d + 1)
        if args.format == "json":
            out = []
            for r in rows:
                out.append(_SORTED_JSON.encode({
                    "m": m,
                    "d": r.d,
                    "verdict": "exists",
                    "zeros": list(r.zeros),
                    "lambdas": list(r.lambdas),
                }))
            out.append(_SORTED_JSON.encode({
                "summary": True,
                "m": m,
                "max_d": max_d,
                "admissible": [r.d for r in rows],
                "complete": True,
                "method": "pell-stream",
                "budget": None,
                "wall_clock_cap": None,
            }))
            return EXIT_OK, _lines(out)
        if args.format in ("csv", "markdown"):
            return EXIT_OK, render_table(rows, args.format)
        return EXIT_OK, (
            f"degree {m}: admissible dimensions d <= {max_d} "
            "(complete, recurrence stream)\n" + render_table(rows, "text")
        )
    _require_format(args.format, ("text", "csv", "json"))
    return _classify_deg_sweep(args)


def cmd_classify(args: argparse.Namespace) -> Output:
    # a flag the mode ignores is refused, so --max-d and --workers default
    # to None; the sweep-only flags serve the bounded sweeps (m >= 6) alone
    swept = ("--budget", "--workers", "--checkpoint")
    if args.dim is not None:
        mode, ignored = "--dim", ("--max-d", *swept)
    else:
        mode, ignored = f"--deg {args.deg}", ("--max-m",)
        if args.deg <= 5:
            ignored += swept
    for flag in ignored:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} does not apply to classify {mode}")
    if args.dim is not None:
        return _classify_dim(args)
    args.max_d = 10**8 if args.max_d is None else args.max_d
    args.workers = args.workers or 1
    return _classify_deg(args)


# ---------------------------------------------------------------------------
# pell

def cmd_pell(args: argparse.Namespace) -> Output:
    d, m = args.D, args.M
    if perfect_square_root(d) is not None:
        raise UsageError(f"--D must not be a perfect square, got {d}")
    if m == 0:
        raise UsageError("--M must be nonzero")
    unit = fundamental_unit(d)
    u0 = unit if unit.norm == 1 else unit * unit
    classes = []  # (representative, the strings of its orbit)
    for rep in pell_representatives(d, m):
        elem, orbit = UnitElement(rep.x, rep.y, d), []
        for _ in range(args.limit):
            orbit.append(unit_str(elem))
            elem = elem * u0
        classes.append((rep, orbit))

    if args.format == "json":
        return EXIT_OK, _json({
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
                {"x": rep.x, "y": rep.y, "str": orbit[0], "orbit": orbit}
                for rep, orbit in classes
            ],
        })

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
    for _, orbit in classes:
        lines.append(f"  class {orbit[0]}: orbit " + ", ".join(orbit))
    return EXIT_OK, _lines(lines)


# ---------------------------------------------------------------------------
# newton

def _coeffs(text: str) -> list[Fraction]:
    """An argparse type: comma-separated rationals, leading one nonzero."""
    try:
        coeffs = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(
            f"cannot parse coefficients {text!r}: {e}"
        ) from None
    if coeffs[0] == 0:
        raise argparse.ArgumentTypeError("leading coefficient must be nonzero")
    return coeffs


def cmd_newton(args: argparse.Namespace) -> Output:
    p, m, d = args.p, args.m, args.d
    if not is_probable_prime(p):
        raise UsageError(f"--p must be prime, got {p}")
    if args.coeffs is not None:
        if m is not None or d is not None:
            raise UsageError("give either coefficients or --m/--d, not both")
        coeffs = args.coeffs[::-1]  # ascending for the polygon
        source = "explicit polynomial"
    else:
        if m is None or d is None:
            raise UsageError("newton needs --m and --d, or coefficients")
        coeffs = s_poly(m, d)
        source = f"degree-{len(coeffs) - 1} section polynomial (m = {m}, d = {d})"

    non_integral = [
        i for i, c in enumerate(coeffs) if Fraction(c).denominator != 1
    ]
    vals = [
        None if c == 0 else int(ord_p(Fraction(c), p)) for c in coeffs
    ]
    polygon = newton_polygon_from_valuations(vals, p)
    fractional = [s for s in polygon.slopes if s.denominator != 1]

    if args.format == "json":
        return EXIT_OK, _json({
            "prime": p,
            "source": source,
            "points": [list(pt) for pt in polygon.points],
            "vertices": [list(v) for v in polygon.vertices],
            "slopes": [fraction_str(s) for s in polygon.slopes],
            "all_slopes_integer": polygon.all_slopes_integer,
            "fractional_slopes": [fraction_str(s) for s in fractional],
            "non_integral_coefficient_indices": non_integral,
        })

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
    return EXIT_OK, _lines(lines)


# ---------------------------------------------------------------------------
# bounds

# an even dimension's divisor-product threshold has about 2.1 d digits:
# d = 10^5 prints in 0.4 s, 10^6 in 56 s (the int-to-str conversion)
_MAX_BOUNDS_EVEN_DIM = 10**5


def cmd_bounds(args: argparse.Namespace) -> Output:
    d = args.d
    if d % 2 == 0 and d > _MAX_BOUNDS_EVEN_DIM:
        raise UsageError(
            f"--d {d} is too large: bounds prints even dimensions up to "
            f"{_MAX_BOUNDS_EVEN_DIM} (their thresholds have about 2.1 d "
            "digits)"
        )
    rows = [(odd_deg, n_upper_bound(d, odd_deg)) for odd_deg in (False, True)]

    if args.format == "json":
        # dimension 2 has no threshold: every field but the parity is null
        unbounded = dict.fromkeys(("threshold", "tag", "conservative"))
        return EXIT_OK, _json({"d": d, "bounds": [
            {"parity": "odd" if odd_deg else "even",
             **(unbounded if b is None else asdict(b))}
            for odd_deg, b in rows
        ]})

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
    return EXIT_OK, _lines(lines)


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> Output:
    try:
        canonical = resolve_theorem_tag(args.tag)
    except KeyError:
        raise UsageError(
            f"unknown theorem tag {args.tag!r}; known tags: "
            + ", ".join(theorem_tags())
        ) from None
    try:
        report = verify_theorem(canonical, window=args.limit,
                                below_cap=args.budget)
    except ValueError:  # a family claim has no sweep for --budget to cap
        raise UsageError(f"--budget does not apply to verify {args.tag}")
    code = EXIT_OK if report.passed else EXIT_NOT_EXISTS
    if args.format == "json":
        return code, _json(report.to_json())
    return code, report.to_text() + "\n"


# ---------------------------------------------------------------------------
# argument parsing

# 1eN is expanded exactly into an N-digit integer; larger N is refused,
# and so is a --precision of more digits
_MAX_EXPONENT = 10_000


def _parse_int(text: str) -> int:
    """An exact integer from decimal or scientific notation (1e30, 2.5e3)."""
    try:
        if "e" in text.lower():
            if abs(int(text.lower().rpartition("e")[2])) > _MAX_EXPONENT:
                raise argparse.ArgumentTypeError(
                    f"exponent of {text!r} is too large"
                )
            value = Fraction(text)
            if value.denominator != 1:
                raise ValueError
            return int(value)
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}"
        ) from None


def _int(low: int, high: Optional[int] = None):
    """An argparse type: `_parse_int`, then low <= value (<= high)."""
    def convert(text: str) -> int:
        value = _parse_int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}")
        return value
    return convert


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

    def add_parser(name: str, summary: str, formats=("text", "json")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--format", default="text", choices=formats)
        return p

    all_formats = ("text", "csv", "json", "markdown")

    p = add_parser("exists", "decide one (m, d) cell")
    p.add_argument("--m", required=True, type=_int(1))
    p.add_argument("--d", required=True, type=_int(2))
    p.add_argument("--precision", default=50, type=_int(20, _MAX_EXPONENT),
                   help="digits of the decimal section positions")

    p = add_parser("classify", "sweep one axis of the (m, d) grid",
                   all_formats)
    axis = p.add_mutually_exclusive_group(required=True)
    axis.add_argument("--dim", type=_int(2),
                      help="one dimension: even up to 1e4, odd up to 1e5")
    axis.add_argument("--deg", type=_int(1))
    p.add_argument("--max-d", type=_parse_int,
                   help="largest dimension, inclusive (default 1e8)")
    p.add_argument("--max-m", type=_parse_int)
    p.add_argument("--budget", type=_int(1),
                   help="grid cells examined at most")
    p.add_argument("--checkpoint")
    p.add_argument("--workers", type=_int(1), help="default 1")

    p = add_parser("tables", "reproduce a classification table", all_formats)
    p.add_argument("--which", required=True, choices=("m4", "m5"))
    p.add_argument("--limit", default=10**8, type=_int(1),
                   help="strict upper bound on d (the caption's 'less than')")

    p = add_parser("pell", "fundamental unit and solution classes")
    p.add_argument("--D", required=True, type=_int(2))
    p.add_argument("--M", required=True, type=_parse_int)
    p.add_argument("--limit", default=3, type=_int(1),
                   help="orbit elements per class")

    p = add_parser("newton", "render a Newton polygon")
    p.add_argument("coeffs", nargs="?", type=_coeffs,
                   help="comma-separated coefficients, leading first")
    p.add_argument("--m", type=_int(2))
    p.add_argument("--d", type=_int(2))
    # is_probable_prime is a proof below this bound
    p.add_argument("--p", default=2, type=_int(2, PRIME_PROVEN_BELOW - 1))

    p = add_parser("bounds", "nonexistence thresholds per parity")
    p.add_argument("--d", required=True, type=_int(2),
                   help="dimension: any odd one, even ones up to 1e5")

    p = add_parser("verify", "recompute a nonexistence statement")
    p.add_argument("tag", help="theorem tag or alias")
    p.add_argument("--limit", default=25, type=_int(0),
                   help="degrees sampled past the threshold")
    p.add_argument("--budget", type=_int(1),
                   help="cap on the below-threshold sweep")

    return parser


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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse already printed a message; exit 2 on bad usage
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code, text = _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except StateError as e:
        print(f"state error: {e}", file=sys.stderr)
        return EXIT_STATE
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
