"""Byte-stable rendering of sections, weights, units, and the two tables.

Every emitter here is a pure function of exact data, so identical inputs
give identical bytes on any machine.  Radicands stay as they arise in the
section squares (1/sqrt(45), never the normalized sqrt(5)/15): the table
columns are compared against golden strings in exactly that style.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .diophantine import UnitElement, dims_for_degree4, dims_for_degree5
from .exact_core import fraction_square_root, perfect_square_root
from .gegenbauer import QuadSurd, closed_form_quadrature

__all__ = [
    "fraction_str",
    "surd_str",
    "unit_str",
    "node_str",
    "surd_node_str",
    "decimal_str",
    "TableRow",
    "quadrature_row",
    "table_rows",
    "render_table",
]


def fraction_str(f: Fraction) -> str:
    """p/q with the slash dropped for integers."""
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _coeff_sqrt(b: Fraction, c: int) -> str:
    root = f"sqrt({c})"
    if b == 1:
        return root
    if b == -1:
        return f"-{root}"
    return f"{fraction_str(b)}*{root}"


def surd_str(s: QuadSurd) -> str:
    """Canonical a+b*sqrt(c); unit coefficients lose the explicit 1*."""
    if s.is_rational or s.b == 0:
        return fraction_str(s.a)
    tail = _coeff_sqrt(s.b, s.c)
    if s.a == 0:
        return tail
    if s.b > 0:
        return f"{fraction_str(s.a)}+{tail}"
    return f"{fraction_str(s.a)}{tail}"


def unit_str(u: UnitElement) -> str:
    return surd_str(QuadSurd(Fraction(u.x), Fraction(u.y), u.d))


def node_str(square: Fraction) -> str:
    """Section position sqrt(p/q) for rational squares, paper style.

    Perfect squares collapse to rationals; a square numerator or
    denominator moves outside the radical; otherwise the whole fraction
    stays under one sqrt.
    """
    square = Fraction(square)
    if square < 0:
        raise ValueError("section square must be nonnegative")
    if square == 0:
        return "0"
    whole = fraction_square_root(square)
    if whole is not None:
        return fraction_str(whole)
    p, q = square.numerator, square.denominator
    rp = perfect_square_root(p)
    if rp is not None:
        return f"{rp}/sqrt({q})"
    rq = perfect_square_root(q)
    if rq is not None:
        if rq == 1:
            return f"sqrt({p})"
        return f"sqrt({p})/{rq}"
    return f"sqrt({p}/{q})"


def _surd_over_den(s: QuadSurd) -> str:
    """(a'+b'*sqrt(c))/den with one common denominator, integer parts."""
    den = s.a.denominator
    if s.b.denominator % den == 0:
        den = s.b.denominator
    elif den % s.b.denominator:
        den = den * s.b.denominator
    inner = surd_str(QuadSurd(s.a * den, s.b * den, s.c))
    if den == 1:
        return inner
    return f"({inner})/{den}"


def surd_node_str(square: QuadSurd) -> str:
    """Section position for an irrational square (the dimension-2 rows)."""
    if square.is_rational:
        return node_str(square.to_fraction())
    # 1/(a + b*sqrt(c)) = (a - b*sqrt(c)) / (a^2 - b^2 c), by the conjugate
    norm = square.a * square.a - square.b * square.b * square.c
    recip = QuadSurd(square.a / norm, -square.b / norm, square.c)
    if recip.a.denominator == 1 and recip.b.denominator == 1:
        return f"1/sqrt({surd_str(recip)})"
    return f"sqrt({_surd_over_den(square)})"


def decimal_str(square: Fraction, digits: int) -> str:
    """sqrt(square) rounded down to the given digits, exact integer work."""
    if digits < 1:
        raise ValueError("digits must be positive")
    square = Fraction(square)
    scaled = square * 10 ** (2 * digits)
    from math import isqrt

    root = isqrt(scaled.numerator // scaled.denominator)
    text = str(root).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


# ---------------------------------------------------------------------------
# the two classification tables

@dataclass(frozen=True)
class TableRow:
    """One dimension's sections and weights, outermost pair first.

    zeros hold the unsigned section positions (each of the first
    len(lambdas_per_pair) entries stands for a +- pair); odd degrees end
    with the center "0".  lambdas align with zeros: one weight per pair,
    then the center weight.
    """

    d: int
    zeros: tuple[str, ...]
    lambdas: tuple[str, ...]


def quadrature_row(m: int, dim: int) -> TableRow:
    """Exact row for a dimension admitting the degree-m configuration."""
    pairs, center = closed_form_quadrature(m, dim)
    zeros: list[str] = []
    lambdas: list[str] = []
    for square, weight in reversed(pairs):  # outermost section first
        if square.is_rational:
            zeros.append(node_str(square.to_fraction()))
        else:
            zeros.append(surd_node_str(square))
        if not weight.is_rational:
            raise ValueError(
                f"irrational weight in dimension {dim}: not a table row"
            )
        lambdas.append(fraction_str(weight.to_fraction()))
    if center is not None:
        zeros.append("0")
        lambdas.append(fraction_str(center.to_fraction()))
    return TableRow(dim, tuple(zeros), tuple(lambdas))


def table_rows(which: str, limit: int) -> list[TableRow]:
    """All rows of the degree-4 or degree-5 table with d < limit."""
    if which == "m4":
        m, dims = 4, dims_for_degree4(limit)
    elif which == "m5":
        m, dims = 5, dims_for_degree5(limit)
    else:
        raise ValueError(f"unknown table {which!r} (expected m4 or m5)")
    return [quadrature_row(m, d) for d in dims]


def _signed_zeros(row: TableRow) -> str:
    parts = [z if z == "0" else f"+-{z}" for z in row.zeros]
    return ", ".join(parts)


def render_table(rows: Sequence[TableRow], fmt: str) -> str:
    """One string in the requested format; csv is RFC 4180 with CRLF."""
    if fmt == "csv":
        buf = io.StringIO()
        width = max((len(r.zeros) for r in rows), default=0)
        header = ["d"]
        header += [f"zero{i + 1}" for i in range(width)]
        header += [f"lambda{i + 1}" for i in range(width)]
        writer = csv.writer(buf)
        writer.writerow(header)
        for r in rows:
            pad = [""] * (width - len(r.zeros))
            writer.writerow([r.d, *r.zeros, *pad, *r.lambdas, *pad])
        return buf.getvalue()
    if fmt == "json":
        payload = [
            {"d": r.d, "zeros": list(r.zeros), "lambdas": list(r.lambdas)}
            for r in rows
        ]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "markdown":
        lines = ["| d | zeros | lambdas |", "| --- | --- | --- |"]
        for r in rows:
            lines.append(
                f"| {r.d} | {_signed_zeros(r)} | {', '.join(r.lambdas)} |"
            )
        return "\n".join(lines) + "\n"
    if fmt == "text":
        cells = [
            (str(r.d), _signed_zeros(r), ", ".join(r.lambdas)) for r in rows
        ]
        widths = [
            max([len(h)] + [len(c[i]) for c in cells])
            for i, h in enumerate(("d", "zeros", "lambdas"))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(("d", "zeros", "lambdas"),
                                                 widths)).rstrip()
        ]
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths))
                         .rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
