"""Acceptance gate: eleven end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines as they complete.  The slowest case is the cubic-point screen
(criterion 7, a few minutes); everything else finishes in seconds.

Numeric oracles here recompute section polynomials and quadrature data
through an independent route (library Jacobi polynomials and arbitrary
precision root finding) and through direct perfect-square scans, never
through the code under test.
"""
import functools
import json
import random
from fractions import Fraction

import mpmath
import numpy as np
from sympy import Poly, Rational, Symbol, jacobi

import test_render
from mstiff.cli import main
from mstiff.diophantine import (
    dims_for_degree4,
    dims_for_degree5,
    fundamental_unit,
    mordell_ab_grid,
    mordell_point_stream,
    pell_representatives,
)
from mstiff.gegenbauer import kernel_value, moment, node_square_poly
from mstiff.search import classify_degree, classify_dimension
from mstiff.stiffness import (
    BoundExceeded,
    IrrationalRoot,
    n_upper_bound,
    s_poly,
    stiff_exists,
)

mpmath.mp.dps = 60


def criterion(num: int, label: str):
    """Prints the one-line verdict for an acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} [{label}]: FAIL")
                raise
            print(f"criterion {num:02d} [{label}]: PASS")

        return wrapper

    return deco


def _mpf(value) -> mpmath.mpf:
    f = Fraction(value)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


def _exact(x: mpmath.mpf) -> Fraction:
    """The exact binary value of x."""
    man, exp = x.man_exp
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if x < 0 else f


def _poly_roots(coeffs_ascending) -> list[mpmath.mpf]:
    coeffs = [_mpf(c) for c in reversed(list(coeffs_ascending))]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)
    return [r.real for r in roots]


# ---------------------------------------------------------------------------
# criteria 1 and 2: the two tables through the command line


@criterion(1, "degree-4 table to 1e8")
def test_degree4_table_reproduction(capsys):
    code = main(["classify", "--deg", "4", "--max-d", "100000000",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary["admissible"] == [
        2, 23, 241, 2399, 23761, 235223, 2328481, 23049599
    ]
    assert summary["complete"] is True
    rows = {c["d"]: c for c in lines[:-1]}
    # every weight pair must match the frozen table exactly
    for d, (_, lambdas) in test_render._TABLE4.items():
        assert tuple(rows[d]["lambdas"]) == lambdas, d
    assert rows[241]["lambdas"] == ["125/2651", "2401/5302"]


@criterion(2, "degree-5 table to 1e8")
def test_degree5_table_reproduction(capsys):
    code = main(["classify", "--deg", "5", "--max-d", "100000000",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert len(summary["admissible"]) == 15
    assert summary["admissible"][-1] == 59220746
    rows = {c["d"]: c for c in lines[:-1]}
    assert rows[4]["lambdas"] == ["1/12", "1/4", "1/3"]
    assert rows[26]["lambdas"] == ["5/273", "64/273", "45/91"]
    assert rows[124]["lambdas"][-1] == "1025/1953"
    for d, (_, lambdas) in test_render._TABLE5.items():
        assert tuple(rows[d]["lambdas"]) == lambdas, d


# ---------------------------------------------------------------------------
# criteria 3 to 5: dimension classifications at desk scale


@criterion(3, "even dims 8..60, even degrees = {2}")
def test_even_dimensions_even_degrees():
    for dim in range(8, 61, 2):
        c = classify_dimension(dim)
        assert c.complete, dim
        evens = [m for m in c.degrees if m % 2 == 0]
        assert evens == [2], (dim, evens)


@criterion(4, "even dims 12..60, odd degrees = {1,3} + (26,5)")
def test_even_dimensions_odd_degrees():
    for dim in range(12, 61, 2):
        c = classify_dimension(dim)
        assert c.complete, dim
        odds = [m for m in c.degrees if m % 2 == 1]
        expected = [1, 3, 5] if dim == 26 else [1, 3]
        assert odds == expected, (dim, odds)


@criterion(5, "odd dims 3..499 = {1,2,3} + (23,4) + (241,4,5)")
def test_odd_dimensions_full_classification():
    exceptions = {23: (1, 2, 3, 4), 241: (1, 2, 3, 4, 5)}
    for dim in range(3, 500, 2):
        c = classify_dimension(dim)
        assert c.complete, dim
        assert c.degrees == exceptions.get(dim, (1, 2, 3)), (dim, c.degrees)


# ---------------------------------------------------------------------------
# criterion 6: small dimensions, including the polygon route for dim 6


@criterion(6, "dims 4..10 exact, polygon route at dim 6")
def test_small_dimensions():
    assert classify_dimension(4).degrees == (1, 2, 3, 5)
    for dim in range(5, 11):
        c = classify_dimension(dim)
        assert c.complete, dim
        assert c.degrees == (1, 2, 3), dim
    # dimension 6, even degrees: the half-integer-slope threshold, and the
    # polygon itself when the shortcut is off
    six = classify_dimension(6)
    even_branch = next(b for b in six.branches if not b.odd_deg)
    assert even_branch.bound.tag == "half-integer-slope"
    verdict = stiff_exists(6, 6, use_bounds=False)
    assert not verdict.exists
    assert isinstance(verdict.witness, IrrationalRoot)
    assert verdict.witness.newton is not None
    assert not verdict.witness.newton.all_slopes_integer


# ---------------------------------------------------------------------------
# criterion 7: the cubic-point screen for degrees 6..10


@criterion(7, "degrees 6..10: cubic screen + sweep to 1e4, heuristic-complete")
def test_degrees_six_to_ten_screen():
    # candidate dimensions from every integer point on a y^2 = 2 + b x^3
    # with x up to 1e6, across the whole (a, b) grid
    a_vals, b_vals = mordell_ab_grid()
    assert (len(a_vals), len(b_vals)) == (16, 81)
    points = []
    for b in b_vals:
        points.extend(mordell_point_stream(b, 10**6))
    assert points, "the point stream found nothing; scan is broken"
    assert all(pt.a in a_vals for pt in points)

    derived = {n: set() for n in (3, 4, 5)}
    for pt in points:
        for n in (3, 4, 5):
            v = pt.a * pt.y * pt.y - 4 * n + 3
            for dim in (v - 1, v + 1, v + 3):
                if dim >= 3:
                    derived[n].add(dim)
    for m in range(6, 11):
        for dim in sorted(derived[m // 2]):
            assert not stiff_exists(m, dim).exists, (m, dim)

    # direct verdict sweep: no admissible dimension at all below 1e4
    for m in range(6, 11):
        hits = [d for d in range(3, 10**4 + 1) if stiff_exists(m, d).exists]
        assert hits == [], (m, hits)

    # the public report stays flagged as a bounded search, never complete
    report = classify_degree(6, scan_cap=200, cubic_x_bound=100)
    assert report.complete is False
    assert report.method == "bounded-search"
    assert any("unexplored" in line for line in report.evidence)


# ---------------------------------------------------------------------------
# criterion 8: section polynomial roots against library Jacobi zeros


@criterion(8, "independent root oracle, m<=12, dims<=40, 1e-45")
def test_root_oracle_equivalence():
    x = Symbol("x")
    tol = mpmath.mpf("1e-45")
    worst = mpmath.mpf(0)
    for m in range(2, 13):
        for dim in range(3, 41):
            alpha = Rational(dim - 3, 2)
            jac = Poly(jacobi(m, alpha, alpha, x), x)
            coeffs = [_mpf(Fraction(c.p, c.q)) for c in jac.all_coeffs()]
            zeros = mpmath.polyroots(coeffs, maxsteps=200, extraprec=80)
            positive = sorted(
                z.real for z in zeros if z.real > mpmath.mpf("1e-30")
            )
            oracle = sorted(1 / (z * z) for z in positive)
            ours = sorted(_poly_roots(s_poly(m, dim)))
            assert len(oracle) == len(ours) == m // 2, (m, dim)
            for a, b in zip(oracle, ours):
                worst = max(worst, abs(a - b))
    assert worst < tol, mpmath.nstr(worst, 5)


# ---------------------------------------------------------------------------
# criterion 9: quadrature invariants


@criterion(9, "quadrature positivity, mass, unimodality, moments")
def test_quadrature_invariants():
    tol = mpmath.mpf("1e-40")
    for n in range(1, 9):
        for m in (2 * n, 2 * n + 1):
            for dim in range(3, 31):
                squares = sorted(_poly_roots(node_square_poly(m, dim)))
                # the library weight, 1 / kernel, at each node's exact value
                weights = [
                    _mpf(1 / kernel_value(m, dim, _exact(t)))
                    for t in squares
                ]
                center = (
                    _mpf(1 / kernel_value(m, dim, Fraction(0)))
                    if m % 2 else None
                )
                assert all(w > 0 for w in weights), (m, dim)
                assert center is None or center > 0, (m, dim)
                total = 2 * sum(weights) + (center or 0)
                assert abs(total - 1) < tol, (m, dim)
                # weights grow toward the center (squares ascending here)
                for w1, w2 in zip(weights, weights[1:]):
                    assert w2 <= w1 * (1 + tol), (m, dim)
                if center is not None and weights:
                    assert center >= weights[0] * (1 - tol), (m, dim)
                for j in range(m):
                    got = 2 * sum(
                        w * t**j for w, t in zip(weights, squares)
                    )
                    if j == 0 and center is not None:
                        got += center
                    assert abs(got - _mpf(moment(j, dim))) < tol, (m, dim, j)

    # where the section squares are rational the whole rule is exact
    for m, dim in [(2, 7), (3, 19), (4, 23), (5, 26), (5, 124)]:
        verdict = stiff_exists(m, dim)
        assert verdict.exists
        quad = verdict.certificate.quadrature
        quad.verify(2 * m - 1)  # raises on any exact-moment failure


# ---------------------------------------------------------------------------
# criterion 10: unit layer against a direct perfect-square scan


def _square_scan(mult: int, off1: int, off2: int, limit: int) -> list[int]:
    d = np.arange(3, limit, dtype=np.int64)
    t = mult * (d + off1) * (d + off2)
    r = np.rint(np.sqrt(t.astype(np.float64))).astype(np.int64)
    hits = set()
    for cand in (r - 1, r, r + 1):
        mask = cand * cand == t
        hits.update(d[mask].tolist())
    return sorted(hits)


@criterion(10, "units, classes, streams vs direct scan to 1e7")
def test_unit_layer():
    u6 = fundamental_unit(6)
    assert (u6.x, u6.y, u6.norm) == (5, 2, 1)
    u10 = fundamental_unit(10)
    assert (u10.x, u10.y, u10.norm) == (3, 1, -1)
    assert [(r.x, r.y) for r in pell_representatives(6, 9)] == [(3, 0)]
    assert [(r.x, r.y) for r in pell_representatives(10, 9)] == [
        (3, 0), (7, -2), (7, 2)
    ]

    # recurrence streams against brute force: d+1 and d+2 (then d+4)
    # must make the corresponding discriminant a perfect square
    assert list(dims_for_degree4(10**7)) == [2] + _square_scan(6, 1, 2, 10**7)
    assert list(dims_for_degree5(10**7)) == [2] + _square_scan(10, 1, 4, 10**7)


# ---------------------------------------------------------------------------
# criterion 11: sampled degrees past every threshold refuse cleanly


@criterion(11, "20 sampled degrees past each threshold, dims<=30")
def test_bound_validity_sampling():
    rng = random.Random(20260822)
    for dim in range(3, 31):
        for odd_deg in (False, True):
            bound = n_upper_bound(dim, odd_deg)
            assert bound is not None
            for _ in range(20):
                n = bound.threshold + rng.randrange(0, 10**5)
                m = 2 * n + 1 if odd_deg else 2 * n
                verdict = stiff_exists(m, dim)
                assert not verdict.exists, (m, dim)
                assert isinstance(verdict.witness, BoundExceeded), (m, dim)
                assert verdict.witness.threshold <= n
