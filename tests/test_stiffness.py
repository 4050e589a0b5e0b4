"""Existence decision tests.

Anchor coefficients and verdicts were computed by hand from the rising
product formula before the implementation, and closed-form quadratures
serve as an independent second route everywhere the two meet.
"""
import functools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mstiff import exact_core, stiffness
from mstiff.diophantine import dims_for_degree4, dims_for_degree5
from mstiff.exact_core import factorize, poly_eval
from mstiff.gegenbauer import closed_form_quadrature, moment
from mstiff.stiffness import (
    BoundExceeded,
    IrrationalRoot,
    NonIntegerCoefficient,
    UndecidedError,
    n_upper_bound,
    newton_screen,
    s_coefficients,
    s_poly,
    scan_rejects,
    screen_coefficients,
    stiff_exists,
    stiff_params,
    top_coefficient_screen,
    verify_certificate,
)

F = Fraction


# --- coefficients --------------------------------------------------------

def test_coefficient_anchors():
    assert s_coefficients(4, 23) == [F(50), F(225)]
    assert s_coefficients(5, 26) == [F(20), F(64)]
    assert s_coefficients(5, 124) == [F(256, 3), F(3328, 3)]
    assert s_coefficients(2, 17) == [F(17)]
    for dim in (3, 8, 41):
        assert s_coefficients(3, dim) == [F(dim + 2, 3)]


def test_coefficient_u3_anchors():
    # first forbidden coefficient examples, frozen
    assert s_coefficients(6, 5)[2] == F(429, 5)
    assert s_coefficients(13, 8)[2] == F(14080, 7)
    assert s_coefficients(13, 10)[2] == F(18304, 7)
    assert s_coefficients(11, 10)[2] == F(7040, 7)


def test_s_poly_shape():
    p = s_poly(4, 23)
    assert p == (F(225), F(-50), F(1))
    assert poly_eval(p, 5) == 0 and poly_eval(p, 45) == 0
    q = s_poly(5, 124)
    assert poly_eval(q, 16) == 0 and poly_eval(q, F(208, 3)) == 0


def test_coefficients_by_independent_product():
    # direct evaluation of C(n,r) * rising product / odd-number product
    def direct(m, dim, r):
        p = stiff_params(m, dim)
        num = 1
        for j in range(r):
            num *= p.shift + 2 * j
        den = 1
        for j in range(1, r + 1):
            den *= 2 * j - 2 + p.denominator_step
        from math import comb

        return Fraction(comb(p.n, r) * num, den)

    for m in (2, 3, 4, 5, 8, 9, 12, 13):
        for dim in (3, 4, 7, 10, 23, 26):
            us = s_coefficients(m, dim)
            for r in range(1, m // 2 + 1):
                assert us[r - 1] == direct(m, dim, r), (m, dim, r)


def test_parity_shift_identity():
    # odd-degree coefficients in dim are even-degree ones in dim+2, scaled
    # down by the odd number 2r+1
    for n in (1, 2, 3, 5, 8):
        for dim in (3, 4, 10, 23):
            odd = s_coefficients(2 * n + 1, dim)
            even = s_coefficients(2 * n, dim + 2)
            for r in range(1, n + 1):
                assert odd[r - 1] == even[r - 1] / (2 * r + 1), (n, dim, r)


def test_closed_top_form_matches_product_route():
    # even-dimension closed form for u_n against the generic running product
    for dim in (4, 6, 8, 10, 12, 16, 26, 40, 62):
        for n in (1, 2, 3, 5, 10, 17, 50):
            for m in (2 * n, 2 * n + 1):
                from mstiff.stiffness import _closed_top_parts

                two, nums, dens = _closed_top_parts(n, dim, m % 2 == 1)
                closed = Fraction(2**two)
                for x in nums:
                    closed *= x
                for d in dens:
                    closed /= d
                assert closed == s_coefficients(m, dim)[-1], (m, dim)


# --- screens -------------------------------------------------------------

def test_screen_detects_first_offender():
    w = screen_coefficients(6, 5)
    assert w is not None
    assert w.index == 3
    assert w.prime == 5
    assert w.value == F(429, 5)


def test_screen_odd_degree_three_allowance():
    # u_1 = (dim+2)/3 is allowed at index 1 for odd degrees
    assert screen_coefficients(3, 3) is None
    # denominators 3 within the per-index budget
    assert screen_coefficients(5, 124) is None


def test_screen_passes_on_integral_cases():
    for m, dim in [(4, 23), (5, 26), (12, 4), (2, 9)]:
        assert screen_coefficients(m, dim) is None


def newton_exponents(m, dim):
    """q -> (ord_q(u_1), ..., ord_q(u_n)) for each prime whose polygon
    newton_screen builds, read off that polygon's points: (r + 1, ord_q of
    the cleared u_r), where clearing multiplies an odd degree's u_r by
    3^r."""
    p = stiff_params(m, dim)
    built = []
    build = stiffness.newton_polygon_from_valuations

    def spy(vals, q):
        built.append(build(vals, q))
        return built[-1]

    with patch.object(stiffness, "newton_polygon_from_valuations", spy):
        stiffness.newton_screen(m, dim)
    out = {}
    for polygon in built:
        q, points = polygon.prime, polygon.points[2:]
        assert [x for x, _ in points] == list(range(2, p.n + 2))
        out[q] = tuple(v - (r if p.odd and q == 3 else 0)
                       for r, (_, v) in enumerate(points, 1))
    return out


def test_screen_valuations_track_orders():
    ords = newton_exponents(4, 23)
    us = s_coefficients(4, 23)  # 50, 225
    assert ords[2] == (1, 0)
    assert ords[5] == (2, 2)
    for prime in (2, 3, 5):
        for u, v in zip(us, ords[prime]):
            assert factorize(u.numerator).get(prime, 0) == v


# sympy's factorint is the twin's oracle, so the twin shares no
# factoring code with the screen; cached, since step factors recur
sympy_factors = functools.lru_cache(maxsize=1 << 16)(sympy.factorint)


def product_walk_screen(m, dim, track_primes=(2, 3, 5)):
    """Slow twin of screen_coefficients and of newton_screen's exponents:
    multiply each step's factors before factoring them, and test every
    exponent after every step.  A witness is (r, prime, valuation, exps),
    u_r = prod(q^exps[q]) over the full factorization; without one, the
    exponents of u_1..u_n at each tracked prime."""
    p = stiff_params(m, dim)
    exps: dict[int, int] = {}
    tracks = {q: [] for q in track_primes}
    for r in range(1, p.n + 1):
        num = (p.n - r + 1) * (p.shift + 2 * r - 2)
        den = r * (2 * r - 2 + p.denominator_step)
        for q, e in sympy_factors(num).items():
            exps[q] = exps.get(q, 0) + e
        for q, e in sympy_factors(den).items():
            exps[q] = exps.get(q, 0) - e
        bad = sorted(
            q for q, e in exps.items() if e < 0 and not (p.odd and q == 3)
        )
        if not bad and p.odd and exps.get(3, 0) < -r:
            bad = [3]
        if bad:
            return (r, bad[0], exps[bad[0]], exps), None
        for q in track_primes:
            tracks[q].append(exps.get(q, 0))
    return None, {q: tuple(v) for q, v in tracks.items()}


def assert_witness_matches_twin(w, twin):
    """The screen's witness against the twin's: a value it prints is
    exactly u_r, and it prints one whenever the full factorization's size
    (the sum of |e| * bitlen(q)) is within the 2048-bit cap."""
    r, prime, valuation, exps = twin
    assert (w.index, w.prime, w.valuation) == (r, prime, valuation)
    value = math.prod(Fraction(q) ** e for q, e in exps.items())
    if sum(abs(e) * q.bit_length() for q, e in exps.items()) <= 2048:
        assert w.value == value
    else:
        assert w.value is None or w.value == value


def assert_screen_matches_product_walk(m, dim):
    w = screen_coefficients(m, dim)
    witness, valuations = product_walk_screen(m, dim)
    if witness is None:
        assert w is None
        ords = newton_exponents(m, dim)
        assert 2 in ords
        assert ords == {q: valuations[q] for q in ords}
    else:
        assert_witness_matches_twin(w, witness)


@given(st.integers(2, 400), st.integers(3, 600))
def test_screen_matches_product_walk(m, dim):
    # both degree parities, so the odd-degree 3-allowance is exercised
    assert_screen_matches_product_walk(m, dim)


@given(st.integers(2, 40), st.integers(3, 10**25))
def test_screen_matches_product_walk_for_large_dimensions(m, dim):
    # step factors far past the 2^16 table, so the walk keeps rough
    # cofactors
    assert_screen_matches_product_walk(m, dim)


def assert_rejects_matches_witness(m, dim):
    p = stiff_params(m, dim)
    assert scan_rejects(dim, p.odd, (p.n,)) == [
        screen_coefficients(m, dim) is not None
    ], (m, dim)


@given(st.integers(2, 400), st.integers(3, 600))
def test_screen_rejects_matches_its_witness_twin(m, dim):
    assert_rejects_matches_witness(m, dim)


@given(st.integers(2, 40), st.integers(3, 10**25))
def test_screen_rejects_matches_its_witness_twin_for_large_dimensions(m, dim):
    assert_rejects_matches_witness(m, dim)


# bit limits for the carried walk: 0 hands every walk that passes step 1
# to the factored walk, NO_HANDOVER keeps every walk of these sizes carried
NO_HANDOVER = 1 << 30
CARRY_LIMITS = (0, 16, 256, stiffness._CARRY_BIT_LIMIT, NO_HANDOVER)


def assert_carried_walk_matches_factored(m, dim, limit):
    hit = stiffness._first_bad_step(stiff_params(m, dim))
    factored = hit[0] if hit else None
    report = screen_coefficients(m, dim)
    p = stiff_params(m, dim)
    carried = stiffness._carried_walk(p.n, p.shift, p.odd, limit)
    with patch.object(stiffness, "_CARRY_BIT_LIMIT", limit):
        (rejects,) = scan_rejects(dim, p.odd, (p.n,))
        assert screen_coefficients(m, dim) == report, (m, dim, limit)
    if carried == stiffness._HANDED_OVER:
        assert limit < NO_HANDOVER, (m, dim)
    else:
        assert carried == factored, (m, dim, limit)
    assert rejects == (factored is not None), (m, dim, limit)


@given(st.integers(2, 400), st.integers(3, 600),
       st.sampled_from(CARRY_LIMITS))
@example(2**17 + 1, 4, stiffness._CARRY_BIT_LIMIT)  # hands over by itself
def test_carried_walk_matches_the_factored_walk(m, dim, limit):
    # both degree parities, on both sides of the handover
    assert_carried_walk_matches_factored(m, dim, limit)


@given(st.integers(2, 40), st.integers(3, 10**25),
       st.sampled_from(CARRY_LIMITS))
def test_carried_walk_matches_the_factored_walk_for_large_dimensions(
    m, dim, limit
):
    assert_carried_walk_matches_factored(m, dim, limit)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 600), st.booleans(), st.integers(1, 300),
       st.integers(0, 40), st.sampled_from(CARRY_LIMITS))
def test_scan_rejects_matches_the_screen_cell_by_cell(
    dim, odd_deg, lo, count, limit
):
    # the batch kernel against the one-cell screen with its witness, on a
    # run of n; the step divisors start empty, so they grow mid-batch,
    # and the low limits hand walks over inside the batch
    ns = range(lo, lo + count)
    twin = [
        screen_coefficients(2 * n + odd_deg, dim) is not None
        for n in ns
    ]
    fresh = {False: (0,), True: (0,)}
    with patch.object(stiffness, "_CARRY_BIT_LIMIT", limit), \
            patch.dict(stiffness._STEP_DIVISORS, fresh):
        assert stiffness.scan_rejects(dim, odd_deg, ns) == twin, (
            dim, odd_deg, lo, count, limit)


def test_deep_walk_hands_over_to_the_factored_walk():
    # u_r outgrows the bit limit long before the bad step 2^15
    p = stiff_params(2**17 + 1, 4)
    limit = stiffness._CARRY_BIT_LIMIT
    assert stiffness._carried_walk(p.n, p.shift, p.odd, limit) == (
        stiffness._HANDED_OVER)
    assert stiffness._first_bad_step(p)[0] == 2**15


@settings(max_examples=40)
@given(st.integers(2**15, 2**17), st.booleans(), st.integers(3, 600))
@example(2**15, False, 4)  # no witness: every divisor stays below 2^16
@example(2**16, False, 4)  # n itself is 2^16, one past the table
@example(2**16, True, 4)  # u_32768 divides by 2r + 1 = 65537
@example(2**16, False, 6)  # u_32769 divides by 2r - 1 = 65537
def test_screen_rejects_across_the_table_edge(n, odd_deg, dim):
    # step factors on both sides of 2^16, where the walk leaves the
    # least-factor table for smooth_part
    m = 2 * n + 1 if odd_deg else 2 * n
    assert_rejects_matches_witness(m, dim)
    w = screen_coefficients(m, dim)
    if w is not None and w.index <= 64:
        assert_witness_matches_twin(w, product_walk_screen(m, dim)[0])


@pytest.mark.parametrize("m, dim, index", [
    (2**17 + 1, 4, 2**15), (2**17, 6, 2**15 + 1),
])
def test_witness_prime_past_the_table_edge(m, dim, index):
    # the divisor 65537 is prime and no numerator factor before it holds it
    w = screen_coefficients(m, dim)
    assert (w.index, w.prime, w.valuation) == (index, 65537, -1)


@settings(max_examples=300)
@given(st.integers(2, 400), st.integers(3, 10**12))
def test_screen_walk_does_not_depend_on_the_table_edge(m, dim):
    # with the table cut to 4, every step factor from 4 up goes through
    # smooth_part, as factors from 2^16 up do with the real table
    before = screen_coefficients(m, dim)
    with patch.object(stiffness, "_SMALL_PRIME_LIMIT", 4):
        assert screen_coefficients(m, dim) == before


def test_witness_sieve_stops_at_the_root_of_the_largest_factor(monkeypatch):
    # large n in small even dimensions: B = 2n - 2 + step reaches 4 * 10^5,
    # but every step factor is at most shift + 2n - 2, so trial division
    # up to its root splits each one whole, and no sieve is built past it
    rng = random.Random(19)
    cells = [(2 * rng.randrange(2000, 200_000) + rng.randrange(2),
              2 * rng.randrange(32, 82)) for _ in range(12)]
    bounds = []
    original = exact_core._primes_upto

    def spy(bound):
        bounds.append(bound)
        return original(bound)

    monkeypatch.setattr(exact_core, "_primes_upto", spy)
    sieved = 0
    for m, dim in cells:
        p = stiff_params(m, dim)
        bounds.clear()
        r, exps, rough = stiffness._first_bad_step(p)
        # only a factor of 2^16 or more is trial-divided
        sieved += bool(bounds)
        root = math.isqrt(p.shift + 2 * p.n - 2)
        assert all(b <= min(root, 2 * p.n + 1) for b in bounds), (m, dim)
        # no prime up to B, nor any other, is left in a cofactor
        assert rough == []
        witness = screen_coefficients(m, dim)
        twin = product_walk_screen(m, dim)[0]
        assert_witness_matches_twin(witness, twin)
        assert {q: e for q, e in exps.items() if e} == {
            q: e for q, e in twin[3].items() if e}
    assert sieved >= 6


@pytest.fixture
def prime_calls(monkeypatch):
    """Every call to the Miller-Rabin test while a test runs."""
    calls = []
    original = exact_core.is_probable_prime

    def spy(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(exact_core, "is_probable_prime", spy)
    return calls


# (m, dim, value left out): witnesses u_r with rough cofactors, on both
# sides of the 2048-bit cap.  The value's size is the bits of its split
# primes plus the bit length of each rough cofactor; the full
# factorization, which nothing computes, would put the last two rows
# over the cap
HARD_COFACTOR_CELL = (42, 1000065439976693494941461924961)
CAP_CELLS = [
    (20, 10**25, False),  # u_6, far under the cap
    (26, 10**25 + 57, False),  # u_13
    (42, 23347662034420077269540586, False),  # u_21
    (42, 1000052326906235806952858484336, True),  # u_21, over the cap
    (42, 1000091666117608870918668806211, False),  # u_21
    (*HARD_COFACTOR_CELL, False),  # u_21
]


@pytest.mark.parametrize("m, dim, left_out", CAP_CELLS)
def test_witness_value_on_each_side_of_the_cap(m, dim, left_out, prime_calls):
    w = screen_coefficients(m, dim)
    assert (w.value is None) == left_out
    assert prime_calls == []
    assert_screen_matches_product_walk(m, dim)


def test_witness_value_is_sized_without_factoring():
    # factoring this cell's rough cofactors to size its value takes about
    # a second by Pollard rho; their bit lengths take well under 1 ms
    times = []
    for _ in range(3):
        start = time.perf_counter()
        w = screen_coefficients(*HARD_COFACTOR_CELL)
        times.append(time.perf_counter() - start)
    assert w.value is not None
    assert min(times) < 0.010


def test_screen_calls_no_probable_prime_code_on_the_streams(prime_calls):
    # the degree-4 and degree-5 stream dimensions past 3.3e24, where the
    # fixed-base Miller-Rabin test stops being proven, and their
    # neighbours; their witness values are far below the cap's band
    streams = {4: dims_for_degree4(10**27), 5: dims_for_degree5(10**27)}
    cells = [
        (m, d + k) for m, dims in streams.items() for d in dims
        if d > 33 * 10**23 for k in range(-2, 3)
    ]
    assert len(cells) == 30
    for m, dim in cells:
        screen_coefficients(m, dim)
        assert prime_calls == [], (m, dim)
        stiff_exists(m, dim)
        # only the Newton screen's check that 2, 3 and 5 are primes
        assert set(prime_calls) <= {2, 3, 5}, (m, dim)
        prime_calls.clear()


def test_screen_walk_calls_no_probable_prime_code_past_the_table(
    prime_calls,
):
    # n from 2^15 up, so step factors reach past 2^16; the walk splits
    # them with smooth_part, and the witness value is sized by bit lengths
    cells = [
        (2 * n + odd, dim)
        for n in (2**15, 2**15 + 1, 2**16 - 1, 2**16, 2**16 + 1, 99_991,
                  2**17 - 1, 2**17)
        for odd in (0, 1) for dim in (3, 5, 10, 23, 100, 399, 600)
    ]
    decided = 0
    for m, dim in cells:
        w = screen_coefficients(m, dim)
        scan_rejects(dim, m % 2 == 1, (m // 2,))
        assert prime_calls == [], (m, dim)
        decided += w is not None and w.value is not None
    assert decided >= 100


def test_odd_degree_three_allowance_is_never_exceeded():
    # ord_3 of the denominator 3*5*...*(2r+1) is at most r, and C(n, r)
    # times the rising product is an integer, so ord_3(u_r) >= -r; the
    # twin checks that allowance explicitly and must never reject on it,
    # which is why screen_coefficients carries no such check
    for m in range(3, 402, 2):
        for dim in range(3, 601):
            witness, _ = product_walk_screen(m, dim, track_primes=())
            assert witness is None or witness[1] != 3, (m, dim)


@pytest.mark.parametrize("m, dim", [(1233, 4), (1184, 6)])
def test_screen_matches_product_walk_past_the_value_cap(m, dim):
    assert_screen_matches_product_walk(m, dim)
    assert screen_coefficients(m, dim).value is None


def test_top_screen_agrees_with_full_screen():
    # on even dimensions the modular top screen must never contradict the
    # factored screen at indices n, n-1, n-2
    for dim in (4, 6, 8, 10, 12, 16, 26):
        for m in range(2, 40):
            top = top_coefficient_screen(m, dim)
            full = screen_coefficients(m, dim)
            n = m // 2
            if top is not None:
                assert full is not None, (m, dim)
                assert full.index <= top.index
            elif full is not None:
                # full screen may fail at small indices the top screen
                # does not look at
                assert full.index < n - 2 or n < 3, (m, dim)


def test_top_screen_runs_only_where_it_is_cheap():
    # its modulus grows over about dim/4 factors, so at dim 10^6 the top
    # screen alone takes about a minute; the full screen decides the cell
    # at step 7, and the top screen still decides below the dimension limit
    t0 = time.perf_counter()
    verdict = stiff_exists(200, 10**6)
    assert time.perf_counter() - t0 < 1
    assert (verdict.witness.index, verdict.witness.prime) == (7, 13)
    below = stiff_exists(200, stiffness._TOP_SCREEN_DIM_LIMIT - 2).witness
    assert (below.index, below.prime) == (100, None)


def test_top_screen_past_its_dimension_limit_is_undecided(monkeypatch):
    # past the full-screen budget only the top screen could decide, and its
    # factor lists grow with dim: at dim 10^25 the cell is undecided at once
    t0 = time.perf_counter()
    with pytest.raises(UndecidedError, match="top screen's limit"):
        stiff_exists(400002, 10**25)
    assert time.perf_counter() - t0 < 1
    # the limit is inclusive, and below it the top screen still decides
    monkeypatch.setattr(stiffness, "_TOP_SCREEN_MAX_DIM", 1000)
    assert stiff_exists(400002, 1000).witness.index == 200001
    with pytest.raises(UndecidedError, match="top screen's limit 1000"):
        stiff_exists(400002, 1002)


def test_newton_screen_power_of_two_family():
    # dim 6: degrees with n = 2^l - 1 pass the coefficient screen but trip
    # the polygon at p=2 with slope 3/2
    assert screen_coefficients(14, 6) is None
    assert s_coefficients(14, 6)[:3] == [F(126), F(2520), F(18480)]
    polygon = newton_screen(14, 6)
    assert polygon is not None
    assert polygon.prime == 2
    assert F(3, 2) in polygon.slopes

    assert screen_coefficients(30, 6) is None
    polygon30 = newton_screen(30, 6)
    assert polygon30 is not None and not polygon30.all_slopes_integer


def test_newton_screen_none_on_existing():
    assert newton_screen(4, 23) is None
    assert newton_screen(5, 26) is None


# --- bounds --------------------------------------------------------------

def test_bound_table():
    assert n_upper_bound(2, False) is None
    assert n_upper_bound(5, False).threshold == 15
    assert n_upper_bound(5, True).threshold == 19
    assert n_upper_bound(4, False).threshold == 6
    assert n_upper_bound(4, True).threshold == 3
    assert n_upper_bound(6, False).threshold == 2
    assert n_upper_bound(8, False).threshold == 31
    assert n_upper_bound(8, True).threshold == 2
    assert n_upper_bound(10, False).threshold == 16
    assert n_upper_bound(12, False).threshold == 36
    assert n_upper_bound(14, False).threshold == 106
    assert n_upper_bound(12, True).threshold == 10391
    assert n_upper_bound(14, True).threshold == 4153
    assert n_upper_bound(16, False).threshold == 9 * 7 * 5 + 1
    assert n_upper_bound(16, True).threshold == 13 * 11 * 9 * 7 + 1
    assert n_upper_bound(16, True).conservative


# --- decisions -----------------------------------------------------------

def test_exists_small_examples():
    v = stiff_exists(4, 23)
    assert v.exists
    assert v.certificate.s_roots == (F(5), F(45))
    assert v.certificate.quadrature.pairs == (
        (F(1, 45), F(81, 184)),
        (F(1, 5), F(11, 184)),
    )

    v5 = stiff_exists(5, 26)
    assert v5.exists
    assert v5.certificate.quadrature.center_weight == F(45, 91)

    v124 = stiff_exists(5, 124)
    assert v124.exists
    assert v124.certificate.s_roots == (F(16), F(208, 3))
    assert v124.certificate.quadrature.center_weight == F(1025, 1953)


def test_exists_degenerate_degrees():
    for dim in (2, 3, 4, 9, 100):
        assert stiff_exists(1, dim).exists
        assert stiff_exists(2, dim).exists
        assert stiff_exists(3, dim).exists


def test_exists_dim_two_all_degrees():
    for m in range(1, 12):
        v = stiff_exists(m, 2)
        assert v.exists
        if m > 1:
            assert v.certificate.kind == "equal-weight"
            assert v.certificate.equal_weight == F(1, m)


def test_not_exists_witness_kinds():
    # coefficient screen: u_2 = 728/3 at dim 24
    v = stiff_exists(4, 24)
    assert not v.exists
    assert isinstance(v.witness, NonIntegerCoefficient)
    assert v.witness.index == 2 and v.witness.prime == 3

    # Newton polygon at p=2: S = X^2 - 20X + 40 at dim 8 has slope 3/2
    v8 = stiff_exists(4, 8)
    assert not v8.exists
    assert isinstance(v8.witness, IrrationalRoot)
    assert v8.witness.newton is not None
    assert F(3, 2) in v8.witness.newton.slopes

    # rational-root failure: S = X^2 - 54X + 261 at dim 25 passes all
    # polygon screens but has discriminant 1872, not a square
    v25 = stiff_exists(4, 25)
    assert not v25.exists
    assert isinstance(v25.witness, IrrationalRoot)
    assert v25.witness.root_witness is not None
    assert v25.witness.root_witness.kind == "isolated-interval"

    # Newton polygon: dim 6, degree 14
    v6 = stiff_exists(14, 6, use_bounds=False)
    assert not v6.exists
    assert isinstance(v6.witness, IrrationalRoot)
    assert v6.witness.newton is not None

    # bound shortcut
    vb = stiff_exists(14, 6)
    assert not vb.exists
    assert isinstance(vb.witness, BoundExceeded)
    assert vb.witness.tag == "half-integer-slope"


def test_dim4_power_of_two_behaviour():
    # every coefficient is integral in dim 4, so refusal must come from the
    # root step; with bounds on, the shortcut answers instead
    v = stiff_exists(12, 4, use_bounds=False)
    assert not v.exists
    assert isinstance(v.witness, IrrationalRoot)
    vb = stiff_exists(12, 4)
    assert isinstance(vb.witness, BoundExceeded)
    assert vb.witness.tag == "power-of-two-roots"
    # below the threshold the pipeline must find the real answers
    assert stiff_exists(4, 4).exists == (
        closed_form_quadrature(4, 4)[0][0][0].is_rational
    )


def test_exists_matches_closed_form_discriminant():
    # degree 4 exists exactly when 6(dim+1)(dim+2) is a perfect square;
    # degree 5 exactly when 10(dim+1)(dim+4) is (dim > 2)
    import math

    for dim in range(3, 300):
        disc4 = 6 * (dim + 1) * (dim + 2)
        expect4 = math.isqrt(disc4) ** 2 == disc4
        assert stiff_exists(4, dim).exists == expect4, dim
        disc5 = 10 * (dim + 1) * (dim + 4)
        expect5 = math.isqrt(disc5) ** 2 == disc5
        assert stiff_exists(5, dim).exists == expect5, dim


def test_certificates_match_closed_forms():
    for m, dim in [(4, 23), (4, 241), (5, 26), (5, 4), (3, 7), (2, 11)]:
        v = stiff_exists(m, dim)
        assert v.exists
        pairs, center = closed_form_quadrature(m, dim)
        got = v.certificate.quadrature
        assert got.pairs == tuple(
            (s.to_fraction(), w.to_fraction()) for s, w in pairs
        )
        if center is None:
            assert got.center_weight is None
        else:
            assert got.center_weight == center.to_fraction()


def test_certificate_tampering_detected():
    from dataclasses import replace

    v = stiff_exists(4, 23)
    cert = v.certificate
    bad_quad = replace(
        cert.quadrature,
        pairs=((F(1, 45), F(81, 184)), (F(1, 5), F(12, 184))),
    )
    with pytest.raises(ValueError):
        verify_certificate(replace(cert, quadrature=bad_quad))


@given(
    # m >= 4: for m = 2, 3 the polynomial T is linear and always splits
    st.integers(4, 60),
    st.one_of(st.integers(3, 400), st.integers(3, 10**25)),
)
@example(4, 25)
@example(10, 4)
@example(12, 4)
@example(4, 23)
@example(5, 26)
@settings(max_examples=300)
def test_nonsplit_prime_never_refuses_an_existing_cell(m, d):
    # a prime at which the cleared section polynomial T has fewer roots
    # than its degree refuses the cell, and Sturm isolation agrees that T
    # does not split over Z; this reads T directly, so it holds whatever
    # the screens before it decide
    poly = s_poly(m, d)
    allowed = stiff_params(m, d).allowed_denominators
    cleared = exact_core.clear_denominators(poly, allowed)
    if isinstance(cleared, exact_core.RootWitness):
        return
    prime = exact_core.nonsplit_prime(cleared[1])
    if prime is None:
        return
    assert not stiff_exists(m, d, use_bounds=False).exists
    assert not exact_core.rational_roots(poly, allowed).all_rational


def test_root_certification_cells_carry_their_prime():
    # the prime decides; the Sturm witness `exists` renders is built when
    # read, and Sturm still finds the roots of an existing cell
    v = stiff_exists(4, 25)
    assert (v.witness.prime, v.witness.cell) == (5, (4, 25))
    with patch.object(stiffness, "rational_roots",
                      side_effect=exact_core.rational_roots) as sturm:
        assert stiff_exists(10, 4, use_bounds=False).witness.prime == 5
        assert sturm.call_count == 0
        assert v.witness.root_witness.kind == "isolated-interval"
        assert v.witness.root_witness is v.witness.root_witness
        assert sturm.call_count == 1
        assert stiff_exists(4, 23).exists
        assert sturm.call_count == 2
        # (4, 271) splits modulo every prime tried: Sturm decides it, and
        # the witness it built is the one read, not built again
        w = stiff_exists(4, 271).witness
        assert (w.prime, sturm.call_count) == (None, 3)
        assert w.root_witness.kind == "isolated-interval"
        assert sturm.call_count == 3
    assert stiff_exists(4, 8).witness.root_witness is None  # Newton


def test_root_witness_contradiction_survives_optimize_flag():
    # a refusal whose section polynomial Sturm finds to have only allowed
    # roots is a contradiction; it must raise even under python -O, where
    # assert statements are stripped
    script = (
        "from mstiff.stiffness import IrrationalRoot\n"
        "try:\n"
        "    IrrationalRoot(prime=5, cell=(4, 23)).root_witness\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: root certification refused m=4")


def test_sturm_decides_what_the_primes_leave(monkeypatch):
    # with no prime found, Sturm isolation decides and the same witness
    # renders, so the primes only move time, never a verdict or a witness
    cells = [(m, d) for m in range(4, 13) for d in range(3, 120)]
    fast = [stiff_exists(m, d) for m, d in cells]
    monkeypatch.setattr(stiffness, "nonsplit_prime", lambda T: None)
    slow = [stiff_exists(m, d) for m, d in cells]
    decided = 0
    for a, b in zip(fast, slow):
        assert a.exists == b.exists
        if isinstance(a.witness, IrrationalRoot) and a.witness.cell:
            decided += a.witness.prime is not None
            assert b.witness.prime is None
            assert a.witness.root_witness == b.witness.root_witness
    assert decided > 50


def test_undecided_raises_instead_of_guessing():
    # dim 4 passes every screen at any degree; past the full-screen budget
    # with bounds off the decision must refuse rather than fabricate
    with pytest.raises(UndecidedError):
        stiff_exists(2 * 300_001, 4, use_bounds=False)


def test_bound_shortcut_only_with_flag():
    v = stiff_exists(40, 5)
    assert not v.exists and isinstance(v.witness, BoundExceeded)
    v_explicit = stiff_exists(40, 5, use_bounds=False)
    assert not v_explicit.exists
    assert not isinstance(v_explicit.witness, BoundExceeded)


def test_window_past_bounds_stays_empty():
    # spot windows just past each threshold: the explicit pipeline must
    # refuse every degree there, validating the shortcut
    cases = [(5, False), (5, True), (4, False), (4, True), (6, True), (8, True)]
    for dim, odd in cases:
        th = n_upper_bound(dim, odd).threshold
        for n in range(th, th + 6):
            m = 2 * n + (1 if odd else 0)
            v = stiff_exists(m, dim, use_bounds=False)
            assert not v.exists, (m, dim)


def test_moments_of_certificates():
    # certificate quadratures integrate low moments exactly
    v = stiff_exists(5, 124)
    quad = v.certificate.quadrature
    for j in range(5):
        total = sum((2 * w * s**j for s, w in quad.pairs), F(0))
        if j == 0:
            total += quad.center_weight
        assert total == moment(j, 124)
