"""Classification pipeline tests.

Candidate sets for the worked dimensions were recomputed by hand from the
offset products before the implementation; classification outcomes were
frozen only after cross-checking each degree against the recurrence
streams and the direct decision procedure.
"""
import bisect
import gc
import hashlib
import math
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mstiff import exact_core, search, stiffness
from mstiff.diophantine import dims_for_degree4, dims_for_degree5
from mstiff.search import (
    _decide_candidates,
    _offset_window_bound,
    _window_survivors,
    classify_degree,
    classify_dimension,
    divisor_candidates,
    resolve_theorem_tag,
    theorem_tags,
    verify_theorem,
)
from mstiff.stiffness import (
    UndecidedError,
    _closed_top_parts,
    bound_if_exceeded,
    n_upper_bound,
    screen_coefficients,
    stiff_exists,
    top_coefficient_screen,
)


# --- slow twins of the prime window ----------------------------------------

def _offset_products(dim, odd_deg):
    """(theta, P_theta) for every denominator factor n + theta of the top
    coefficient u_n, read off stiffness._closed_top_parts at n = 0 (why
    n + theta must divide P_theta: search._offset_window_bound)."""
    _, odds, thetas = _closed_top_parts(0, dim, odd_deg)
    return [(theta, math.prod(c - 2 * theta for c in odds))
            for theta in thetas]


def _offset_cascade_rejects(n, offsets, odd_deg):
    """Whether some offset's necessity fails for n: the part of n + theta
    prime to 2 (and to 3 for odd degrees) does not divide P_theta."""
    for theta, prod in offsets:
        core = n + theta
        core //= core & -core
        if odd_deg:
            while core % 3 == 0:
                core //= 3
        if prod % core:
            return True
    return False


def _twin_route_rows(dim, odd_deg, ns):
    """Rows of the per-n cascade route: the cascade, then the batch screen
    on what it leaves, then stiff_exists without bounds."""
    offsets = _offset_products(dim, odd_deg)
    left = [n for n in ns if not _offset_cascade_rejects(n, offsets, odd_deg)]
    screened = dict(zip(left, stiffness.scan_rejects(dim, odd_deg, left)))
    rows = []
    for n in ns:
        m = 2 * n + 1 if odd_deg else 2 * n
        if screened.get(n, True):
            rows.append((n, m, "coefficient-screen"))
            continue
        try:
            status = stiff_exists(m, dim, use_bounds=False).stage
        except UndecidedError:
            status = "unresolved"
        rows.append((n, m, status))
    return rows


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(2, 200).map(lambda h: 2 * h),
    odd_deg=st.booleans(),
    ns=st.lists(st.integers(2, 20_000), min_size=1, max_size=40),
)
def test_window_rejection_implies_cascade_rejection(dim, odd_deg, ns):
    ns = sorted(set(ns))
    survivors = _window_survivors(dim, odd_deg, ns)
    offsets = _offset_products(dim, odd_deg)
    for n in ns:
        if n not in survivors:
            assert _offset_cascade_rejects(n, offsets, odd_deg), (n, dim)


def _map_rows(dim, odd_deg, ns):
    """Rows of _decide_candidates over ns: its stage for each n it keeps,
    coefficient-screen for every other n."""
    decided = _decide_candidates(dim, odd_deg, ns)
    assert set(decided) <= set(ns)
    return [(n, 2 * n + 1 if odd_deg else 2 * n,
             decided.get(n, "coefficient-screen")) for n in ns]


def test_decided_rows_match_the_twin_route_in_even_dimensions():
    for dim in range(4, 201, 2):
        for b in classify_dimension(dim).branches:
            ns = tuple(r.n for r in b.candidates)
            rows = [(r.n, r.m, r.status) for r in b.candidates]
            twin = _twin_route_rows(dim, b.odd_deg, ns)
            assert rows == twin, (dim, b.odd_deg)
            assert set(b.decided) == {
                n for n, _, status in twin if status != "coefficient-screen"
            }, (dim, b.odd_deg)


def test_window_edge_cases():
    ns = range(2, 60)
    # dimension 4, even degrees: no offsets, so no window rejects any n
    assert _window_survivors(4, False, ns) >= set(ns)
    # dimensions 4 and 6, odd degrees: one offset each (1 and 2) with the
    # empty product P_theta = 1; 3 is allowed in the denominator, so only
    # multiples of primes q >= 5 reject, and n = 2 (degree 5 in dimension
    # 4) survives
    for dim, theta in ((4, 1), (6, 2)):
        assert _offset_products(dim, True) == [(theta, 1)]
        left = _window_survivors(dim, True, ns)
        assert {n for n in ns if n in left} == {
            n for n in ns if max(sympy.primefactors(n + theta)) < 5
        }, dim
    assert 2 in _window_survivors(4, True, [2])
    rows = _map_rows(4, True, ns)
    existing = [m for _, m, status in rows if status == "exists"]
    assert rows[0] == (2, 5, "exists") and existing == [5]
    assert _window_survivors(4, True, []) == set()


def test_window_sieve_stays_out_of_the_walk_cache():
    # the coefficient walks share the lru_cache of _primes_upto; a scan's
    # sieve is its own, and d = 600 sieves past 2^16, where a cached tuple
    # would outgrow SMALL_PRIMES and stay held.  The cache's keys are read
    # off its dict (CPython keeps a lone int argument as the key itself)
    cached = exact_core._primes_upto

    def cached_bounds():
        (cache,) = [r for r in gc.get_referents(cached)
                    if isinstance(r, dict) and all(type(k) is int for k in r)]
        return list(cache)

    cached.cache_clear()
    ns = range(2, search._offset_window_bound(600, False))
    assert max(ns) > exact_core._SMALL_PRIME_LIMIT
    classify_dimension(600)
    assert all(len(cached(bound)) <= len(exact_core.SMALL_PRIMES)
               for bound in cached_bounds())
    cached(7)  # the keys read are the cache's
    assert 7 in cached_bounds()


def test_dimension_scan_keeps_no_row_per_n():
    # a branch holds its scanned range and the n the screens leave to the
    # full decision, not one row per scanned n (81,302 and 49,454 n here)
    tracemalloc.start()
    try:
        c = classify_dimension(600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(b.scanned) for b in c.branches] == [81_302, 49_454]
    assert peak < 8 * 2**20


# --- divisor-product candidate sets --------------------------------------

def test_even_deg_candidates_dim10():
    c = divisor_candidates(10, False)
    assert c.thetas == (2, 3)
    assert c.products == (3, 15)
    # divisors of 15 shifted by 3: 5 -> 2, 15 -> 12; nothing from 3
    assert c.candidates == (2, 12)
    assert c.divisor_count == 6


def test_even_deg_candidates_dim12_dim14():
    c = divisor_candidates(12, False)
    assert c.thetas == (3, 4)
    assert c.products == (15, 35)
    assert c.candidates == (2, 3, 12, 31)
    c = divisor_candidates(14, False)
    assert c.products == (-15, -105)
    assert c.candidates == (2, 3, 11, 12, 17, 31, 101)


def test_odd_deg_candidates_dim26():
    c = divisor_candidates(26, True)
    assert c.thetas == (7, 8, 9, 10)
    assert c.products == (-10395, -45045, -135135, -328185)
    # n = 2 survives through 9 | 135135 being irrelevant (gcd(11, 6) = 1
    # and 11 | 45045): the degree-5 configuration lives here
    assert 2 in c.candidates
    assert len(c.candidates) == 23
    assert c.candidates[:6] == (2, 3, 4, 5, 7, 26)


def test_candidates_not_applicable():
    assert divisor_candidates(9, False) is None  # odd dimension
    assert divisor_candidates(8, False) is None  # below the even-deg range
    assert divisor_candidates(14, True) is None  # below the odd-deg range


def test_candidates_budget_refusal(monkeypatch):
    monkeypatch.setattr(search, "_DIVISOR_BUDGET", 3)
    assert divisor_candidates(10, False) is None


def test_candidate_necessity_for_integral_top_coefficients():
    # whenever the top coefficients are integral the shifted divisor must
    # appear, so a pass of the cheap screen forces membership
    for dim, odd_deg in ((10, False), (12, False), (14, False),
                        (16, True), (20, True), (26, True)):
        cand = set(divisor_candidates(dim, odd_deg).candidates)
        for n in range(2, 80):
            m = 2 * n + 1 if odd_deg else 2 * n
            if top_coefficient_screen(m, dim) is None:
                assert n in cand, (dim, odd_deg, n)


def test_offset_products_extend_the_enumerating_offsets():
    for dim, odd_deg in ((10, False), (14, False), (26, True), (40, True)):
        cand = divisor_candidates(dim, odd_deg)
        offsets = _offset_products(dim, odd_deg)
        head = offsets[: len(cand.thetas)]
        assert tuple(t for t, _ in head) == cand.thetas
        assert tuple(p for _, p in head) == cand.products
    # one offset per denominator factor n + theta of u_n, with the numerator
    # product congruent to P_theta modulo that factor
    for dim in (4, 10, 12, 26, 40, 42):
        for odd_deg in (False, True):
            offsets = _offset_products(dim, odd_deg)
            for n in (2, 3, 17, 1000):
                _, nums, dens = _closed_top_parts(n, dim, odd_deg)
                assert [theta for theta, _ in offsets] == [d - n for d in dens]
                for theta, prod in offsets:
                    assert (math.prod(nums) - prod) % (n + theta) == 0


@settings(max_examples=200, deadline=None)
@given(
    dim=st.integers(5, 60).map(lambda h: 2 * h),
    n=st.integers(2, 10**6),
    odd_deg=st.booleans(),
)
def test_offset_cascade_rejection_implies_coefficient_screens(dim, n, odd_deg):
    assume(_offset_cascade_rejects(n, _offset_products(dim, odd_deg), odd_deg))
    m = 2 * n + 1 if odd_deg else 2 * n
    assert screen_coefficients(m, dim) is not None
    if n > 64:
        top = top_coefficient_screen(m, dim)
        assert top is not None and top.index == n


def _rows_without_cascade(dim, odd_deg, ns, use_bounds=True):
    rows = []
    for n in ns:
        m = 2 * n + 1 if odd_deg else 2 * n
        try:
            status = stiff_exists(m, dim, use_bounds=use_bounds).stage
        except UndecidedError:
            status = "unresolved"
        rows.append((n, m, status))
    return rows


def test_cascade_rows_match_stiff_exists_on_every_raw_candidate():
    for dim in range(10, 61, 2):
        for b in classify_dimension(dim).branches:
            rows = [(r.n, r.m, r.status) for r in b.candidates]
            ns = tuple(r.n for r in b.candidates)
            twin = _rows_without_cascade(dim, b.odd_deg, ns)
            assert rows == twin, (dim, b.odd_deg)


def test_scan_rows_past_the_threshold_are_the_decision_without_bounds():
    # no scan consults a threshold, so at and past it every row is the
    # full decision's, which verify's windows above the threshold rely on;
    # no raw candidate reaches the threshold in these dimensions, so cover
    # the n >= threshold side with a plain range
    for dim in (10, 12, 14):
        threshold = n_upper_bound(dim, False).threshold
        ns = tuple(range(2, threshold + 30))
        rows = _map_rows(dim, False, ns)
        twin = _rows_without_cascade(dim, False, ns, use_bounds=False)
        assert rows == twin
        assert "bound" not in {status for _, _, status in twin}


# --- offset window bound --------------------------------------------------

def _divisor_branches(top):
    """(dim, odd_deg) of every branch with the divisor-product argument
    in even d = 10..top."""
    return [(dim, odd_deg) for dim in range(10, top + 1, 2)
            for odd_deg in (False, True) if dim >= 16 or not odd_deg]


def _cascade_survivors(dim, odd_deg, ns):
    offsets = _offset_products(dim, odd_deg)
    return [n for n in ns if not _offset_cascade_rejects(n, offsets, odd_deg)]


def test_scan_survivors_match_the_divisor_route():
    # slow twin: the divisor route enumerates every divisor of the first
    # offset products and filters with the cascade; the scan stops at n*
    for dim, odd_deg in _divisor_branches(86):
        cand = divisor_candidates(dim, odd_deg)
        twin = _cascade_survivors(dim, odd_deg, cand.candidates)
        n_star = _offset_window_bound(dim, odd_deg)
        scan = _cascade_survivors(dim, odd_deg, range(2, n_star))
        assert scan == twin, (dim, odd_deg)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(5, 200).map(lambda h: 2 * h),
    odd_deg=st.booleans(),
    data=st.data(),
)
def test_offset_cascade_rejects_every_n_past_the_window_bound(
    dim, odd_deg, data
):
    assume(dim >= 16 or not odd_deg)
    n_star = _offset_window_bound(dim, odd_deg)
    n = data.draw(st.integers(n_star, 50 * n_star))
    assert _offset_cascade_rejects(n, _offset_products(dim, odd_deg), odd_deg)


def _legendre_holds(dim, odd_deg):
    """The predicate on n: prod(n + theta) fits under the Legendre step
    sums, with E_p from sympy's factorization of the whole offset products
    and the actual J_p = max{j : p^j <= n + theta_max} for p in F."""
    offsets = _offset_products(dim, odd_deg)
    free = (2, 3) if odd_deg else (2,)
    t = len(offsets)

    def steps(p, top):
        return sum(-(-t // p**j) for j in range(1, top + 1))

    top = {}
    for _, prod in offsets:
        for p, e in sympy.factorint(abs(prod)).items():
            if p not in free:
                top[p] = max(top.get(p, 0), e)
    fixed = math.prod(p ** steps(p, e) for p, e in top.items())
    thetas = [theta for theta, _ in offsets]

    def holds(n):
        k = fixed
        for p in free:
            j = 0
            while p ** (j + 1) <= n + thetas[-1]:
                j += 1
            k *= p ** steps(p, j)
        return math.prod(n + theta for theta in thetas) <= k

    return holds


def test_window_bound_is_no_tighter_than_the_step_sums():
    for dim, odd_deg in _divisor_branches(60):
        n_star = _offset_window_bound(dim, odd_deg)
        holds = _legendre_holds(dim, odd_deg)
        held = [n for n in range(2, 4 * n_star) if holds(n)]
        brute = held[-1] + 1 if held else 2
        assert brute <= n_star, (dim, odd_deg)
        # the derivation's premise: every cascade survivor fits the sums
        survivors = _cascade_survivors(dim, odd_deg, range(2, n_star))
        assert set(survivors) <= set(held), (dim, odd_deg)


def test_window_bound_values():
    assert [_offset_window_bound(d, False) for d in (10, 26, 86, 120)] == [
        59, 179, 1851, 4301]
    assert [_offset_window_bound(d, True) for d in (16, 26, 86, 120)] == [
        235, 340, 1414, 2751]


# sha256 of the lines "d parity n*" (parity 1 for odd degrees), one per
# branch of _divisor_branches(2000) in its order; generated once from the
# per-theta factoring route, never to be regenerated
WINDOW_BOUNDS_SHA256 = (
    "9adf75e793d04de8186ff4f9faf99b0f0a15b0ede64b1baca9f7564fd9f53458")


def test_window_bounds_are_locked_to_d_2000():
    lines = "".join(
        f"{dim} {int(odd_deg)} {_offset_window_bound(dim, odd_deg)}\n"
        for dim, odd_deg in _divisor_branches(2000))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == WINDOW_BOUNDS_SHA256


def _per_theta_window_bound(dim, odd_deg):
    """Slow twin of search._offset_window_bound: (E_p, n*) with E_p read
    off a fresh exponent map of each P_theta, which factors every factor
    c - 2 theta of every theta (about dim^2 / 8 factorize calls per
    branch)."""
    _, odds, thetas = _closed_top_parts(0, dim, odd_deg)
    offsets = [(theta, [c - 2 * theta for c in odds]) for theta in thetas]
    free = (2, 3) if odd_deg else (2,)
    t = len(offsets)
    top = {}  # E_p for every prime of some P_theta
    for _, factors in offsets:
        vals = Counter()
        for c in factors:
            vals.update(exact_core.factorize(c))
        for p, e in vals.items():
            if e > top.get(p, 0):
                top[p] = e
    k = math.prod(p ** (t // (p - 1)) for p in free)
    for p, e in top.items():
        if p not in free:
            k *= p ** sum(-(-t // p**j) for j in range(1, e + 1))
    lo_theta, hi_theta = offsets[0][0], offsets[-1][0]

    def holds(n):
        return (n + lo_theta) ** t <= k * (n + hi_theta) ** len(free)

    hi = 4
    while holds(hi):
        hi *= 2
    n_star = bisect.bisect_left(range(hi), True, 2,
                                key=lambda n: not holds(n))
    return top, n_star


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(5, 1500).map(lambda h: 2 * h), odd_deg=st.booleans())
@example(dim=3000, odd_deg=False)
@example(dim=3000, odd_deg=True)
@example(dim=10, odd_deg=False)
@example(dim=16, odd_deg=True)
def test_sliding_exponents_match_the_per_theta_twin(dim, odd_deg):
    assume(dim >= 16 or not odd_deg)
    top, n_star = _per_theta_window_bound(dim, odd_deg)
    assert search._offset_exponents(dim, odd_deg) == top, (dim, odd_deg)
    assert _offset_window_bound(dim, odd_deg) == n_star, (dim, odd_deg)


def test_window_bound_factors_each_offset_factor_once(monkeypatch):
    # the factors of all the P_theta fill one interval of odd integers,
    # len(cs) + len(thetas) - 1 of them; factoring each factor of each
    # theta instead makes 249,001 and 249,500 calls at d = 2000
    calls = []

    def spy(x):
        calls.append(x)
        return exact_core.factorize(x)

    monkeypatch.setattr(search, "factorize", spy)
    for odd_deg in (False, True):
        calls.clear()
        _offset_window_bound(2000, odd_deg)
        _, cs, thetas = _closed_top_parts(0, 2000, odd_deg)
        # the layout itself stays O(d)
        assert len(cs) + len(thetas) <= 2000
        assert len(calls) == len(cs) + len(thetas) - 1 <= 2 * 2000
        assert len(set(calls)) == len(calls)


def _bounded_scan_branches():
    """(dim, odd_deg, threshold) of every bounded-scan branch of odd
    d = 3..199 and of even d = 4, 6, 8, 12 and 14."""
    for dim in [*range(3, 200, 2), 4, 6, 8, 12, 14]:
        for b in classify_dimension(dim).branches:
            if b.method == "bounded-scan":
                yield dim, b.odd_deg, b.bound.threshold


def _assert_scan_rows_match_stiff_exists():
    statuses = set()
    for dim, odd_deg, threshold in _bounded_scan_branches():
        ns = tuple(range(2, threshold))
        rows = _map_rows(dim, odd_deg, ns)
        twin = _rows_without_cascade(dim, odd_deg, ns)
        assert rows == twin, (dim, odd_deg)
        statuses.update(status for _, _, status in twin)
    return statuses


def test_scan_rows_match_stiff_exists_on_every_n():
    # rows the screen walk settles without stiff_exists must read as the
    # full decision's rows; every scanned n goes through both
    statuses = _assert_scan_rows_match_stiff_exists()
    assert {"coefficient-screen", "exists", "newton-screen"} <= statuses


def test_scan_rows_past_the_full_screen_cap_stay_unresolved(monkeypatch):
    # below most thresholds, so stiff_exists leaves n > 100 undecided, and
    # the screen walk must not decide them either; the cap stays above
    # the top screen's least n, as the real one does.  scan_rejects reads
    # the one binding of the name, in stiffness.
    monkeypatch.setattr(stiffness, "_FULL_SCREEN_CAP", 100)
    assert "unresolved" in _assert_scan_rows_match_stiff_exists()


def test_scan_branch_matches_stiff_exists_without_bounds(monkeypatch):
    # verify's scans settle screen rejections without stiff_exists: the n
    # they skip must be exactly the coefficient-screen verdicts of the
    # full decision, and the existing set and the check line must read as
    # its own.  Dimension 2 (every degree exists) scans a shorter run.
    asked = []

    def spy(m, dim, use_bounds=True):
        assert use_bounds is False
        asked.append(m)
        return stiff_exists(m, dim, use_bounds=False)

    monkeypatch.setattr(search, "stiff_exists", spy)
    for dim in range(2, 31):
        for odd_deg in (False, True):
            hi = 20 if dim == 2 else 80
            twin = {
                m: stiff_exists(m, dim, use_bounds=False)
                for m in (2 * n + odd_deg for n in range(2, hi))
            }
            checks = []
            asked.clear()
            existing = search._scan_branch(dim, odd_deg, 2, hi, checks, "scan")
            assert set(twin) - set(asked) == {
                m for m, v in twin.items()
                if v.stage == "coefficient-screen"
            }, (dim, odd_deg)
            expected = {m for m, v in twin.items() if v.exists}
            assert existing == expected, (dim, odd_deg)
            assert checks == [
                f"scan: decided n in [2, {hi}) without shortcuts, existing "
                f"degrees {sorted(expected) or 'none'}"
            ]


# --- threshold comparison shortcut ---------------------------------------

def test_bound_if_exceeded_matches_thresholds():
    probes = (2, 3, 5, 17, 300, 10**4)
    for dim in (3, 4, 5, 6, 8, 9, 10, 12, 14, 16, 18, 23, 100):
        for odd_deg in (False, True):
            full = n_upper_bound(dim, odd_deg)
            for n in probes + (full.threshold - 1, full.threshold,
                               full.threshold + 50):
                hit = bound_if_exceeded(dim, odd_deg, n)
                if n >= full.threshold:
                    assert hit is not None and hit.threshold == full.threshold
                    assert hit.tag == full.tag
                    assert hit.conservative == full.conservative
                else:
                    assert hit is None


def test_bound_if_exceeded_dim2_and_huge():
    assert n_upper_bound(2, False) is None
    assert bound_if_exceeded(2, True, 10**30) is None
    # generic even dimension, degree parameter far beyond the product
    hit = bound_if_exceeded(40, False, 10**40)
    assert hit is not None
    assert hit.threshold == n_upper_bound(40, False).threshold


# --- dimension classification --------------------------------------------

def test_classify_dimension_2():
    c = classify_dimension(2)
    assert c.all_degrees and c.complete
    assert c.degrees == ()
    assert c.branches[0].method == "all-degrees"


def test_classify_dimension_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_dimension(1)


def test_classify_dimension_small_odd():
    for dim, degrees in ((3, (1, 2, 3)), (5, (1, 2, 3)), (23, (1, 2, 3, 4))):
        c = classify_dimension(dim)
        assert not c.all_degrees
        assert c.degrees == degrees
        assert c.complete
        assert all(b.method == "bounded-scan" for b in c.branches)
        assert all(b.bound.conservative for b in c.branches)


def test_classify_dimension_4():
    c = classify_dimension(4)
    assert c.degrees == (1, 2, 3, 5)
    assert c.complete
    even, odd = c.branches
    assert [r.status for r in even.candidates] == ["root-certification"] * 4
    assert [(r.n, r.m, r.status) for r in odd.candidates] == [(2, 5, "exists")]


def test_classify_dimension_low_degree_check_survives_optimize_flag():
    # the degree 1..3 sanity check must raise even under python -O, where
    # assert statements are stripped
    script = (
        "from mstiff import search\n"
        "not_exists = search.stiff_exists(6, 5)\n"
        "search.stiff_exists = lambda m, dim: not_exists\n"
        "try:\n"
        "    search.classify_dimension(10)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: degree 1 must exist")


def test_classify_dimension_6_8():
    for dim in (6, 8):
        c = classify_dimension(dim)
        assert c.degrees == (1, 2, 3)
        assert c.complete


def test_classify_dimension_10():
    c = classify_dimension(10)
    assert c.degrees == (1, 2, 3)
    assert c.complete
    even, odd = c.branches
    # threshold 16 sits below n* = 59, so the threshold ends the scan
    assert even.method == "bounded-scan"
    assert tuple(r.n for r in even.candidates) == tuple(range(2, 16))
    assert even.detail == (
        "scanned n in [2, 16); the threshold ended the scan "
        "(offset window bound n* = 59)"
    )
    assert [(r.n, r.m, r.status) for r in even.candidates] == [
        (n, 2 * n, "newton-screen" if n == 2 else "coefficient-screen")
        for n in range(2, 16)
    ]
    # of the divisor candidates (2, 12) only 2 survives the cascade, and so
    # it does in the scan
    assert _cascade_survivors(
        10, False, [r.n for r in even.candidates]) == [2]
    assert _cascade_survivors(10, False, (2, 12)) == [2]
    assert odd.method == "bounded-scan"
    assert odd.candidates == ()  # threshold 2 leaves nothing to scan


def test_classify_dimension_26():
    c = classify_dimension(26)
    assert c.degrees == (1, 2, 3, 5)
    assert c.complete
    even, odd = c.branches
    assert even.method == "bounded-scan" and odd.method == "bounded-scan"
    for b, n_star in ((even, 179), (odd, 340)):
        assert tuple(r.n for r in b.candidates) == tuple(range(2, n_star))
        assert b.detail == (f"scanned n in [2, {n_star}); n* ended the scan "
                            f"(offset window bound n* = {n_star})")
    assert even.existing == ()
    assert odd.existing == (5,)
    by_n = {r.n: r.status for r in odd.candidates}
    assert by_n[2] == "exists"


def test_classify_dimension_241_has_both_streams():
    c = classify_dimension(241)
    assert c.degrees == (1, 2, 3, 4, 5)
    assert c.complete


def test_classify_dimension_124_is_complete_with_degree5():
    # the offset products for dimension 124 have tens of millions of
    # divisors; the scan below n* never enumerates them
    c = classify_dimension(124)
    assert c.degrees == (1, 2, 3, 5)
    assert c.complete
    for branch, n_star in zip(c.branches, (4161, 2542)):
        assert branch.method == "bounded-scan" and branch.complete
        assert tuple(r.n for r in branch.candidates) == \
            tuple(range(2, n_star))
        assert branch.detail.startswith(f"scanned n in [2, {n_star}); n* ")
    assert c.branches[0].existing == ()
    assert c.branches[1].existing == (5,)


def test_classified_degrees_match_streams():
    deg4 = set(dims_for_degree4(700))
    deg5 = set(dims_for_degree5(700))
    for dim in (3, 4, 23, 26, 124, 241):
        got = set(classify_dimension(dim).degrees)
        assert (4 in got) == (dim in deg4), dim
        assert (5 in got) == (dim in deg5), dim


# --- degree classification -----------------------------------------------

def test_classify_degree_low():
    for m in (1, 2, 3):
        c = classify_degree(m)
        assert c.all_dims and c.complete
        assert c.method == "closed-form"
    with pytest.raises(ValueError):
        classify_degree(0)


def test_classify_degree_4():
    c = classify_degree(4)
    assert c.complete and c.method == "pell-stream"
    assert c.dims == (2, 23, 241, 2399, 23761, 235223, 2328481, 23049599)
    assert classify_degree(4, dim_limit=300).dims == (2, 23, 241)


def test_classify_degree_5():
    c = classify_degree(5)
    assert c.complete
    assert c.dims == (
        2, 4, 26, 124, 241, 1079, 4801, 9244, 41066, 182404,
        351121, 1559519, 6926641, 13333444, 59220746,
    )


def test_classify_degree_6_is_bounded():
    c = classify_degree(6, scan_cap=200, cubic_x_bound=100)
    assert c.dims == (2,)
    assert not c.complete
    assert c.method == "bounded-search"
    assert c.evidence[-1] == "search bounded; larger dimensions unexplored"
    assert any("dimensions 3..200" in line for line in c.evidence)
    assert any("cubic points" in line for line in c.evidence)


# --- theorem recomputation -----------------------------------------------

def test_theorem_tag_resolution():
    tags = theorem_tags()
    assert len(tags) == 13
    assert "dim10-even-deg" in tags and "odd-dim-valuation" in tags
    assert resolve_theorem_tag("dim4-even-deg") == "dim4-even-deg"
    assert resolve_theorem_tag("thm-4.4") == "dim4-even-deg"
    assert resolve_theorem_tag("thm-3.10") == "odd-deg-divisor-product"
    with pytest.raises(KeyError):
        resolve_theorem_tag("thm-9.9")


def test_verify_small_dimension_branches():
    for tag, alias in (
        ("dim4-even-deg", "thm-4.4"),
        ("dim4-odd-deg", "thm-4.5"),
        ("dim6-even-deg", "thm-6.2"),
        ("dim6-odd-deg", "thm-4.7"),
        ("dim10-odd-deg", "thm-4.10"),
    ):
        report = verify_theorem(tag)
        assert report.passed, report.checks
        assert report.alias == alias
        assert report.tag == tag


def test_verify_dim8_and_truncation():
    report = verify_theorem("dim8-even-deg")
    assert report.passed
    truncated = verify_theorem("dim8-even-deg", below_cap=10)
    assert not truncated.passed
    assert any("truncated" in line for line in truncated.checks)
    # a family claim has no below-threshold sweep to truncate, so a cap
    # there is refused rather than ignored by a report that reads passed
    for tag in ("odd-dim-valuation", "thm-3.10", "even-dim-divisor-product"):
        with pytest.raises(ValueError, match="family claim"):
            verify_theorem(tag, below_cap=2)


def test_verify_consults_no_threshold(monkeypatch):
    # every scan of every claim, family candidates included, decides
    # without the thresholds under test
    asked = []

    def spy(m, dim, use_bounds=True, **kwargs):
        asked.append((m, dim, use_bounds))
        return stiff_exists(m, dim, use_bounds=use_bounds, **kwargs)

    monkeypatch.setattr(search, "stiff_exists", spy)
    for tag in theorem_tags():
        asked.clear()
        assert verify_theorem(tag).passed, tag
        assert [call for call in asked if call[2]] == [], tag


def test_verify_fails_a_branch_claim_when_the_window_finds_a_degree(
    monkeypatch,
):
    # a degree reported above the threshold contradicts the claim, so the
    # report fails, as a family claim's does under the same patch
    scan = search._scan_branch

    def scan_with_a_window_hit(dim, odd_deg, lo, hi, checks, label):
        existing = scan(dim, odd_deg, lo, hi, checks, label)
        if label.startswith("window"):
            existing.add(2 * lo)
        return existing

    monkeypatch.setattr(search, "_scan_branch", scan_with_a_window_hit)
    for tag in ("dim4-even-deg", "odd-dim-valuation"):
        report = verify_theorem(tag, window=3)
        assert report.passed is False, tag
        assert "contradicts the claim" in report.checks[-1]


def test_verify_divisor_product_branches():
    report = verify_theorem("thm-3.6")  # alias of dim10-even-deg
    assert report.tag == "dim10-even-deg"
    assert report.passed
    for tag in ("dim12-odd-deg", "dim14-odd-deg"):
        report = verify_theorem(tag, window=10)
        assert report.passed, report.checks


def test_verify_families():
    for tag in ("odd-deg-divisor-product", "even-dim-divisor-product",
                "odd-dim-valuation"):
        report = verify_theorem(tag, window=10)
        assert report.passed, report.checks
    # the degree-5 dimension shows up as the lone positive in the odd
    # family sample
    report = verify_theorem("thm-3.10", window=0)
    assert any("m=5 exists" in line for line in report.checks)
