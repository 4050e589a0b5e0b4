"""Pell units, solution classes, dimension streams, and the cubic search."""
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mstiff import diophantine
from mstiff.diophantine import (
    MordellPoint,
    PellSolution,
    UnitElement,
    bounded_mordell_search,
    dims_for_degree4,
    dims_for_degree5,
    fundamental_unit,
    _smooth_split,
    mordell_ab_grid,
    mordell_obstruction,
    mordell_point_stream,
    pell_representatives,
)
from mstiff.stiffness import stiff_exists


# ---------------------------------------------------------------------------
# oracles

def scan_mordell_points(b: int, x_bound: int):
    """Slow twin of mordell_point_stream: the same check on every x."""
    for x in range(-1, x_bound + 1):
        t = 2 + b * x * x * x
        if t <= 0:
            continue
        a, root, rest = _smooth_split(t)
        r = math.isqrt(rest)
        if r * r == rest:
            yield MordellPoint(a, b, x, root * r)


def brute_fundamental_unit(d: int, y_cap: int = 100_000) -> UnitElement:
    """Smallest y >= 1 with d*y^2 -+ 1 a perfect square."""
    for y in range(1, y_cap):
        for target in (d * y * y - 1, d * y * y + 1):
            x = math.isqrt(target)
            if x * x == target:
                return UnitElement(x, y, d)
    raise AssertionError(f"no unit found below cap for d={d}")


def associated(s: PellSolution, t: PellSolution, d: int, m: int) -> bool:
    """True when s and t differ by +- a power of the norm-one unit."""
    # s / t is a unit iff s * conj(t) is m times a norm-one unit
    a = s.x * t.x - d * s.y * t.y
    b = t.x * s.y - s.x * t.y
    if a % m or b % m:
        return False
    a, b = a // m, b // m
    return a * a - d * b * b == 1


# ---------------------------------------------------------------------------
# fundamental units

def test_unit_examples():
    assert fundamental_unit(2) == UnitElement(1, 1, 2)
    assert fundamental_unit(2).norm == -1
    assert fundamental_unit(6) == UnitElement(5, 2, 6)
    assert fundamental_unit(6).norm == 1
    assert fundamental_unit(10) == UnitElement(3, 1, 10)
    assert fundamental_unit(10).norm == -1


def test_unit_large_period():
    # d = 46 has a long continued fraction period
    u = fundamental_unit(46)
    assert (u.x, u.y) == (24335, 3588)
    assert u.norm == 1


def test_unit_matches_brute_force():
    for d in range(2, 51):
        if math.isqrt(d) ** 2 == d:
            with pytest.raises(ValueError):
                fundamental_unit(d)
            continue
        assert fundamental_unit(d) == brute_fundamental_unit(d)


def test_unit_element_arithmetic():
    u = fundamental_unit(6)
    sq = u * u
    assert sq == UnitElement(49, 20, 6)
    assert sq.norm == 1
    assert (u * u.conjugate()) == UnitElement(1, 0, 6)


# ---------------------------------------------------------------------------
# solution classes

def test_representatives_example():
    reps = pell_representatives(10, 9)
    assert reps == [
        PellSolution(3, 0),
        PellSolution(7, -2),
        PellSolution(7, 2),
    ]


def test_representatives_negative_rhs():
    assert pell_representatives(2, -1) == [PellSolution(1, -1)]
    assert pell_representatives(3, -1) == []


def test_representatives_no_solution():
    assert pell_representatives(3, 5) == []
    assert pell_representatives(7, 3) == []


def test_representatives_are_solutions_and_inequivalent():
    rng = random.Random(9)
    cases = [(10, 9), (2, 7), (6, 10), (13, 3), (5, 11), (2, -23)]
    cases += [(rng.choice([2, 3, 5, 6, 7, 10]), rng.randint(-30, 30))
              for _ in range(20)]
    for d, m in cases:
        if m == 0 or math.isqrt(abs(d)) ** 2 == d:
            continue
        reps = pell_representatives(d, m)
        for r in reps:
            assert r.x * r.x - d * r.y * r.y == m
        for i, r in enumerate(reps):
            for s in reps[i + 1:]:
                assert not associated(r, s, d, m)


def test_representatives_cover_all_small_solutions():
    # every solution in a wide window reduces into some listed class
    for d, m in [(10, 9), (2, 7), (6, 10), (5, 44)]:
        reps = pell_representatives(d, m)
        for y in range(-400, 401):
            t = m + d * y * y
            if t < 0:
                continue
            x = math.isqrt(t)
            if x * x != t:
                continue
            for sx in {x, -x}:
                sol = PellSolution(sx, y)
                assert any(associated(sol, r, d, m) for r in reps), (d, m, sol)


# ---------------------------------------------------------------------------
# dimension streams

DEG4_BELOW_1E8 = [2, 23, 241, 2399, 23761, 235223, 2328481, 23049599]
DEG5_BELOW_1E8 = [2, 4, 26, 124, 241, 1079, 4801, 9244, 41066, 182404,
                  351121, 1559519, 6926641, 13333444, 59220746]


def test_degree4_stream_frozen():
    assert dims_for_degree4(10**8) == DEG4_BELOW_1E8
    assert dims_for_degree4(242) == [2, 23, 241]
    assert dims_for_degree4(241) == [2, 23]
    assert dims_for_degree4(2) == []


def test_degree5_stream_frozen():
    assert dims_for_degree5(10**8) == DEG5_BELOW_1E8
    assert dims_for_degree5(125) == [2, 4, 26, 124]
    assert dims_for_degree5(26) == [2, 4]


def test_streams_match_square_scan():
    # degree 4 needs 6(d+1)(d+2) square, degree 5 needs 10(d+1)(d+4)
    # square, except dimension 2 where everything exists
    limit = 300_000
    quads = {2}
    quints = {2}
    for d in range(3, limit):
        t = 6 * (d + 1) * (d + 2)
        if math.isqrt(t) ** 2 == t:
            quads.add(d)
        t = 10 * (d + 1) * (d + 4)
        if math.isqrt(t) ** 2 == t:
            quints.add(d)
    assert dims_for_degree4(limit) == sorted(quads)
    assert dims_for_degree5(limit) == sorted(quints)


def test_streams_match_existence_decision():
    stream4 = set(dims_for_degree4(700))
    stream5 = set(dims_for_degree5(700))
    for dim in range(2, 700):
        assert stiff_exists(4, dim).exists == (dim in stream4)
        assert stiff_exists(5, dim).exists == (dim in stream5)


def test_stream_members_admit_configurations():
    for dim in DEG4_BELOW_1E8[:5]:
        assert stiff_exists(4, dim).exists
    for dim in DEG5_BELOW_1E8[:6]:
        assert stiff_exists(5, dim).exists


# ---------------------------------------------------------------------------
# cubic point search

def test_ab_grid_shape():
    a_vals, b_vals = mordell_ab_grid()
    assert len(a_vals) == 16
    assert len(b_vals) == 81
    assert a_vals[0] == 1 and a_vals[-1] == 210
    assert b_vals[-1] == (2 * 3 * 5 * 7) ** 2
    for a in a_vals:
        for p in (2, 3, 5, 7):
            assert a % p**2 != 0


def test_small_points():
    assert MordellPoint(1, 1, -1, 1) in bounded_mordell_search(1, 1, 5)
    # x = 0 gives 2 = 2 * 1^2 whatever b is
    for b in (1, 2, 44100):
        assert MordellPoint(2, b, 0, 1) in bounded_mordell_search(2, b, 5)
    # 1 * 2^2 = 2 + 2 * 1^3
    assert MordellPoint(1, 2, 1, 2) in bounded_mordell_search(1, 2, 5)


def test_points_satisfy_equation():
    a_vals, b_vals = mordell_ab_grid()
    for b in b_vals[:12] + [b_vals[40], b_vals[-1]]:
        for pt in mordell_point_stream(b, 200):
            assert pt.a * pt.y**2 == 2 + pt.b * pt.x**3
            assert pt.y >= 0
            assert pt.a in a_vals


def test_points_match_brute_force():
    a_vals, _ = mordell_ab_grid()
    for b in (1, 2, 3, 6, 12, 35, 44100):
        expected = set()
        for x in range(-1, 61):
            t = 2 + b * x**3
            if t <= 0:
                continue
            for a in a_vals:
                if t % a:
                    continue
                y2, y = t // a, math.isqrt(t // a)
                if y * y == y2:
                    expected.add(MordellPoint(a, b, x, y))
        got = set(mordell_point_stream(b, 60))
        assert got == expected


def test_search_respects_bound():
    # a=1, b=2: 2 + 2 * 23^3 = 24336 = 156^2, so (23, 156) is a point
    pts = bounded_mordell_search(1, 2, 30)
    assert MordellPoint(1, 2, 23, 156) in pts
    assert MordellPoint(1, 2, 23, 156) not in bounded_mordell_search(1, 2, 22)


A_VALS, B_VALS = mordell_ab_grid()


@pytest.mark.parametrize("b", B_VALS)
@settings(max_examples=4)
@given(st.integers(-3, 2 * 10**4))
@example(2 * 10**4)
def test_sieved_stream_matches_scan(b, x_bound):
    expected = list(scan_mordell_points(b, x_bound))
    assert list(mordell_point_stream(b, x_bound)) == expected
    for a in A_VALS:
        assert bounded_mordell_search(a, b, x_bound) == [
            pt for pt in expected if pt.a == a
        ]


@pytest.mark.parametrize("window", [1, 37, 64, 1000])
def test_sieve_windows_join_up(monkeypatch, window):
    # windows narrower than a modulus and not dividing the range; each
    # b here has points at x = 1 or 2, and b = 2 and 12 far past them
    monkeypatch.setattr(diophantine, "_WINDOW", window)
    for b in (1, 2, 6, 12, 98, 2450):
        for x_bound in (-1, 0, window - 2, window - 1, 3 * window + 5, 2000):
            assert list(mordell_point_stream(b, x_bound)) == list(
                scan_mordell_points(b, x_bound)
            ), (b, x_bound)


def test_obstructions_hold_by_brute_force():
    # the modulus returned admits no (x, y) at all, and every modulus
    # tried before it (all of them, for a live pair) admits one
    moduli = (8, 16, 9, 27, 5, 25, 7, 49)
    for a in A_VALS:
        for b in B_VALS:
            mod = mordell_obstruction(a, b)
            tried = moduli if mod is None else moduli[: moduli.index(mod)]
            for m in tried:
                assert any(
                    (a * y * y - 2 - b * x**3) % m == 0
                    for x in range(m) for y in range(m)
                ), (a, b, m)
            if mod is not None:
                assert all(
                    (a * y * y - 2 - b * x**3) % mod != 0
                    for x in range(mod) for y in range(mod)
                ), (a, b, mod)


def test_live_pairs_cover_every_b():
    live = {b: [a for a in A_VALS if mordell_obstruction(a, b) is None]
            for b in B_VALS}
    assert sum(map(len, live.values())) == 121
    assert all(live.values())
    counts = {}
    for a in A_VALS:
        for b in B_VALS:
            mod = mordell_obstruction(a, b)
            counts[mod] = counts.get(mod, 0) + 1
    assert counts == {9: 501, 8: 324, 5: 196, 7: 100, 16: 54, None: 121}
    # an obstructed pair has no point in any window
    assert mordell_obstruction(1, 1) is None
    assert bounded_mordell_search(1, 1, 5)
    a, b = next((a, b) for a in A_VALS for b in B_VALS
                if mordell_obstruction(a, b) is not None)
    assert bounded_mordell_search(a, b, 10**4) == []


def test_point_count_to_a_million():
    # the acceptance bound: the same 137 points as a scan of every x
    # (about two minutes, so compared once, when the sieve replaced it);
    # none lies past x = 314
    points = [pt for b in B_VALS for pt in mordell_point_stream(b, 10**6)]
    assert len(points) == 137
    assert points == [pt for b in B_VALS
                      for pt in scan_mordell_points(b, 400)]
