"""Pell equations, dimension streams, and a bounded cubic-point search.

The dimensions admitting degree-4 and degree-5 stiff configurations are
values of integer recurrences coming from norm equations in real quadratic
fields; this module generates those streams, solves the underlying Pell
problems exactly (fundamental units by continued fractions, finitely many
solution classes by a reduced-box search), and enumerates integer points
on the a y^2 = 2 + b x^3 family over {2,3,5,7}-smooth coefficient grids,
which is what higher degrees reduce to.  All searches that are bounded by
construction say so in their results.

The point search is sieved by local solubility, the usual first step for
Mordell curves (Gebel, Petho and Zimmer, "On Mordell's equation",
Compositio Math. 110 (1998)): a point needs a y^2 = 2 + b x^3 to be
solvable modulo every modulus.  Small prime powers rule out 1,175 of the
1,296 grid pairs (a, b) outright, and the residues of x modulo nineteen
moduli leave few x to check for the other pairs: 140 of the 162,162
pairs (b, x) with x up to 2,000, and 1,196 of the 81 million with x up to
10^6.  Each congruence holds at every integer point, so nothing is lost.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .exact_core import perfect_square_root

__all__ = [
    "UnitElement",
    "fundamental_unit",
    "PellSolution",
    "pell_representatives",
    "dims_for_degree4",
    "dims_for_degree5",
    "MordellPoint",
    "mordell_ab_grid",
    "bounded_mordell_search",
    "mordell_obstruction",
    "mordell_point_stream",
]


# ---------------------------------------------------------------------------
# Pell units and representative solutions

@dataclass(frozen=True)
class UnitElement:
    """x + y*sqrt(d) in the ring Z[sqrt(d)]."""

    x: int
    y: int
    d: int

    @property
    def norm(self) -> int:
        return self.x * self.x - self.d * self.y * self.y

    def __mul__(self, other: "UnitElement") -> "UnitElement":
        if self.d != other.d:
            raise ValueError("mismatched radicands")
        return UnitElement(
            self.x * other.x + self.y * other.y * self.d,
            self.x * other.y + self.y * other.x,
            self.d,
        )

    def conjugate(self) -> "UnitElement":
        return UnitElement(self.x, -self.y, self.d)

    def __neg__(self) -> "UnitElement":
        return UnitElement(-self.x, -self.y, self.d)


def fundamental_unit(d: int) -> UnitElement:
    """Smallest unit > 1 of x^2 - d y^2 = +-1, via the continued fraction
    of sqrt(d).  The norm is -1 exactly when the period is odd."""
    if d < 2:
        raise ValueError("d must be >= 2")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"{d} is a perfect square")
    m_, dd, a = 0, 1, a0
    p_prev, p_cur = 1, a0
    q_prev, q_cur = 0, 1
    while True:
        m_ = dd * a - m_
        dd = (d - m_ * m_) // dd
        a = (a0 + m_) // dd
        if a == 2 * a0:
            return UnitElement(p_cur, q_cur, d)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev


@dataclass(frozen=True)
class PellSolution:
    """Canonical representative of one solution class of x^2 - d y^2 = m."""

    x: int
    y: int


def _canonical_class_rep(x: int, y: int, unit: UnitElement) -> tuple[int, int]:
    """Walk the orbit {+- unit^k (x + y sqrt d)} to the member with the
    smallest |x| (the absolute values of x are unimodal along the orbit,
    so greedy descent finds the minimum)."""
    d = unit.d
    inv = unit.conjugate()  # norm 1, so this is the inverse

    def norm_sign(v: tuple[int, int]) -> tuple[int, int]:
        vx, vy = v
        if vx < 0 or (vx == 0 and vy < 0):
            return -vx, -vy
        return vx, vy

    def step(v: tuple[int, int], by: UnitElement) -> tuple[int, int]:
        vx, vy = v
        return norm_sign(
            (vx * by.x + vy * by.y * d, vx * by.y + vy * by.x)
        )

    cur = norm_sign((x, y))
    while True:
        down = step(cur, inv)
        if abs(down[0]) < abs(cur[0]):
            cur = down
            continue
        up = step(cur, unit)
        if abs(up[0]) < abs(cur[0]):
            cur = up
            continue
        # break exact ties toward the ascending neighbour for determinism
        if abs(up[0]) == abs(cur[0]) and up < cur:
            cur = up
            continue
        if abs(down[0]) == abs(cur[0]) and down < cur:
            cur = down
            continue
        return cur


def pell_representatives(d: int, m: int) -> list[PellSolution]:
    """One canonical representative per class of x^2 - d y^2 = m, where two
    solutions are in the same class when they differ by +- a power of the
    norm-one fundamental unit.  Empty when the equation has no solutions.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    u1 = fundamental_unit(d)
    unit = u1 if u1.norm == 1 else u1 * u1
    if unit.norm != 1:
        raise AssertionError(f"unit {unit} of Q(sqrt({d})) has norm {unit.norm}")
    # every class contains a member inside a box whose y is bounded by
    # roughly sqrt(|m| * unit / d); overshooting is harmless because all
    # finds are reduced to canonical form and deduplicated
    u_over = unit.x + unit.y * (math.isqrt(d) + 1)
    y_max = math.isqrt(abs(m) * (u_over + 2) // (2 * d) + abs(m) // d) + 2
    found: set[tuple[int, int]] = set()
    for y in range(y_max + 1):
        x2 = m + d * y * y
        if x2 < 0:
            continue
        x = perfect_square_root(x2)
        if x is None:
            continue
        for sx in {x, -x}:
            found.add(_canonical_class_rep(sx, y, unit))
    return [PellSolution(x, y) for x, y in sorted(found)]


# ---------------------------------------------------------------------------
# dimension streams for degrees 4 and 5

def _recurrence_stream(s0: int, s1: int, mult: int) -> Iterator[int]:
    a, b = s0, s1
    while True:
        yield a
        a, b = b, mult * b - a


def dims_for_degree4(limit: int) -> list[int]:
    """All dimensions < limit admitting a degree-4 stiff configuration:
    dimension 2 plus the values (t - 6) / 4 of the recurrence
    t_next = 10 t - t_prev started from 2, 10."""
    out = [2] if limit > 2 else []
    for t in _recurrence_stream(2, 10, 10):
        dim, rem = divmod(t - 6, 4)
        if rem == 0 and dim >= 2:
            if dim >= limit:
                break
            out.append(dim)
        elif t > 6 and (t - 6) // 4 >= limit:
            break
    return sorted(set(out))


def dims_for_degree5(limit: int) -> list[int]:
    """All dimensions < limit admitting a degree-5 stiff configuration:
    dimension 2 plus three families driven by s_next = 38 s - s_prev."""
    out = set([2] if limit > 2 else [])
    families = [
        (2, 38, lambda s: (3 * s - 10, 4)),  # note the factor 3
        (14, 506, lambda s: (s - 10, 4)),
        (14, 26, lambda s: (s - 10, 4)),
    ]
    for s0, s1, transform in families:
        for s in _recurrence_stream(s0, s1, 38):
            num, den = transform(s)
            dim, rem = divmod(num, den)
            if rem == 0 and dim >= 2:
                if dim >= limit:
                    break
                out.add(dim)
            elif num > 0 and num // den >= limit:
                break
    return sorted(out)


# ---------------------------------------------------------------------------
# bounded search for a y^2 = 2 + b x^3

_SMOOTH_PRIMES = (2, 3, 5, 7)


def mordell_ab_grid() -> tuple[list[int], list[int]]:
    """(a values, b values): a runs over the 16 squarefree {2,3,5,7}
    products, b over the 81 products with exponents at most 2."""
    a_vals = [1]
    for p in _SMOOTH_PRIMES:
        a_vals += [a * p for a in a_vals]
    b_vals = [1]
    for p in _SMOOTH_PRIMES:
        b_vals = [b * p**e for b in b_vals for e in range(3)]
    return sorted(a_vals), sorted(set(b_vals))


@dataclass(frozen=True)
class MordellPoint:
    """Integer point with a y^2 = 2 + b x^3, y >= 0."""

    a: int
    b: int
    x: int
    y: int


_SQ64 = bytes(1 if i in {(j * j) % 64 for j in range(64)} else 0 for i in range(64))
_SQ63 = bytes(1 if i in {(j * j) % 63 for j in range(63)} else 0 for i in range(63))
_SQ65 = bytes(1 if i in {(j * j) % 65 for j in range(65)} else 0 for i in range(65))


def _smooth_split(t: int) -> tuple[int, int, int]:
    """t = a * square * rest with a squarefree {2,3,5,7}-supported,
    rest coprime to 2*3*5*7.  Returns (a, sqrt of the square part, rest)."""
    a = 1
    root = 1
    for p in _SMOOTH_PRIMES:
        e = 0
        while t % p == 0:
            t //= p
            e += 1
        if e & 1:
            a *= p
        root *= p ** (e // 2)
    return a, root, t


# Local solubility (see the module docstring): _OBSTRUCTION_MODULI are
# tried in order on each pair (a, b), and _SIEVE_MODULI cut the x range of
# the pairs they leave.  Solvable mod 27 implies solvable mod 9, so 9 is
# not a sieve modulus.
_OBSTRUCTION_MODULI = (8, 16, 9, 27, 5, 25, 7, 49)
_SIEVE_MODULI = (64, 27, 25, 49, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                 47, 53, 59, 61, 67)
# x is sieved in windows of this many values, so memory stays bounded
# however large x_bound is
_WINDOW = 1 << 20


@functools.lru_cache(maxsize=None)
def _square_multiples(a: int, mod: int) -> int:
    """The set {a y^2 mod `mod`} as a bitmask, for a already reduced mod
    `mod`."""
    bits = 0
    for y in range(mod):
        bits |= 1 << (a * y * y % mod)
    return bits


def mordell_obstruction(a: int, b: int) -> Optional[int]:
    """The first of 8, 16, 9, 27, 5, 25, 7, 49 modulo which
    a y^2 = 2 + b x^3 has no solution (x, y), or None.  A modulus returned
    proves that the curve has no integer point at all."""
    for mod in _OBSTRUCTION_MODULI:
        squares = _square_multiples(a % mod, mod)
        if not any(squares >> (2 + b * x * x * x) % mod & 1
                   for x in range(mod)):
            return mod
    return None


@functools.lru_cache(maxsize=128)
def _live_pairs(b: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """(a, patterns) for each grid a whose pair with b is not obstructed.
    patterns holds (mod, bits) per sieve modulus, where bit k of bits is
    set when x = k mod `mod` leaves 2 + b x^3 a times a square mod `mod`."""
    a_vals, _ = mordell_ab_grid()
    live = []
    for a in a_vals:
        if mordell_obstruction(a, b) is not None:
            continue
        patterns = []
        for mod in _SIEVE_MODULI:
            squares = _square_multiples(a % mod, mod)
            bits = 0
            for x in range(mod):
                if squares >> (2 + b * x * x * x) % mod & 1:
                    bits |= 1 << x
            patterns.append((mod, bits))
        live.append((a, tuple(patterns)))
    return tuple(live)


def _repeat(bits: int, period: int, length: int) -> int:
    """The period-bit pattern repeated to at least `length` bits."""
    while period < length:
        bits |= bits << period
        period *= 2
    return bits


def _survivors(
    pairs: Sequence[Sequence[tuple[int, int]]], x_bound: int
) -> Iterator[int]:
    """Ascending x in -1..x_bound that pass every sieve modulus for at
    least one of the pairs, each given by its patterns."""
    width = min(_WINDOW, x_bound + 2)
    if width <= 0:
        return
    repeated = [
        [(mod, _repeat(bits, mod, width + mod)) for mod, bits in patterns]
        for patterns in pairs
    ]
    for start in range(-1, x_bound + 1, width):
        keep = (1 << min(width, x_bound + 1 - start)) - 1
        mask = 0
        for rows in repeated:
            pair_mask = keep
            for mod, bits in rows:
                pair_mask &= bits >> (start % mod)
            mask |= pair_mask
        # bit j of mask stands for x = start + j
        text = bin(mask)[:1:-1]
        j = text.find("1")
        while j >= 0:
            yield start + j
            j = text.find("1", j + 1)


def _points_at(b: int, xs: Iterable[int]) -> Iterator[MordellPoint]:
    """The points on the curves of b at the given x, a read off 2 + b x^3."""
    sq64, sq63, sq65 = _SQ64, _SQ63, _SQ65
    for x in xs:
        t = 2 + b * x * x * x
        if t <= 0:
            continue
        a, root, rest = _smooth_split(t)
        if not (
            sq64[rest & 63] and sq63[rest % 63] and sq65[rest % 65]
        ):
            continue
        r = math.isqrt(rest)
        if r * r != rest:
            continue
        yield MordellPoint(a, b, x, root * r)


def mordell_point_stream(b: int, x_bound: int) -> Iterator[MordellPoint]:
    """All points on a y^2 = 2 + b x^3 with -1 <= x <= x_bound, where a
    ranges over the squarefree {2,3,5,7} products, in ascending x.  x < -1
    makes the right side nonpositive, so the lower end is complete as
    stated.

    Only the x that local solubility allows are examined: pairs (a, b)
    with a `mordell_obstruction` have no point, and for the others x must
    lie in the classes mod 64, 27, 25, 49 and the primes 11..67 where
    2 + b x^3 is a times a square.  Every integer point passes these
    congruences, so the sieve is exact, and each surviving x gets the same
    smooth-part and square-root check that a scan of every x would
    (Gebel, Petho and Zimmer, "On Mordell's equation", Compositio Math.
    110 (1998), use the same local conditions as their first step)."""
    pairs = [patterns for _, patterns in _live_pairs(b)]
    yield from _points_at(b, _survivors(pairs, x_bound))


def bounded_mordell_search(
    a: int, b: int, x_bound: int
) -> list[MordellPoint]:
    """Integer points on a y^2 = 2 + b x^3 with -1 <= x <= x_bound.

    Bounded by construction: callers must treat x past the bound as
    unexplored, never as absent.  Sieved by this pair's own congruences
    only; a pair with a `mordell_obstruction` has no point at all.
    """
    patterns = dict(_live_pairs(b)).get(a)
    if patterns is None:
        return []
    return [pt for pt in _points_at(b, _survivors([patterns], x_bound))
            if pt.a == a]
