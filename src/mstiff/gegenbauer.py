"""Orthogonal polynomials for the coordinate projection of the sphere.

Projecting the uniform probability measure on the unit sphere in R^dim onto
one coordinate gives a measure on [-1, 1] proportional to
(1 - x^2)^((dim-3)/2) dx.  This module builds the monic orthogonal
polynomials of that measure by three-term recurrence, evaluates the
reproducing kernel at a point (its reciprocal at a node is the quadrature
weight there, so no polynomial is ever multiplied), and carries the
closed-form quadratures for up to five mass points, including the
quadratic-surd values that appear when dim == 2.

Everything is exact: Fraction scalars, polynomials as tuples of Fraction
coefficients in ascending order, and a + b*sqrt(c) surds with rational
a, b.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact_core import (
    _SMALL_PRIME_LIMIT,
    fraction_square_root,
    perfect_square_root,
    poly_eval,
    smooth_part,
)

__all__ = [
    "moment",
    "recurrence_coefficient",
    "orthopoly_square_parts",
    "node_square_poly",
    "kernel_value",
    "SymmetricQuadrature",
    "quadrature_from_node_squares",
    "QuadSurd",
    "surd_sqrt",
    "closed_form_quadrature",
]


def moment(j: int, dim: int) -> Fraction:
    """E[x^(2j)] for one coordinate of a uniform point on the unit sphere.

    Equals (2j-1)!! / (dim (dim+2) ... (dim+2j-2)).  Odd moments vanish by
    symmetry and are not represented.
    """
    if j < 0 or dim < 2:
        raise ValueError("need j >= 0 and dim >= 2")
    num = 1
    den = 1
    for i in range(j):
        num *= 2 * i + 1
        den *= dim + 2 * i
    return Fraction(num, den)


def recurrence_coefficient(i: int, dim: int) -> Fraction:
    """b_i in the monic recurrence q_{i+1} = x q_i - b_i q_{i-1}.

    b_1 = 1/dim (the second moment); the closed form below is 0/0 there
    when dim == 2.
    """
    if i < 1 or dim < 2:
        raise ValueError("need i >= 1 and dim >= 2")
    if i == 1:
        return Fraction(1, dim)
    a2 = dim - 3  # twice the weight exponent
    return Fraction(i * (i + a2), (2 * i + a2 - 1) * (2 * i + a2 + 1))


def orthopoly_square_parts(
    count: int, dim: int
) -> list[tuple[int, tuple[Fraction, ...]]]:
    """First `count` monic orthogonal polynomials, in the variable t = x^2.

    Entry i is (parity, P), P a tuple of Fraction coefficients in ascending
    order of t, with q_i(x) = P(x^2) for even i and q_i(x) = x * P(x^2) for
    odd i.  Both shapes keep P monic.
    """
    if count < 1:
        raise ValueError("count must be positive")
    one = (Fraction(1),)
    out: list[tuple[int, tuple[Fraction, ...]]] = [(0, one)]
    if count == 1:
        return out
    out.append((1, one))
    for i in range(1, count - 1):
        b = recurrence_coefficient(i, dim)
        (_, prev), (cur_parity, cur) = out[i - 1], out[i]
        # x * (x P) - b Q = t P - b Q;  x P - b (x Q) = x (P - b Q)
        nxt = list((Fraction(0),) + cur if cur_parity == 1 else cur)
        for k, c in enumerate(prev):
            nxt[k] -= b * c
        out.append((1 - cur_parity, tuple(nxt)))
    return out


def node_square_poly(m: int, dim: int) -> tuple[Fraction, ...]:
    """Monic polynomial in t = x^2, as ascending Fraction coefficients,
    whose roots are the squared nonzero nodes of the m-point quadrature
    (the zeros of q_m)."""
    if m < 1:
        raise ValueError("m must be positive")
    parity, part = orthopoly_square_parts(m + 1, dim)[m]
    if parity != m % 2:
        raise AssertionError(f"q_{m} has parity {parity}, expected {m % 2}")
    return part


def kernel_value(num_terms: int, dim: int, t: Fraction) -> Fraction:
    """Reproducing kernel sum_{i<num_terms} q_i(x)^2 / <q_i, q_i> at x^2 = t.

    Its reciprocal at a node of the num_terms-point rule is that node's
    quadrature weight.
    """
    h = Fraction(1)  # <q_0, q_0> under the probability normalization
    total = Fraction(0)
    for i, (parity, part) in enumerate(orthopoly_square_parts(num_terms, dim)):
        if i >= 1:
            h *= recurrence_coefficient(i, dim)
        v = poly_eval(part, t)
        total += (v * v * t if parity else v * v) / h
    return total


@dataclass(frozen=True)
class SymmetricQuadrature:
    """A quadrature symmetric under x -> -x, with exact rational data.

    `pairs` lists (x^2, w): the two nodes +-x share the weight w, so the
    pair contributes 2w to the total mass.  `center_weight` is the weight
    at 0, or None when 0 is not a node.
    """

    dim: int
    pairs: tuple[tuple[Fraction, Fraction], ...]
    center_weight: Optional[Fraction]

    @property
    def total_points(self) -> int:
        return 2 * len(self.pairs) + (0 if self.center_weight is None else 1)

    def verify(self, strength: int) -> None:
        """Exact check that the rule integrates all polynomials of degree
        <= strength against the sphere projection, with admissible data.
        Raises ValueError on any failure."""
        seen = set()
        for s, w in self.pairs:
            if not (0 < s <= 1):
                raise ValueError(f"squared node {s} outside (0, 1]")
            if w <= 0:
                raise ValueError(f"nonpositive weight {w}")
            if s in seen:
                raise ValueError(f"repeated node {s}")
            seen.add(s)
        if self.center_weight is not None and self.center_weight <= 0:
            raise ValueError(f"nonpositive center weight {self.center_weight}")
        # odd powers hold by symmetry; even powers are real constraints
        for j in range(strength // 2 + 1):
            total = sum(
                (2 * w * s**j for s, w in self.pairs), Fraction(0)
            )
            if self.center_weight is not None and j == 0:
                total += self.center_weight
            if total != moment(j, self.dim):
                raise ValueError(
                    f"moment of order {2 * j} is {total}, expected "
                    f"{moment(j, self.dim)}"
                )


def quadrature_from_node_squares(
    m: int, dim: int, squares: Sequence[Fraction]
) -> SymmetricQuadrature:
    """Weights for the m-point symmetric rule whose nonzero nodes have the
    given squares (the roots of node_square_poly(m, dim)).

    Evaluating the kernel at t = x^2 gives one weight per +- pair at once,
    so mirrored nodes get exactly equal weights by construction.
    """
    expected_pairs = m // 2
    if len(squares) != expected_pairs:
        raise ValueError(
            f"m={m} needs {expected_pairs} squared nodes, got {len(squares)}"
        )
    nodes = sorted(map(Fraction, squares))
    pairs = tuple((s, 1 / kernel_value(m, dim, s)) for s in nodes)
    center = 1 / kernel_value(m, dim, Fraction(0)) if m % 2 == 1 else None
    return SymmetricQuadrature(dim, pairs, center)


# ---------------------------------------------------------------------------
# quadratic surds

SurdLike = Union["QuadSurd", Fraction, int]


@dataclass(frozen=True)
class QuadSurd:
    """Exact a + b*sqrt(c): a, b rational, c a squarefree integer >= 0.

    Construct through `make`, which extracts square factors from c so each
    value has one representation; rational values always carry c == 0.
    """

    a: Fraction
    b: Fraction
    c: int

    @staticmethod
    def make(a: Fraction | int, b: Fraction | int, c: int) -> "QuadSurd":
        """a + b*sqrt(c), c reduced to its squarefree part.  The part r of
        c with no prime factor below 2^16 is folded in when it is a square
        and kept when r < 2^48 (then p or pq); any other r raises."""
        a, b = Fraction(a), Fraction(b)
        if c < 0:
            raise ValueError("c must be nonnegative")
        if b == 0 or c == 0:
            return QuadSurd(a, Fraction(0), 0)
        factors, rough = smooth_part(c, _SMALL_PRIME_LIMIT - 1)
        square = perfect_square_root(rough)
        if square is not None:
            free = 1
        elif rough >> 48:
            raise ValueError(
                f"radicand {c}: its part {rough} with no prime factor "
                "below 2^16 is at least 2^48 and not a square"
            )
        else:
            square, free = 1, rough
        for p, e in factors.items():
            square *= p ** (e // 2)
            if e % 2:
                free *= p
        b = b * square
        if free == 1:
            return QuadSurd(a + b, Fraction(0), 0)
        return QuadSurd(a, b, free)

    @staticmethod
    def of(v: SurdLike) -> "QuadSurd":
        if isinstance(v, QuadSurd):
            return v
        return QuadSurd.make(Fraction(v), 0, 0)

    @property
    def is_rational(self) -> bool:
        return self.c == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def _join(self, other: SurdLike) -> tuple["QuadSurd", "QuadSurd"]:
        o = QuadSurd.of(other)
        if self.c and o.c and self.c != o.c:
            raise ValueError(f"incompatible radicands {self.c} and {o.c}")
        return self, o

    def __add__(self, other: SurdLike) -> "QuadSurd":
        s, o = self._join(other)
        return QuadSurd.make(s.a + o.a, s.b + o.b, s.c or o.c)

    __radd__ = __add__

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b, self.c)

    def __sub__(self, other: SurdLike) -> "QuadSurd":
        return self + (-QuadSurd.of(other))

    def __rsub__(self, other: SurdLike) -> "QuadSurd":
        return QuadSurd.of(other) + (-self)

    def __mul__(self, other: SurdLike) -> "QuadSurd":
        s, o = self._join(other)
        c = s.c or o.c
        return QuadSurd.make(
            s.a * o.a + s.b * o.b * c, s.a * o.b + s.b * o.a, c
        )

    __rmul__ = __mul__

    def __truediv__(self, other: SurdLike) -> "QuadSurd":
        o = QuadSurd.of(other)
        if o.is_rational:
            if o.a == 0:
                raise ZeroDivisionError
            return QuadSurd.make(self.a / o.a, self.b / o.a, self.c)
        norm = o.a * o.a - o.b * o.b * o.c
        if norm == 0:
            raise ZeroDivisionError
        conj = QuadSurd(o.a, -o.b, o.c)
        num = self * conj
        return QuadSurd.make(num.a / norm, num.b / norm, num.c)

    def _sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 c
        lhs = self.a * self.a
        rhs = self.b * self.b * self.c
        if lhs == rhs:
            return 0
        big_rational = lhs > rhs
        return (1 if big_rational else -1) * (1 if self.a > 0 else -1)

    def __lt__(self, other: SurdLike) -> bool:
        return (self - other)._sign() < 0

    def __le__(self, other: SurdLike) -> bool:
        return (self - other)._sign() <= 0

    def __gt__(self, other: SurdLike) -> bool:
        return (self - other)._sign() > 0

    def __ge__(self, other: SurdLike) -> bool:
        return (self - other)._sign() >= 0


def surd_sqrt(f: Fraction | int) -> QuadSurd:
    """Exact square root of a nonnegative rational as a QuadSurd."""
    f = Fraction(f)
    if f < 0:
        raise ValueError("negative radicand")
    r = fraction_square_root(f)
    if r is not None:
        return QuadSurd.make(r, 0, 0)
    # sqrt(p/q) = sqrt(p q) / q
    return QuadSurd.make(0, Fraction(1, f.denominator), f.numerator * f.denominator)


# ---------------------------------------------------------------------------
# closed forms for up to five mass points

def closed_form_quadrature(
    m: int, dim: int
) -> tuple[tuple[tuple[QuadSurd, QuadSurd], ...], Optional[QuadSurd]]:
    """(pairs, center_weight) of the m-point symmetric rule, m <= 5, as
    exact surds in the dimension.  Pairs are (x^2, weight), ascending x^2.

    These are the by-hand solutions of the small moment systems; the tests
    hold them against the kernel construction, so the two routes stay
    independent.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    d = Fraction(dim)
    one = QuadSurd.of(1)
    if m == 1:
        return (), one
    if m == 2:
        return (((QuadSurd.of(Fraction(1, dim)), QuadSurd.of(Fraction(1, 2))),), None)
    if m == 3:
        s = QuadSurd.of(Fraction(3, dim + 2))
        w = QuadSurd.of(Fraction(dim + 2, 6 * dim))
        center = QuadSurd.of(Fraction(2 * (dim - 1), 3 * dim))
        return ((s, w),), center
    if m == 4:
        root = surd_sqrt(Fraction(6 * (dim + 1) * (dim + 2)))
        s_den = Fraction((dim + 2) * (dim + 4))
        w_den = Fraction(12 * dim * (dim + 1))
        pairs = []
        for eps in (-1, 1):
            s = (QuadSurd.of(3 * (d + 2)) + eps * root) / s_den
            w = (QuadSurd.of(3 * d * (d + 1)) - eps * (d - 2) * root) / w_den
            pairs.append((s, w))
        return tuple(pairs), None
    if m == 5:
        root = surd_sqrt(Fraction(10 * (dim + 1) * (dim + 4)))
        s_den = Fraction((dim + 4) * (dim + 6))
        w_den = Fraction(60 * dim * (dim + 1) * (dim + 2))
        pairs = []
        for eps in (-1, 1):
            s = (QuadSurd.of(5 * (d + 4)) + eps * root) / s_den
            w = (
                QuadSurd.of((d + 1) * (d + 4) * (7 * d + 2))
                - eps * (d - 2) * (2 * d + 7) * root
            ) / w_den
            pairs.append((s, w))
        center = QuadSurd.of(
            Fraction(8 * (dim + 1) * (dim - 1), 15 * dim * (dim + 2))
        )
        return tuple(pairs), center
    raise ValueError("closed forms cover m <= 5 only")
