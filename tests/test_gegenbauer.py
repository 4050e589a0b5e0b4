"""Quadrature construction tests.

The moment oracle integrates the weight directly (binomial expansion for
odd dimensions, symbolic integration spot checks for even ones), so the
recurrence, kernel, and closed forms are each held against an independent
route.  The kernel is also held against its slow twin, which builds the
kernel polynomial by multiplying the orthogonal polynomials out.
"""
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st
from sympy.ntheory.factor_ import core

from mstiff.exact_core import poly_eval
from mstiff.gegenbauer import (
    QuadSurd,
    SymmetricQuadrature,
    closed_form_quadrature,
    kernel_value,
    moment,
    node_square_poly,
    orthopoly_square_parts,
    quadrature_from_node_squares,
    recurrence_coefficient,
    surd_sqrt,
)

F = Fraction


# --- moment oracle -------------------------------------------------------

def raw_moment_integral(j: int, dim: int) -> Fraction:
    """Direct integral of x^(2j) (1-x^2)^k over [-1,1] for odd dim."""
    k = (dim - 3) // 2
    assert dim % 2 == 1 and k >= 0
    total = Fraction(0)
    for i in range(k + 1):
        total += Fraction(math.comb(k, i) * (-1) ** i * 2, 2 * j + 2 * i + 1)
    return total


def test_moments_match_direct_integration_odd_dims():
    for dim in (3, 5, 7, 9, 23):
        norm = raw_moment_integral(0, dim)
        for j in range(7):
            assert moment(j, dim) == raw_moment_integral(j, dim) / norm


def test_moments_match_symbolic_integration_even_dims():
    # x = sin t turns (1 - x^2)^((d - 3)/2) dx into cos^(d - 2) t dt over
    # (-pi/2, pi/2): still symbolic and independent of `moment`, and sympy
    # integrates powers of sin and cos without its Meijer-G machinery
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    span = (t, -sympy.pi / 2, sympy.pi / 2)
    for dim in (2, 4, 6):
        weight = sympy.cos(t) ** (dim - 2)
        norm = sympy.integrate(weight, span)
        for j in range(4):
            val = sympy.integrate(sympy.sin(t) ** (2 * j) * weight, span)
            assert sympy.nsimplify(val / norm) == sympy.Rational(
                moment(j, dim).numerator, moment(j, dim).denominator
            )


def test_chebyshev_moments():
    # dim 2 projection is the arcsine law: E[x^(2j)] = C(2j, j) / 4^j
    for j in range(8):
        assert moment(j, 2) == Fraction(math.comb(2 * j, j), 4**j)


# --- recurrence and orthogonality ---------------------------------------

def poly_mul(a, b):
    """Product of two ascending coefficient tuples."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def to_x_poly(parity: int, part: tuple) -> tuple:
    cs = [Fraction(0)] * (2 * (len(part) - 1) + 1 + parity)
    for k, c in enumerate(part):
        cs[2 * k + parity] = c
    return tuple(cs)


def inner(p: tuple, q: tuple, dim: int) -> Fraction:
    prod = poly_mul(p, q)
    total = Fraction(0)
    for i, c in enumerate(prod):
        if i % 2 == 0:
            total += c * moment(i // 2, dim)
    return total


def test_orthogonality_against_moment_oracle():
    for dim in (2, 3, 4, 5, 23, 26):
        parts = orthopoly_square_parts(7, dim)
        polys = [to_x_poly(par, pp) for par, pp in parts]
        norm = Fraction(1)
        for i, p in enumerate(polys):
            if i >= 1:
                norm *= recurrence_coefficient(i, dim)
            for j, q in enumerate(polys):
                expected = norm if i == j else Fraction(0)
                if i >= j:
                    assert inner(p, q, dim) == expected, (dim, i, j)


def test_legendre_special_case():
    # dim 3 gives the Lebesgue measure on [-1,1]; classic monic forms
    parts = orthopoly_square_parts(4, 3)
    assert to_x_poly(*parts[2]) == (F(-1, 3), F(0), F(1))
    assert to_x_poly(*parts[3]) == (F(0), F(-3, 5), F(0), F(1))


def test_chebyshev_special_case():
    # dim 2: monic Chebyshev, b_1 = 1/2 and b_i = 1/4 afterwards
    assert recurrence_coefficient(1, 2) == F(1, 2)
    for i in range(2, 9):
        assert recurrence_coefficient(i, 2) == F(1, 4)
    assert poly_eval(node_square_poly(2, 2), F(1, 2)) == 0


# --- kernel values -------------------------------------------------------

def twin_kernel_poly(num_terms: int, dim: int) -> tuple:
    """Slow twin of kernel_value: sum_i q_i(x)^2 / <q_i, q_i> multiplied out
    as a polynomial in t = x^2, ascending coefficients."""
    K = [Fraction(0)] * num_terms  # q_i(x)^2 has degree i in t
    h = Fraction(1)
    for i, (parity, part) in enumerate(orthopoly_square_parts(num_terms, dim)):
        if i >= 1:
            h *= recurrence_coefficient(i, dim)
        sq = poly_mul(part, part)
        if parity:
            sq = poly_mul(sq, (F(0), F(1)))
        for k, c in enumerate(sq):
            K[k] += c / h
    return tuple(K)


def twin_eval(coeffs: tuple, t: Fraction) -> Fraction:
    return sum((c * t**k for k, c in enumerate(coeffs)), Fraction(0))


def test_kernel_frozen_values():
    assert kernel_value(4, 23, F(1, 5)) == F(184, 11)
    assert kernel_value(4, 23, F(1, 45)) == F(184, 81)
    assert kernel_value(4, 241, F(1, 45)) == F(2651, 125)


def test_kernel_three_point_legendre():
    # 3-point rule on the dim-3 projection: nodes 0, +-sqrt(3/5),
    # normalized weights 4/9 and 5/18
    assert kernel_value(3, 3, F(0)) == F(9, 4)
    assert kernel_value(3, 3, F(3, 5)) == F(18, 5)


node_squares = st.one_of(
    st.just(F(0)), st.fractions(min_value=0, max_value=2, max_denominator=10**12)
)


@given(st.integers(1, 24), st.integers(2, 10**30), node_squares)
def test_kernel_value_matches_product_twin(m, dim, t):
    assert kernel_value(m, dim, t) == twin_eval(twin_kernel_poly(m, dim), t)


@given(st.integers(1, 24), st.integers(2, 10**30),
       st.lists(node_squares, min_size=12, max_size=12))
def test_weights_are_reciprocal_product_twin(m, dim, ts):
    squares = ts[: m // 2]
    K = twin_kernel_poly(m, dim)
    quad = quadrature_from_node_squares(m, dim, squares)
    assert quad.pairs == tuple(
        (s, 1 / twin_eval(K, s)) for s in sorted(squares)
    )
    assert quad.center_weight == (1 / twin_eval(K, F(0)) if m % 2 else None)


def test_node_square_poly_roots():
    p = node_square_poly(4, 23)
    assert poly_eval(p, F(1, 5)) == 0 and poly_eval(p, F(1, 45)) == 0
    q = node_square_poly(5, 26)
    assert poly_eval(q, F(1, 4)) == 0 and poly_eval(q, F(1, 16)) == 0
    r = node_square_poly(5, 124)
    assert poly_eval(r, F(1, 16)) == 0 and poly_eval(r, F(3, 208)) == 0


def test_quadrature_from_node_squares_examples():
    quad = quadrature_from_node_squares(4, 23, [F(1, 5), F(1, 45)])
    assert quad.pairs == ((F(1, 45), F(81, 184)), (F(1, 5), F(11, 184)))
    assert quad.center_weight is None
    quad.verify(7)

    quad5 = quadrature_from_node_squares(5, 26, [F(1, 4), F(1, 16)])
    assert quad5.pairs == ((F(1, 16), F(64, 273)), (F(1, 4), F(5, 273)))
    assert quad5.center_weight == F(45, 91)
    quad5.verify(9)

    quad124 = quadrature_from_node_squares(5, 124, [F(1, 16), F(3, 208)])
    assert quad124.center_weight == F(1025, 1953)
    quad124.verify(9)


def test_verify_rejects_bad_rules():
    good = quadrature_from_node_squares(4, 23, [F(1, 5), F(1, 45)])
    bad = SymmetricQuadrature(
        23,
        ((F(1, 45), F(81, 184)), (F(1, 5), F(12, 184))),
        None,
    )
    with pytest.raises(ValueError):
        bad.verify(7)
    with pytest.raises(ValueError):
        SymmetricQuadrature(23, good.pairs, F(1, 10)).verify(7)
    # exactness degree just past the design strength must fail for m=4
    with pytest.raises(ValueError):
        good.verify(8)


# --- quadratic surds -----------------------------------------------------

def test_surd_normalization():
    assert QuadSurd.make(0, 1, 8) == QuadSurd.make(0, 2, 2)
    assert QuadSurd.make(2, 3, 4) == QuadSurd.of(8)
    assert QuadSurd.make(5, 0, 7).is_rational
    assert surd_sqrt(F(9, 4)).to_fraction() == F(3, 2)
    assert surd_sqrt(F(1, 2)) == QuadSurd.make(0, F(1, 2), 2)


def assert_sqrt_matches_sympy(c):
    # sqrt(c) = root * sqrt(free), free the squarefree part (sympy's core)
    free = core(c)
    root = math.isqrt(c // free)
    expected = (
        QuadSurd(F(0), F(root), free) if free > 1
        else QuadSurd(F(root), F(0), 0)
    )
    assert QuadSurd.make(0, 1, c) == expected


# primes from 65537 up to 2^24, so a product of two stays below 2^48
ROUGH_PRIMES = st.integers(65538, 1 << 24).map(sympy.prevprime)


@given(st.integers(1, 1000), st.integers(1, 1000), ROUGH_PRIMES,
       ROUGH_PRIMES, st.sampled_from(("p", "pq", "p^2")))
@example(12, 5, 65537, 65537, "pq")  # pq with p == q is p^2
@example(1, 1, (1 << 24) - 3, (1 << 24) - 3, "p^2")  # below 2^48
def test_surd_squarefree_part_matches_sympy(a, b, p, q, shape):
    # every rough part below 2^48 with no prime factor below 2^16 is p,
    # pq or p^2, so make takes its squarefree part without factoring it
    rough = {"p": p, "pq": p * q, "p^2": p * p}[shape]
    assert_sqrt_matches_sympy(a * a * b * rough)


@pytest.mark.parametrize("c, refused", [
    (65537**2 * 65539, True),  # p^2 q, past 2^48
    (6 * 65537**2 * 65539, True),
    (65537 * 65539 * 65543, True),  # pqr, past 2^48
    (65537**2 * 65539**2, False),  # a square rough part of any size
    ((10**12 + 39) ** 2 * 3, False),
])
def test_surd_rough_part_past_2_to_the_48(c, refused):
    if refused:
        with pytest.raises(ValueError, match=f"radicand {c}"):
            QuadSurd.make(0, 1, c)
    else:
        assert_sqrt_matches_sympy(c)


def test_surd_arithmetic():
    r2 = surd_sqrt(2)
    assert (1 + r2) * (r2 - 1) == QuadSurd.of(1)
    assert r2 * r2 == QuadSurd.of(2)
    assert (3 + 2 * r2) / (1 + r2) == 1 + r2
    v = QuadSurd.make(F(1, 3), F(-2, 5), 7)
    assert v + (-v) == QuadSurd.of(0)
    with pytest.raises(ValueError):
        surd_sqrt(2) + surd_sqrt(3)


def test_surd_comparisons():
    r2 = surd_sqrt(2)
    assert 1 + r2 > F(12, 5)
    assert 1 + r2 < F(5, 2)
    assert -r2 < 0 < r2
    assert surd_sqrt(F(1, 2)) < 1
    vals = [QuadSurd.of(0), surd_sqrt(F(1, 2)), QuadSurd.of(1), r2]
    assert sorted(vals) == vals


# --- closed forms --------------------------------------------------------

def surd_moment_sum(pairs, center, j):
    total = QuadSurd.of(0)
    for s, w in pairs:
        term = w
        for _ in range(j):
            term = term * s
        total = total + 2 * term
    if center is not None and j == 0:
        total = total + center
    return total


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("dim", [2, 3, 4, 7, 10, 23, 26])
def test_closed_forms_are_designs(m, dim):
    pairs, center = closed_form_quadrature(m, dim)
    for j in range(m):
        assert surd_moment_sum(pairs, center, j) == QuadSurd.of(moment(j, dim))
    for s, w in pairs:
        assert QuadSurd.of(0) < s <= QuadSurd.of(1)
        assert w > QuadSurd.of(0)
    if center is not None:
        assert center > QuadSurd.of(0)


def test_closed_forms_match_kernel_when_rational():
    cases = [(4, 23), (4, 241), (5, 26), (5, 4)] + [
        (m, dim) for m in (2, 3) for dim in range(3, 20)
    ]
    for m, dim in cases:
        pairs, center = closed_form_quadrature(m, dim)
        squares = [s.to_fraction() for s, _ in pairs]
        quad = quadrature_from_node_squares(m, dim, squares)
        assert quad.pairs == tuple(
            (s.to_fraction(), w.to_fraction()) for s, w in pairs
        )
        if center is None:
            assert quad.center_weight is None
        else:
            assert quad.center_weight == center.to_fraction()
        quad.verify(2 * m - 1)


def test_closed_forms_dim_two_uniform_weights():
    # the dim-2 rules are the Chebyshev ones: every weight equals 1/m
    for m in (2, 3, 4, 5):
        pairs, center = closed_form_quadrature(m, 2)
        for _, w in pairs:
            assert w == QuadSurd.of(F(1, m))
        if center is not None:
            assert center == QuadSurd.of(F(1, m))
    pairs4, _ = closed_form_quadrature(4, 2)
    assert pairs4[0][0] == (2 - surd_sqrt(2)) / 4
    assert pairs4[1][0] == (2 + surd_sqrt(2)) / 4
    pairs5, _ = closed_form_quadrature(5, 2)
    assert pairs5[1][0] == (5 + surd_sqrt(5)) / 8


def test_moment_argument_validation():
    with pytest.raises(ValueError):
        moment(-1, 5)
    with pytest.raises(ValueError):
        moment(2, 1)
    with pytest.raises(ValueError):
        recurrence_coefficient(0, 5)
    with pytest.raises(ValueError):
        closed_form_quadrature(6, 10)
