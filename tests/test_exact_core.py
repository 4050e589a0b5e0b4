"""Core arithmetic tests.

Expected values here were computed by independent oracles (brute-force
divisor scans, the quadratic formula, hand valuation counts) before the
implementation and are frozen.
"""
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from mstiff.exact_core import (
    _SPLIT_PRIMES,
    _no_root_mod_small_prime,
    _primes_upto,
    _root_count_mod,
    NewtonPolygon,
    clear_denominators,
    divisors_from_factors,
    factorize,
    is_probable_prime,
    isolate_real_roots,
    newton_polygon_from_valuations,
    nonsplit_prime,
    ord_p,
    poly_eval,
    rational_roots,
    refine_root,
    smooth_part,
    squarefree_part,
    sturm_chain,
)
from mstiff.stiffness import s_poly, stiff_exists, stiff_params


# --- factorization -------------------------------------------------------

def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_matches_brute_divisors():
    for n in [1, 2, 12, 135, 5040, 2 * 3 * 5 * 7 * 11, 97, 1024]:
        assert divisors_from_factors(factorize(n)) == brute_divisors(n)


def test_factorize_large_semiprime():
    # past 2^32 there is no proven route, so factorize refuses
    with pytest.raises(ValueError, match="at least 2\\^32"):
        factorize(1000003 * 1000033)


def trial_division(n: int) -> dict[int, int]:
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@given(st.integers(1, 1 << 17), st.sampled_from((1, -1)))
def test_factorize_matches_trial_division(n, sign):
    # inputs below 2^16 are read off the least-prime-factor table, larger
    # ones are trial-divided by its primes; both must agree with the twin
    assert factorize(sign * n) == trial_division(n)


@pytest.mark.parametrize("n, factors", [
    ((1 << 16) - 1, {3: 1, 5: 1, 17: 1, 257: 1}),  # last table entry
    (1 << 16, {2: 16}),  # first input past the table
    (65521, {65521: 1}),  # largest prime in the table
    (251 * 257, {251: 1, 257: 1}),  # least factor near the byte limit
    (1, {}),
])
def test_factorize_at_the_table_edge(n, factors):
    assert factorize(n) == factors
    assert factorize(-n) == factors


@given(st.integers(1 << 16, (1 << 32) - 1), st.sampled_from((1, -1)))
@example(65521**2, 1)  # the square of the table's largest prime
@example((1 << 32) - 5, -1)  # a prime past 65521^2, left after the table
def test_factorize_matches_sympy_up_to_2_to_the_32(n, sign):
    assert factorize(sign * n) == sympy.factorint(n)


@pytest.mark.parametrize("n, factors", [
    ((1 << 32) - 1, {3: 1, 5: 1, 17: 1, 257: 1, 65537: 1}),
    (65521**2, {65521: 2}),
    ((1 << 32) - 5, {(1 << 32) - 5: 1}),  # the largest prime below 2^32
    (1 << 32, None),
    (65537**2, None),
])
def test_factorize_at_2_to_the_32(n, factors):
    for x in (n, -n):
        if factors is None:
            with pytest.raises(ValueError):
                factorize(x)
        else:
            assert factorize(x) == factors


def test_factorize_negative_and_zero():
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize(
    "bound", [0, 1, 2, 3, 100, 65535, 65536, 65537, 70001]
)
def test_primes_upto_matches_a_plain_sieve(bound):
    # below 2^16 a slice of the table's primes, beyond it a sieve
    flags = [True] * (bound + 1)
    for i in range(2, bound + 1):
        for j in range(i * i, bound + 1, i):
            flags[j] = False
    primes = tuple(i for i in range(2, bound + 1) if flags[i])
    assert _primes_upto(bound) == primes


def exponent(x: int, p: int) -> int:
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


@given(st.integers(1, 10**30), st.integers(0, 3000), st.integers(0, 3000))
def test_smooth_part_splits_off_every_prime_up_to_the_bound(x, low, high):
    low, high = sorted((low, high))
    part, rough = smooth_part(x, low)
    # the rough cofactor split again up to the higher bound completes the
    # split up to that bound
    more, rough2 = smooth_part(rough, high)
    both = {**part, **more}
    for exps, cof, bound in ((part, rough, low), (both, rough2, high)):
        assert math.prod(q**e for q, e in exps.items()) * cof == x
        for q in exps:
            assert trial_division(q) == {q: 1}
        for q in _primes_upto(bound):
            assert exps.get(q, 0) == exponent(x, q)
            assert cof % q
        assert cof == 1 or cof >= 1 << 16
    assert not set(part) & set(more)


@pytest.mark.parametrize("x, bound, split", [
    (1 << 16, 2, ({2: 16}, 1)),  # trial division brings it into the table
    (257**2, 300, ({257: 2}, 1)),  # a square is not a prime
    (65537, 300, ({65537: 1}, 1)),  # no prime up to its root: a prime
    (65537, 0, ({}, 65537)),  # nothing to split off
    (65537 * 65539, 1000, ({}, 65537 * 65539)),  # rough, left unfactored
    (3 * 65537**2, 10**5, ({3: 1, 65537: 2}, 1)),  # primes past the table
    (65537, 256, ({65537: 1}, 1)),  # no prime <= 256, below 257^2: a prime
    (257 * 263, 256, ({}, 257 * 263)),  # no prime <= 256, past 257^2: rough
])
def test_smooth_part_edges(x, bound, split):
    assert smooth_part(x, bound) == split


def test_is_probable_prime_small():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        assert is_probable_prime(n) == sieve[n], n


@pytest.mark.parametrize("n, p, q", [
    # psi_12 and psi_13: the least strong pseudoprimes to the first 12 and
    # the first 13 prime bases (Sorenson and Webster, 2017)
    (318_665_857_834_031_151_167_461, 399_165_290_221, 798_330_580_441),
    (3_317_044_064_679_887_385_961_981, 1_287_836_182_261, 2_575_672_364_521),
])
def test_strong_pseudoprimes_to_the_first_prime_bases_are_composite(n, p, q):
    assert p * q == n
    assert not is_probable_prime(n)


def test_ord_p():
    assert ord_p(120, 2) == 3
    assert ord_p(120, 5) == 1
    assert ord_p(7, 7) == 1
    assert ord_p(Fraction(14080, 7), 7) == -1
    assert ord_p(Fraction(14080, 7), 2) == 8  # 14080 = 2^8 * 55
    assert ord_p(0, 3) == math.inf
    with pytest.raises(ValueError):
        ord_p(10, 4)


# --- slow twin of the integer root layer ---------------------------------
# The Fraction Euclid that the root layer ran on before it moved to integer
# pseudo-remainders and exact division, kept as the reference it must match.

def _ftrim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def twin_derivative(f):
    return _ftrim(f[i] * i for i in range(1, len(f)))


def twin_divmod(a, b):
    rem = [Fraction(c) for c in a]
    dq = len(a) - len(b)
    if dq < 0:
        return (), _ftrim(rem)
    quot = [Fraction(0)] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        if c:
            quot[i] = c
            for j, x in enumerate(b):
                rem[i + j] -= c * x
    return _ftrim(quot), _ftrim(rem)


def twin_gcd(a, b):
    a, b = _ftrim(a), _ftrim(b)
    while b:
        a, b = b, twin_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def twin_squarefree_part(f):
    f = _ftrim(f)
    if len(f) <= 2:
        return f
    g = twin_gcd(f, twin_derivative(f))
    return f if len(g) <= 1 else twin_divmod(f, g)[0]


def twin_primitive(coeffs):
    # positive scaling only, so sign data survives
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def twin_frac_rem(a, b):
    rem = [Fraction(c) for c in a]
    lead = Fraction(b[-1])
    while len(rem) >= len(b):
        c = rem[-1] / lead
        if c:
            off = len(rem) - len(b)
            for j in range(len(b)):
                rem[off + j] -= c * b[j]
        rem.pop()
        while rem and rem[-1] == 0 and len(rem) >= len(b):
            rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def twin_sturm_chain(f):
    f0 = twin_primitive(f)
    if len(f0) <= 1:
        return [f0]
    chain = [f0, twin_primitive(twin_derivative(f0))]
    while len(chain[-1]) > 1:
        rem = twin_frac_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(twin_primitive([-c for c in rem]))
    return chain


def twin_isolate(f):
    """Isolating intervals of the squarefree f: recursive bisection of
    [-B, B] with B = 1 + ceil(max |f_i| / |lc|), counting Sturm sign
    variations by Fraction evaluation."""
    if len(f) <= 1:
        return []
    chain = twin_sturm_chain(f)

    def value(g, x):
        return sum(c * x**i for i, c in enumerate(g))

    def variations(x):
        signs = [v > 0 for v in (value(g, x) for g in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + math.ceil(max(abs(Fraction(c)) for c in f[:-1]) / abs(f[-1]))
    lo, hi = Fraction(-bound), Fraction(bound)
    out = [(lo, lo)] if value(f, lo) == 0 else []

    def visit(a, b):
        count = variations(a) - variations(b)  # roots in (a, b]
        if count == 1 and value(f, b) == 0:
            out.append((b, b))
        elif count == 1 and value(f, a) != 0:
            out.append((a, b))
        elif count:
            mid = (a + b) / 2
            visit(a, mid)
            visit(mid, b)

    visit(lo, hi)
    return sorted(out)


# --- polynomials ---------------------------------------------------------

def test_poly_eval_and_twin_division():
    p = (6, -5, 1)  # (x-2)(x-3)
    assert poly_eval(p, 2) == 0 and poly_eval(p, 3) == 0
    assert poly_eval(p, 0) == 6
    assert poly_eval((Fraction(1, 2), 1), Fraction(1, 3)) == Fraction(5, 6)
    q = (-1, 1)
    prod = tuple(poly_mul(p, q))
    assert poly_eval(prod, 2) == 0 and poly_eval(prod, 1) == 0
    quot, rem = twin_divmod(prod, q)
    assert rem == () and quot == p
    assert twin_derivative(p) == (Fraction(-5), Fraction(2))


def test_twin_gcd_squarefree():
    p = poly_from_roots([2, 2, -1])  # (x-2)^2 (x+1)
    sf = twin_squarefree_part(p)
    assert len(sf) - 1 == 2
    assert poly_eval(sf, 2) == 0 and poly_eval(sf, -1) == 0
    assert squarefree_part(p) == [-2, -1, 1]
    assert squarefree_part([-3 * c for c in p]) == [2, 1, -1]


# --- Sturm isolation -----------------------------------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_from_roots(roots):
    """Ascending integer coefficients of the product of (x - r)."""
    p = [1]
    for r in roots:
        p = poly_mul(p, [-r, 1])
    return p


def test_sturm_chain_sign_preserved():
    # scaled polynomial must give the same chain signs as the original
    p = poly_from_roots([1, 3, -2])
    chain = sturm_chain(p)
    chain2 = sturm_chain([7 * c for c in p])
    assert chain == chain2


def test_isolation_simple_cubic():
    p = poly_from_roots([1, 3, -2])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    for iv, root in zip(ivs, [-2, 1, 3]):
        assert iv.lo <= root <= iv.hi


def test_isolation_exact_midpoint_hits():
    p = poly_from_roots([-1, 0, 1])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    found = []
    for iv in ivs:
        r = refine_root(p, iv, Fraction(1, 10**6))
        found.append(r)
    for r, expect in zip(found, [-1, 0, 1]):
        assert r.lo <= expect <= r.hi


def test_isolation_dense_integer_roots():
    roots = list(range(1, 11))
    p = poly_from_roots(roots)
    ivs = isolate_real_roots(p)
    assert len(ivs) == 10
    for iv, root in zip(ivs, roots):
        assert iv.lo <= root <= iv.hi
        for other in roots:
            if other != root:
                assert not (iv.lo < other < iv.hi)


def test_isolation_does_not_depend_on_the_recursion_limit():
    # roots 2^-200 apart sit about 200 bisection levels down; with only 40
    # frames to spare, a recursive bisection would stop with RecursionError
    gap = Fraction(1, 2**200)
    # (x - 1)(x + 3)(2^200 x - (2^200 + 1)), denominators cleared
    p = poly_mul(poly_from_roots([1, -3]), [-(2**200 + 1), 2**200])
    expected = isolate_real_roots(p)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        lowered = isolate_real_roots(p)
    finally:
        sys.setrecursionlimit(limit)
    assert lowered == expected
    assert len(expected) == 3
    for iv, root in zip(expected, [-3, 1, 1 + gap]):
        assert iv.lo <= root <= iv.hi
    assert expected[1].hi < 1 + gap


def test_refine_sqrt2():
    p = [-2, 0, 1]
    (iv_neg, iv_pos) = isolate_real_roots(p)
    r = refine_root(p, iv_pos, Fraction(1, 10**30))
    assert r.lo**2 < 2 < r.hi**2
    assert r.width() <= Fraction(1, 10**30)
    rn = refine_root(p, iv_neg, Fraction(1, 10**30))
    assert rn.hi < 0 and rn.lo**2 > 2 > rn.hi**2


def test_refine_root_rejects_interval_without_sign_change_under_optimize_flag():
    # [2, 3] holds no root of x^2 - 2; without the check, bisection would
    # return a narrow interval that holds none either
    script = (
        "from fractions import Fraction\n"
        "from mstiff.exact_core import RootInterval, refine_root\n"
        "p = [-2, 0, 1]\n"
        "try:\n"
        "    print(refine_root(p, RootInterval(Fraction(2), Fraction(3)),"
        " Fraction(1, 100)))\n"
        "except ValueError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: interval must bracket a sign change\n"


def test_random_planted_roots_isolated():
    rng = random.Random(20260822)
    for _ in range(20):
        roots = sorted(rng.sample(range(-30, 30), rng.randint(1, 6)))
        p = poly_from_roots(roots)
        ivs = isolate_real_roots(p)
        assert len(ivs) == len(roots)
        for iv, root in zip(ivs, roots):
            assert iv.lo <= root <= iv.hi


squared = st.tuples(
    st.lists(st.integers(-12, 12), max_size=4),
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), max_size=3),
    st.sampled_from((1, -1, 2, -6)),
)


@given(squared)
def test_integer_root_layer_matches_fraction_twin(case):
    # planted integer roots (repeats allowed) times a random monic factor
    # times the square of another, scaled by a content of either sign
    roots, factor, base, scale = case
    f = poly_mul(poly_from_roots(roots), factor + [1])
    f = [scale * c for c in poly_mul(f, poly_mul(base + [1], base + [1]))]
    assert sturm_chain(f) == twin_sturm_chain(f)
    sf = squarefree_part(f)
    twin_sf = twin_squarefree_part(f)
    assert sf == twin_primitive(twin_sf)
    ivs = isolate_real_roots(sf)
    assert [(iv.lo, iv.hi) for iv in ivs] == twin_isolate(twin_sf)


# --- rational root certification ----------------------------------------

def test_rational_roots_quadratic_yes():
    # oracle: quadratic formula, disc 144-80=64, roots 2 and 10
    rep = rational_roots((20, -12, 1))
    assert rep.all_rational
    assert rep.roots == (Fraction(2), Fraction(10))


def test_rational_roots_verification_survives_optimize_flag():
    # evaluation is patched to deny that the found roots 1 and -1 of
    # x^2 - 1 are roots; the verification pass must catch that even
    # under python -O, where assert statements are stripped
    script = (
        "from fractions import Fraction\n"
        "from mstiff import exact_core\n"
        "exact_core.poly_eval = lambda coeffs, x: Fraction(1)\n"
        "try:\n"
        "    exact_core.rational_roots((-1, 0, 1))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: reported root -1 fails")


def test_rational_roots_quadratic_no():
    # oracle: disc 144-64=80 not a square, roots 6 +/- 2*sqrt(5)
    p = (16, -12, 1)
    rep = rational_roots(p)
    assert not rep.all_rational
    assert rep.witness is not None
    assert rep.witness.kind == "isolated-interval"
    lo, hi = rep.witness.interval
    assert poly_eval(p, lo) * poly_eval(p, hi) < 0  # brackets a root
    assert math.floor(hi) < math.ceil(lo) or all(
        poly_eval(p, k) != 0 for k in range(math.ceil(lo), math.floor(hi) + 1)
    )


def test_rational_roots_multiplicity():
    rep = rational_roots(poly_from_roots([4, 4, 4, -1]))
    assert rep.all_rational
    assert rep.roots == (Fraction(-1), Fraction(4), Fraction(4), Fraction(4))


def test_rational_roots_zero_roots_stripped():
    rep = rational_roots((0, 0, -6, 1))
    assert rep.all_rational
    assert rep.roots == (Fraction(0), Fraction(0), Fraction(6))


def test_rational_roots_denominator_three():
    # (x - 1/3)(x - 2) = x^2 - 7/3 x + 2/3
    p = (Fraction(2, 3), Fraction(-7, 3), 1)
    rep = rational_roots(p, {1, 3})
    assert rep.all_rational
    assert rep.roots == (Fraction(1, 3), Fraction(2))
    # same polynomial under integer-only rules must fail fast
    rep1 = rational_roots(p, {1})
    assert not rep1.all_rational
    assert rep1.witness.kind == "non-integral-coefficient"


def test_rational_roots_denominator_two_rejected():
    rep = rational_roots((Fraction(-1, 2), 1), {1, 3})  # root 1/2
    assert not rep.all_rational
    assert rep.witness.kind == "non-integral-coefficient"


def test_rational_roots_complex_pair():
    rep = rational_roots((1, 0, 1))  # x^2 + 1
    assert not rep.all_rational
    assert rep.witness.kind == "complex-roots"


def test_rational_roots_golden_ratio():
    rep = rational_roots((-1, -1, 1))
    assert not rep.all_rational
    assert rep.witness.kind == "isolated-interval"


def test_rational_roots_large_degree_isolated_interval():
    # x^65 + x + 1 times (x - 2): the root 2 is stripped, and the first
    # interval of the degree-65 remainder is the witness
    big = [0] * 66
    big[0] = 1
    big[1] = 1
    big[65] = 1
    rep = rational_roots(poly_mul(big, [-2, 1]))
    assert not rep.all_rational
    assert rep.witness.kind == "isolated-interval"
    assert_witness_interval_checks(rep.witness, big, {1})


def test_rational_roots_random_planted():
    rng = random.Random(77)
    for _ in range(15):
        roots = [rng.randint(-12, 12) for _ in range(rng.randint(1, 5))]
        p = poly_from_roots(roots)
        rep = rational_roots(p)
        assert rep.all_rational
        assert list(rep.roots) == sorted(Fraction(r) for r in roots)
        # planting an irrational pair must flip the verdict
        p2 = poly_mul(p, [-2, 0, 1])
        rep2 = rational_roots(p2)
        assert not rep2.all_rational


# --- slow twins of the root certification -------------------------------

def int_eval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divisor_twin(coeffs):
    """(integer roots with multiplicity, what is left) of a monic integer
    polynomial, by trying every divisor of the constant term."""
    roots, work = [], list(coeffs)
    while len(work) > 1 and work[0] == 0:
        roots.append(0)
        work = work[1:]
    const = abs(work[0])
    divs = [d for d in range(1, math.isqrt(const) + 1) if const % d == 0]
    for d in sorted(set(divs + [const // d for d in divs])):
        for cand in (d, -d):
            while len(work) > 1 and int_eval(work, cand) == 0:
                roots.append(cand)
                quot, carry = [0] * (len(work) - 1), 0
                for i in range(len(work) - 1, 0, -1):
                    carry = carry * cand + work[i]
                    quot[i - 1] = carry
                work = quot
    return sorted(roots), work


def assert_witness_interval_checks(witness, remainder, allowed):
    # the interval brackets a sign change of the remainder, so holds one of
    # its real roots, and holds no candidate k / q with q allowed
    lo, hi = witness.interval
    q = max(allowed)
    assert lo < hi
    assert poly_eval(remainder, lo) * poly_eval(remainder, hi) < 0
    assert math.ceil(lo * q) > math.floor(hi * q)


planted = st.tuples(
    st.lists(st.integers(-12, 12), max_size=4),
    st.lists(st.integers(-40, 40), max_size=4),
)


@given(planted)
def test_rational_roots_matches_divisor_twin(case):
    roots, factor = case
    coeffs = poly_mul(poly_from_roots(roots), factor + [1])
    assert abs(coeffs[0]) <= 10**6
    twin_roots, remainder = divisor_twin(coeffs)
    rep = rational_roots(coeffs)
    assert rep.all_rational == (len(remainder) == 1)
    if rep.all_rational:
        assert list(rep.roots) == [Fraction(r) for r in twin_roots]
    elif rep.witness.kind == "isolated-interval":
        assert_witness_interval_checks(rep.witness, remainder, {1})
    else:
        assert rep.witness.kind == "complex-roots"
        assert not isolate_real_roots(squarefree_part(remainder))


@given(planted, st.integers(-30, 30), st.booleans())
def test_root_sieve_implies_no_integer_root(case, k, plant):
    # no root mod some p <= 19 must mean brute force finds no integer root
    roots, factor = case
    coeffs = poly_mul(poly_from_roots(roots), factor + [1])
    if plant:
        coeffs = poly_mul(coeffs, [-k, 1])
    if _no_root_mod_small_prime(coeffs):
        bound = 1 + max(abs(c) for c in coeffs)
        assert all(int_eval(coeffs, x) for x in range(-bound, bound + 1))


# --- root counts modulo small primes ------------------------------------

def sympy_linear_count(T, p):
    """Roots of T in F_p with multiplicity, read off sympy's factorization
    over GF(p): the multiplicities of its linear factors."""
    y = sympy.Symbol("y")
    _, factors = sympy.Poly(list(reversed(T)), y, modulus=p).factor_list()
    return sum(e for f, e in factors if f.degree() == 1)


def sympy_nonsplit_prime(T):
    return next(
        (p for p in _SPLIT_PRIMES if sympy_linear_count(T, p) < len(T) - 1),
        None,
    )


@given(planted, st.integers(-10**6, 10**6))
@example(([], [1, 0]), 0)  # y^2 + 1: irreducible mod 7, split mod 5
@example(([3, 3, -8], []), 0)  # repeated roots split at every prime
@example(([], [-2, 0, 0, 0]), 0)  # y^4 - 2
def test_root_count_mod_matches_sympy_factorization(case, shift):
    roots, factor = case
    T = poly_mul(poly_from_roots(roots), factor + [1])
    T = poly_mul(T, [-shift, 1])
    for p in _SPLIT_PRIMES:
        assert _root_count_mod(T, p) == sympy_linear_count(T, p), (T, p)
    assert nonsplit_prime(T) == sympy_nonsplit_prime(T)


def test_nonsplit_prime_of_section_polynomials_matches_sympy():
    # every cell of m <= 20, d <= 300 that reaches root certification
    checked = 0
    for m in range(4, 21):
        for d in range(3, 301):
            w = stiff_exists(m, d).witness
            if getattr(w, "cell", None) is None:
                continue
            T = clear_denominators(
                s_poly(m, d), stiff_params(m, d).allowed_denominators)[1]
            assert nonsplit_prime(T) == sympy_nonsplit_prime(T) == w.prime
            checked += 1
    assert checked > 300


@given(st.lists(st.integers(-50, 50), max_size=12))
def test_nonsplit_prime_never_refuses_integer_roots(roots):
    assert nonsplit_prime(poly_from_roots(roots)) is None


@pytest.mark.parametrize("T", [[1], [0, 1], [-7, 1], [10**30 + 1, 1]])
def test_nonsplit_prime_of_degree_at_most_one_is_none(T):
    assert nonsplit_prime(T) is None


def test_nonsplit_prime_requires_monic():
    with pytest.raises(ValueError):
        nonsplit_prime([1, 0, 2])
    with pytest.raises(ValueError):
        nonsplit_prime([])


def test_clear_denominators():
    # x^2 - 2x/3 - 1/3 has roots 1 and -1/3; y = 3x clears it to
    # y^2 - 2y - 3
    p = (Fraction(-1, 3), Fraction(-2, 3), 1)
    assert clear_denominators(p, {1, 3}) == (3, [-3, -2, 1])
    w = clear_denominators(p, {1})
    assert w.kind == "non-integral-coefficient"
    assert w.detail == "coefficient of degree 0 is -1/3 after clearing " \
        "denominator 1"
    assert rational_roots(p, {1}).witness == w


def test_root_witness_intervals_of_section_polynomials():
    # every isolated-interval witness of m <= 20, d <= 300 brackets a sign
    # change of the section polynomial and holds no allowed candidate; the
    # stripped rational roots keep one sign there, so the remainder's
    # sign changes too
    checked = 0
    for m in range(2, 21):
        for d in range(3, 301):
            v = stiff_exists(m, d)
            w = getattr(v.witness, "root_witness", None)
            if w is None or w.kind != "isolated-interval":
                continue
            coeffs = s_poly(m, d)
            assert_witness_interval_checks(
                w, coeffs, stiff_params(m, d).allowed_denominators
            )
            checked += 1
    assert checked > 300


def test_rational_roots_requires_monic():
    with pytest.raises(ValueError):
        rational_roots((1, 2))
    with pytest.raises(ValueError):
        rational_roots((1, 0, 1), {1, 2})


# --- Newton polygons -----------------------------------------------------

def newton_polygon(coeffs, p):
    # per-coefficient valuations, as the screens hand them over
    return newton_polygon_from_valuations(
        [None if c == 0 else ord_p(c, p) for c in coeffs], p
    )


def test_newton_polygon_squared_difference():
    np_ = newton_polygon([-1, 0, 1], 2)  # x^2 - 1
    assert np_.slopes == (Fraction(0),)
    assert np_.all_slopes_integer


def test_newton_polygon_linear():
    np_ = newton_polygon([-2, 1], 2)  # x - 2
    assert np_.slopes == (Fraction(1),)
    assert np_.all_slopes_integer


def test_newton_polygon_fractional_slope():
    # x^3 - 30x^2 + 120x - 112 at p=2: valuations 0,1,3,4
    np_ = newton_polygon([-112, 120, -30, 1], 2)
    assert np_.vertices == ((0, 0), (1, 0), (2, 1), (4, 4))
    assert np_.slopes == (Fraction(1), Fraction(3, 2))
    assert not np_.all_slopes_integer


def test_newton_polygon_sqrt2():
    np_ = newton_polygon([-2, 0, 1], 2)  # x^2 - 2
    assert np_.slopes == (Fraction(1, 2),)
    assert not np_.all_slopes_integer


def test_newton_polygon_integer_roots_integer_slopes():
    rng = random.Random(5)
    for _ in range(25):
        roots = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
        coeffs = poly_from_roots(roots)
        for prime in (2, 3, 5):
            assert newton_polygon(coeffs, prime).all_slopes_integer, (
                roots,
                prime,
            )


def test_newton_polygon_rejects_bad_input():
    with pytest.raises(ValueError):
        newton_polygon([1, 2], 4)
    with pytest.raises(ValueError):
        newton_polygon([0], 2)
