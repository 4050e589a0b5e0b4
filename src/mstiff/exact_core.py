"""Exact arithmetic foundations.

Integer factorization below 2^32 by sieve and trial division alone; Horner
evaluation of polynomials given as ascending coefficient sequences; a root
layer on ascending integer coefficient lists (Sturm isolation, interval
refinement, rational root certification, root counts modulo small primes);
Newton polygons.  No floating point anywhere; every function is pure, so
the module is safe to use from worker processes.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "is_probable_prime",
    "factorize",
    "smooth_part",
    "ord_p",
    "perfect_square_root",
    "fraction_square_root",
    "divisors_from_factors",
    "poly_eval",
    "RootInterval",
    "RootWitness",
    "RootReport",
    "sturm_chain",
    "squarefree_part",
    "isolate_real_roots",
    "refine_root",
    "clear_denominators",
    "nonsplit_prime",
    "rational_roots",
    "NewtonPolygon",
    "newton_polygon_from_valuations",
]


# ---------------------------------------------------------------------------
# primality and factorization

# The first 13 primes make Miller-Rabin a proof below psi_13 =
# 3,317,044,064,679,887,385,961,981, the least composite that is a strong
# probable prime to all of them (Sorenson and Webster, Math. Comp. 86, 2017;
# the first 12 stop at psi_12 ~ 3.19e23).  Base 43 also rejects psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
PRIME_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981

_SMALL_PRIME_LIMIT = 1 << 16
# _least_factor[k] is the least prime factor of a composite k < 2^16, and 0
# for primes (and 0, 1).  Such a factor is at most isqrt(2^16 - 1) = 255, so
# a byte holds it; descending order leaves the least prime in each slot.
_least_factor = bytearray(_SMALL_PRIME_LIMIT)
_FACTOR_BOUND = math.isqrt(_SMALL_PRIME_LIMIT - 1)
for _p in reversed([
    q for q in range(2, _FACTOR_BOUND + 1)
    if all(q % s for s in range(2, math.isqrt(q) + 1))
]):
    _least_factor[_p * _p :: _p] = bytes([_p]) * (
        (_SMALL_PRIME_LIMIT - 1 - _p * _p) // _p + 1
    )
SMALL_PRIMES = tuple(
    i for i in range(2, _SMALL_PRIME_LIMIT) if not _least_factor[i]
)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases `_MR_BASES`: a proof for n below
    `PRIME_PROVEN_BELOW` (psi_13, about 3.3e24), a probable-prime test past
    it.  The same primes are trial divisors, so each is called prime.  It
    only checks a given prime; no factorization uses it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| < 2^32 as an exponent map, proven
    without a primality test.  factorize(1) == {}.

    |n| < 2^16 is read off the least-prime-factor table; a larger |n| is
    trial-divided by the table's primes (`smooth_part`), which reach its
    square root.  |n| >= 2^32 raises ValueError; no caller needs more:
    the offset window bound factors once each of the about dim / 2 odd
    integers that the factors c - 2 theta of all the offset products
    fill, and the divisor candidates the factors of two or four products,
    all below 2 dim; no product is factored whole.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if n < _SMALL_PRIME_LIMIT:
        out: dict[int, int] = {}
        least = _least_factor
        while n > 1:
            p = least[n] or n
            out[p] = out.get(p, 0) + 1
            n //= p
        return out
    if n >> 32:
        raise ValueError(f"cannot factor {n}: at least 2^32")
    # below 2^32 no cofactor is left: it would have no prime factor below
    # 2^16, so smooth_part enters it as a prime
    return smooth_part(n, _SMALL_PRIME_LIMIT - 1)[0]


@functools.lru_cache(maxsize=8)
def _primes_upto(bound: int) -> tuple[int, ...]:
    """Every prime <= bound, ascending: a slice of the table's primes below
    2^16, a sieve of Eratosthenes beyond.  Cached, since a walk asks for
    the same bound at every step; a one-off sieve calls `__wrapped__`."""
    if bound < _SMALL_PRIME_LIMIT:
        return SMALL_PRIMES[: bisect.bisect_right(SMALL_PRIMES, bound)]
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in SMALL_PRIMES:
        if p * p > bound:
            break
        sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return tuple(itertools.compress(range(bound + 1), sieve))


def smooth_part(x: int, bound: int) -> tuple[dict[int, int], int]:
    """Split x >= 1 into prime exponents and a rough cofactor, proven
    without a primality test.

    The map gives the exact exponent in x of every prime <= bound, and of
    some larger primes: x < 2^16 is read off the least-factor table, as is
    a leftover that trial division brings below 2^16, and a leftover with
    no prime factor up to its square root (or below (bound + 1)^2 once
    every prime <= bound is tried) is a prime.  The cofactor is 1, or a
    number of at least 2^16 and (bound + 1)^2 with no prime factor
    <= bound, left unfactored.  So a bound of at least sqrt(x) splits x
    whole; with bound 2^16 - 1, a cofactor below 2^48 is p, pq or p^2.
    """
    if x < _SMALL_PRIME_LIMIT:
        return factorize(x), 1
    out: dict[int, int] = {}
    for p in _primes_upto(bound):
        if p * p > x:
            out[x] = 1
            return out, 1
        if x % p == 0:
            x //= p
            e = 1
            while x % p == 0:
                x //= p
                e += 1
            out[p] = e
            if x < _SMALL_PRIME_LIMIT:
                out.update(factorize(x))
                return out, 1
    if x <= bound * (bound + 2):  # below (bound + 1)^2
        out[x] = 1
        return out, 1
    return out, x


def ord_p(x: int | Fraction, p: int) -> int | float:
    """p-adic valuation.  ord_p(0) is +infinity.

    >>> ord_p(120, 2)
    3
    >>> ord_p(Fraction(14080, 7), 7)
    -1
    """
    if p < 2 or not is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if x == 0:
        return math.inf
    if isinstance(x, Fraction):
        return ord_p(x.numerator, p) - ord_p(x.denominator, p)
    x = abs(int(x))
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def perfect_square_root(n: int) -> Optional[int]:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def fraction_square_root(f: Fraction) -> Optional[Fraction]:
    """Exact rational square root of f if one exists, else None."""
    rn = perfect_square_root(f.numerator)
    if rn is None:
        return None
    rd = perfect_square_root(f.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def divisors_from_factors(factors: dict[int, int]) -> list[int]:
    """All positive divisors, sorted ascending, each exactly once."""
    divs = [1]
    for p, e in sorted(factors.items()):
        pk = 1
        block = []
        for _ in range(e):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    return sorted(divs)


# ---------------------------------------------------------------------------
# polynomials
#
# A polynomial is a sequence of coefficients in ascending order of degree:
# int coefficients on decision paths, Fraction ones for the Gegenbauer
# recurrences.

def poly_eval(coeffs: Sequence[Fraction | int], x: Fraction | int) -> Fraction | int:
    """Horner evaluation of the ascending coefficient sequence at x."""
    acc: Fraction | int = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# integer polynomials: Sturm sequences and root isolation
#
# The root layer works on ascending lists of integer coefficients with a
# nonzero leading entry.  Every rescaling below is by a positive integer,
# so signs, and with them Sturm sign variations, survive.

def _primitive(f: Sequence[int]) -> list[int]:
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else list(f)


def _exact_quotient(f: Sequence[int], g: Sequence[int]) -> Optional[list[int]]:
    """f / g when g divides f in Z[x], else None."""
    rem = list(f)
    n = len(g) - 1
    quot = [0] * (len(f) - n)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + n], g[-1])
        if r:
            return None
        quot[k] = c
        if c:
            for j in range(n):
                rem[k + j] -= c * g[j]
    return None if any(rem[:n]) else quot


def _pseudo_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """|lc(b)|^(deg a - deg b + 1) times the remainder of a by b, trimmed:
    the rational remainder scaled by a positive integer."""
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    rem = list(a)
    n = len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        c = sign * rem.pop()
        rem = [lead * x for x in rem]
        for j in range(n):
            rem[k + j] -= c * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _sign_at(coeffs: Sequence[int], num: int, den: int = 1) -> int:
    """Sign of the integer polynomial at num/den (den > 0), read off
    den^deg * p(num/den), which Horner's rule keeps in integers."""
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def sturm_chain(f: Sequence[int]) -> list[list[int]]:
    """Sturm sequence of the integer polynomial f as primitive integer
    polynomials; the last member is gcd(f, f') up to a constant.

    Each member after f' is minus the pseudo-remainder of the two before,
    made primitive, which is the rational remainder scaled positively.
    """
    f0 = _primitive(f)
    if len(f0) <= 1:
        return [f0]
    chain = [f0, _primitive([f0[i] * i for i in range(1, len(f0))])]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))
    return chain


def squarefree_part(f: Sequence[int]) -> list[int]:
    """f / gcd(f, f') as a primitive integer polynomial whose leading
    coefficient has the sign of f's."""
    chain = sturm_chain(f)
    g = chain[-1]
    if len(g) <= 1:
        return chain[0]
    # g is primitive, so by Gauss's lemma it divides f in Z[x]
    return _exact_quotient(chain[0], g if g[-1] > 0 else [-c for c in g])


def _variations(signs: Sequence[int]) -> int:
    out = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            out += 1
        prev = s
    return out


def _chain_variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    return _variations([_sign_at(f, num, den) for f in chain])


@dataclass(frozen=True)
class RootInterval:
    """Open interval (lo, hi) holding exactly one real root; lo == hi means
    the root is known exactly."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo


def _root_bound(coeffs: Sequence[int]) -> int:
    lead = abs(coeffs[-1])
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return 1 + (m + lead - 1) // lead


def isolate_real_roots(f: Sequence[int]) -> list[RootInterval]:
    """Disjoint isolating intervals for the distinct real roots of the
    integer polynomial f.

    f must be squarefree (callers take `squarefree_part` first).  Output
    is sorted ascending and exhaustive over the reals.
    """
    if len(f) <= 1:
        return []
    chain = sturm_chain(f)
    f0 = chain[0]
    bound = _root_bound(f0)
    lo, hi = Fraction(-bound), Fraction(bound)
    out: list[RootInterval] = []
    if _sign_at(f0, lo.numerator, lo.denominator) == 0:
        # V(a) - V(b) counts roots in the half-open (a, b], so the root at
        # the left boundary needs its own report
        out.append(RootInterval(lo, lo))
    # bisection with an explicit stack: the depth is about log2 of the
    # starting width over the closest root gap, which passes a thousand
    # levels (the interpreter's recursion limit) once the root bound has a
    # thousand bits, as for section polynomials with d of 30 digits
    stack = [(lo, hi, _chain_variations_at(chain, lo), _chain_variations_at(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb  # roots in (a, b]
        if count == 0:
            continue
        if count == 1:
            if _sign_at(f0, b.numerator, b.denominator) == 0:
                out.append(RootInterval(b, b))
                continue
            if _sign_at(f0, a.numerator, a.denominator) != 0:
                out.append(RootInterval(a, b))
                continue
            # a is itself a root (reported from the neighbouring interval);
            # shrink until the left endpoint clears it
        mid = (a + b) / 2
        vm = _chain_variations_at(chain, mid)
        stack.append((mid, b, vm, vb))
        stack.append((a, mid, va, vm))
    return sorted(out, key=lambda iv: (iv.lo, iv.hi))


def refine_root(f: Sequence[int], interval: RootInterval, max_width: Fraction) -> RootInterval:
    """Bisect an isolating interval of the integer polynomial f until its
    width is <= max_width."""
    if interval.exact:
        return interval
    # bisect the numerators a/den < b/den so that no step builds a Fraction
    lo, hi = interval.lo, interval.hi
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    slo = _sign_at(f, a, den)
    if slo == 0:
        return RootInterval(lo, lo)
    shi = _sign_at(f, b, den)
    if shi == 0:
        return RootInterval(hi, hi)
    if slo == shi:
        raise ValueError("interval must bracket a sign change")
    wn, wd = max_width.numerator, max_width.denominator
    while (b - a) * wd > wn * den:
        a, b, den, mid = 2 * a, 2 * b, 2 * den, a + b
        sm = _sign_at(f, mid, den)
        if sm == 0:
            root = Fraction(mid, den)
            return RootInterval(root, root)
        if sm == slo:
            a = mid
        else:
            b = mid
    return RootInterval(Fraction(a, den), Fraction(b, den))


# ---------------------------------------------------------------------------
# rational root certification

@dataclass(frozen=True)
class RootWitness:
    """Evidence that some root is not rational with an allowed denominator.

    kind is one of:
      "non-integral-coefficient": clearing denominators left a fractional
          coefficient, impossible when all roots have allowed denominators;
      "isolated-interval": `interval` brackets a real root of the factor
          left after stripping every allowed rational root, and holds no
          allowed candidate;
      "complex-roots": fewer real roots than the degree after accounting for
          the rational ones found.
    """

    kind: str
    detail: str
    interval: Optional[tuple[Fraction, Fraction]] = None


@dataclass(frozen=True)
class RootReport:
    all_rational: bool
    roots: tuple[Fraction, ...]  # sorted, with multiplicity
    witness: Optional[RootWitness]


_SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _no_root_mod_small_prime(coeffs: Sequence[int]) -> bool:
    """True if some prime p <= 19 leaves the monic integer polynomial
    without a root mod p, which proves it has no integer root (an integer
    root k gives the root k mod p)."""
    return any(_root_count_mod(coeffs, p) == 0 for p in _SIEVE_PRIMES)


def _settle(f: Sequence[int], iv: RootInterval) -> tuple[Optional[int], RootInterval]:
    """(the integer root in iv, the refinement that pinned it), or (None,
    the first quarter-width refinement of iv that holds no integer), for
    the primitive integer polynomial f and one of its isolating intervals."""
    while not iv.exact:
        first = math.ceil(iv.lo)
        last = math.floor(iv.hi)
        if last < first:
            return None, iv
        # the root stays inside every refinement, so an integer root is
        # the only integer left once the bracket is narrow enough
        if first == last and _sign_at(f, first) == 0:
            return first, iv
        iv = refine_root(f, iv, iv.width() / 4)
    if iv.lo.denominator != 1:
        raise AssertionError(f"exact root {iv.lo} is not an integer")
    return int(iv.lo), iv


def clear_denominators(
    p: Sequence[Fraction | int],
    allowed_denominators: frozenset[int] | set[int] = frozenset({1}),
) -> tuple[int, list[int]] | RootWitness:
    """Substitute x = y/q into the monic polynomial p (ascending
    coefficients, leading 1), q the largest allowed denominator, and clear:
    (q, T) with T = q^n p(y/q) as ascending integer coefficients, monic,
    whose roots are q times those of p.  When a coefficient of T is not an
    integer, some root of p has a denominator outside the set, and the
    result is the "non-integral-coefficient" witness instead.

    allowed_denominators must be {1} or {1, 3}.
    """
    allowed = frozenset(allowed_denominators)
    if allowed not in (frozenset({1}), frozenset({1, 3})):
        raise ValueError("allowed_denominators must be {1} or {1,3}")
    if not p or p[-1] != 1:
        raise ValueError("p must be monic")
    q = max(allowed)
    n = len(p) - 1
    T = []
    for i, c in enumerate(p):
        c = c * q ** (n - i)
        if c.denominator != 1:
            return RootWitness(
                "non-integral-coefficient",
                f"coefficient of degree {i} is {c} after clearing "
                f"denominator {q}",
            )
        T.append(int(c))
    return q, T


# the first prime decides almost every refused section polynomial: over
# the 633 root-certification cells of m = 6..10, d <= 1020 it is 5 for
# 471 and never past 19, and 2 would decide none of them; an existing cell
# pays for every prime
_SPLIT_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29)


def _root_count_mod(T: Sequence[int], p: int) -> int:
    """Roots of the monic integer polynomial T in F_p, counted with
    multiplicity: each residue is divided out by synthetic division for as
    long as it is a root, so the count stops at deg T."""
    work = [c % p for c in reversed(T)]  # descending
    count = 0
    x = 0
    while x < p and len(work) > 1:
        acc = 0
        for c in work:
            acc = (acc * x + c) % p
        if acc:
            x += 1
            continue
        # x is a root: Horner's partial sums are the quotient by y - x
        quot = []
        acc = 0
        for c in work[:-1]:
            acc = (acc * x + c) % p
            quot.append(acc)
        work = quot
        count += 1
    return count


def nonsplit_prime(T: Sequence[int]) -> Optional[int]:
    """The first prime p of `_SPLIT_PRIMES` at which the monic integer
    polynomial T (ascending coefficients) has fewer than deg T roots in
    F_p, counted with multiplicity; None when there is none, at once when
    deg T <= 1.

    A prime is a proof that some root of T is not an integer: if every
    root r_i were one, T = prod(y - r_i) over Z, so T mod p would be the
    product of the y - (r_i mod p) and have exactly deg T roots mod p with
    multiplicity (F_p[y] factors uniquely).  The check needs no reals and
    no Sturm chain; it is the splitting half of the distinct-degree step
    of Cantor and Zassenhaus (Math. Comp. 36, 1981).
    """
    if not T or T[-1] != 1:
        raise ValueError("T must be monic")
    deg = len(T) - 1
    if deg <= 1:
        return None
    for p in _SPLIT_PRIMES:
        if _root_count_mod(T, p) < deg:
            return p
    return None


def rational_roots(p: Sequence[Fraction | int], allowed_denominators: frozenset[int] | set[int] = frozenset({1})) -> RootReport:
    """Decide whether every root of the monic polynomial p (ascending
    coefficients, leading 1) is rational with denominator in the allowed
    set; otherwise produce a checkable witness.

    allowed_denominators must be {1} or {1, 3}.  After the substitution
    x = y/q (`clear_denominators`) the polynomial is monic with integer
    coefficients, so its rational roots are integers; each isolating
    interval of its squarefree part is refined until it pins an integer
    root or holds no integer.  Every integer root is stripped, and the
    witness is the first interval of what remains.
    """
    cleared = clear_denominators(p, allowed_denominators)
    if isinstance(cleared, RootWitness):
        return RootReport(False, (), cleared)
    q, T = cleared
    allowed = frozenset(allowed_denominators)
    n = len(p) - 1

    roots: list[Fraction] = []
    # strip roots at zero
    k0 = 0
    while k0 <= n and T[k0] == 0:
        k0 += 1
    roots.extend([Fraction(0)] * k0)
    work = T[k0:]

    # the first pass finds every integer root, so once they are stripped the
    # second pass's first interval holds none; when the first interval holds
    # no integer and the sieve proves there is no integer root at all, the
    # other intervals need no settling
    stripped = False
    while len(work) > 1:
        f = squarefree_part(work)
        intervals = isolate_real_roots(f)
        if not intervals:
            return RootReport(
                False,
                (),
                RootWitness(
                    "complex-roots",
                    f"remaining factor of degree {len(work) - 1} has no "
                    "real roots",
                ),
            )
        root, first_iv = _settle(f, intervals[0])
        found = [] if root is None else [root]
        if root is not None or not (
            stripped or _no_root_mod_small_prime(work)
        ):
            for iv in intervals[1:]:
                r = _settle(f, iv)[0]
                if r is not None:
                    found.append(r)
        if not found:
            return RootReport(
                False,
                (),
                RootWitness(
                    "isolated-interval",
                    "bracketed real root admits no candidate with "
                    f"denominator in {sorted(allowed)}",
                    interval=(first_iv.lo / q, first_iv.hi / q),
                ),
            )
        for r in found:
            # divide out y - r while it still divides
            while (rest := _exact_quotient(work, [-r, 1])) is not None:
                work = rest
                roots.append(Fraction(r, q))
        stripped = True

    report_roots = tuple(sorted(roots))
    # verification pass: every reported root really is a root, count matches
    if len(report_roots) != n:
        raise AssertionError(
            f"found {len(report_roots)} roots of a degree-{n} polynomial"
        )
    for r in report_roots:
        if poly_eval(p, r) != 0 or r.denominator not in allowed:
            raise AssertionError(f"reported root {r} fails verification")
    return RootReport(True, report_roots, None)


# ---------------------------------------------------------------------------
# Newton polygons

@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of p-adic coefficient valuations.

    Points are (0, 0) and (i+1, v_p(a_i)) for a_i the coefficient of
    x^(deg-i); zero coefficients contribute no point.  `slopes` lists hull
    edge slopes left to right, omitting the degenerate unit edge out of the
    origin that every polynomial has in these coordinates.
    """

    prime: int
    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    slopes: tuple[Fraction, ...]

    @property
    def all_slopes_integer(self) -> bool:
        return all(s.denominator == 1 for s in self.slopes)


def newton_polygon_from_valuations(
    valuations: Sequence[Optional[int]], p: int
) -> NewtonPolygon:
    """Newton polygon built from per-coefficient valuations.

    valuations[i] is ord_p of the coefficient of x^i (ascending), or None
    for a zero coefficient; the leading entry must not be None.  This lets
    screens that track valuations in factored form skip materializing the
    coefficients.
    """
    if not is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    vals = list(valuations)
    if not vals or vals[-1] is None:
        raise ValueError("leading coefficient must be nonzero")
    deg = len(vals) - 1
    pts: list[tuple[int, int]] = [(0, 0)]
    for i in range(deg + 1):
        v = vals[deg - i]  # descending: position 1 is the leading coefficient
        if v is not None:
            pts.append((i + 1, v))

    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)

    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if (x1, y1) == (0, 0) and x2 == 1:
            continue  # leading-coefficient edge carries no root information
        slopes.append(Fraction(y2 - y1, x2 - x1))
    return NewtonPolygon(p, tuple(pts), tuple(hull), tuple(slopes))
