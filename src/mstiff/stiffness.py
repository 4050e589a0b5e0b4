"""Existence decision for stiff sphere configurations.

A degree-m stiff configuration lives on m parallel hyperplane sections of
the unit sphere in R^dim and averages every polynomial of degree at most
2m-1 exactly.  Such a configuration exists precisely when the section
polynomial S (monic, one variable X = 1/x^2 per nonzero section height x)
has only rational roots with small denominators: denominator 1 when m is
even, denominator 1 or 3 when m is odd.  Weights are then forced and
automatically positive, so a full certificate can always be produced on
the Exists side.

The decision pipeline is: cheap integrality screens on the coefficients of
S (which also power the large-scale searches), Newton polygon screens at
small primes, root certification (root counts modulo small primes, then
Sturm isolation for the cells they leave), then certificate construction
and verification.  Every verdict carries either a verified quadrature or a
finite, checkable witness.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .exact_core import (
    _SMALL_PRIME_LIMIT,
    NewtonPolygon,
    RootWitness,
    _least_factor,
    clear_denominators,
    newton_polygon_from_valuations,
    nonsplit_prime,
    rational_roots,
    smooth_part,
)
from .gegenbauer import (
    SymmetricQuadrature,
    moment,
    node_square_poly,
    quadrature_from_node_squares,
)
from .render import decimal_str, fraction_str, node_str

__all__ = [
    "StiffParams",
    "stiff_params",
    "s_coefficients",
    "s_poly",
    "NonIntegerCoefficient",
    "screen_coefficients",
    "scan_rejects",
    "top_coefficient_screen",
    "newton_screen",
    "IrrationalRoot",
    "BoundExceeded",
    "BoundResult",
    "n_upper_bound",
    "bound_if_exceeded",
    "StiffCertificate",
    "verify_certificate",
    "StiffVerdict",
    "UndecidedError",
    "stiff_exists",
]


# ---------------------------------------------------------------------------
# parameters and coefficients

@dataclass(frozen=True)
class StiffParams:
    """Derived parameters of the degree-m problem in dimension dim.

    n is the number of +- section pairs (the degree of S); shift seeds the
    rising product in the coefficient formula; odd degrees allow section
    heights with squares of denominator 3 and get an extra section at 0.
    """

    m: int
    dim: int

    @property
    def n(self) -> int:
        return self.m // 2

    @property
    def odd(self) -> bool:
        return self.m % 2 == 1

    @property
    def shift(self) -> int:
        return self.dim - 2 + 2 * self.n + (2 if self.odd else 0)

    @property
    def denominator_step(self) -> int:
        # r-th denominator factor is 2r - 2 + this
        return 3 if self.odd else 1

    @property
    def allowed_denominators(self) -> frozenset[int]:
        return frozenset({1, 3}) if self.odd else frozenset({1})


def stiff_params(m: int, dim: int) -> StiffParams:
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    return StiffParams(m, dim)


def s_coefficients(m: int, dim: int) -> list[Fraction]:
    """Coefficients u_1..u_n of the section polynomial, exact.

    u_r = C(n, r) * shift (shift+2) ... (shift+2r-2) divided by the product
    of the first r odd numbers starting at denominator_step.
    """
    p = stiff_params(m, dim)
    out: list[Fraction] = []
    u = Fraction(1)
    for r in range(1, p.n + 1):
        u *= Fraction(
            (p.n - r + 1) * (p.shift + 2 * r - 2),
            r * (2 * r - 2 + p.denominator_step),
        )
        out.append(u)
    return out


def s_poly(m: int, dim: int) -> tuple[Fraction, ...]:
    """Monic section polynomial S(X) = X^n - u_1 X^(n-1) + u_2 X^(n-2) - ...,
    as a tuple of Fraction coefficients in ascending order of degree.

    Its roots are the reciprocals of the squared nonzero section heights.
    """
    # u_r is the coefficient of X^(n-r), with sign (-1)^r
    us = s_coefficients(m, dim)
    signed = [-u if r % 2 else u for r, u in enumerate(us, 1)]
    return tuple(reversed(signed)) + (Fraction(1),)


# ---------------------------------------------------------------------------
# witnesses
#
# Each witness names the stage that settled its cell (`stage`, the word a
# sweep cell or scan row reports) and renders itself: `to_json()` is the
# "witness" object of `mstiff exists --format json`, `to_text()` its text
# witness line.

@dataclass(frozen=True)
class NonIntegerCoefficient:
    """Coefficient u_index has a denominator the degree parity forbids.

    For huge indices the screen certifies non-integrality modularly without
    factoring, in which case prime/valuation/value may be None.
    """

    index: int
    prime: Optional[int]
    valuation: Optional[int]
    value: Optional[Fraction]
    detail: str = ""

    stage = "coefficient-screen"

    def to_json(self) -> dict:
        return {
            "type": "coefficient",
            "index": self.index,
            "prime": self.prime,
            "valuation": self.valuation,
            "value": None if self.value is None else fraction_str(self.value),
            "detail": self.detail,
        }

    def to_text(self) -> str:
        head = f"coefficient u_{self.index} is not an integer"
        if self.value is not None:
            head += f" (u_{self.index} = {fraction_str(self.value)})"
        if self.detail:
            head += f"; {self.detail}"
        return head


@dataclass(frozen=True)
class IrrationalRoot:
    """Some root of the section polynomial is irrational.

    Exactly one of `newton` (a polygon with a fractional slope) and `cell`
    (the (m, dim) that root certification refused) is set.  `prime` is the
    prime at which the cleared section polynomial has fewer roots than its
    degree (`nonsplit_prime`), which decided the verdict, or None when
    Sturm isolation decided it.
    """

    newton: Optional[NewtonPolygon] = None
    prime: Optional[int] = None
    cell: Optional[tuple[int, int]] = None

    @functools.cached_property
    def root_witness(self) -> Optional[RootWitness]:
        """The witness of exact root certification (`rational_roots`) for
        `cell`, None for a Newton witness.  It takes a Sturm chain, so it is
        built on first read: only the renderers of `exists` read it."""
        if self.cell is None:
            return None
        m, dim = self.cell
        rep = rational_roots(
            s_poly(m, dim), stiff_params(m, dim).allowed_denominators
        )
        if rep.all_rational:
            raise AssertionError(
                f"root certification refused m={m}, dim={dim}, yet every "
                "root of its section polynomial is allowed"
            )
        return rep.witness

    @property
    def stage(self) -> str:
        return "newton-screen" if self.newton is not None \
            else "root-certification"

    def to_json(self) -> dict:
        poly = self.newton
        if poly is not None:
            return {
                "type": "newton-slope",
                "prime": poly.prime,
                "vertices": [list(v) for v in poly.vertices],
                "slopes": [fraction_str(s) for s in poly.slopes],
            }
        w = self.root_witness
        return {
            "type": "root",
            "kind": w.kind,
            "detail": w.detail,
            "interval": None if w.interval is None
            else [fraction_str(w.interval[0]), fraction_str(w.interval[1])],
        }

    def to_text(self) -> str:
        poly = self.newton
        if poly is not None:
            bad = [fraction_str(s) for s in poly.slopes if s.denominator != 1]
            return (
                f"Newton polygon at p = {poly.prime} has non-integer "
                f"slope(s) {', '.join(bad)}"
            )
        w = self.root_witness
        return f"root certification ({w.kind}): {w.detail}"


@dataclass(frozen=True)
class BoundExceeded:
    """n is at or past a proven nonexistence threshold for this dimension."""

    tag: str
    threshold: int
    n: int
    conservative: bool

    stage = "bound"

    def to_json(self) -> dict:
        return {
            "type": "bound",
            "tag": self.tag,
            "threshold": self.threshold,
            "n": self.n,
            "conservative": self.conservative,
        }

    def to_text(self) -> str:
        kind = "conservative " if self.conservative else ""
        return (
            f"degree parameter n = {self.n} is past the {kind}"
            f"nonexistence threshold {self.threshold} ({self.tag})"
        )


Witness = Union[NonIntegerCoefficient, IrrationalRoot, BoundExceeded]


# ---------------------------------------------------------------------------
# coefficient screens

_VALUE_BIT_CAP = 2048


def _expand(
    exps: dict[int, int], rough: list[int], bit_cap: int
) -> Optional[Fraction]:
    """prod(q^e) * prod(rough) as a Fraction, or None when its size
    exceeds bit_cap: the sum of |e| * bitlen(q) over the split primes,
    plus bitlen(c) for each rough cofactor c, so nothing is factored.
    A cofactor's primes would add at least bitlen(c), so this size is
    never more than the same sum over the full factorization."""
    bits = sum(map(int.bit_length, rough)) + sum(
        abs(e) * q.bit_length() for q, e in exps.items()
    )
    if bits > bit_cap:
        return None
    num = math.prod(q**e for q, e in exps.items() if e > 0)
    den = math.prod(q**-e for q, e in exps.items() if e < 0)
    return Fraction(num * math.prod(rough), den)


# bit length past which the carried walk hands a cell to the factored one:
# each carried step costs O(bits), so a deep walk that passes most of the
# screen is cheaper in factored form
_CARRY_BIT_LIMIT = 1 << 12
_HANDED_OVER = 0

# the step divisors b'_0..b'_R of each degree parity (b'_0 = 0 is unused),
# grown by doubling as deeper walks need them; a grown tuple replaces the
# old one whole, so a walk holding the old one still reads right values
_STEP_DIVISORS: dict[bool, tuple[int, ...]] = {False: (0,), True: (0,)}


def _step_divisors(odd: bool, count: int) -> tuple[int, ...]:
    """b'_0..b'_R for this degree parity, R >= count: b'_r is
    b_r = r(2r-2+step) with its factors 3 removed for odd degrees (step
    3), and b_r itself for even ones (step 1).  They depend on r and the
    parity alone, so one tuple per parity serves every cell."""
    divs = _STEP_DIVISORS[odd]
    if len(divs) > count:
        return divs
    step = 3 if odd else 1
    more = []
    for r in range(len(divs), max(count + 1, 2 * len(divs), 64)):
        b = r * (2 * r - 2 + step)
        if odd:
            while b % 3 == 0:
                b //= 3
        more.append(b)
    divs = _STEP_DIVISORS[odd] = divs + tuple(more)
    return divs


def _carried_walk(n: int, shift: int, odd: bool, limit: int) -> Optional[int]:
    """The screen kernel on plain integers: the index r of the first u_r
    with a forbidden denominator prime, None when u_1..u_n have none, or
    _HANDED_OVER (0) when the carried integer outgrew `limit` bits first.

    Step r multiplies u_{r-1} by a_r = (n-r+1)(shift+2r-2) and divides it
    by b_r = r(2r-2+step), with u_0 = 1.  Let b'_r be b_r with its factors
    3 removed for odd degrees (b'_r = b_r for even ones), k_r the number
    of 3s removed in steps 1..r, and N_r = u_r * 3^k_r, so N_0 = 1 and
    N_r = N_{r-1} a_r / b'_r.  For every prime q other than 3, and for 3
    too when the degree is even, v_q(N_r) = v_q(u_r); for odd degrees
    v_3(N_r) is the number of 3s in a_1..a_r, never negative.  So N_r is
    an integer exactly when no forbidden prime divides the denominator of
    u_r.  If N_{r-1} is an integer, step r is bad iff b'_r does not divide
    N_{r-1} a_r; otherwise the quotient is N_r.  The first r with a
    remainder is the first bad step, the same r as `_first_bad_step`,
    found with no factoring and no primality test.  N grows with u_r and
    each step costs O(bits), so past the bit limit the factored walk,
    whose steps cost the same at any depth, decides instead.  The b'_r
    come from `_step_divisors`, grown only as far as a walk reaches, so
    no call pays for steps it does not take."""
    divs = _STEP_DIVISORS[odd]
    carried = 1
    for r in range(1, n + 1):
        carried *= (n - r + 1) * (shift + 2 * r - 2)
        try:
            b = divs[r]
        except IndexError:
            divs = _step_divisors(odd, r)
            b = divs[r]
        if carried % b:
            return r
        carried //= b
        if carried.bit_length() > limit:
            return _HANDED_OVER
    return None


def _first_bad_step(
    p: StiffParams,
) -> Optional[tuple[int, dict[int, int], list[int]]]:
    """(r, exps, rough) for the first u_r with a forbidden denominator
    prime, or None: the factored walk, which renders the witness at the
    step `_carried_walk` found and decides the cells it hands over.
    u_r = prod(q^exps[q]) * prod(rough), exps exact for every prime up to
    B = 2n-2+step, no prime up to B in a rough cofactor.  Step r
    multiplies by (n-r+1)(shift+2r-2) and divides by r(2r-2+step); a
    factor below 2^16 is split by reading the least-factor table in
    place, a larger one by `smooth_part` (exact for the three factors of
    at most B).  Its trial division stops at the smaller of B and the
    square root of the largest step factor, shift+2n-2: past that root
    every factor splits whole, so no sieve reaches 2n when dim is small.
    No primality test is made."""
    n, shift, step = p.n, p.shift, p.denominator_step
    allowed = 3 if p.odd else 0
    bound = min(2 * n - 2 + step, math.isqrt(shift + 2 * n - 2))
    least, limit = _least_factor, _SMALL_PRIME_LIMIT
    exps: dict[int, int] = {}
    get = exps.get
    rough: list[int] = []
    for r in range(1, n + 1):
        for x in (n - r + 1, shift + 2 * r - 2):
            if x >= limit:
                part, x = smooth_part(x, bound)
                if x > 1:
                    rough.append(x)
                    x = 1
                for q, e in part.items():
                    exps[q] = get(q, 0) + e
            while x > 1:
                q = least[x] or x
                exps[q] = get(q, 0) + 1
                x //= q
        bad = False
        for x in (r, 2 * r - 2 + step):
            if x >= limit:
                part, x = smooth_part(x, bound)  # x <= B: no cofactor
                for q, e in part.items():
                    exps[q] = v = get(q, 0) - e
                    bad |= v < 0 and q != allowed
            while x > 1:
                q = least[x] or x
                exps[q] = v = get(q, 0) - 1
                x //= q
                bad |= v < 0 and q != allowed
        if bad:
            return r, exps, rough
    return None


def scan_rejects(dim: int, odd_deg: bool, ns: Iterable[int]) -> list[bool]:
    """For each n in ns, whether the coefficient screen rejects degree
    m = 2n + 1 (odd_deg) or 2n in this dimension, in the order of ns: the
    screen of one parity branch, with no StiffParams per cell and the step
    divisors shared by the whole branch.  Each cell runs `_carried_walk`
    on plain integers; only a walk the carried integer hands over goes to
    the factored walk.  Every n past the full-screen budget
    (_FULL_SCREEN_CAP) is left unrejected, for stiff_exists to decide.

    Every n-scan (search._decide_candidates) calls it before any
    stiff_exists: it uses no proven nonexistence threshold, and a
    rejection (dim >= 3) is the coefficient-screen NotExists stiff_exists
    would give, since the top-coefficient screen stiff_exists may try
    first rejects only what the full screen does."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    limit, cap, walk = _CARRY_BIT_LIMIT, _FULL_SCREEN_CAP, _carried_walk
    base = dim - 2 + (2 if odd_deg else 0)  # shift = base + 2n
    out = []
    for n in ns:
        r = walk(n, base + 2 * n, odd_deg, limit) if n <= cap else None
        if r == _HANDED_OVER:
            m = 2 * n + 1 if odd_deg else 2 * n
            out.append(_first_bad_step(stiff_params(m, dim)) is not None)
        else:
            out.append(r is not None)
    return out


# the primes whose Newton polygons stiff_exists tries, in order
_NEWTON_PRIMES = (2, 3, 5)


def screen_coefficients(m: int, dim: int) -> Optional[NonIntegerCoefficient]:
    """The first coefficient u_r with a forbidden denominator, or None.

    The one-cell screen of stiff_exists, with the witness `exists` prints;
    scans decide the same cells by `scan_rejects`, which renders nothing.
    The carried walk (`_carried_walk`) decides; the factored walk
    (`_first_bad_step`) runs only to render a witness at the step it
    found, or to decide a cell it hands over.  Only step r's divisor can
    bring in a new denominator prime, so the witness prime is the least
    forbidden prime with a negative exponent at step r.  Odd degrees allow
    3 in the denominator: u_r is C(n, r) times the rising product over
    3*5*...*(2r+1), whose ord_3 is at most r, all the denominator 3^r of
    the roots can absorb."""
    p = stiff_params(m, dim)
    carried = _carried_walk(p.n, p.shift, p.odd, _CARRY_BIT_LIMIT)
    hit = None if carried is None else _first_bad_step(p)
    if hit is None:
        return None
    r, exps, rough = hit
    bad = min(q for q, e in exps.items() if e < 0 and not (p.odd and q == 3))
    return NonIntegerCoefficient(
        index=r,
        prime=bad,
        valuation=exps[bad],
        value=_expand(exps, rough, _VALUE_BIT_CAP),
        detail=f"prime {bad} survives in the denominator of u_{r}",
    )


def _closed_top_parts(
    n: int, dim: int, odd_deg: bool
) -> tuple[int, list[int], list[int]]:
    """u_n = 2^a * prod(nums) / prod(dens) for even dim, all O(dim) many
    factors of size O(n).  Valid for dim >= 4 even, n >= 1.  At n = 0 it
    gives the layout itself, in O(dim): nums are the constants c of the
    numerators 2n + c (step 2) and dens the offsets theta of the
    denominators n + theta (step 1), the two intervals search reads."""
    if dim % 2 != 0 or dim < 4:
        raise ValueError("closed top form needs even dim >= 4")
    if odd_deg:
        kp = dim // 2
        w = (kp - 1) // 2
        nums = [2 * n + 2 * s + 1 for s in range(1, kp // 2)]
        dens = [n + i for i in range(w + 1, kp)]
        return 2 * n + w, nums, dens
    k = (dim - 2) // 2
    w = (k - 1) // 2
    nums = [2 * n + 2 * i - 1 for i in range(1, k // 2 + 1)]
    dens = [n + w + i for i in range(1, k // 2 + 1)]
    return 2 * n + w, nums, dens


def _ord2(x: int) -> int:
    return (x & -x).bit_length() - 1


def _ord(x: int, q: int) -> int:
    """ord_q(x) for a prime q and x != 0.  Unlike `exact_core.ord_p`, it
    does not test q for primality on every call."""
    v = 0
    while x % q == 0:
        x //= q
        v += 1
    return v


def _strip6(x: int) -> tuple[int, int]:
    """(part coprime to 6, ord_3)."""
    x >>= _ord2(x)
    t = 0
    while x % 3 == 0:
        x //= 3
        t += 1
    return x, t


def _product_integrality(
    two_exp: int, nums: list[int], dens: list[int], three_budget: int
) -> bool:
    """Whether 2^two_exp * prod(nums) / prod(dens) has no denominator prime
    other than 3, and 3 to order at most three_budget.  Modular, never
    factors the n-sized inputs."""
    two_need = sum(_ord2(d) for d in dens) - sum(_ord2(x) for x in nums)
    if two_need > two_exp:
        return False
    three = 0
    mod = 1
    for d in dens:
        core, t3 = _strip6(d)
        three += t3
        mod *= core
    num_prod = 1
    for x in nums:
        core, t3 = _strip6(x)
        three -= t3
        num_prod = num_prod * core % mod
    if three > three_budget:
        return False
    return num_prod % mod == 0


def top_coefficient_screen(m: int, dim: int) -> Optional[NonIntegerCoefficient]:
    """Integrality screen of u_n, u_{n-1}, u_{n-2} in O(dim) arithmetic.

    Necessary conditions only: passing says nothing, failing certifies
    nonexistence.  Even dimensions >= 4; this is what makes the searches
    over huge candidate degrees affordable.
    """
    p = stiff_params(m, dim)
    n = p.n
    if n < 1:
        return None
    two_exp, nums, dens = _closed_top_parts(n, dim, p.odd)
    checks: list[tuple[int, list[int], list[int]]] = [(n, [], [])]
    if n >= 2:
        # one ratio step down from u_n
        if p.odd:
            extra = ([n, 2 * n + 1], [dim + 4 * n - 2])
        else:
            extra = ([n, 2 * n - 1], [dim + 4 * n - 4])
        checks.append((n - 1, *extra))
    if n >= 3:
        if p.odd:
            extra2 = (
                [n, 2 * n + 1, n - 1, 2 * n - 1],
                [dim + 4 * n - 2, 2, dim + 4 * n - 4],
            )
        else:
            extra2 = (
                [n, 2 * n - 1, n - 1, 2 * n - 3],
                [dim + 4 * n - 4, 2, dim + 4 * n - 6],
            )
        checks.append((n - 2, *extra2))
    for index, extra_num, extra_den in checks:
        budget = index if p.odd else 0
        ok = _product_integrality(
            two_exp, nums + extra_num, dens + extra_den, budget
        )
        if not ok:
            return NonIntegerCoefficient(
                index=index,
                prime=None,
                valuation=None,
                value=None,
                detail=(
                    f"u_{index} fails the modular integrality certificate "
                    f"(denominator does not divide numerator)"
                ),
            )
    return None


def newton_screen(m: int, dim: int) -> Optional[NewtonPolygon]:
    """First Newton polygon at 2, 3 or 5 with a fractional slope, or None,
    for a cell the coefficient screen passes.  Works on the integer-cleared
    polynomial (odd degrees fold the 3-power denominators in).  Each
    ord_q(u_r) is summed from the step factors, so no coefficient is
    expanded and no prime is sieved."""
    p = stiff_params(m, dim)
    n, shift, step = p.n, p.shift, p.denominator_step
    for q in _NEWTON_PRIMES:
        v, vals = 0, []  # vals[r - 1] is ord_q of the cleared u_r
        for r in range(1, n + 1):
            v += (_ord(n - r + 1, q) + _ord(shift + 2 * r - 2, q)
                  - _ord(r, q) - _ord(2 * r - 2 + step, q))
            # clearing multiplies u_r by 3^r
            vals.append(v + r if p.odd and q == 3 else v)
        # ascending by degree of X: u_r is the coefficient of X^(n - r),
        # and the leading coefficient is 1
        polygon = newton_polygon_from_valuations([*vals[::-1], 0], q)
        if not polygon.all_slopes_integer:
            return polygon
    return None


# ---------------------------------------------------------------------------
# nonexistence thresholds

@dataclass(frozen=True)
class BoundResult:
    """Least n from which nonexistence is guaranteed in this dimension and
    parity.  `conservative` marks thresholds known not to be tight."""

    threshold: int
    tag: str
    conservative: bool


def _balanced_prod(terms: Sequence[int]) -> int:
    """Product by recursive halving; math.prod is quadratic in the total
    bit size when the factor list is long."""
    if not terms:
        return 1
    if len(terms) <= 8:
        return math.prod(terms)
    mid = len(terms) // 2
    return _balanced_prod(terms[:mid]) * _balanced_prod(terms[mid:])


# (dim, odd_deg) -> threshold and tag of the even dimensions with a
# dedicated theorem; every one is tight
_SMALL_EVEN_DIM_BOUNDS = {
    (4, False): (6, "power-of-two-roots"),
    (6, False): (2, "half-integer-slope"),
    (8, False): (31, "dim8-even-deg"),
    (4, True): (3, "dim4-odd-deg"),
    (6, True): (2, "dim6-odd-deg"),
    (8, True): (2, "dim8-odd-deg"),
    (10, True): (2, "dim10-odd-deg"),
    (12, True): (10391, "dim12-odd-deg"),
    (14, True): (4153, "dim14-odd-deg"),
}


def _divisor_product_params(dim: int, odd_deg: bool) -> tuple[int, int, str]:
    """(theta, count, tag) of the generic even-dimension threshold, whose
    value is one plus the product of 2*theta - 2*i + 1 over i = 1..count."""
    k = (dim - 2) // 2
    if not odd_deg:
        return (k - 1) // 2 + 2, k // 2, "even-dim-divisor-product"
    return k // 2 + 4, (k + 1) // 2, "odd-deg-divisor-product"


def n_upper_bound(dim: int, odd_deg: bool) -> Optional[BoundResult]:
    """Proven nonexistence threshold on n = m // 2, or None (dim 2, where
    every degree is realizable)."""
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if dim == 2:
        return None
    if dim % 2 == 1:
        return BoundResult(2 * dim + (9 if odd_deg else 5),
                           "odd-dim-valuation", True)
    if (dim, odd_deg) in _SMALL_EVEN_DIM_BOUNDS:
        return BoundResult(*_SMALL_EVEN_DIM_BOUNDS[dim, odd_deg], False)
    theta, count, tag = _divisor_product_params(dim, odd_deg)
    terms = [2 * theta - 2 * i + 1 for i in range(1, count + 1)]
    return BoundResult(_balanced_prod(terms) + 1, tag, odd_deg)


def bound_if_exceeded(dim: int, odd_deg: bool, n: int) -> Optional[BoundResult]:
    """n_upper_bound when n sits at or past it, else None.

    Unlike calling n_upper_bound directly, this never materializes the
    generic divisor-product thresholds (astronomical in large dimensions):
    the running product stops as soon as it clears n.
    """
    if dim == 2:
        return None
    if dim % 2 or (dim, odd_deg) in _SMALL_EVEN_DIM_BOUNDS:
        bound = n_upper_bound(dim, odd_deg)
        return bound if n >= bound.threshold else None
    theta, count, tag = _divisor_product_params(dim, odd_deg)
    partial = 1
    for i in range(1, count + 1):
        partial *= 2 * theta - 2 * i + 1
        if partial > n:
            return None
    return BoundResult(partial + 1, tag, odd_deg) if n > partial else None


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class StiffCertificate:
    """Verified evidence that the configuration exists.

    kind "quadrature": explicit rational section data in `quadrature`, with
    the section polynomial roots in `s_roots` (ascending).
    kind "equal-weight": dimension 2, where every weight is 1/m and the
    sections sit at the zeros of the m-th orthogonal polynomial; exactness
    is checked through power sums of `node_poly` without needing the
    (typically irrational) sections themselves.
    """

    kind: str
    m: int
    dim: int
    quadrature: Optional[SymmetricQuadrature] = None
    s_roots: tuple[Fraction, ...] = ()
    equal_weight: Optional[Fraction] = None
    node_poly: Optional[tuple[Fraction, ...]] = None


def _root_power_sums(p: Sequence[Fraction], count: int) -> list[Fraction]:
    """Power sums s_1..s_count of the roots of monic p (ascending
    coefficients), by the standard recurrence on elementary symmetric
    functions."""
    n = len(p) - 1
    e = [Fraction(0)] * (n + 1)  # e[i] = i-th elementary symmetric function
    e[0] = Fraction(1)
    for i in range(1, n + 1):
        e[i] = p[n - i] * (-1) ** i
    sums: list[Fraction] = []
    for j in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, min(j - 1, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * sums[j - i - 1]
        if j <= n:
            acc += (-1) ** (j - 1) * j * e[j]
        sums.append(acc)
    return sums


def verify_certificate(cert: StiffCertificate) -> None:
    """Exact re-check of a certificate; raises ValueError if anything is
    off.  Decision code always calls this before reporting Exists."""
    strength = 2 * cert.m - 1
    if cert.kind == "quadrature":
        if cert.quadrature is None:
            raise ValueError("quadrature certificate without quadrature")
        if cert.quadrature.total_points != cert.m:
            raise ValueError(
                f"expected {cert.m} sections, got {cert.quadrature.total_points}"
            )
        cert.quadrature.verify(strength)
        for root, (square, _) in zip(
            sorted(cert.s_roots, reverse=True), cert.quadrature.pairs
        ):
            if root * square != 1:
                raise ValueError(f"root {root} does not match square {square}")
        return
    if cert.kind == "equal-weight":
        if cert.dim != 2 or cert.equal_weight is None or cert.node_poly is None:
            raise ValueError("malformed equal-weight certificate")
        if cert.equal_weight * cert.m != 1:
            raise ValueError("equal weight must be 1/m")
        n = cert.m // 2
        if len(cert.node_poly) - 1 != n:
            raise ValueError("node polynomial degree mismatch")
        sums = _root_power_sums(cert.node_poly, cert.m - 1)
        for j in range(1, cert.m):
            total = 2 * cert.equal_weight * sums[j - 1]
            if total != moment(j, 2):
                raise ValueError(
                    f"power-sum moment {j} is {total}, expected {moment(j, 2)}"
                )
        return
    raise ValueError(f"unknown certificate kind {cert.kind!r}")


# ---------------------------------------------------------------------------
# decision

@dataclass(frozen=True)
class StiffVerdict:
    """The decision on one (m, dim) cell: a verified certificate when the
    configuration exists, a witness when it does not.  `stage` and the
    renderers are what `mstiff exists` and the sweeps print."""

    m: int
    dim: int
    exists: bool
    certificate: Optional[StiffCertificate]
    witness: Optional[Witness]

    @property
    def stage(self) -> str:
        """"exists", or the stage of the nonexistence witness."""
        return "exists" if self.exists else self.witness.stage

    def _weights(self) -> list[str]:
        """Section weights in outer-to-inner order, center last."""
        cert = self.certificate
        if cert is None:
            return []
        if cert.kind == "equal-weight":
            count = self.m // 2 + self.m % 2
            return [fraction_str(Fraction(1, self.m))] * count
        quad = cert.quadrature
        out = [fraction_str(weight) for _, weight in reversed(quad.pairs)]
        if quad.center_weight is not None:
            out.append(fraction_str(quad.center_weight))
        return out

    def to_json(self) -> dict:
        """The object `mstiff exists --format json` prints."""
        return {
            "m": self.m,
            "d": self.dim,
            "verdict": "exists" if self.exists else "not_exists",
            "roots": [fraction_str(r) for r in
                      (self.certificate.s_roots if self.exists else ())],
            "lambdas": self._weights(),
            "witness": None if self.exists else self.witness.to_json(),
        }

    def to_text(self, precision: int) -> str:
        """The text `mstiff exists` prints, without its final newline;
        section positions get `precision` decimal digits."""
        m, d = self.m, self.dim
        if not self.exists:
            return (
                f"NotExists: no {m}-stiff configuration on S^{d - 1} "
                f"(d = {d})\n  witness: {self.witness.to_text()}"
            )
        lines = [f"Exists: a {m}-stiff configuration on S^{d - 1} (d = {d})"]
        cert = self.certificate
        if cert.kind == "equal-weight":
            lines.append(
                f"  the regular {2 * m}-gon on the circle; every section "
                f"weight {fraction_str(Fraction(1, m))}"
            )
            return "\n".join(lines)
        if cert.s_roots:
            lines.append(
                "  section polynomial roots: "
                + ", ".join(fraction_str(r) for r in cert.s_roots)
            )
        shown = [
            f"+-{node_str(square)} (~ {decimal_str(square, precision)})"
            for square, _ in reversed(cert.quadrature.pairs)
        ]
        if cert.quadrature.center_weight is not None:
            shown.append("0")
        lines.append("  sections (outer to inner): " + ", ".join(shown))
        lines.append("  weights: " + ", ".join(self._weights()))
        return "\n".join(lines)


class UndecidedError(RuntimeError):
    """All affordable screens passed but the exact root step is out of
    budget for this degree; no verdict can be given honestly."""

    def __init__(self, m: int, dim: int, reason: str):
        super().__init__(f"degree {m} in dimension {dim} undecided: {reason}")
        self.m = m
        self.dim = dim
        self.reason = reason


_FULL_SCREEN_CAP = 200_000
_TOP_SCREEN_MIN_N = 64
# the top screen's modulus grows over about dim/4 factors: below this dim
# it is no slower than the full screen, at dim 10^6 it takes about a minute
_TOP_SCREEN_DIM_LIMIT = 64
# past the full-screen budget the top screen is all there is, and only up
# to this dim: one of its three checks at n = 200,001 took 0.015 s at
# dim 10^4, 0.17 s at 4 * 10^4 and 0.6-0.9 s at 10^5, and its factor lists
# grow with dim, to 2.5 * 10^24 entries at dim 10^25
_TOP_SCREEN_MAX_DIM = 100_000


def _exists_verdict(m: int, dim: int, roots: Sequence[Fraction]) -> StiffVerdict:
    squares = sorted(1 / x for x in roots)
    quad = quadrature_from_node_squares(m, dim, squares)
    cert = StiffCertificate(
        kind="quadrature",
        m=m,
        dim=dim,
        quadrature=quad,
        s_roots=tuple(sorted(roots)),
    )
    verify_certificate(cert)
    return StiffVerdict(m, dim, True, cert, None)


def stiff_exists(m: int, dim: int, use_bounds: bool = True) -> StiffVerdict:
    """Decide whether a degree-m stiff configuration exists on the unit
    sphere in R^dim, with a verified certificate or a checkable witness.

    use_bounds=False disables the proven nonexistence shortcuts, forcing
    the explicit pipeline (used to validate those very thresholds).
    """
    p = stiff_params(m, dim)
    if m == 1:
        quad = SymmetricQuadrature(dim, (), Fraction(1))
        cert = StiffCertificate(
            kind="quadrature", m=1, dim=dim, quadrature=quad, s_roots=()
        )
        verify_certificate(cert)
        return StiffVerdict(m, dim, True, cert, None)
    if dim == 2:
        cert = StiffCertificate(
            kind="equal-weight",
            m=m,
            dim=2,
            equal_weight=Fraction(1, m),
            node_poly=node_square_poly(m, 2),
        )
        verify_certificate(cert)
        return StiffVerdict(m, dim, True, cert, None)

    n = p.n
    if use_bounds:
        bound = bound_if_exceeded(dim, p.odd, n)
        if bound is not None:
            return StiffVerdict(
                m,
                dim,
                False,
                None,
                BoundExceeded(bound.tag, bound.threshold, n, bound.conservative),
            )

    if n > _FULL_SCREEN_CAP and dim % 2 == 0 and dim > _TOP_SCREEN_MAX_DIM:
        raise UndecidedError(
            m, dim, f"degree parameter {n} exceeds the full-screen budget "
            f"and dimension {dim} the top screen's limit {_TOP_SCREEN_MAX_DIM}"
        )
    # only where it is cheaper, or past the budget, where it is all there is
    if dim % 2 == 0 and n > _TOP_SCREEN_MIN_N and (
            dim < _TOP_SCREEN_DIM_LIMIT or n > _FULL_SCREEN_CAP):
        top = top_coefficient_screen(m, dim)
        if top is not None:
            return StiffVerdict(m, dim, False, None, top)

    if n > _FULL_SCREEN_CAP:
        raise UndecidedError(
            m, dim, f"degree parameter {n} exceeds the full-screen budget"
        )

    witness = screen_coefficients(m, dim)
    if witness is not None:
        return StiffVerdict(m, dim, False, None, witness)

    polygon = newton_screen(m, dim)
    if polygon is not None:
        return StiffVerdict(m, dim, False, None, IrrationalRoot(newton=polygon))

    # a prime at which the cleared polynomial does not split decides the
    # cell without Sturm; its witness is rendered only when read
    section = s_poly(m, dim)
    cleared = clear_denominators(section, p.allowed_denominators)
    prime = None if isinstance(cleared, RootWitness) else nonsplit_prime(
        cleared[1])
    if prime is not None:
        return StiffVerdict(
            m, dim, False, None, IrrationalRoot(prime=prime, cell=(m, dim))
        )
    rep = rational_roots(section, p.allowed_denominators)
    if not rep.all_rational:
        refused = IrrationalRoot(cell=(m, dim))
        # Sturm decided, so its witness is built already: fill the cache
        # that `root_witness` reads (cached_property keeps it in __dict__)
        refused.__dict__["root_witness"] = rep.witness
        return StiffVerdict(m, dim, False, None, refused)
    if len(set(rep.roots)) != len(rep.roots):
        raise AssertionError(
            f"section polynomial for m={m}, dim={dim} has repeated roots"
        )
    return _exists_verdict(m, dim, rep.roots)
