"""Classification pipelines over dimensions and degrees.

Two directions of the same question.  classify_dimension fixes the sphere
and determines every degree admitting a stiff configuration by a bounded
scan of n = m // 2 below a proven nonexistence threshold (in even
dimensions, below the offset window bound n*); a prime-window sieve and
the coefficient screen reject most n, and each branch keeps only the
stages of the n left to the full decision.  classify_degree fixes the
degree; for degrees up to 5 the admissible dimensions are Pell recurrence
streams, and from degree 6 on the report is explicitly a bounded search
(direct scan plus candidates pulled from the cubic-point family).
verify_theorem recomputes the nonexistence statements behind the
threshold table from scratch, with the shortcuts switched off.
"""
from __future__ import annotations

import bisect
import math
from collections import Counter, deque
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

from .diophantine import (
    dims_for_degree4,
    dims_for_degree5,
    mordell_ab_grid,
    mordell_point_stream,
)
from .exact_core import _primes_upto, divisors_from_factors, factorize
from .stiffness import (
    BoundResult,
    UndecidedError,
    _closed_top_parts,
    n_upper_bound,
    scan_rejects,
    stiff_exists,
)

__all__ = [
    "DivisorCandidateSet",
    "divisor_candidates",
    "CandidateOutcome",
    "BranchOutcome",
    "DimClassification",
    "classify_dimension",
    "DegreeClassification",
    "classify_degree",
    "TheoremReport",
    "theorem_tags",
    "resolve_theorem_tag",
    "verify_theorem",
]


# ---------------------------------------------------------------------------
# divisor-product candidate sets

@dataclass(frozen=True)
class DivisorCandidateSet:
    """Finite list of degree parameters n that survive the congruence
    necessity in an even dimension.

    Integrality of the top coefficient forces the part of n + theta prime
    to 2 (to 6 for odd degrees) to divide the product P_theta recorded in
    `products` (see _offset_window_bound).  Even degrees use the two
    offsets of opposite parity (the one making n + theta odd applies); odd
    degrees use four consecutive offsets and keep n only when every offset
    coprime to 6 divides its product.
    """

    dim: int
    odd_deg: bool
    thetas: tuple[int, ...]
    products: tuple[int, ...]  # aligned with thetas
    candidates: tuple[int, ...]  # surviving n, ascending
    divisor_count: int


def _window_survivors(dim: int, odd_deg: bool, ns: Sequence[int]) -> set[int]:
    """The n of ns (ascending; even dim >= 4), and perhaps others, whose
    offset window [n + theta_min, n + theta_max] has no multiple of a
    prime q past F = {2} (even degrees) or {2, 3} (odd) and past every
    |c - 2 theta|, the largest at an end of the interval of odd integers
    that the factors of all the P_theta fill.  Such a q divides the part
    of n + theta prime to F but no factor of P_theta (odd, nonzero,
    smaller), so the offset necessity (_offset_window_bound) fails and the
    screen rejects n.  One sieve over the windows of ns marks those
    multiples.  Dimension 4's even degrees have no offsets."""
    _, cs, thetas = _closed_top_parts(0, dim, odd_deg)
    if not thetas or not ns:
        return set(ns)
    lo, t = ns[0], len(thetas)
    base = lo + thetas[0]
    ends = (cs[0] - 2 * thetas[-1], cs[-1] - 2 * thetas[0]) if cs else ()
    top = max([3 if odd_deg else 2, *map(abs, ends)])
    rough = bytearray(ns[-1] - lo + t)  # whether base + i has such a q
    # uncached: the scan's bound is its own, and its tuple (about 263,000
    # primes per branch at d = 4000) would stay in, and evict the entries
    # of, the cache the coefficient walks share
    primes = _primes_upto.__wrapped__(base + len(rough) - 1)
    for q in primes[bisect.bisect_right(primes, top):]:
        first = -base % q
        rough[first::q] = b"\1" * len(range(first, len(rough), q))
    survivors, window = set(), bytes(t)
    i = rough.find(window)
    while i >= 0:
        survivors.add(lo + i)
        i = rough.find(window, i + 1)
    return survivors


def _offset_exponents(dim: int, odd_deg: bool) -> dict[int, int]:
    """E_p = max_theta v_p(P_theta) for every prime of the P_theta of
    _offset_window_bound.  The c of the layout step by 2, so the factors
    c - 2 theta of P_theta fill an interval of odd integers, and moving
    to theta + 1 slides it down by 2: its top factor leaves and one enters
    below.  A running exponent map follows the slide, and only the primes
    of the entering factor can raise E_p, so each of the len(cs) +
    len(thetas) - 1 factors is factored once."""
    _, cs, thetas = _closed_top_parts(0, dim, odd_deg)
    window = deque(factorize(c - 2 * thetas[0]) for c in cs)
    vals: Counter[int] = Counter()
    for f in window:
        vals.update(f)
    top = dict(vals)
    for theta in thetas[1:]:
        vals.subtract(window.pop())
        window.appendleft(factorize(cs[0] - 2 * theta))
        for p, e in window[0].items():
            vals[p] += e
            top[p] = max(top.get(p, 0), vals[p])
    return top


def _offset_window_bound(dim: int, odd_deg: bool) -> int:
    """Least n* such that every n >= n* fails the offset necessity below,
    for a branch with the divisor-product argument (even dim, >= 10 for
    even degrees, >= 16 for odd).  Exact integers throughout.

    The offset necessity: u_n = 2^a prod(nums) / prod(dens) with n + theta
    one of the factors of prod(dens).  For even degrees nums are
    2n + 2i - 1 (i = 1..k//2) and theta runs over w+1..w+k//2; since
    2n = 2(n + theta) - 2 theta, every numerator is congruent to
    2i - 1 - 2 theta modulo n + theta, so prod(nums) is congruent to
    P_theta = prod(2i - 1 - 2 theta).  Integrality of u_n makes the odd
    part of n + theta divide prod(nums), hence P_theta.  Odd degrees have
    nums 2n + 2s + 1 (s = 1..kp//2 - 1), theta = w'+1..kp-1,
    P_theta = prod(2s + 1 - 2 theta), and may keep powers of 3 in the
    denominator, so only the part of n + theta coprime to 6 must divide
    P_theta.  When that fails for any theta, u_n has a denominator prime
    >= 5: the coefficient screens reject the degree.  P_theta is odd and
    signed; only divisibility matters.

    The offsets theta_min..theta_max are T consecutive integers.  Let
    F = {2} for even degrees and {2, 3} for odd ones.  A passing n has
    the part of n + theta prime to F dividing P_theta for every theta, so:
    - for p not in F, v_p(n + theta) <= E_p = max_theta v_p(P_theta);
      among T consecutive integers at most ceil(T / p^j) are divisible by
      p^j (Legendre's count), so p divides prod(n + theta) at most
      sum_{j <= E_p} ceil(T / p^j) times;
    - for p in F, J_p = max_theta v_p(n + theta) has p^{J_p} <= n +
      theta_max, and the same count gives at most
      sum_{j <= J_p} ceil(T / p^j) <= floor(T / (p - 1)) + J_p factors p.
    Hence (n + theta_min)^T <= prod(n + theta) <= K (n + theta_max)^|F|,
    K = prod_{p not in F} p^{sum ceil(T / p^j)} * prod_{p in F}
    p^{floor(T / (p - 1))}, fixed by dim.  The left side over
    (n + theta_max)^|F| increases in n since T > |F|, so the inequality
    holds on an initial segment of n and n* is the least n where it
    fails, found by bisection.  E_p is read off the factors c - 2 theta
    (below 2 dim) by _offset_exponents, never off P_theta itself.
    """
    _, _, thetas = _closed_top_parts(0, dim, odd_deg)
    free = (2, 3) if odd_deg else (2,)
    t = len(thetas)
    k = math.prod(p ** (t // (p - 1)) for p in free)
    for p, e in _offset_exponents(dim, odd_deg).items():
        if p not in free:
            k *= p ** sum(-(-t // p**j) for j in range(1, e + 1))
    lo_theta, hi_theta = thetas[0], thetas[-1]

    def holds(n: int) -> bool:
        return (n + lo_theta) ** t <= k * (n + hi_theta) ** len(free)

    hi = 4
    while holds(hi):
        hi *= 2
    return bisect.bisect_left(range(hi), True, 2, key=lambda n: not holds(n))


_DIVISOR_BUDGET = 1 << 20  # divisors divisor_candidates may enumerate


def divisor_candidates(
    dim: int, odd_deg: bool
) -> Optional[DivisorCandidateSet]:
    """Complete candidate list for even dimensions (>= 10 for even
    degrees, >= 16 for odd).  None when the dimension class has no
    divisor-product argument, or when enumerating the divisors would
    exceed _DIVISOR_BUDGET (callers must then treat the branch as open).
    Only the first two (even degrees) or four (odd degrees) offsets are
    built; each P_theta is factored through its factors c - 2 theta,
    never as one number.
    """
    if dim % 2 or dim < (16 if odd_deg else 10):
        return None
    _, cs, thetas = _closed_top_parts(0, dim, odd_deg)
    thetas = tuple(thetas[: 4 if odd_deg else 2])
    offset_factors = [[c - 2 * theta for c in cs] for theta in thetas]
    products = tuple(map(math.prod, offset_factors))

    factored = []
    total = 0
    for cs in offset_factors:
        factors = sum(map(Counter, map(factorize, cs)), Counter())
        if odd_deg:
            # offsets not coprime to 6 carry no necessity; drop the 3s so
            # only usable divisors are generated (products are odd anyway)
            factors.pop(3, None)
        count = math.prod(e + 1 for e in factors.values())
        total += count
        if total > _DIVISOR_BUDGET:
            return None
        factored.append(factors)

    cands: set[int] = set()
    for theta, factors in zip(thetas, factored):
        for d in divisors_from_factors(factors):
            n = d - theta
            if n >= 2:
                cands.add(n)
    if odd_deg:
        def keeps(n: int) -> bool:
            for theta, prod in zip(thetas, products):
                if math.gcd(n + theta, 6) == 1 and prod % (n + theta):
                    return False
            return True

        cands = {n for n in cands if keeps(n)}
    return DivisorCandidateSet(
        dim, odd_deg, thetas, products, tuple(sorted(cands)), total
    )


# ---------------------------------------------------------------------------
# dimension classification

class CandidateOutcome(NamedTuple):
    """Decision for one examined degree."""

    n: int
    m: int
    status: str  # exists | coefficient-screen | newton-screen |
    #              root-certification | unresolved


def _rows(ns: Sequence[int], decided: dict[int, str], odd_deg: bool):
    """A row per n of ns: its stage in decided, else coefficient-screen."""
    return tuple(CandidateOutcome(n, 2 * n + odd_deg, decided.get(
        n, "coefficient-screen")) for n in ns)


def _degrees_at(decided: dict[int, str], odd_deg: bool, stage: str):
    """The degrees m of the decided n at this stage, in scan order."""
    return tuple(2 * n + odd_deg for n, s in decided.items() if s == stage)


@dataclass(frozen=True)
class BranchOutcome:
    """One parity of degrees in a fixed dimension: the scanned range of
    n = m // 2 and the stage of each n `_decide_candidates` kept; every
    other scanned n reads coefficient-screen.  The rest is derived."""

    dim: int
    odd_deg: bool
    method: str  # bounded-scan | all-degrees (dimension 2)
    bound: Optional[BoundResult]
    scanned: range
    decided: dict[int, str]  # n -> stage, or "unresolved"
    detail: str

    @property
    def candidates(self) -> tuple[CandidateOutcome, ...]:
        return _rows(self.scanned, self.decided, self.odd_deg)

    @property
    def existing(self) -> tuple[int, ...]:  # degrees m >= 4 that exist
        return _degrees_at(self.decided, self.odd_deg, "exists")

    @property
    def unresolved(self) -> tuple[int, ...]:  # undecided within budget
        return _degrees_at(self.decided, self.odd_deg, "unresolved")

    @property
    def complete(self) -> bool:
        return "unresolved" not in self.decided.values()


@dataclass(frozen=True)
class DimClassification:
    dim: int
    branches: tuple[BranchOutcome, ...]

    @property
    def all_degrees(self) -> bool:  # dimension 2: every degree is realizable
        return self.dim == 2

    @property
    def degrees(self) -> tuple[int, ...]:  # complete when `complete` is
        return () if self.all_degrees else (1, 2, 3, *sorted(
            m for b in self.branches for m in b.existing))

    @property
    def complete(self) -> bool:
        return all(b.complete for b in self.branches)

    def to_json(self, max_m: Optional[int] = None) -> dict:
        """The object `mstiff classify --dim --format json` prints, with
        one row per scanned n.  max_m (ignored in dimension 2) drops the
        larger degrees from `degrees` and is recorded; the rows stay."""
        listed = [m for m in self.degrees if max_m is None or m <= max_m]
        out = {
            "dim": self.dim,
            "all_degrees": self.all_degrees,
            "degrees": "all" if self.all_degrees else listed,
            "complete": self.complete,
            "branches": [
                {
                    "parity": "odd" if b.odd_deg else "even",
                    "method": b.method,
                    "complete": b.complete,
                    "bound": None if b.bound is None else asdict(b.bound),
                    "candidates": [r._asdict() for r in b.candidates],
                    "existing": list(b.existing),
                    "unresolved": list(b.unresolved),
                    "detail": b.detail,
                }
                for b in self.branches
            ],
        }
        if max_m is not None and not self.all_degrees:
            out["max_m"] = max_m
        return out

    def to_text(self, max_m: Optional[int] = None) -> str:
        """The lines `mstiff classify --dim` prints, without the final
        newline; max_m hides the larger degrees."""
        if self.all_degrees:
            return ("dimension 2: every degree is admissible "
                    "(the regular 2m-gon is the m-stiff configuration)")
        degrees = [m for m in self.degrees if max_m is None or m <= max_m]
        lines = [
            f"dimension {self.dim}: admissible degrees "
            + (", ".join(map(str, degrees)) if degrees else "none"),
            f"  classification complete: {'yes' if self.complete else 'no'}",
        ]
        for b in self.branches:
            cands = ", ".join(map(str, b.scanned[:12]))
            if len(b.scanned) > 12:
                cands += ", ..."
            lines.append(
                f"  {'odd' if b.odd_deg else 'even'} degrees [{b.method}]: "
                + (f"candidates n in ({cands}); " if cands
                   else "no candidates; ")
                + (f"admissible m = {', '.join(map(str, b.existing))}"
                   if b.existing else "none admissible")
            )
            if b.unresolved:
                lines.append("    unresolved degrees: "
                             + ", ".join(map(str, b.unresolved)))
            lines.append(f"    {b.detail}")
        return "\n".join(lines)


def _decide_candidates(
    dim: int, odd_deg: bool, ns: Sequence[int]
) -> dict[int, str]:
    """{n: stage} for the degree parameters of ns (ascending) that the
    screens leave to the full decision, in the order of ns: the one n-scan
    of classify_dimension and verify_theorem, which consults no proven
    nonexistence threshold.

    In even dimensions one prime sieve (`_window_survivors`) rejects most
    n; a range ns keeps the sorted survivors that lie in it, with no test
    per n of ns.  The rest, and every n of an odd dimension, go to the
    coefficient screen in one batch (`scan_rejects`: nothing is factored
    and no witness is built).  Either rejection is the coefficient-screen
    verdict stiff_exists would give, since the window, top and full
    screens never contradict each other, so a rejected n is left out.
    Every other n maps to the stage of stiff_exists(..., use_bounds=False)
    or to `unresolved`; dimension 2 is not screened."""
    if dim % 2 == 0 and dim > 2:
        survivors = _window_survivors(dim, odd_deg, ns)
        if isinstance(ns, range):  # O(1) `in`, not a test per n of ns
            ns = sorted(n for n in survivors if n in ns)
        else:
            ns = [n for n in ns if n in survivors]
    hits = scan_rejects(dim, odd_deg, ns) if dim > 2 else [False] * len(ns)
    decided = {}
    for n in (n for n, hit in zip(ns, hits) if not hit):
        try:
            decided[n] = stiff_exists(2 * n + odd_deg, dim,
                                      use_bounds=False).stage
        except UndecidedError:
            decided[n] = "unresolved"
    return decided


def _classify_branch(dim: int, odd_deg: bool) -> BranchOutcome:
    """Scan n below the paper's threshold and, where the divisor-product
    argument applies, below n*, as _decide_candidates decides n."""
    bound = n_upper_bound(dim, odd_deg)
    hi, detail = bound.threshold, ""
    if dim % 2 == 0 and dim >= (16 if odd_deg else 10):
        n_star = _offset_window_bound(dim, odd_deg)
        ended = "n*" if n_star < hi else "the threshold"
        hi = min(hi, n_star)
        detail = f"; {ended} ended the scan (offset window bound n* = {n_star})"
    scanned = range(2, hi)
    decided = _decide_candidates(dim, odd_deg, scanned)
    return BranchOutcome(dim, odd_deg, "bounded-scan", bound, scanned,
                         decided, f"scanned n in [2, {hi}){detail}")


def classify_dimension(dim: int) -> DimClassification:
    """Every degree admitting a stiff configuration in this dimension.

    Each parity branch scans n = m // 2 below the paper's threshold
    (`n_upper_bound`) and, in even dimensions with the divisor-product
    argument, below the offset window bound n* past which the offset
    necessity fails for every n; a prime window rejects most n.  Each
    branch keeps its scanned range and the stages of the few n the
    screens left to the full decision; its rows, the degrees and
    completeness are derived from them.  The result is complete exactly
    when both branches are; an undecidable n leaves its branch incomplete.
    """
    if dim < 2:
        raise ValueError("dimension must be >= 2")
    if dim == 2:
        return DimClassification(2, (BranchOutcome(
            2, False, "all-degrees", None, range(0), {},
            "equal-weight configurations exist for every degree"),))
    for m in (1, 2, 3):
        if not stiff_exists(m, dim).exists:
            raise AssertionError(
                f"degree {m} must exist in every dimension, not in {dim}"
            )
    return DimClassification(
        dim, (_classify_branch(dim, False), _classify_branch(dim, True))
    )


# ---------------------------------------------------------------------------
# degree classification

@dataclass(frozen=True)
class DegreeClassification:
    m: int
    all_dims: bool  # degrees 1..3 exist in every dimension
    dims: tuple[int, ...]  # known admissible dimensions below dim_limit
    dim_limit: Optional[int]
    complete: bool  # the characterization is proven, not just searched
    method: str
    evidence: tuple[str, ...]


def classify_degree(
    m: int,
    *,
    dim_limit: int = 10**8,
    scan_cap: int = 10_000,
    cubic_x_bound: int = 20_000,
) -> DegreeClassification:
    """Every dimension admitting a degree-m stiff configuration.

    Degrees up to 5 are settled: all dimensions (m <= 3) or a Pell
    recurrence stream listed below dim_limit (m in {4, 5}).  From degree 6
    the report combines a direct scan of dimensions up to scan_cap with
    candidates derived from the cubic point family a y^2 = 2 + b x^3 for
    |x| <= cubic_x_bound, and is flagged incomplete: dimensions beyond
    those windows are unexplored, not refuted.  The points come from
    `mordell_point_stream`, which examines only the x that congruences
    modulo small prime powers and the primes up to 67 allow; every integer
    point satisfies them, so the sieve drops no point the window holds
    (Gebel, Petho and Zimmer, Compositio Math. 110 (1998)).
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    if m <= 3:
        return DegreeClassification(
            m, True, (), None, True, "closed-form",
            ("rational sections exist in every dimension",),
        )
    if m == 4:
        return DegreeClassification(
            m, False, tuple(dims_for_degree4(dim_limit)), dim_limit, True,
            "pell-stream", ("values of t -> 10t - t' with t = 4d + 6",),
        )
    if m == 5:
        return DegreeClassification(
            m, False, tuple(dims_for_degree5(dim_limit)), dim_limit, True,
            "pell-stream", ("three families of s -> 38s - s'",),
        )

    evidence = []
    found = {2}
    scanned_hits = []
    for dim in range(3, scan_cap + 1):
        try:
            if stiff_exists(m, dim).exists:
                scanned_hits.append(dim)
        except UndecidedError:  # pragma: no cover - degrees here are small
            evidence.append(f"dimension {dim} undecided within budget")
    found.update(scanned_hits)
    evidence.append(
        f"direct decision for dimensions 3..{scan_cap}: "
        f"{len(scanned_hits)} admissible"
    )

    n = m // 2
    _, b_vals = mordell_ab_grid()
    derived: set[int] = set()
    points = 0
    for b in b_vals:
        for pt in mordell_point_stream(b, cubic_x_bound):
            points += 1
            v = pt.a * pt.y * pt.y - 4 * n + 3
            for dim in (v - 1, v + 1, v + 3):
                if dim >= 3:
                    derived.add(dim)
    cubic_hits = []
    for dim in sorted(derived):
        try:
            if stiff_exists(m, dim).exists:
                cubic_hits.append(dim)
        except UndecidedError:  # pragma: no cover
            evidence.append(f"derived dimension {dim} undecided within budget")
    found.update(cubic_hits)
    evidence.append(
        f"cubic points with x <= {cubic_x_bound}: {points} points, "
        f"{len(derived)} derived dimensions, {len(cubic_hits)} admissible"
    )
    evidence.append("search bounded; larger dimensions unexplored")
    return DegreeClassification(
        m,
        False,
        tuple(sorted(d for d in found if d < dim_limit)),
        dim_limit,
        False,
        "bounded-search",
        tuple(evidence),
    )


# ---------------------------------------------------------------------------
# recomputing the nonexistence theorems

@dataclass(frozen=True)
class TheoremReport:
    tag: str
    alias: Optional[str]
    claim: str
    passed: bool
    checks: tuple[str, ...]

    def to_json(self) -> dict:
        """The object `mstiff verify --format json` prints: the fields."""
        return asdict(self)

    def to_text(self) -> str:
        """The lines `mstiff verify` prints, without the final newline."""
        alias = f" (alias {self.alias})" if self.alias else ""
        return "\n".join([
            f"theorem check {self.tag}{alias}: "
            + ("PASSED" if self.passed else "NOT CONFIRMED"),
            f"  claim: {self.claim}",
            *(f"  - {check}" for check in self.checks),
        ])


@dataclass(frozen=True)
class _BranchClaim:
    dim: int
    odd_deg: bool
    bound_tag: str
    alias: Optional[str]


@dataclass(frozen=True)
class _FamilyClaim:
    odd_deg: bool
    bound_tag: str
    alias: Optional[str]
    sample_dims: tuple[int, ...]


_BRANCH_CLAIMS: dict[str, _BranchClaim] = {
    "dim4-even-deg": _BranchClaim(4, False, "power-of-two-roots", "thm-4.4"),
    "dim4-odd-deg": _BranchClaim(4, True, "dim4-odd-deg", "thm-4.5"),
    "dim6-even-deg": _BranchClaim(6, False, "half-integer-slope", "thm-6.2"),
    "dim6-odd-deg": _BranchClaim(6, True, "dim6-odd-deg", "thm-4.7"),
    "dim8-even-deg": _BranchClaim(8, False, "dim8-even-deg", "thm-3.7"),
    "dim8-odd-deg": _BranchClaim(8, True, "dim8-odd-deg", "thm-4.9"),
    "dim10-even-deg": _BranchClaim(
        10, False, "even-dim-divisor-product", "thm-3.6"
    ),
    "dim10-odd-deg": _BranchClaim(10, True, "dim10-odd-deg", "thm-4.10"),
    "dim12-odd-deg": _BranchClaim(12, True, "dim12-odd-deg", "thm-3.12"),
    "dim14-odd-deg": _BranchClaim(14, True, "dim14-odd-deg", "thm-3.11"),
}

_FAMILY_CLAIMS: dict[str, _FamilyClaim] = {
    "odd-deg-divisor-product": _FamilyClaim(
        True, "odd-deg-divisor-product", "thm-3.10", (16, 18, 20, 26)
    ),
    "even-dim-divisor-product": _FamilyClaim(
        False, "even-dim-divisor-product", None, (10, 12, 14, 16)
    ),
    "odd-dim-valuation": _FamilyClaim(
        True, "odd-dim-valuation", None, (3, 5, 7, 9, 23)
    ),
}

_ALIASES = {
    spec.alias: tag
    for tag, spec in {**_BRANCH_CLAIMS, **_FAMILY_CLAIMS}.items()
    if spec.alias
}

_WINDOW_THRESHOLD_CAP = 2_000


def theorem_tags() -> list[str]:
    return sorted(_BRANCH_CLAIMS) + sorted(_FAMILY_CLAIMS)


def resolve_theorem_tag(tag: str) -> str:
    """Canonical tag for a tag or one of its stable external aliases."""
    if tag in _BRANCH_CLAIMS or tag in _FAMILY_CLAIMS:
        return tag
    if tag in _ALIASES:
        return _ALIASES[tag]
    raise KeyError(f"unknown theorem tag {tag!r}")


def _expected_degrees(dim: int, odd_deg: bool) -> set[int]:
    """Degrees >= 4 of this parity that the streams say exist."""
    if odd_deg:
        return {5} if dim in dims_for_degree5(dim + 1) else set()
    return {4} if dim in dims_for_degree4(dim + 1) else set()


def _scan_branch(dim: int, odd_deg: bool, lo: int, hi: int,
                 checks: list[str], label: str) -> set[int]:
    """Degrees of this parity admitting a configuration, over n in
    [lo, hi): the scan of `_decide_candidates`, which consults no proven
    nonexistence threshold, plus one check line.  An n the scan leaves
    unresolved raises UndecidedError, since no claim holds past it."""
    decided = _decide_candidates(dim, odd_deg, range(lo, hi))
    unresolved = _degrees_at(decided, odd_deg, "unresolved")
    if unresolved:
        raise UndecidedError(unresolved[0], dim, "left unresolved by the scan")
    existing = set(_degrees_at(decided, odd_deg, "exists"))
    checks.append(
        f"{label}: decided n in [{lo}, {hi}) without shortcuts, "
        f"existing degrees {sorted(existing) or 'none'}"
    )
    return existing


def _verify_branch_claim(
    tag: str, spec: _BranchClaim, window: int, below_cap: Optional[int]
) -> TheoremReport:
    checks: list[str] = []
    ok = True
    bound = n_upper_bound(spec.dim, spec.odd_deg)
    if bound is None or bound.tag != spec.bound_tag:
        ok = False
        checks.append(f"threshold table tag mismatch: {bound}")
    else:
        checks.append(
            f"threshold {bound.threshold} with tag {bound.tag}"
            + (" (conservative)" if bound.conservative else "")
        )
        hi = bound.threshold if below_cap is None \
            else min(below_cap, bound.threshold)
        truncated = hi < bound.threshold
        existing = _scan_branch(spec.dim, spec.odd_deg, 2, hi, checks,
                                "below threshold")
        expected = {m for m in _expected_degrees(spec.dim, spec.odd_deg)
                    if m // 2 < hi}
        if existing != expected:
            ok = False
            checks.append(f"expected existing degrees {sorted(expected)}")
        if truncated:
            ok = False
            checks.append(
                f"scan truncated at {below_cap} < {bound.threshold}: "
                "claim not fully verified"
            )
        if window > 0 and not _scan_window(
            spec.dim, spec.odd_deg, bound.threshold, window, checks
        ):
            ok = False
    claim = (
        f"dimension {spec.dim}, {'odd' if spec.odd_deg else 'even'} degrees: "
        f"none exist with m//2 >= {bound.threshold if bound else '?'}"
    )
    return TheoremReport(tag, spec.alias, claim, ok, tuple(checks))


def _scan_window(
    dim: int, odd_deg: bool, threshold: int, window: int, checks: list[str]
) -> bool:
    existing = _scan_branch(
        dim, odd_deg, threshold, threshold + window, checks,
        f"window above threshold (dim {dim})"
    )
    if existing:
        checks.append("existence above threshold contradicts the claim")
    return not existing


def _verify_family_claim(tag: str, spec: _FamilyClaim,
                         window: int) -> TheoremReport:
    checks: list[str] = []
    ok = True
    for dim in spec.sample_dims:
        bound = n_upper_bound(dim, spec.odd_deg)
        if bound is None or bound.tag != spec.bound_tag:
            ok = False
            checks.append(f"dim {dim}: tag mismatch ({bound})")
            continue
        expected = _expected_degrees(dim, spec.odd_deg)
        if tag == "odd-dim-valuation":
            existing = _scan_branch(dim, spec.odd_deg, 2, bound.threshold,
                                    checks, f"dim {dim} below threshold")
        else:
            cand = divisor_candidates(dim, spec.odd_deg)
            if cand is None:
                ok = False
                checks.append(f"dim {dim}: no divisor-product candidates")
                continue
            decided = _decide_candidates(dim, spec.odd_deg, cand.candidates)
            existing = set(_degrees_at(decided, spec.odd_deg, "exists"))
            unresolved = _degrees_at(decided, spec.odd_deg, "unresolved")
            checks.append(
                f"dim {dim}: candidates {list(cand.candidates)} -> "
                + ", ".join(f"m={r.m} {r.status}" for r in
                            _rows(cand.candidates, decided, spec.odd_deg))
                if cand.candidates
                else f"dim {dim}: no candidates survive the necessity"
            )
            if unresolved:
                ok = False
                checks.append(f"dim {dim}: unresolved degrees {unresolved}")
        if existing != expected:
            ok = False
            checks.append(
                f"dim {dim}: existing {sorted(existing)} != expected "
                f"{sorted(expected)}"
            )
        if window > 0 and bound.threshold <= _WINDOW_THRESHOLD_CAP:
            if not _scan_window(dim, spec.odd_deg, bound.threshold, window,
                                checks):
                ok = False
    claim = (
        f"{'odd' if spec.odd_deg else 'even'}-degree nonexistence family "
        f"({spec.bound_tag}), sampled at dimensions {spec.sample_dims}"
    )
    return TheoremReport(tag, spec.alias, claim, ok, tuple(checks))


def verify_theorem(
    tag: str, *, window: int = 25, below_cap: Optional[int] = None
) -> TheoremReport:
    """Recheck a nonexistence statement with shortcuts disabled.

    The shortcuts are the proven nonexistence thresholds (`n_upper_bound`,
    the claims under test); no scan consults them.  Every scan, family
    candidates included, is `_decide_candidates`: the prime window and
    the coefficient screen, then stiff_exists(..., use_bounds=False) on
    the rest, so each check line's degrees are those of the full decision.

    window: how many n past the threshold to sample (skipped for family
    members whose threshold is too large to scan).  below_cap truncates a
    branch claim's below-threshold sweep; the report is then marked not
    passed, since the claim was only partially examined.  A family claim
    has no such sweep to cap: below_cap raises ValueError there.
    """
    tag = resolve_theorem_tag(tag)
    if tag in _BRANCH_CLAIMS:
        return _verify_branch_claim(tag, _BRANCH_CLAIMS[tag], window,
                                    below_cap)
    if below_cap is not None:
        raise ValueError(f"below_cap does not apply to family claim {tag}")
    return _verify_family_claim(tag, _FAMILY_CLAIMS[tag], window)
