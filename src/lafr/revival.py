"""Decision procedures for Laplacian fractional revival.

The central routine classifies a vertex pair as admitting proper
fractional revival, being strongly cospectral but merely periodic, or
failing one of the structural requirements.  Times are exact rational
multiples of pi throughout; nothing here touches floating point except
the complement-transfer checker, which delegates to the numeric oracle
by design.

Convention: the walk operator is exp(+i t L).  At the earliest revival
time 2*pi/g the pair amplitudes are (1 + w)/2 and (1 - w)/2 with
w = exp(2*pi*i*k/g), where k is the common residue of the minus class
modulo the class gcd g.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import NotApplicableError, SpecialSmallGraphError
from .graphs import Graph, complement, is_connected, join
from .spectral import (
    PairPartition,
    eigenvalue_support,
    is_periodic,
    strong_cospectral,
)

PiRational = tuple[int, int]  # (p, q) in lowest terms, meaning (p/q) * pi


class RevivalStatus(str, Enum):
    NOT_STRONGLY_COSPECTRAL = "NOT_STRONGLY_COSPECTRAL"
    NON_INTEGER_SUPPORT = "NON_INTEGER_SUPPORT"
    PERIODIC_ONLY = "PERIODIC_ONLY"
    PROPER = "PROPER"


class TwoVertexClass(str, Enum):
    PERIODIC = "PERIODIC"
    PST = "PST"
    PROPER = "PROPER"


@dataclass(frozen=True)
class PhaseRational:
    """A root of unity exp(2*pi*i*k/g), kept as the residue pair (k, g)."""

    k: int
    g: int

    def __post_init__(self):
        if self.g < 1 or not 0 <= self.k < self.g:
            raise ValueError("phase residue must satisfy 0 <= k < g")

    def __eq__(self, other):
        if not isinstance(other, PhaseRational):
            return NotImplemented
        return self.k * other.g == other.k * self.g

    def __hash__(self):
        return hash(Fraction(self.k, self.g))

    def as_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * self.k / self.g)


@dataclass(frozen=True)
class Amplitudes:
    """Pair amplitudes (1 + w)/2 and (1 - w)/2 for a revival phase w."""

    omega: PhaseRational
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class RevivalDecision:
    status: RevivalStatus
    pair: tuple[int, int]
    partition: PairPartition | None = None
    g: int | None = None
    earliest_time: PiRational | None = None
    phase: PhaseRational | None = None
    is_pst: bool | None = None


def _pi_rational(num: int, den: int) -> PiRational:
    f = Fraction(num, den)
    return (f.numerator, f.denominator)


def two_vertex_time_class(num: int, den: int) -> TwoVertexClass:
    """Closed-form schedule of the single-edge graph at time (num/den)*pi.

    Periodic at integer multiples of pi, perfect state transfer at odd
    multiples of pi/2, proper fractional revival everywhere else.
    """
    t = Fraction(num, den)
    if t.denominator == 1:
        return TwoVertexClass.PERIODIC
    if t.denominator == 2:
        return TwoVertexClass.PST
    return TwoVertexClass.PROPER


def class_gcd(part: PairPartition) -> int:
    """gcd of the within-class eigenvalue differences of the partition."""
    plus = sorted(part.plus)
    minus = sorted(part.minus)
    if len(plus) < 2 and len(minus) < 2:
        raise SpecialSmallGraphError("class gcd undefined for singleton classes")
    g = 0
    for cls in (plus, minus):
        for x in cls[1:]:
            g = gcd(g, x - cls[0])
    return g


def amplitudes_at(phase: PhaseRational) -> Amplitudes:
    omega = phase.as_complex()
    return Amplitudes(omega=phase, alpha=(1 + omega) / 2, beta=(1 - omega) / 2)


def decide_proper_lafr(g: Graph, a: int, b: int) -> RevivalDecision:
    """Classify a vertex pair for proper Laplacian fractional revival.

    Pipeline: both supports must be all-integer, the pair must be strongly
    cospectral, and some minus-class eigenvalue must avoid the class gcd.
    When all three hold the earliest revival time is 2*pi/g with phase
    residue k = (minus element mod g), and the revival degenerates to
    perfect state transfer exactly when k/g = 1/2.
    """
    if g.n < 3:
        raise SpecialSmallGraphError(
            "the characterization needs at least three vertices; "
            "see two_vertex_time_class for the single-edge graph"
        )
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        raise ValueError("need two distinct vertices in range")
    pair = (a, b) if a < b else (b, a)
    sup_a = eigenvalue_support(g, a)
    sup_b = eigenvalue_support(g, b)
    if not (sup_a.all_integer and sup_b.all_integer):
        return RevivalDecision(RevivalStatus.NON_INTEGER_SUPPORT, pair)
    part = strong_cospectral(g, *pair)
    if part is None:
        return RevivalDecision(RevivalStatus.NOT_STRONGLY_COSPECTRAL, pair)
    # singleton classes happen exactly when {a, b} is an isolated edge of a
    # disconnected graph; that pair follows the two-vertex continuum schedule
    gg = class_gcd(part)
    residues = {mu % gg for mu in part.minus}
    k = residues.pop()
    if residues:
        raise AssertionError("minus class must share one residue modulo g")
    if k == 0:
        return RevivalDecision(RevivalStatus.PERIODIC_ONLY, pair, partition=part, g=gg)
    return RevivalDecision(
        RevivalStatus.PROPER,
        pair,
        partition=part,
        g=gg,
        earliest_time=_pi_rational(2, gg),
        phase=PhaseRational(k, gg),
        is_pst=(2 * k == gg),
    )


def all_lafr_pairs(g: Graph) -> list[RevivalDecision]:
    """Decisions for every unordered pair, kept when revival or strong
    cospectrality is present.

    Supports are computed once per vertex; pairs are pruned to equal-degree,
    equal-support candidates before any exact projection work.  Output is
    sorted lexicographically by pair.
    """
    if g.n < 3:
        raise SpecialSmallGraphError("all-pairs scan needs at least three vertices")
    sups = [eigenvalue_support(g, v) for v in range(g.n)]
    degs = g.degrees()
    out = []
    for a in range(g.n):
        if not sups[a].all_integer:
            continue
        for b in range(a + 1, g.n):
            if degs[a] != degs[b]:
                continue
            if not sups[b].all_integer:
                continue
            if sups[a].integer_eigenvalues != sups[b].integer_eigenvalues:
                continue
            try:
                decision = decide_proper_lafr(g, a, b)
            except SpecialSmallGraphError:
                continue  # isolated-edge pair: continuum schedule, not listed
            if decision.status in (RevivalStatus.PROPER, RevivalStatus.PERIODIC_ONLY):
                out.append(decision)
    return out


def earliest_common_lafr_time(g: Graph) -> PiRational | None:
    """Earliest proper revival time over all pairs, or ``None``.

    The two-vertex graph is excluded (its proper times form a continuum;
    see :func:`two_vertex_time_class`).
    """
    if g.n < 3:
        return None
    times = [
        Fraction(*d.earliest_time)
        for d in all_lafr_pairs(g)
        if d.status is RevivalStatus.PROPER
    ]
    if not times:
        return None
    best = min(times)
    return (best.numerator, best.denominator)


# ---------------------------------------------------------------------------
# time membership helpers


def proper_time_valid(decision: RevivalDecision, num: int, den: int) -> bool:
    """Whether (num/den)*pi is a proper revival time for a PROPER decision.

    Valid times are the multiples m * 2*pi/g whose phase m*k stays nonzero
    modulo g.
    """
    if decision.status is not RevivalStatus.PROPER:
        return False
    m = Fraction(num * decision.g, 2 * den)
    if m.denominator != 1 or m <= 0:
        return False
    return (m.numerator * decision.phase.k) % decision.g != 0


def _isolated_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose two ends both have degree one: single-edge components."""
    degs = g.degrees()
    return [(u, v) for u, v in g.edges if degs[u] == 1 and degs[v] == 1]


def has_proper_lafr_at(g: Graph, num: int, den: int) -> bool:
    """Whether the graph admits proper revival at exactly time (num/den)*pi.

    Isolated-edge components contribute on the two-vertex continuum
    schedule; all other pairs go through the characterization.
    """
    if Fraction(num, den) <= 0:
        raise ValueError("time must be positive")
    if g.n < 2:
        return False
    if (
        _isolated_edges(g)
        and two_vertex_time_class(num, den) is TwoVertexClass.PROPER
    ):
        return True
    if g.n < 3:
        return False
    return any(
        proper_time_valid(d, num, den)
        for d in all_lafr_pairs(g)
        if d.status is RevivalStatus.PROPER
    )


def has_periodic_vertex_at(g: Graph, num: int, den: int) -> bool:
    """Whether some vertex is periodic at exactly time (num/den)*pi."""
    if Fraction(num, den) <= 0:
        raise ValueError("time must be positive")
    for v in range(g.n):
        per = is_periodic(g, v)
        if not per.periodic:
            continue
        if per.big_g is None:
            return True  # support {0}: the walk fixes this vertex at all times
        m = Fraction(num * per.big_g, 2 * den)
        if m.denominator == 1 and m > 0:
            return True
    return False


# ---------------------------------------------------------------------------
# structural checkers for the construction families


def _product_fiber_proper_at(x: Graph, y: Graph, num: int, den: int) -> bool:
    """Proper revival on the box product between a pair sharing its
    first-factor coordinate, at exactly time (num/den)*pi."""
    from .graphs import cartesian_product

    prod = cartesian_product(x, y)
    if prod.n < 2:
        return False
    if two_vertex_time_class(num, den) is TwoVertexClass.PROPER and any(
        u // y.n == v // y.n for u, v in _isolated_edges(prod)
    ):
        return True
    if prod.n < 3:
        return False
    return any(
        d.pair[0] // y.n == d.pair[1] // y.n and proper_time_valid(d, num, den)
        for d in all_lafr_pairs(prod)
        if d.status is RevivalStatus.PROPER
    )


def check_cartesian_product_rule(
    x: Graph, y: Graph, tau_num: int, tau_den: int
) -> bool:
    """Box-product criterion at time (tau_num/tau_den)*pi.

    The product admits proper revival within an ``x``-fiber (a pair sharing
    its first-factor coordinate) precisely when ``x`` has a periodic vertex
    and ``y`` has proper revival, both at that time.  Returns whether the
    two sides agree.  Pairs that straddle fibers belong to the mirrored
    statement with the factors swapped, so they are not counted here.
    """
    if Fraction(tau_num, tau_den) <= 0:
        raise ValueError("time must be positive")
    left = _product_fiber_proper_at(x, y, tau_num, tau_den)
    right = has_periodic_vertex_at(x, tau_num, tau_den) and has_proper_lafr_at(
        y, tau_num, tau_den
    )
    return left == right


def check_complement_transfer(x: Graph, tau_num: int, tau_den: int) -> bool:
    """Complement identity exp(i*tau*L-complement) = exp(-i*tau*L).

    Applicable when n*tau is a multiple of 2*pi; verified numerically
    entrywise to 1e-9 via the oracle.
    """
    from . import oracle

    if Fraction(x.n * tau_num, 2 * tau_den).denominator != 1:
        raise NotApplicableError("n * tau must be a multiple of 2*pi")
    tau = float(Fraction(tau_num, tau_den)) * cmath.pi
    u_comp = oracle.transition_matrix(complement(x), tau).entries
    u_neg = oracle.transition_matrix(x, -tau).entries
    return abs(u_comp - u_neg).max() <= 1e-9


def check_join_timing(z: Graph) -> bool:
    """Every proper revival time on a join graph is a multiple of 2*pi/n."""
    if z.n < 3:
        raise NotApplicableError("join timing needs at least three vertices")
    if is_connected(complement(z)):
        raise NotApplicableError("graph is not a join (complement is connected)")
    return all(
        z.n % d.g == 0
        for d in all_lafr_pairs(z)
        if d.status is RevivalStatus.PROPER
    )


def check_join_extension(
    x: Graph, pair: tuple[int, int], y: Graph
) -> RevivalDecision:
    """Join a revival pair with any graph of compatible order.

    Requires proper revival on ``x`` between ``pair`` whose class gcd
    divides both vertex counts; returns the decision for the same pair on
    the join, which is again proper at the same time.
    """
    base = decide_proper_lafr(x, *pair)
    if base.status is not RevivalStatus.PROPER:
        raise NotApplicableError("base pair does not admit proper revival")
    if x.n % base.g != 0 or y.n % base.g != 0:
        raise NotApplicableError("class gcd must divide both vertex counts")
    return decide_proper_lafr(join(x, y), *pair)


@dataclass(frozen=True)
class PolygamyCheck:
    lafr_x_per_y_time: PiRational
    lafr_y_per_x_time: PiRational
    ok: bool


def check_polygamy_conditions(
    g: int, h: int, big_g: int, big_h: int
) -> PolygamyCheck:
    """Arithmetic for polygamous revival on a box product.

    ``g``/``h`` are the class gcds of the two factors' revival pairs and
    ``big_g``/``big_h`` the gcds of their vertex supports.  At time
    2*pi/gcd(g, big_h) the first factor revives while the second is
    periodic, and symmetrically at 2*pi/gcd(h, big_g); both work exactly
    when each composite gcd fails to divide its own factor's support gcd.
    """
    if min(g, h, big_g, big_h) < 1:
        raise ValueError("all four gcd parameters must be positive")
    t1 = gcd(g, big_h)
    t2 = gcd(h, big_g)
    x_proper = big_g % t1 != 0  # revival on the first factor not yet periodic
    y_periodic = big_h % t1 == 0
    y_proper = big_h % t2 != 0
    x_periodic = big_g % t2 == 0
    return PolygamyCheck(
        lafr_x_per_y_time=_pi_rational(2, t1),
        lafr_y_per_x_time=_pi_rational(2, t2),
        ok=x_proper and y_periodic and y_proper and x_periodic,
    )


def hadamard_partition_check(n: int, part: PairPartition) -> bool:
    """Eigenvalue classes of an antipodal pair on the 4n^2-vertex graph
    built from an (n^2 by n^2) Hadamard matrix."""
    return part.plus == {0, n * n, 2 * n * n} and part.minus == {
        n * n - n,
        n * n + n,
    }
