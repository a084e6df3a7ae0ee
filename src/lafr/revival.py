"""Decision procedures for Laplacian fractional revival.

The central routine classifies a vertex pair as admitting proper
fractional revival, being strongly cospectral but merely periodic, or
failing one of the structural requirements.  Every pair, explicit or
from the all-pairs scan, is decided by :func:`decide_proper_lafr` alone:
vertex guard, all-integer supports, strong cospectrality, then the class
gcd of the eigenvalue partition.  The scan decides only pairs whose
vertices share a bucket of certified, sign-scaled eigenprojection columns
(see :mod:`lafr.spectral`).  Times are exact: each one made here is
:func:`two_pi_over` of a gcd, each grid test is ``_on_grid``, and no
verdict touches floating point.  The one small-graph rule is the isolated
edge: :func:`class_gcd` raises ``SpecialSmallGraphError`` for such a pair,
and the scan skips it; every other pair on any number of vertices goes
through the characterization.  The complement-transfer checker compares
the proper pairs of a graph and its complement at one time, exactly; the
numeric oracle only cross-checks it in tests.

Convention: the walk operator is exp(+i t L).  At the earliest revival
time 2*pi/g the pair amplitudes are (1 + w)/2 and (1 - w)/2 with
w = exp(2*pi*i*k/g), where k is the common residue of the minus class
modulo the class gcd g.  A decision carries its phase as the residue pair
(k, g), and :meth:`PhaseRational.amplitudes` is the one place the two
amplitudes are made.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from math import gcd

from .errors import NotApplicableError, SpecialSmallGraphError
from .graphs import (
    Graph,
    cartesian_product,
    check_vertices,
    complement,
    is_connected,
    join,
)
from .spectral import PairPartition, strong_cospectral, vertex_spectra

PiRational = tuple[int, int]  # (p, q) in lowest terms, meaning (p/q) * pi


class RevivalStatus(str, Enum):
    NOT_STRONGLY_COSPECTRAL = "NOT_STRONGLY_COSPECTRAL"
    NON_INTEGER_SUPPORT = "NON_INTEGER_SUPPORT"
    PERIODIC_ONLY = "PERIODIC_ONLY"
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
        return hash(self.k / self.g)  # equal ratios round to one float

    def amplitudes(self) -> tuple[complex, complex]:
        """The pair amplitudes (1 + w)/2 and (1 - w)/2 for this phase w."""
        w = cmath.exp(2j * cmath.pi * self.k / self.g)
        return (1 + w) / 2, (1 - w) / 2


@dataclass(frozen=True)
class RevivalDecision:
    status: RevivalStatus
    pair: tuple[int, int]
    partition: PairPartition | None = None
    g: int | None = None
    phase: PhaseRational | None = None

    @property
    def earliest_time(self) -> PiRational | None:
        """The earliest revival time 2*pi/g, for a decision with a phase."""
        return None if self.phase is None else two_pi_over(self.g)

    @property
    def is_pst(self) -> bool | None:
        """Whether the revival is perfect state transfer: phase k/g = 1/2."""
        return None if self.phase is None else 2 * self.phase.k == self.g


TWO_VERTEX_SCHEDULE = (
    "two-vertex graph: periodic at integer multiples of pi, perfect state "
    "transfer at odd multiples of pi/2, proper revival at all other times"
)


def two_pi_over(g: int) -> PiRational:
    """The time 2*pi/g in lowest terms: every revival time is made here."""
    return (1, g // 2) if g % 2 == 0 else (2, g)


def _on_grid(num: int, den: int, g: int) -> bool:
    """Whether (num/den)*pi is an integer multiple of 2*pi/g."""
    if den == 0:
        raise ValueError("time denominator must be nonzero")
    return num * g % (2 * den) == 0


def isolated_edges(g: Graph) -> list[tuple[int, int]]:
    """Single-edge components, which follow the two-vertex schedule."""
    degs = g.degrees()
    return [(u, v) for u, v in g.edges if degs[u] == 1 and degs[v] == 1]


def class_gcd(part: PairPartition) -> int:
    """gcd of the within-class eigenvalue differences of the partition."""
    if len(part.plus) < 2 and len(part.minus) < 2:
        # singleton classes happen exactly when {a, b} is an isolated edge
        raise SpecialSmallGraphError(
            f"pair {part.a},{part.b} is an isolated edge: it follows the "
            "two-vertex schedule"
        )
    return gcd(*(x - low for cls in (part.plus, part.minus) for low in [min(cls)] for x in cls))


def decide_proper_lafr(g: Graph, a: int, b: int) -> RevivalDecision:
    """Classify a vertex pair for proper Laplacian fractional revival.

    Pipeline: both supports must be all-integer, the pair must be strongly
    cospectral, and some minus-class eigenvalue must avoid the class gcd.
    When all three hold the earliest revival time is 2*pi/g with phase
    residue k = (minus element mod g), and the revival degenerates to
    perfect state transfer exactly when k/g = 1/2.  An isolated edge has
    no class gcd: :func:`class_gcd` raises ``SpecialSmallGraphError``.
    """
    check_vertices(g, a, b)
    pair = (a, b) if a < b else (b, a)
    if vertex_spectra(g)[a] is None or vertex_spectra(g)[b] is None:
        return RevivalDecision(RevivalStatus.NON_INTEGER_SUPPORT, pair)
    part = strong_cospectral(g, *pair)
    if part is None:
        return RevivalDecision(RevivalStatus.NOT_STRONGLY_COSPECTRAL, pair)
    gg = class_gcd(part)
    k = min(part.minus) % gg  # gg divides every within-class difference
    if k == 0:
        return RevivalDecision(RevivalStatus.PERIODIC_ONLY, pair, partition=part, g=gg)
    return RevivalDecision(
        RevivalStatus.PROPER, pair, partition=part, g=gg, phase=PhaseRational(k, gg)
    )


def all_lafr_pairs(g: Graph) -> list[RevivalDecision]:
    """Decisions for every strongly cospectral pair, sorted by pair.

    Vertices with certified all-integer supports are bucketed on their
    support and sign-scaled eigenprojection columns, and only pairs inside a
    bucket are decided: two vertices are strongly cospectral exactly when
    they share a bucket.  An isolated edge follows the two-vertex schedule
    and is not listed.
    """
    buckets: dict = {}
    for v, spec in enumerate(vertex_spectra(g)):
        if spec is not None:
            buckets.setdefault(spec.key, []).append(v)
    skip = set(isolated_edges(g))
    pairs = sorted(p for vs in buckets.values() for p in combinations(vs, 2))
    return [decide_proper_lafr(g, *p) for p in pairs if p not in skip]


def earliest_common_lafr_time(g: Graph) -> PiRational | None:
    """Earliest proper revival time over all pairs, 2*pi over the largest
    class gcd, or ``None``.  Isolated edges are excluded (their proper
    times form a continuum; see ``TWO_VERTEX_SCHEDULE``).
    """
    gcds = [d.g for d in all_lafr_pairs(g) if d.status is RevivalStatus.PROPER]
    return two_pi_over(max(gcds)) if gcds else None


# ---------------------------------------------------------------------------
# time membership helpers


def proper_time_valid(decision: RevivalDecision, num: int, den: int) -> bool:
    """Whether (num/den)*pi is a proper revival time for a PROPER decision.

    Valid times t are the multiples m * 2*pi/g whose phase m*k stays
    nonzero modulo g, that is, whose t*k is no multiple of 2*pi.
    """
    if decision.status is not RevivalStatus.PROPER or num * den <= 0:
        return False
    k = decision.phase.k
    return _on_grid(num, den, decision.g) and not _on_grid(num * k, den, 1)


def _proper_pairs_at(g: Graph, num: int, den: int) -> list[tuple[int, int]]:
    """Pairs with proper revival at exactly time (num/den)*pi.

    An isolated edge (support {0, 2}, beta = (1 - exp(2it))/2) revives at
    every time off the pi grid, PST included, as any PROPER pair does.
    """
    pairs = [d.pair for d in all_lafr_pairs(g) if proper_time_valid(d, num, den)]
    if not _on_grid(num, den, 2):
        pairs += isolated_edges(g)
    return pairs


def has_proper_lafr_at(g: Graph, num: int, den: int) -> bool:
    """Whether the graph admits proper revival at exactly time (num/den)*pi."""
    if num * den <= 0:
        raise ValueError("time must be positive")
    return bool(_proper_pairs_at(g, num, den))


def has_periodic_vertex_at(g: Graph, num: int, den: int) -> bool:
    """Whether some vertex is periodic at exactly time (num/den)*pi."""
    if num * den <= 0:
        raise ValueError("time must be positive")
    # a support of {0} alone has gcd 0, and every time lies on the 0 grid
    return any(s is not None and _on_grid(num, den, gcd(*s.support)) for s in vertex_spectra(g))


# ---------------------------------------------------------------------------
# structural checkers for the construction families


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
    # The factor checks run first: they reject a non-positive time.
    right = has_periodic_vertex_at(x, tau_num, tau_den) and has_proper_lafr_at(
        y, tau_num, tau_den
    )
    pairs = _proper_pairs_at(cartesian_product(x, y), tau_num, tau_den)
    return any(u // y.n == v // y.n for u, v in pairs) == right


def check_complement_transfer(x: Graph, tau_num: int, tau_den: int) -> bool:
    """Complement identity exp(i*tau*L-complement) = exp(-i*tau*L), read
    through its exact consequence: the same proper pairs at tau.

    Applicable when n*tau is a multiple of 2*pi.  Since L + L-complement
    = nI - J and J commutes with L, exp(i*tau*L-complement) =
    exp(i*tau*n) exp(-i*tau*J) exp(-i*tau*L), and both leading factors are
    the identity on that time grid.  So U_complement(tau) is the complex
    conjugate of U(tau), entry for entry, and a pair revives properly in
    one graph at tau exactly when it does in the other.  U(-tau) is the
    conjugate of U(tau) too, so the pairs are read at |tau|.
    """
    if not _on_grid(tau_num, tau_den, x.n):
        raise NotApplicableError("n * tau must be a multiple of 2*pi")
    num, den = abs(tau_num), abs(tau_den)
    return sorted(_proper_pairs_at(x, num, den)) == sorted(
        _proper_pairs_at(complement(x), num, den)
    )


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
    return PolygamyCheck(
        lafr_x_per_y_time=two_pi_over(t1),
        lafr_y_per_x_time=two_pi_over(t2),
        # t1 | big_h and t2 | big_g: the partner factor is always periodic
        ok=big_g % t1 != 0 and big_h % t2 != 0,
    )


def hadamard_partition_check(n: int, part: PairPartition) -> bool:
    """Eigenvalue classes of an antipodal pair on the 4n^2-vertex graph
    built from an (n^2 by n^2) Hadamard matrix."""
    return part.plus == {0, n * n, 2 * n * n} and part.minus == {
        n * n - n,
        n * n + n,
    }
