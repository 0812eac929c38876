"""Boundary (mod-p) polygons, arithmetic-progression checks, halo profiles.

Near the boundary of weight space every coefficient valuation collapses to
lam(g_i) * v_p(w_kappa), so the normalized polygon is the hull of the pure
degree points (i, lam(g_i)).  Its increments are proved periodic plus
linear (``boundary_period``), so a short certified base fixes every later
slope by slope(j + n) = slope(j) + delta: the progressions of the boundary
conjectures, which ``ap_check`` verifies on a slope list.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import lcm
from operator import sub

from .dims import gamma0_invariants
from .errors import GhostError
from .polygon import SlopeList, certified_slopes, ghost_slopes
from .record import Record
from .series import GhostSeries
from .weightspace import Annulus, ComponentLabel, PrimeContext


class BoundaryPolygon(Record):
    """The hull of the degree points (i, lam(g_i)) over the certified base; the w-adic slopes.

    ``shear`` is (q, delta, b, start): ``boundary_period`` proved the period
    (q, delta) from the burn-in b, and the shear built slope(j) = slope(j - q)
    + delta for every j >= start, so the progression check with (q, delta)
    holds by construction at every position from start - q on and needs only
    the slopes before start.  It is None when the slopes were certified
    directly.
    """

    __slots__ = ("component", "polygon", "slopes", "shear")


def boundary_period(series: GhostSeries, n: int, delta: int) -> tuple[int, int, int]:
    """(n, delta, b) with lam(Delta_{x+n}) - lam(Delta_x) = delta for every x >= b.

    The conjectured (n, delta) is tried first, else n = L below, which holds
    by construction; b >= 1 is the least burn-in.  Proof: the second
    differences of lam(g_i) are the marks of ``series.progressions``; A is
    their last start (a + 1 for a single mark), L the lcm of their steps.  At
    x >= A a mark hits x exactly when it hits x + L, so Delta_{x+L} - Delta_x,
    the sum of the marks on (x, x + L], is one constant for x >= A - 1.  So
    g(x) = Delta_{x+n} - Delta_x is L-periodic there, and an exact check of
    g = delta on [b, x0 + L), x0 = max(A - 1, 1), proves it for every x >= b.
    """
    A = max(a + (not s) for a, s, _ in series.progressions)
    L = lcm(*(s for _, s, _ in series.progressions if s))
    x0 = max(A - 1, 1)
    lam = series.lam_upto(x0 + L + n)
    d = [0, *map(sub, lam[1:], lam)]  # d[x] = lam(Delta_x)
    if list(map(sub, d[x0 + n : x0 + L + n], d[x0 : x0 + L])).count(delta) < L:
        n, delta = L, d[x0 + L] - d[x0]
    b = x0
    while b > 1 and d[b - 1 + n] - d[b - 1] == delta:
        b -= 1
    return n, delta, b


def boundary_polygon(
    ctx: PrimeContext,
    eps: ComponentLabel,
    n: int,
    *,
    seed=None,
    cap: int | None = None,
) -> BoundaryPolygon:
    """The first n slopes of the hull of (i, lam(g_i)), all certified.

    Passing a weight-2 seed switches to the modified p = 2 series.  With
    (q, delta, b) from ``boundary_period``, lam(g_{x+q}) = lam(g_x) + delta*x
    + C for x >= b - 1, so the shear (x, y) -> (x + q, y + delta*x + C) maps
    those points, and their lower hull, onto the points from b - 1 + q on.
    A hull vertex v >= b - 1 + q thus gives slope(j) = slope(j - q) + delta
    for every j > v + q.  So a certified base, the slopes through the end of
    the edge of slope m, that holds such a v with v + q inside it determines
    the rest by the shear; ``polygon`` then covers the base only.  One base
    is certified, the first m = b + 2q + 1 slopes, and its failure at the
    cap ends the request, since the n > m slopes would fail there too: if
    they certified at a round D <= cap, every point past D lies above the
    n-th supporting line, so later rounds keep the first n hull edges; past
    the end of the n-th edge that line lies on or above the m-th one, so the
    m slopes certify at their first round at or past D.  The n slopes are
    certified directly only when no base is shorter than n, or when the base
    holds no such v.
    """
    series = GhostSeries(ctx, eps, seed)
    bound = series.degree_bound()
    q, delta = ap_parameters(ctx)
    m = n
    if n > 2 * q + 1:  # else no base is shorter than n
        q, delta, b = boundary_period(series, q, delta)
        m = min(b + 2 * q + 1, n)
    slopes, poly = certified_slopes(series.lam_upto, series.lam_upto, Fraction(1), m, cap, bound)
    if m < n:
        end = next(x for x, _ in poly.vertices if x >= m)  # the certified edge of slope m ends here
        if any(b - 1 + q <= v <= end - q for v, _ in poly.vertices):
            return BoundaryPolygon(eps, poly, _shear(poly.slopes(end), q, delta, n), (q, delta, b, end))
        slopes, poly = certified_slopes(series.lam_upto, series.lam_upto, Fraction(1), n, cap, bound)
    return BoundaryPolygon(eps, poly, slopes, None)


def _shear(head: SlopeList, q: int, delta: int, n: int) -> SlopeList:
    """The slopes of ``head`` extended to n by slope(j) = slope(j - q) + delta.

    a/d + delta = (a + delta*d)/d keeps d and stays reduced, so each slope
    a/d of the last period of the head starts a progression of numerators
    with step delta*d (delta > 0), written every q-th place: no gcd is taken.
    """
    nums, dens, h = head.nums, head.dens, len(head)
    k = -((h - n) // q)  # the periods past the head, the last one cut at n
    tail = [0] * (k * q)
    for r, (a, d) in enumerate(zip(nums[h - q :], dens[h - q :])):
        tail[r::q] = range(a + delta * d, a + delta * d * (k + 1), delta * d)
    return SlopeList((nums + tuple(tail))[:n], (dens + dens[h - q :] * k)[:n])


# ---------------------------------------------------------------------------
# arithmetic progressions

class APReport(Record):
    __slots__ = ("n_ap", "delta", "burn_in", "verified_through", "first_violation")

    @property
    def verified(self) -> bool:
        return self.first_violation is None


def ap_parameters(ctx: PrimeContext) -> tuple[int, int]:
    """(number of progressions, common difference) for the boundary slopes.

    n_ap = p(p-1)(p+1) mu_0(N) / 24 and delta = (p-1)^2 / 2 for odd p.  Both
    are integers: p - 1 and p + 1 are even and one of them is divisible by 4,
    and one of p - 1, p, p + 1 is divisible by 3, so 24 divides (p-1)p(p+1);
    and (p-1)^2 is even.  For p = 2 they are (mu_0(N), 1) (Bergdall-Pollack).
    """
    p = ctx.p
    mu0 = gamma0_invariants(ctx.N).index
    if p == 2:
        return mu0, 1
    return p * (p - 1) * (p + 1) * mu0 // 24, (p - 1) ** 2 // 2


def check_ap_counts(n_ap: int, burn_in: int) -> None:
    """Refuse a progression count below 1 or a negative burn-in."""
    if n_ap < 1 or burn_in < 0:
        raise ValueError("need n_ap >= 1 and burn_in >= 0")


def _first_break(slopes: Sequence[Fraction], n_ap: int, delta, positions: range) -> int | None:
    """The first j of ``positions`` with slope(j + n_ap) != slope(j) + delta, or None.

    The slopes are read once as numerator and denominator, off the ints of a
    ``SlopeList``; the identity is then compared on integers,
    cross-multiplied by the positive denominators.
    """
    delta = Fraction(delta)
    dn, dd = delta.numerator, delta.denominator
    if isinstance(slopes, SlopeList):
        nums, dens = slopes.nums, slopes.dens
    else:
        nums, dens = [s.numerator for s in slopes], [s.denominator for s in slopes]
    for j in positions:
        a, b = dens[j], dens[j + n_ap]
        if (nums[j + n_ap] * a - nums[j] * b) * dd != dn * a * b:
            return j
    return None


def ap_check(slopes: Sequence[Fraction], n_ap: int, delta, burn_in: int) -> APReport:
    """Verify slope(j + n_ap) = slope(j) + delta for all j >= burn_in.

    Positions are 0-based; the first ``burn_in`` slopes are excluded.  At
    least one step must be left to check.
    """
    check_ap_counts(n_ap, burn_in)
    total = len(slopes)
    if total < burn_in + n_ap + 1:
        raise GhostError(
            f"insufficient certified slopes: have {total}, "
            f"need more than {burn_in + n_ap}"
        )
    first_violation = _first_break(slopes, n_ap, delta, range(burn_in, total - n_ap))
    return APReport(n_ap, Fraction(delta), burn_in, total, first_violation)


def scan_burn_in(slopes: Sequence[Fraction], n_ap: int, delta, max_burn_in: int) -> int | None:
    """Smallest burn-in <= max_burn_in that verifies, or None."""
    check_ap_counts(n_ap, max_burn_in)
    last_bad = _first_break(slopes, n_ap, delta, range(len(slopes) - n_ap - 1, -1, -1))
    burn = 0 if last_bad is None else last_bad + 1
    return burn if burn <= max_burn_in else None


# ---------------------------------------------------------------------------
# halo profiles

class HaloProfile(Record):
    """Slope rows sampled on r < v < r + 1, with per-slope affine fits.

    fits[t] = (a, b) means the t-th slope equals a + b*v across the rows.
    """

    __slots__ = ("center", "interval", "rows", "fits")


def halo_profile(
    ctx: PrimeContext,
    k0: int,
    r: int,
    samples: int = 3,
    n: int = 20,
    *,
    seed=None,
    cap: int | None = None,
) -> HaloProfile:
    """Sample the first n slopes at v = r + j/(samples+1), j = 1..samples.

    Every sample point avoids integer v, so each row is a well-defined
    annulus weight.  The rows of one interval must fit a common affine
    function of v slope-by-slope; a violation raises.
    """
    if r < 0 or samples < 1:
        raise ValueError("need interval r >= 0 and samples >= 1")
    rows = []
    for j in range(1, samples + 1):
        v = r + Fraction(j, samples + 1)
        rows.append((v, ghost_slopes(ctx, Annulus(k0, v), n, seed=seed, cap=cap)))

    fits: list[tuple[Fraction, Fraction]] = []
    if len(rows) >= 2:
        (v1, s1), (v2, s2) = rows[0], rows[1]
        for t in range(n):
            b = (s2[t] - s1[t]) / (v2 - v1)
            a = s1[t] - b * v1
            for v, s in rows:
                if s[t] != a + b * v:
                    raise GhostError(
                        f"slope {t + 1} is not affine in v on ({r}, {r + 1}) at center {k0}"
                    )
            fits.append((a, b))
    return HaloProfile(k0, r, tuple(rows), tuple(fits))
