"""Boundary (mod-p) polygons, arithmetic-progression checks, halo profiles.

Near the boundary of weight space every coefficient valuation collapses to
lam(g_i) * v_p(w_kappa), so the normalized polygon is the hull of the pure
degree points (i, lam(g_i)).  Its slope list is eventually a finite union
of arithmetic progressions (odd p), which is verified here through the
interleaving identity slope(j + n_ap) = slope(j) + delta.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .dims import gamma0_invariants
from .errors import GhostError
from .polygon import DEFAULT_CAP, SlopeList, certified_slopes, ghost_slopes
from .record import Record
from .series import GhostSeries
from .weightspace import Annulus, ComponentLabel, PrimeContext


class BoundaryPolygon(Record):
    """Degree points (i, lam(g_i)), their hull, and the certified w-adic slopes."""

    __slots__ = ("component", "points", "polygon", "slopes")


def boundary_polygon(
    ctx: PrimeContext,
    eps: ComponentLabel,
    n: int,
    *,
    seed=None,
    cap: int | None = None,
) -> BoundaryPolygon:
    """Hull of (i, lam(g_i)) with the first n slopes certified.

    Passing a weight-2 seed switches to the modified p = 2 series.
    """
    series = GhostSeries(ctx, eps, seed)
    slopes, poly, points = certified_slopes(
        series.lam_upto,
        series.lam_upto,
        Fraction(1),
        n,
        DEFAULT_CAP if cap is None else cap,
    )
    return BoundaryPolygon(eps, tuple(points), poly, slopes)


# ---------------------------------------------------------------------------
# arithmetic progressions

class APReport(Record):
    __slots__ = ("n_ap", "delta", "burn_in", "verified_through", "first_violation")

    @property
    def verified(self) -> bool:
        return self.first_violation is None


def ap_parameters(ctx: PrimeContext) -> tuple[int, int]:
    """(number of progressions, common difference) for the boundary slopes.

    n_ap = p(p-1)(p+1) mu_0(N) / 24 and delta = (p-1)^2 / 2, for odd p.
    """
    p = ctx.p
    if p == 2:
        raise ValueError("the progression structure applies to odd p only")
    mu0 = gamma0_invariants(ctx.N).index
    numerator = p * (p - 1) * (p + 1) * mu0
    if numerator % 24 != 0:
        raise AssertionError(f"progression count p(p-1)(p+1)mu0/24 not integral at p={p}, N={ctx.N}")
    delta2 = (p - 1) ** 2
    if delta2 % 2 != 0:
        raise AssertionError("common difference (p-1)^2/2 not integral")
    return numerator // 24, delta2 // 2


def check_ap_counts(n_ap: int, burn_in: int) -> None:
    """Refuse a progression count below 1 or a negative burn-in."""
    if n_ap < 1 or burn_in < 0:
        raise ValueError("need n_ap >= 1 and burn_in >= 0")


def _first_break(slopes: Sequence[Fraction], n_ap: int, delta, positions) -> int | None:
    """The first j of ``positions`` with slope(j + n_ap) != slope(j) + delta, or None.

    Each slope is read once as numerator and denominator; the identity is
    then compared on integers, cross-multiplied by the positive denominators.
    """
    delta = Fraction(delta)
    dn, dd = delta.numerator, delta.denominator
    nums = [s.numerator for s in slopes]
    dens = [s.denominator for s in slopes]
    for j in positions:
        a, b = dens[j], dens[j + n_ap]
        if (nums[j + n_ap] * a - nums[j] * b) * dd != dn * a * b:
            return j
    return None


def ap_check(slopes: Sequence[Fraction], n_ap: int, delta, burn_in: int) -> APReport:
    """Verify slope(j + n_ap) = slope(j) + delta for all j >= burn_in.

    Positions are 0-based; the first ``burn_in`` slopes are excluded.  The
    slopes must be certified through the checked range.
    """
    check_ap_counts(n_ap, burn_in)
    total = len(slopes)
    if isinstance(slopes, SlopeList) and slopes.certified_count < total:
        raise GhostError("slopes must be certified through the checked range")
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
