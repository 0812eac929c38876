"""Newton polygons of the series at a weight, with certified slope prefixes.

A slope request is answered from a finite truncation, so every answer comes
with a certificate: the truncation degree D is grown until every later
coefficient provably lies above the supporting line of the last requested
slope.  The lower bound used is lam(g_i) * c, where c is the smallest
valuation any zero can contribute against the given weight:

    c = min(v_p(w_kappa), 1)            odd p,
    c = min(v_2(w_kappa), 3)            p = 2, no eta_8 zeros,
    c = min(v_2(w_kappa), 1)            p = 2, modified series with eta_8 zeros,

because zeros of the coefficients satisfy v_p(w) >= 1 (>= 3 for p = 2;
the extra eta_8 zeros of the modified series sit at v_2(w) = 1).  The
line condition is checked exactly on a window beyond D, long enough that
the linear bound lam(Delta_i) >= alpha*i - beta of
``GhostSeries.degree_bound`` carries it to every later index.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial
from itertools import groupby, pairwise, repeat
from math import ceil, gcd
from operator import lt, mul

from .dims import dim_cusp_gamma0
from .errors import CertificationError, PrecisionError
from .record import Record, init
from .series import GhostSeries
from .series import coefficient_divisor  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
from .weightspace import (
    INFINITY,
    Classical,
    ExtendedRational,
    PrimeContext,
    WeightPoint,
    leg_rule,
    pair_valuation,  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
    weight_component,
)

DEFAULT_CAP = 10_000


class NewtonPolygon(Record):
    """Lower convex hull, stored as its minimal vertex list.

    Vertex values keep the type of the points: Fractions at annulus and
    character weights, else ints; den-scaled ints are checked, then divided.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[tuple[int, int | Fraction], ...], den: int = 1) -> None:
        runs = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in pairwise(vertices)]
        # dy2/dx2 > dy1/dx1 with positive dx, cross-multiplied
        if any(dy2 * dx1 <= dy1 * dx2 for (dx1, dy1), (dx2, dy2) in pairwise(runs)):
            raise AssertionError("hull slopes must increase strictly between vertices")
        init(self, "vertices", vertices if den == 1 else tuple((x, Fraction(y, den)) for x, y in vertices))

    def slope_pairs(self) -> tuple[tuple[Fraction, int], ...]:
        """(slope, multiplicity) per edge; multiplicities are index gaps."""
        return tuple((Fraction(y2 - y1, x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in pairwise(self.vertices))

    def slope_ints(self, n: int | None = None) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The first n slopes flattened with multiplicity, nondecreasing, as their
        numerators and positive denominators in lowest terms: one gcd per edge."""
        nums, dens = [], []
        n = self.vertices[-1][0] if n is None else n  # all of them
        for (x1, y1), (x2, y2) in pairwise(self.vertices):
            dy, dx = y2 - y1, x2 - x1  # dy an int, or a Fraction at den > 1
            take = min(dx, n - len(nums))
            g = gcd(dy.numerator, dy.denominator * dx)
            nums += repeat(dy.numerator // g, take)
            dens += repeat(dy.denominator * dx // g, take)
            if len(nums) >= n:
                break
        return tuple(nums), tuple(dens)

    def slopes(self, n: int | None = None) -> tuple[Fraction, ...]:
        """Slopes flattened with multiplicity, nondecreasing; the first n of them."""
        return tuple(map(Fraction, *self.slope_ints(n)))


class SlopeList(Record):
    """Nondecreasing slopes, every one certified: a request that cannot
    certify its slopes raises instead of returning a list.  It holds them as
    ``nums`` and positive ``dens`` in lowest terms; ``slopes``, the tuple of
    Fractions, is built on first read and kept.
    """

    __slots__ = ("nums", "dens", "_slopes")

    def __init__(self, slopes: Sequence[Fraction] = (), *, nums: tuple = (), dens: tuple = ()) -> None:
        if slopes := tuple(slopes):
            nums, dens = tuple(s.numerator for s in slopes), tuple(s.denominator for s in slopes)
        if any(map(lt, map(mul, nums[1:], dens), map(mul, nums, dens[1:]))):  # c/d < a/b for consecutive a/b, c/d
            raise AssertionError("slope lists are nondecreasing")
        init(self, "nums", nums)
        init(self, "dens", dens)
        init(self, "_slopes", slopes or None)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        if self._slopes is None:
            init(self, "_slopes", tuple(map(Fraction, self.nums, self.dens)))
        return self._slopes

    def __repr__(self) -> str:
        return f"SlopeList(slopes={self.slopes!r})"

    def __reduce__(self):
        return partial(SlopeList, nums=self.nums, dens=self.dens), ()

    @property
    def certified_count(self) -> int:
        """How many slopes are certified: all of them."""
        return len(self.nums)

    def pairs(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((Fraction(a, d), len(list(run))) for (a, d), run in groupby(zip(self.nums, self.dens)))

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self):
        return iter(self.slopes)

    def __getitem__(self, j: int) -> Fraction:
        return self.slopes[j]


def lower_hull(points: Sequence[tuple[int, ExtendedRational]], den: int = 1) -> NewtonPolygon:
    """Lower convex hull over the finite points; +Infinity points are omitted.

    The first point must be (0, 0) (the series has constant term 1) and
    indices must be given in strictly increasing order.  Values are compared
    by cross-multiplication, so int values stay ints; den-scaled int values
    are divided by den at the vertices only.
    """
    if not points:
        raise ValueError("cannot take the hull of no points")
    if points[0][0] != 0 or points[0][1] != 0:
        raise ValueError("the hull needs the point (0, 0) for the constant term")
    hull: list[tuple[int, ExtendedRational]] = []
    last = -1
    for x, y in points:
        if x <= last:
            raise ValueError("point indices must increase strictly")
        last = x
        if y is INFINITY:
            continue
        # pop while the middle vertex is on or above the chord (keeps the
        # vertex set minimal: collinear interior points are dropped)
        while len(hull) >= 2:
            x1, y1 = hull[-2]
            x2, y2 = hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return NewtonPolygon(tuple(hull), den)


# ---------------------------------------------------------------------------
# the certificate engine

def _tail_fault(
    lam: Sequence[int], D: int, window_end: int, c: Fraction, s: Fraction, i0: int, y0: int | Fraction
) -> str | None:
    """Why the first index i of (D, window_end] fails the line condition
    lam[i] * c > y0 + s * (i - i0), or None.  The condition is multiplied
    through by the positive denominators of c, s and y0, so ints are compared.
    """
    cn, cd = c.numerator, c.denominator
    sn, sd = s.numerator, s.denominator
    yn, yd = y0.numerator, y0.denominator
    lead, line, rise = cn * sd * yd, yn * cd * sd + sn * cd * yd * (D - i0), sn * cd * yd
    for i in range(D + 1, window_end + 1):
        line += rise
        if lam[i] * lead <= line:
            return f"the line condition failed at index {i}"
    return None


def certified_slopes(
    values: Callable[[int], Sequence[ExtendedRational]],
    lam_upto: Callable[[int], Sequence[int]],
    c: Fraction,
    n: int,
    cap: int | None,
    bound: tuple[int, Fraction, Fraction],
    den: int = 1,
) -> tuple[SlopeList, NewtonPolygon]:
    """First n hull slopes with a truncation certificate, and the hull over 0..D.

    Grows the truncation degree D (doubling, up to ``cap`` or DEFAULT_CAP)
    until the hull over indices 0..D has n slopes and every coefficient past D
    provably clears the supporting line y0 + s(i - i0) at the n-th slope.
    Each round asks ``lam_upto`` for the degrees through 2D + 32 first, then
    ``values(D)`` for the point values of indices 0..D (at least), times
    ``den``, so a caller whose values are the degrees builds one degree array
    per round.

    With (A, alpha, beta) = ``bound`` from ``GhostSeries.degree_bound``, the
    line condition c*lam(g_i) > y0 + s(i - i0) is checked exactly on (D, W],
    W = max(2D + 32, A - 1, ceil((s/c + beta)/alpha) - 1), on (D, 2D + 32]
    first: the degrees past 2D + 32 are read only once that part holds.
    Each i > W has i >= A, so c*lam(Delta_i) >= c(alpha*(W + 1) - beta) >= s:
    the gap c*lam(g_i) - y0 - s(i - i0), positive at W, never falls after it.
    """
    if n < 1:
        raise ValueError("at least one slope must be requested")
    cap = DEFAULT_CAP if cap is None else cap
    if cap < 1:
        raise ValueError(f"the degree cap must be at least 1, got {cap}")
    if c <= 0:
        raise ValueError("the valuation floor c must be positive")
    A, alpha, beta = bound
    D = min(max(2 * n, 16), cap)
    while True:
        window_end = 2 * D + 32
        lam = lam_upto(window_end)
        poly = lower_hull(list(enumerate(values(D)[: D + 1])), den)
        nums, dens = poly.slope_ints(n)
        fault = f"the hull had {len(nums)} slopes, fewer than {n}"
        if len(nums) >= n:
            s = Fraction(nums[-1], dens[-1])
            i0, y0 = next(v for v in poly.vertices if v[0] >= n)  # the n-th slope's edge ends here
            W = max(window_end, A - 1, ceil((s / c + beta) / alpha) - 1)
            fault = _tail_fault(lam, D, window_end, c, s, i0, y0)
            if fault is None and W > window_end:  # the short window holds: read the degrees on to W
                fault, window_end = _tail_fault(lam_upto(W), window_end, W, c, s, i0, y0), W
            if fault is None:
                return SlopeList(nums=nums, dens=dens), poly
        if D >= cap:
            raise CertificationError(
                f"could not certify {n} slopes within the degree cap {cap}; "
                f"raise the cap (flag --cap); last round D = {D}, window end {window_end}: {fault}"
            )
        D = min(2 * D + 32, cap)


def ghost_polygon(
    ctx: PrimeContext,
    kappa: WeightPoint,
    n: int,
    *,
    seed=None,
    cap: int | None = None,
) -> tuple[SlopeList, NewtonPolygon]:
    """First n certified slopes of the Newton polygon of the series at the
    weight kappa, with the hull they come from.

    Passing a weight-2 seed switches to the modified p = 2 series.
    """
    series = GhostSeries(ctx, weight_component(kappa, ctx), seed)
    leg = leg_rule(kappa, ctx)  # every zero of the series lies on the component of kappa
    try:  # the least leg of any zero is v_p(w_kappa), the leg at the disc centre z^0, or the floor
        c = min(leg(Classical, 0), series.floor_cap)
    except PrecisionError:  # only an ExplicitW that is 0 mod p^m: v_p(w_kappa) >= m
        if kappa.m < series.floor_cap:
            raise
        c = series.floor_cap
    values = partial(series.values, leg=leg, scaled=True)  # times leg.den: the hull compares ints
    return certified_slopes(values, series.lam_upto, c, n, cap, series.degree_bound(), leg.den)


def ghost_slopes(
    ctx: PrimeContext,
    kappa: WeightPoint,
    n: int,
    *,
    seed=None,
    cap: int | None = None,
) -> SlopeList:
    """First n slopes of the Newton polygon of the series at the weight kappa."""
    return ghost_polygon(ctx, kappa, n, seed=seed, cap=cap)[0]


def classical_ghost_slopes(
    ctx: PrimeContext,
    k: int,
    count_mode: str = "tame",
    *,
    seed=None,
    cap: int | None = None,
) -> SlopeList:
    """Predicted classical slopes in weight k.

    ``tame`` returns the first dim S_k(Gamma_0(N)) slopes (the classical
    comparison length); ``full`` the first dim S_k(Gamma_0(Np)) slopes.
    """
    if k % 2 != 0 or k < 2:
        raise ValueError(f"classical weight k = {k} must be even and at least 2")
    if count_mode == "tame":
        n = dim_cusp_gamma0(ctx.N, k)
    elif count_mode == "full":
        n = dim_cusp_gamma0(ctx.N * ctx.p, k)
    else:
        raise ValueError(f"unknown count mode {count_mode!r} (use 'tame' or 'full')")
    if n == 0:
        return SlopeList(())
    return ghost_slopes(ctx, Classical(k), n, seed=seed, cap=cap)
