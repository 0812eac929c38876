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
growth of lam(Delta_i) past s/c is checked exactly on a window beyond D
and extrapolated monotonically past the window.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .dims import dim_cusp_gamma0
from .errors import CertificationError, PrecisionError
from .record import Record, init
from .series import GhostSeries
from .series import coefficient_divisor  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
from .weightspace import (
    INFINITY,
    Classical,
    ExplicitW,
    ExtendedRational,
    PrimeContext,
    WeightPoint,
    leg_rule,
    pair_valuation,  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
    weight_component,
    weight_valuation,
)

DEFAULT_CAP = 10_000


class NewtonPolygon(Record):
    """Lower convex hull, stored as its minimal vertex list.

    Vertex values keep the type of the points: int for degree points,
    Fraction for valuations.  Edge slopes are Fractions, computed once.
    """

    __slots__ = ("vertices", "_edges")
    _fields = ("vertices",)

    def __init__(self, vertices: tuple[tuple[int, int | Fraction], ...]) -> None:
        runs = [(x2 - x1, y2 - y1) for (x1, y1), (x2, y2) in zip(vertices, vertices[1:])]
        # dy2/dx2 > dy1/dx1 with positive dx, cross-multiplied
        if any(dy2 * dx1 <= dy1 * dx2 for (dx1, dy1), (dx2, dy2) in zip(runs, runs[1:])):
            raise AssertionError("hull slopes must increase strictly between vertices")
        init(self, "vertices", vertices)
        init(self, "_edges", tuple((Fraction(dy, dx), dx) for dx, dy in runs))

    def slope_pairs(self) -> tuple[tuple[Fraction, int], ...]:
        """(slope, multiplicity) per edge; multiplicities are index gaps."""
        return self._edges

    def slopes(self, n: int | None = None) -> tuple[Fraction, ...]:
        """Slopes flattened with multiplicity, nondecreasing."""
        out: list[Fraction] = []
        for slope, mult in self.slope_pairs():
            take = mult if n is None else min(mult, n - len(out))
            out.extend([slope] * take)
            if n is not None and len(out) >= n:
                break
        return tuple(out)


class SlopeList(Record):
    """Nondecreasing slopes with a count of how many are guaranteed final."""

    __slots__ = ("slopes", "certified_count")

    def __init__(self, slopes: tuple[Fraction, ...], certified_count: int) -> None:
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise AssertionError("slope lists are nondecreasing")
        init(self, "slopes", slopes)
        init(self, "certified_count", certified_count)

    def pairs(self) -> tuple[tuple[Fraction, int], ...]:
        out: list[tuple[Fraction, int]] = []
        for s in self.slopes:
            if out and out[-1][0] == s:
                out[-1] = (s, out[-1][1] + 1)
            else:
                out.append((s, 1))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.slopes)

    def __iter__(self):
        return iter(self.slopes)

    def __getitem__(self, j: int) -> Fraction:
        return self.slopes[j]


def lower_hull(points: Sequence[tuple[int, ExtendedRational]]) -> NewtonPolygon:
    """Lower convex hull over the finite points; +Infinity points are omitted.

    The first point must be (0, 0) (the series has constant term 1) and
    indices must be given in strictly increasing order.  Values are compared
    by cross-multiplication, so int values stay ints.
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
    return NewtonPolygon(tuple(hull))


# ---------------------------------------------------------------------------
# the certificate engine

def _nth_anchor(poly: NewtonPolygon, n: int) -> tuple[Fraction, int, Fraction]:
    """Slope s of the n-th slope and the vertex closing its segment."""
    covered = 0
    for edge, (slope, mult) in enumerate(poly.slope_pairs()):
        covered += mult
        if covered >= n:
            x, y = poly.vertices[edge + 1]
            return slope, x, y
    raise AssertionError("anchor requested beyond the hull")


def _tail_clears(
    lam: Sequence[int],
    D: int,
    window_end: int,
    c: Fraction,
    s: Fraction,
    i0: int,
    y0: int | Fraction,
) -> bool:
    """Exact window check plus the monotone extrapolation assertion.

    Each index i of the window must satisfy lam[i] * c > y0 + s * (i - i0)
    and (lam[i] - lam[i - 1]) * c > s.  Both are multiplied through by the
    positive denominators of c, s and y0, so the loop compares ints.
    """
    cn, cd = c.numerator, c.denominator
    sn, sd = s.numerator, s.denominator
    yn, yd = y0.numerator, y0.denominator
    lead, line, rise = cn * sd * yd, yn * cd * sd + sn * cd * yd * (D - i0), sn * cd * yd
    step_lead, step_floor = cn * sd, sn * cd
    deltas: list[int] = []
    prev = lam[D]
    for i in range(D + 1, window_end + 1):
        cur = lam[i]
        step = cur - prev
        prev = cur
        line += rise
        deltas.append(step)
        if cur * lead <= line or step * step_lead <= step_floor:
            return False
    half = len(deltas) // 2
    if half and min(deltas[half:]) < min(deltas[:half]):
        return False
    return True


def certified_slopes(
    values: Callable[[int], Sequence[ExtendedRational]],
    lam_upto: Callable[[int], Sequence[int]],
    c: Fraction,
    n: int,
    cap: int,
) -> tuple[SlopeList, NewtonPolygon, list[tuple[int, ExtendedRational]]]:
    """First n hull slopes with a truncation certificate.

    Grows the truncation degree D (doubling, up to ``cap``) until the hull
    over indices 0..D has n slopes and every coefficient on the window
    (D, 2D + 32] provably clears the supporting line at the n-th slope.
    Each round asks ``lam_upto`` for the degrees through the window end
    first, then ``values(D)`` for the point values of indices 0..D (at
    least), so a caller whose values are the degrees builds one degree
    array per round.
    """
    if n < 1:
        raise ValueError("at least one slope must be requested")
    if cap < 1:
        raise ValueError(f"the degree cap must be at least 1, got {cap}")
    if c <= 0:
        raise ValueError("the valuation floor c must be positive")
    D = min(max(2 * n, 16), cap)
    while True:
        window_end = 2 * D + 32
        lam = lam_upto(window_end)
        points = list(enumerate(values(D)[: D + 1]))
        poly = lower_hull(points)
        flat = poly.slopes(n)
        if len(flat) >= n:
            s, i0, y0 = _nth_anchor(poly, n)
            if _tail_clears(lam, D, window_end, c, s, i0, y0):
                return SlopeList(flat, n), poly, points
        if D >= cap:
            raise CertificationError(
                f"could not certify {n} slopes within the degree cap {cap}; "
                "raise the cap (flag --cap or GHOST_CAP)"
            )
        D = min(window_end, cap)


def _valuation_floor(ctx: PrimeContext, kappa: WeightPoint, cap_val: Fraction) -> Fraction:
    """min(v_p(w_kappa), cap_val): the least valuation any zero leg can take."""
    try:
        v = weight_valuation(kappa, ctx)
    except PrecisionError:
        # the weight is known to at least its stated precision m
        if isinstance(kappa, ExplicitW) and kappa.m >= cap_val:
            return cap_val
        raise
    return min(v, cap_val)  # +Infinity compares above every cap


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
    c = _valuation_floor(ctx, kappa, series.floor_cap)
    leg = leg_rule(kappa, ctx)  # every zero of the series lies on the component of kappa
    slopes, poly, _ = certified_slopes(
        lambda D: series.values(D, leg),
        series.lam_upto,
        c,
        n,
        DEFAULT_CAP if cap is None else cap,
    )
    return slopes, poly


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
        return SlopeList((), 0)
    return ghost_slopes(ctx, Classical(k), n, seed=seed, cap=cap)
