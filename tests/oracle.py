"""Reference builders the tests compare the package against.

Each coefficient divisor is built here as a dict, zero by zero, straight
from the dimension formulas: d_k = dim S_k(Gamma_0(N)), the p-new
dimension and the eta_8 dimensions, with no zero table.  These are slow,
but independent of ``ghostseries.series``' table and its reads, which is
what makes them a reference.  ``values_reference`` walks the tents one by
one and calls the leg once per zero, so it checks the progressions that
``GhostSeries.values`` adds.  ``boundary_slopes_reference`` certifies
boundary slopes over the whole degree array, with no period and no shear,
so it checks ``boundary_polygon`` apart from its period proof, and
``ap_report_reference`` runs both progression scans over every slope, so it
checks the CLI's report apart from the positions the shear settles.  The
one-line ``modified_boundary_slopes`` wraps the package's boundary polygon
for the tests that read the modified boundary slopes by tame level.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator

from ghostseries.boundary import ap_check, boundary_polygon, scan_burn_in
from ghostseries.dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew, gamma0_invariants
from ghostseries.modified import Weight2SeedSlopes, seed_multiplicities
from ghostseries.polygon import DEFAULT_CAP, SlopeList, certified_slopes
from ghostseries.record import Record
from ghostseries.series import GhostCoefficient, GhostSeries
from ghostseries.weightspace import (
    INFINITY,
    Classical,
    ComponentLabel,
    EtaEight,
    ExtendedRational,
    PrimeContext,
    WeightPoint,
    classical_weights,
    leg_rule,
    weight_component,
)


# ---------------------------------------------------------------------------
# the up-down pattern

class UpDownPattern(Record):
    """The palindromic sequence 1, 2, ..., up, ..., 2, 1 of length ell."""

    __slots__ = ("ell", "terms")


def updown_term(ell: int, j: int) -> int:
    """j-th term (1-indexed) of the up-down pattern of length ell; 0 outside."""
    if j < 1 or j > ell:
        return 0
    if j <= ell // 2:
        return j
    return ell + 1 - j


def updown(ell: int) -> UpDownPattern:
    """The up-down pattern; empty when ell <= 0."""
    if ell <= 0:
        return UpDownPattern(ell, ())
    return UpDownPattern(ell, tuple(updown_term(ell, j) for j in range(1, ell + 1)))


def updown_padded(ell: int, pad: int, j: int) -> int:
    """j-th term (1-indexed) of the pattern preceded by ``pad`` zeros."""
    return updown_term(ell, j - pad)


def multiplicity(ctx: PrimeContext, i: int, k: int) -> int:
    """m_i(k): order of vanishing of the i-th coefficient at w_k."""
    if k % 2 != 0:
        raise ValueError(f"zero weights are even; got k = {k}")
    if i <= 0 or k < 2:
        return 0
    d = dim_cusp_gamma0(ctx.N, k)
    if i <= d:
        return 0
    return updown_term(dim_pnew(ctx, k) - 1, i - d)


# ---------------------------------------------------------------------------
# divisors

class DeltaDivisor(Record):
    """Zero/pole divisor of the ratio of consecutive coefficients g_i/g_{i-1}."""

    __slots__ = ("index", "zeros", "poles")

    @property
    def lam(self) -> int:
        return sum(self.zeros.values()) - sum(self.poles.values())


def _component_dims(ctx: PrimeContext, eps: ComponentLabel, stop_at: int) -> Iterator[tuple[int, int]]:
    """(k, d_k) along the component until d_k >= stop_at is safely past.

    d_k = k*mu0/12 - (g - 1) - nu_inf - theta2*nu2 - theta3*nu3 with
    0 <= theta2 <= 1/2 and 0 <= theta3 <= 2/3, so once some k reaches
    d_k >= stop_at + ceil(nu2/2 + 2nu3/3) no later weight can dip back under
    stop_at.  (d_k itself is not monotone: dim S_12(SL_2(Z)) = 1 > dim S_14 = 0.)
    """
    inv = gamma0_invariants(ctx.N)
    margin = (inv.nu2 * 3 + inv.nu3 * 4 + 5) // 6  # ceil(nu2/2 + 2*nu3/3)
    for k in classical_weights(ctx, eps):
        d = dim_cusp_gamma0(ctx.N, k)
        if d >= stop_at + margin:
            return
        yield k, d


def coefficient_divisor(ctx: PrimeContext, eps: ComponentLabel, i: int) -> GhostCoefficient:
    """Divisor of the i-th coefficient on the component eps (i >= 1)."""
    if i < 1:
        raise ValueError(f"coefficient index i = {i} must be at least 1")
    zeros: Dict[WeightPoint, int] = {}
    for k, d in _component_dims(ctx, eps, i):
        if d < i:
            m = updown_term(dim_pnew(ctx, k) - 1, i - d)
            if m:
                zeros[Classical(k)] = m
    return GhostCoefficient(i, eps, zeros)


def delta_divisor(ctx: PrimeContext, eps: ComponentLabel, i: int) -> DeltaDivisor:
    """Formal difference of consecutive coefficient divisors (g_0 = 1)."""
    if i < 1:
        raise ValueError(f"index i = {i} must be at least 1")
    current = coefficient_divisor(ctx, eps, i).zeros
    previous = coefficient_divisor(ctx, eps, i - 1).zeros if i > 1 else {}
    zeros: Dict[WeightPoint, int] = {}
    poles: Dict[WeightPoint, int] = {}
    for z in sorted(set(current) | set(previous), key=lambda w: w.k):
        diff = current.get(z, 0) - previous.get(z, 0)
        if diff > 0:
            zeros[z] = diff
        elif diff < 0:
            poles[z] = -diff
    return DeltaDivisor(i, zeros, poles)


# ---------------------------------------------------------------------------
# the modified series

def modified_multiplicity(N: int, i: int, k: int, seed: Weight2SeedSlopes) -> int:
    """m_i(k): multiplicity of the zero z^k eta_8^{+-} in the i-th coefficient."""
    if k < 2:
        raise ValueError(f"eta_8 zero weights satisfy k >= 2, got {k}")
    if seed.N != N:
        raise ValueError(f"seed belongs to N = {seed.N}, not N = {N}")
    mults = seed_multiplicities(seed)
    dk = dim_cusp_eta8(N, k, 1 if k % 2 == 0 else -1)
    return mults[dk - i - 1] if 1 <= i < dk and dk - i <= len(mults) else 0


def _eta8_dims(N: int):
    """(k, d_k) for k = 2, 3, 4, ...; strictly increasing is asserted."""
    k = 2
    prev = None
    while True:
        d = dim_cusp_eta8(N, k, 1 if k % 2 == 0 else -1)
        if prev is not None and d <= prev:
            raise AssertionError(f"eta_8 dimensions stopped increasing at k = {k}")
        yield k, d
        prev = d
        k += 1


def modified_coefficient(ctx: PrimeContext, i: int, seed: Weight2SeedSlopes) -> GhostCoefficient:
    """Divisor of the i-th modified coefficient (p = 2, N odd).

    Extra zeros only occur while d_k <= i + d_2, so the scan is finite.
    """
    if ctx.p != 2:
        raise ValueError("the modified series exists only for p = 2")
    if ctx.N != seed.N:
        raise ValueError(f"seed belongs to N = {seed.N}, not N = {ctx.N}")
    base = coefficient_divisor(ctx, ComponentLabel(0, 2), i)
    extra: Dict[WeightPoint, int] = {}
    d2 = seed.dimension
    if d2:
        for k, dk in _eta8_dims(ctx.N):
            if dk > i + d2:
                break
            m = modified_multiplicity(ctx.N, i, k, seed)
            if m:
                extra[EtaEight(k)] = m
    return GhostCoefficient(i, base.component, {**base.zeros, **extra})


def boundary_slopes_reference(
    ctx: PrimeContext,
    eps: ComponentLabel,
    n: int,
    *,
    seed: Weight2SeedSlopes | None = None,
    cap: int = DEFAULT_CAP,
) -> SlopeList:
    """First n boundary slopes certified directly: the hull and the window
    certificate over the whole degree array, with no period and no shear."""
    series = GhostSeries(ctx, eps, seed)
    return certified_slopes(series.lam_upto, series.lam_upto, Fraction(1), n, cap, series.degree_bound())[0]


def ap_report_reference(slopes: SlopeList, n_ap: int, delta: int, max_burn_in: int) -> dict:
    """The "ap_report" of ``boundary --ap``: the burn-in from ``scan_burn_in``
    and the check from ``ap_check``, each reading every slope.  The report
    verifies only when the least burn-in is at most ``max_burn_in`` and leaves
    a step to check; ``ap_check`` refuses a list of at most n_ap slopes."""
    report = {"n_ap": n_ap, "delta": {"num": delta, "den": 1}}
    burn = scan_burn_in(slopes, n_ap, delta, max_burn_in)
    if burn is None or burn + n_ap >= len(slopes) > n_ap:
        return {**report, "verified": False}
    checked = ap_check(slopes, n_ap, delta, burn)
    return {**report, "burn_in": burn, "verified_through": checked.verified_through, "verified": checked.verified}


def modified_boundary_slopes(
    N: int,
    seed: Weight2SeedSlopes,
    n: int,
    *,
    cap: int | None = None,
) -> SlopeList:
    """First n w-adic slopes of the modified boundary polygon."""
    return boundary_polygon(PrimeContext(2, N), ComponentLabel(0, 2), n, seed=seed, cap=cap).slopes


# ---------------------------------------------------------------------------
# evaluation

def coefficient_valuation(coef, kappa: WeightPoint) -> ExtendedRational:
    """v_p of one coefficient at the weight kappa; +Infinity at its zeros."""
    ctx = PrimeContext(coef.component.p)
    if weight_component(kappa, ctx) != coef.component:
        raise ValueError("weight lies on a different component than the coefficient")
    leg = leg_rule(kappa, ctx)
    total = Fraction(0)
    for zero, mult in coef.zeros.items():
        if not isinstance(zero, (Classical, EtaEight)):
            raise TypeError(f"coefficient zeros are Classical or EtaEight points, not {zero!r}")
        v = leg(zero.__class__, zero.k)
        if v is INFINITY:
            return INFINITY
        total += mult * v
    return total


def values_reference(series: GhostSeries, upto: int, leg) -> list:
    """[sum over the zeros z of g_i of m_i(z) * leg(kind, k), for i = 0..upto]
    by the per-tent walk: ``leg`` is any function of the zero kind and k, and
    is called once per zero of g_1..g_upto, classical zeros by increasing k
    first.  A value is +Infinity wherever a zero of g_i has an infinite leg."""
    spill = upto + 1  # marks past upto land here and never reach a sum
    marks = [0] * (upto + 2)
    hits = [0] * (upto + 2)  # first differences of the count of infinite legs
    for zero in (Classical, EtaEight):
        for k, d, ell in series.tents(upto, zero):
            w = leg(zero, k)
            if w is INFINITY:
                hits[d + 1] += 1
                hits[min(d + ell + 1, spill)] -= 1
            else:
                marks[d + 1] += w
                marks[min(d + (ell + 1) // 2 + 1, spill)] -= w
                marks[min(d + ell // 2 + 2, spill)] -= w
                marks[min(d + ell + 2, spill)] += w
    out = list(accumulate(accumulate(marks[:spill])))
    for i, count in enumerate(accumulate(hits[:spill])):
        if count:
            out[i] = INFINITY
    return out
