"""The zeros of the ghost series, and its coefficient divisors.

The i-th coefficient is a divisor: a finite map from integer weights (the
zeros) to positive multiplicities.  Expanding the product into a
polynomial is never needed; evaluating the series at a weight only
requires valuations of the individual factors.  :class:`GhostSeries` holds
all zeros of one component as one table and derives every array from it;
the per-coefficient dicts of :func:`coefficient_divisor` are the slow
reference form.

The multiplicity of the zero w_k in the i-th coefficient is the up-down
pattern s(d_k^new - 1) shifted past d_k leading zeros:

    m_i(k) = s_{i - d_k}(d_k^new - 1)   for d_k < i < d_k + d_k^new,

and 0 otherwise, with d_k = dim S_k(Gamma_0(N)) and d_k^new the p-new
dimension at level Np.  In particular m_i(k) > 0 exactly when
d_k < i < d_k + d_k^new.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, Mapping

from .dims import dim_cusp_gamma0, dim_pnew, gamma0_invariants
from .weightspace import (
    INFINITY,
    Classical,
    ComponentLabel,
    PrimeContext,
    WeightPoint,
    classical_weights,
)


# ---------------------------------------------------------------------------
# the up-down pattern

@dataclass(frozen=True)
class UpDownPattern:
    """The palindromic sequence 1, 2, ..., up, ..., 2, 1 of length ell."""

    ell: int
    terms: tuple[int, ...]


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

@dataclass(frozen=True)
class GhostCoefficient:
    """Divisor of the i-th coefficient on one component: zeros with multiplicity."""

    index: int
    component: ComponentLabel
    zeros: Mapping[WeightPoint, int] = field(default_factory=dict)

    @property
    def lam(self) -> int:
        """Total degree: the sum of all zero multiplicities."""
        return sum(self.zeros.values())


@dataclass(frozen=True)
class DeltaDivisor:
    """Zero/pole divisor of the ratio of consecutive coefficients g_i/g_{i-1}."""

    index: int
    zeros: Mapping[WeightPoint, int]
    poles: Mapping[WeightPoint, int]

    @property
    def lam(self) -> int:
        return sum(self.zeros.values()) - sum(self.poles.values())


def enumeration_margin(N: int) -> int:
    """Safe overshoot for cutting off the zero enumeration.

    d_k = k*mu0/12 - (g - 1) - nu_inf - theta2*nu2 - theta3*nu3 with
    0 <= theta2 <= 1/2 and 0 <= theta3 <= 2/3, so once some k reaches
    d_k >= i + ceil(nu2/2 + 2nu3/3) no later weight can dip back under i.
    (d_k itself is not monotone: dim S_12(SL_2(Z)) = 1 > dim S_14 = 0.)
    """
    inv = gamma0_invariants(N)
    margin = (inv.nu2 * 3 + inv.nu3 * 4 + 5) // 6  # ceil(nu2/2 + 2*nu3/3)
    return margin


def _component_dims(ctx: PrimeContext, eps: ComponentLabel, stop_at: int) -> Iterator[tuple[int, int]]:
    """(k, d_k) along the component until d_k >= stop_at is safely past."""
    margin = enumeration_margin(ctx.N)
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
# the zero table: one pass per array (used by polygons, certificates, the CLI)

def _mark(diff: list, lo: int, hi: int, step) -> None:
    """Add ``step`` on [lo, hi], clipped to 1..len(diff) - 2, as a difference mark."""
    lo, hi = max(lo, 1), min(hi, len(diff) - 2)
    if lo <= hi:
        diff[lo] += step
        diff[hi + 1] -= step


class GhostSeries:
    """The zeros of the series on one component, as one table.

    Each classical zero w_k is a tent (k, d_k, ell_k), ell_k = d_k^new - 1: its
    multiplicity in g_i is the up-down term s_{i - d_k}(ell_k).  Passing a
    weight-2 seed adds the eta_8 zeros of the modified p = 2 series as point
    terms (zero, i, m).  Every consumer reads the same table: ``values`` for
    the degrees and the valuations at a weight, ``rows`` for the divisors.
    """

    def __init__(self, ctx: PrimeContext, eps: ComponentLabel, seed=None):
        if seed is not None:
            if ctx.p != 2:
                raise ValueError("the modified series exists only for p = 2")
            if ctx.N != seed.N:
                raise ValueError(f"seed belongs to N = {seed.N}, not N = {ctx.N}")
        self.ctx = ctx
        self.eps = eps
        self.seed = seed
        # the least valuation of w_z over the zeros z: eta_8 zeros sit at
        # v_2(w) = 1, classical ones at v_p(w) >= 1 (>= 3 for p = 2)
        self.floor_cap = Fraction(1 if ctx.p != 2 or (seed is not None and seed.dimension) else 3)
        self._lams: list[int] = [0]

    def tents(self, upto: int) -> Iterator[tuple[int, int, int]]:
        """(k, d_k, ell_k) for each classical zero of g_1..g_upto, by increasing k."""
        for k, d in _component_dims(self.ctx, self.eps, upto):
            if d < upto:
                ell = dim_pnew(self.ctx, k) - 1
                if ell >= 1:
                    yield k, d, ell

    def points(self, upto: int) -> Iterator[tuple[WeightPoint, int, int]]:
        """(zero, i, m) for each eta_8 zero of g_1..g_upto; none without a seed."""
        if self.seed is None:
            return iter(())
        from .modified import eta8_points  # local import avoids a cycle

        return eta8_points(self.seed, upto)

    def values(self, upto: int, leg=1) -> list:
        """[sum over the zeros z of g_i of m_i(z) * leg(z), for i = 0..upto].

        ``leg`` is a constant or a function of the zero: 1 gives the degrees
        lam(g_i), ``pair_valuation(kappa, .)`` the valuations v_p(g_i(w_kappa)),
        +Infinity wherever a zero of g_i has an infinite leg.  The multiplicity
        of a tent rises by one on [d + 1, d + ceil(ell/2)] and falls by one on
        [d + floor(ell/2) + 2, d + ell + 1]: one pass marks these first
        differences weighted by the leg and two prefix sums read them out.
        Legs are taken only for zeros of g_1..g_upto.
        """
        steps = [0] * (upto + 2)  # second differences of the finite part
        hits = [0] * (upto + 2)  # differences of the count of infinite legs
        for k, d, ell in self.tents(upto):
            w = leg(Classical(k)) if callable(leg) else leg
            if w is INFINITY:
                _mark(hits, d + 1, d + ell, 1)
            else:
                _mark(steps, d + 1, d + (ell + 1) // 2, w)
                _mark(steps, d + ell // 2 + 2, d + ell + 1, -w)
        out = list(accumulate(accumulate(steps[: upto + 1])))
        for zero, i, m in self.points(upto):
            w = leg(zero) if callable(leg) else leg
            if w is INFINITY:
                _mark(hits, i, i, 1)
            else:
                out[i] += m * w
        for i, count in enumerate(accumulate(hits[: upto + 1])):
            if count:
                out[i] = INFINITY
        return out

    def lam_upto(self, upto: int) -> list[int]:
        """[lam(g_i) for i = 0..] through at least upto; the longest one is cached."""
        lams = self._lams
        if upto >= len(lams):
            lams = self._lams = self.values(upto)
        return lams

    def rows(self, upto: int) -> Iterator[Dict[WeightPoint, int]]:
        """The divisors of g_1..g_upto in turn, keyed like the reference oracles:
        classical zeros by increasing k, then eta_8 zeros by increasing k."""
        starts: Dict[int, list] = {}
        for tent in self.tents(upto):
            starts.setdefault(tent[1] + 1, []).append(tent)
        extra: Dict[int, list] = {}
        for zero, i, m in self.points(upto):
            extra.setdefault(i, []).append((zero, m))
        live: list[tuple[int, int, int]] = []
        for i in range(1, upto + 1):
            live = sorted([t for t in live if t[1] + t[2] >= i] + starts.pop(i, []))
            zeros: Dict[WeightPoint, int] = {Classical(k): updown_term(ell, i - d) for k, d, ell in live}
            zeros.update(extra.pop(i, ()))
            yield zeros


def lam_values(ctx: PrimeContext, eps: ComponentLabel, upto: int) -> list[int]:
    """[lam(g_i) for i = 0..upto]."""
    out = GhostSeries(ctx, eps).values(upto)
    if any(v < 0 for v in out):
        raise AssertionError("negative degree; divisor bookkeeping broke")
    return out


def lam_deltas(ctx: PrimeContext, eps: ComponentLabel, upto: int) -> list[int]:
    """[lam(Delta_i) for i = 0..upto]: first differences of the degrees."""
    lams = GhostSeries(ctx, eps).values(upto)
    return [0] + [b - a for a, b in zip(lams, lams[1:])]
