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
d_k < i < d_k + d_k^new.  The eta_8 zeros of the modified p = 2 series
are tents of the same shape; both kinds come in arithmetic progressions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Dict, Iterator, Mapping

from .dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew, gamma0_invariants
from .record import Record, init
from .weightspace import (
    INFINITY,
    Classical,
    ComponentLabel,
    EtaEight,
    PrimeContext,
    WeightPoint,
    classical_weights,
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

class GhostCoefficient(Record):
    """Divisor of the i-th coefficient on one component: zeros with multiplicity."""

    __slots__ = ("index", "component", "zeros")

    def __init__(self, index: int, component: ComponentLabel, zeros: Mapping[WeightPoint, int] | None = None) -> None:
        init(self, "index", index)
        init(self, "component", component)
        init(self, "zeros", {} if zeros is None else zeros)

    @property
    def lam(self) -> int:
        """Total degree: the sum of all zero multiplicities."""
        return sum(self.zeros.values())


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
# the zero table: one pass per array (used by polygons, certificates, the CLI)

def _family(row, k: int, dk: int) -> tuple:
    """The head (k, d, ell) and step (dk, dd, dell) of the tents row(k) = (d, ell)
    at k, k + dk, ..., from three terms that must be linear with d growing."""
    (d0, l0), (d1, l1), (d2, l2) = [row(k + j * dk) for j in range(3)]
    if d2 - d1 != d1 - d0 or l2 - l1 != l1 - l0 or d1 <= d0:
        raise AssertionError(f"the tents from k = {k} in steps of {dk} are not linear with d growing")
    return (k, d0, l0), (dk, d1 - d0, l1 - l0)


def _classical_families(ctx: PrimeContext, eps: ComponentLabel) -> list:
    """The classical zeros of the component as families, heads by increasing k.

    For even k >= 4, floor(k/4) and floor(k/3) are the only terms of
    dim S_k(Gamma_0(M)) not linear in k, and they are periodic mod 12, so
    d_k and ell_k = d_k^new - 1 are linear on each class mod lcm(12, step).
    """
    def row(k: int) -> tuple[int, int]:
        return dim_cusp_gamma0(ctx.N, k), dim_pnew(ctx, k) - 1

    step, first = max(ctx.p - 1, 2), next(classical_weights(ctx, eps))
    period = lcm(12, step)
    genus = [((2, *row(2)), (0, 0, 0))] if first == 2 else []  # weight 2 is a single tent
    start = 4 + (first - 4) % step  # the least weight k >= 4 on the component
    return genus + [_family(row, k, period) for k in range(start, start + period, step)]


def _eta8_families(seed) -> list:
    """The eta_8 zeros of the modified series as families, one per seed block.

    The block of mu > 1 equal fractional seed slopes from position b + 1 is
    the weight-2 tent (2, b, ell), ell = mu - 1, and weight k reflects it to
    (k, d_k - b - ell - 1, ell), d_k = dim S_k(Gamma_1(8N), eta_8^{+-}) being
    linear in k.  The symmetric seed maps its blocks onto themselves under
    b -> d_2 - b - ell - 1, so the family (k, b + d_k - d_2, ell), k >= 2,
    holds the reflections of one block and, at k = 2, the tent of another.
    """
    slopes = seed.slopes
    _, step = _family(lambda k: (dim_cusp_eta8(seed.N, k, 1 if k % 2 == 0 else -1), 0), 2, 1)
    return [
        ((2, slopes.index(nu), slopes.count(nu) - 1), step)
        for nu in dict.fromkeys(slopes)
        if nu.denominator != 1 and slopes.count(nu) > 1
    ]


class GhostSeries:
    """The zeros of the series on one component, as one table.

    Each classical zero w_k is a tent (k, d_k, ell_k), ell_k = d_k^new - 1: its
    multiplicity in g_i is the up-down term s_{i - d_k}(ell_k).  Passing a
    weight-2 seed adds the eta_8 zeros of the modified p = 2 series as tents
    of the same kind; the table holds each kind as a few families.  Every
    consumer reads it: ``values`` for the degrees and the valuations at a
    weight, ``rows`` for the divisors.
    """

    def __init__(self, ctx: PrimeContext, eps: ComponentLabel, seed=None):
        if seed is not None:
            if ctx.p != 2:
                raise ValueError("the modified series exists only for p = 2")
            if ctx.N != seed.N:
                raise ValueError(f"seed belongs to N = {seed.N}, not N = {ctx.N}")
        eta8 = _eta8_families(seed) if seed is not None else []
        self._families = {Classical: _classical_families(ctx, eps), EtaEight: eta8}
        # the least valuation of w_z over the zeros z: eta_8 zeros, which only
        # a fractional block adds, sit at v_2(w) = 1; classical ones at
        # v_p(w) >= 1 (>= 3 for p = 2)
        self.floor_cap = Fraction(1 if ctx.p != 2 or self._families[EtaEight] else 3)
        self._lams: list[int] = [0]

    def tents(self, upto: int, zero: type = Classical) -> Iterator[tuple[int, int, int]]:
        """(k, d, ell) for each zero of the type in g_1..g_upto, by increasing k.

        The families step side by side, one term each in turn, and each stops
        at its first d >= upto.  Tents with ell < 1 are empty and skipped.
        """
        live = [[*head, *step] for head, step in self._families[zero] if head[1] < upto]
        while live:
            for t in live:
                k, d, ell, dk, dd, dell = t
                if ell >= 1:
                    yield k, d, ell
                t[0], t[1], t[2] = k + dk, d + dd, ell + dell
            live = [t for t in live if t[4] and t[1] < upto]

    def values(self, upto: int, leg=1) -> list:
        """[sum over the zeros z of g_i of m_i(z) * leg(z), for i = 0..upto].

        ``leg`` is 1, for the degrees lam(g_i), or a function of the zero kind
        and k: ``weightspace.leg_rule(kappa, ctx)`` gives the valuations
        v_p(g_i(w_kappa)), +Infinity wherever a zero of g_i has an infinite
        leg.  The multiplicity of a tent rises by one on [d + 1, d + ceil(ell/2)]
        and falls by one on [d + floor(ell/2) + 2, d + ell + 1]: one walk marks
        these second differences weighted by the leg and two prefix sums read
        them out.  Legs are taken only for zeros of g_1..g_upto.
        """
        spill = upto + 1  # marks past upto land here and never reach a sum
        marks = [0] * (upto + 2)
        if leg == 1:
            for zero in self._families:
                for k, d, ell in self.tents(upto, zero):
                    marks[d + 1] += 1
                    marks[min(d + (ell + 1) // 2 + 1, spill)] -= 1
                    marks[min(d + ell // 2 + 2, spill)] -= 1
                    marks[min(d + ell + 2, spill)] += 1
            return list(accumulate(accumulate(marks[:spill])))
        hits = [0] * (upto + 2)  # first differences of the count of infinite legs
        for zero in self._families:
            for k, d, ell in self.tents(upto, zero):
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

    def lam_upto(self, upto: int) -> list[int]:
        """[lam(g_i) for i = 0..] through at least upto; the longest one is cached."""
        if upto >= len(self._lams):
            self._lams = self.values(upto)
        return self._lams

    def divisors(self, upto: int) -> Iterator[list[tuple[type, int, int]]]:
        """[(zero type, k, m_i(k)) for each zero of g_i] for i = 1..upto, in the
        order of the reference oracles: classical zeros by increasing k, then
        eta_8 zeros by increasing k.  One walk over the live tents; no zero
        object is built."""
        starts: Dict[int, list] = {}
        for g, kind in enumerate(self._families):
            for k, d, ell in self.tents(upto, kind):
                starts.setdefault(d + 1, []).append((g, k, d, ell, kind))
        live: list[tuple[int, int, int, int, type]] = []
        for i in range(1, upto + 1):
            live = sorted([t for t in live if t[2] + t[3] >= i] + starts.pop(i, []))
            # the up-down term s_{i-d}(ell), for 1 <= i - d <= ell
            yield [(kind, k, i - d if 2 * (i - d) <= ell else d + ell + 1 - i) for _, k, d, ell, kind in live]

    def rows(self, upto: int) -> Iterator[Dict[WeightPoint, int]]:
        """The divisors of g_1..g_upto in turn as {zero: multiplicity} dicts."""
        for zeros in self.divisors(upto):
            yield {kind(k): mult for kind, k, mult in zeros}


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
