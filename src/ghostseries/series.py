"""The zeros of the ghost series, and its coefficient divisors.

The i-th coefficient is a divisor: a finite map from integer weights (the
zeros) to positive multiplicities.  Expanding the product into a
polynomial is never needed; evaluating the series at a weight only
requires valuations of the individual factors.  :class:`GhostSeries` holds
all zeros of one component as one table and derives every array from it;
:func:`coefficient_divisor` reads a single coefficient's divisor off it.

The multiplicity of the zero w_k in the i-th coefficient is the up-down
pattern s(d_k^new - 1) shifted past d_k leading zeros:

    m_i(k) = s_{i - d_k}(d_k^new - 1)   for d_k < i < d_k + d_k^new,

and 0 otherwise, with d_k = dim S_k(Gamma_0(N)) and d_k^new the p-new
dimension at level Np.  In particular m_i(k) > 0 exactly when
d_k < i < d_k + d_k^new.  The eta_8 zeros of the modified p = 2 series
are tents of the same shape; both kinds come in arithmetic progressions,
so the degrees lam(g_i) are built a progression at a time, with no walk
over single tents.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import add
from typing import Dict, Iterator, Mapping

from .dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew
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


# ---------------------------------------------------------------------------
# the zero table: one pass per array (used by polygons, certificates, the CLI)

def _family(row, k: int, dk: int) -> tuple:
    """The head (k, d, ell) and step (dk, dd, dell) of the tents row(k) = (d, ell)
    at k, k + dk, ..., from three terms that must be linear with d growing and
    ell not falling."""
    (d0, l0), (d1, l1), (d2, l2) = [row(k + j * dk) for j in range(3)]
    if d2 - d1 != d1 - d0 or l2 - l1 != l1 - l0 or d1 <= d0 or l1 < l0:
        raise AssertionError(
            f"the tents from k = {k} in steps of {dk} are not linear with d growing and ell not falling"
        )
    return (k, d0, l0), (dk, d1 - d0, l1 - l0)


def _mark_family(marks: list, head: tuple, step: tuple) -> None:
    """Add the degree marks of one family's tents to ``marks``, dropping those
    past its end.

    Tent j is (d + j*dd, ell + j*dell), empty while ell + j*dell < 1, and its
    four second-difference marks are +1 at d_j + 1, -1 at d_j + ceil(ell_j/2)
    + 1 and at d_j + floor(ell_j/2) + 2, and +1 at d_j + ell_j + 2.  On the
    tents of one parity of j each mark steps by a constant, so the family
    takes eight extended-slice updates.  Every mark of a tent with d_j past
    the end is past it too, so the slices stop the family exactly.
    """
    (_, d, ell), (_, dd, dell) = head, step
    if ell < 1:
        if not dell:
            return
        j = (dell - ell) // dell  # the first tent with ell_j >= 1 (dell > 0)
        d, ell = d + j * dd, ell + j * dell
    stop = len(marks)
    if not dd:  # the weight-2 tent: a second one would start past the end
        dd = stop
    for d, ell in (d, ell), (d + dd, ell + dell):  # the first tent of each parity
        for a, s, w in (
            (d + 1, 2 * dd, 1),
            (d + (ell + 1) // 2 + 1, 2 * dd + dell, -1),
            (d + ell // 2 + 2, 2 * dd + dell, -1),
            (d + ell + 2, 2 * (dd + dell), 1),
        ):
            marks[a:stop:s] = map(add, marks[a:stop:s], repeat(w))


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
        and falls by one on [d + floor(ell/2) + 2, d + ell + 1]: these second
        differences, weighted by the leg, are marked and two prefix sums read
        them out.  The degrees mark whole families by progression slices
        (``_mark_family``); other legs walk the tents, and are taken only for
        zeros of g_1..g_upto.
        """
        if leg == 1:
            marks = [0] * (upto + 1)
            for families in self._families.values():
                for head, step in families:
                    _mark_family(marks, head, step)
            return list(accumulate(accumulate(marks)))
        spill = upto + 1  # marks past upto land here and never reach a sum
        marks = [0] * (upto + 2)
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


def _coefficient_zeros(series: GhostSeries, i: int, zero: type) -> Dict[WeightPoint, int]:
    """{zero(k): m_i(k)} for the zeros of the type in g_i alone, by increasing k:
    the tents of g_1..g_i with i <= d + ell, each with its up-down term."""
    return {zero(k): min(i - d, d + ell + 1 - i) for k, d, ell in series.tents(i, zero) if i <= d + ell}


def coefficient_divisor(ctx: PrimeContext, eps: ComponentLabel, i: int) -> GhostCoefficient:
    """Divisor of the i-th coefficient on the component eps (i >= 1)."""
    if i < 1:
        raise ValueError(f"coefficient index i = {i} must be at least 1")
    return GhostCoefficient(i, eps, _coefficient_zeros(GhostSeries(ctx, eps), i, Classical))


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
