"""The zeros of the ghost series, and its coefficient divisors.

The i-th coefficient is a divisor: a finite map from integer weights (the
zeros) to positive multiplicities.  Expanding the product into a
polynomial is never needed; evaluating the series at a weight only
requires valuations of the individual factors.  :class:`GhostSeries` holds
all zeros of one component as one table and derives every array from it
and, with ``divisor``, the zeros of any one coefficient, plain or modified.

The multiplicity of the zero w_k in the i-th coefficient is the up-down
pattern s(d_k^new - 1) shifted past d_k leading zeros:

    m_i(k) = s_{i - d_k}(d_k^new - 1)   for d_k < i < d_k + d_k^new,

and 0 otherwise, with d_k = dim S_k(Gamma_0(N)) and d_k^new the p-new
dimension at level Np.  In particular m_i(k) > 0 exactly when
d_k < i < d_k + d_k^new.  The eta_8 zeros of the modified p = 2 series
are tents of the same shape; both kinds come in arithmetic progressions,
so the degrees lam(g_i) and the valuations at a weight, sums of legs that
depend only on the level v_p(k - a) of each zero, are built a progression
at a time, and each divisor by arithmetic, with no walk over single tents.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from itertools import accumulate, chain, count, repeat
from math import gcd, lcm
from operator import add, itemgetter
from types import MappingProxyType

from .dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew
from .errors import CertificationError
from .record import Record, init
from .weightspace import (
    INFINITY,
    Classical,
    ComponentLabel,
    EtaEight,
    LegRule,
    PrimeContext,
    WeightPoint,
)


# ---------------------------------------------------------------------------
# divisors

class GhostCoefficient(Record):
    """Divisor of the i-th coefficient on one component: zeros with multiplicity, classical ones first.

    ``zeros`` is a read-only copy: equal to the dict, hashed over its items, pickled as a dict."""

    __slots__ = ("index", "component", "zeros")

    def __init__(self, index: int, component: ComponentLabel, zeros: Mapping[WeightPoint, int] | None = None) -> None:
        init(self, "index", index)
        init(self, "component", component)
        init(self, "zeros", MappingProxyType({} if zeros is None else dict(zeros)))

    def __hash__(self) -> int:
        return hash((self.index, self.component, frozenset(self.zeros.items())))

    def __repr__(self) -> str:
        return f"GhostCoefficient(index={self.index!r}, component={self.component!r}, zeros={dict(self.zeros)!r})"

    def __reduce__(self):
        return GhostCoefficient, (self.index, self.component, dict(self.zeros))

    @property
    def lam(self) -> int:
        """Total degree: the sum of all zero multiplicities."""
        return sum(self.zeros.values())

    @property
    def base(self) -> GhostCoefficient:
        """The coefficient of the plain series: the classical zeros alone."""
        classical = {z: m for z, m in self.zeros.items() if type(z) is Classical}
        return GhostCoefficient(self.index, self.component, classical)

    @property
    def extra(self) -> dict[WeightPoint, int]:
        """The eta_8 zeros of the modified series."""
        return {z: m for z, m in self.zeros.items() if type(z) is EtaEight}


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


def _family_marks(head: tuple, step: tuple) -> list[tuple[int, int, int]]:
    """The second differences of lam(g_i) from the tents of a family that
    starts at a nonempty one, as progressions (a, s, w): w is added at
    i = a, a + s, a + 2s, ...

    Tent j is (d + j*dd, ell + j*dell) with marks +1 at d_j + 1,
    -1 at d_j + ceil(ell_j/2) + 1 and at d_j + floor(ell_j/2) + 2, and +1 at
    d_j + ell_j + 2.  Each steps by a constant on one parity of j, so a
    family gives eight progressions; the single weight-2 tent gives four
    single marks, s = 0.
    """
    (_, d, ell), (_, dd, dell) = head, step
    firsts = [(d, ell), (d + dd, ell + dell)] if dd else [(d, ell)]  # the first tent of each parity
    return [
        mark
        for d, ell in firsts
        for mark in (
            (d + 1, 2 * dd, 1),
            (d + (ell + 1) // 2 + 1, 2 * dd + dell, -1),
            (d + ell // 2 + 2, 2 * dd + dell, -1),
            (d + ell + 2, 2 * (dd + dell), 1),
        )
    ]


def _level_family(head: tuple, step: tuple, a: int = 0, q: int = 1) -> tuple | None:
    """The nonempty tents (ell >= 1) of a family with q | k - a, again a
    family, or None if there are none.  Tent t has k = k0 + t*dk; q | k - a
    picks one class of t mod q/gcd(dk, q), which exists iff gcd(dk, q)
    divides a - k0.  With q = 1: the family from its first nonempty tent."""
    (k, d, ell), (dk, dd, dell) = head, step
    g = gcd(dk, q)
    if (a - k) % g or ell < 1 and not dell:
        return None
    r, first = q // g, (dell - ell) // dell if ell < 1 else 0  # the first nonempty tent
    t = first + ((a - k) // g * pow(dk // g, -1, r) - first) % r
    return (k + t * dk, d + t * dd, ell + t * dell), (r * dk, r * dd, r * dell)


def _classical_families(ctx: PrimeContext, eps: ComponentLabel) -> list:
    """The classical zeros of the component as families, heads by increasing k.

    For even k >= 4, floor(k/4) and floor(k/3) are the only terms of
    dim S_k(Gamma_0(M)) not linear in k, and they are periodic mod 12, so
    d_k and ell_k = d_k^new - 1 are linear on each class mod lcm(12, step).
    """
    def row(k: int) -> tuple[int, int]:
        return dim_cusp_gamma0(ctx.N, k), dim_pnew(ctx, k) - 1

    if eps.p != ctx.p:
        raise ValueError("component belongs to a different prime")
    step = max(ctx.p - 1, 2)
    first = eps.residue or step  # the least weight k >= 2 on the component
    period = lcm(12, step)
    genus = [((2, *row(2)), (0, 0, 0))] if first == 2 else []  # weight 2 is a single tent
    start = 4 + (first - 4) % step  # the least weight k >= 4 on the component
    return genus + [_family(row, k, period) for k in range(start, start + period, step)]


def _eta8_families(seed) -> list:
    """The eta_8 zeros of the modified series as families, one per seed block.

    The block (b, mu) of ``seed.blocks`` is the weight-2 tent (2, b, mu - 1), and
    weight k reflects it to (k, d_k - b - mu, mu - 1), d_k = dim S_k(Gamma_1(8N),
    eta_8^{+-}) being linear in k.  The symmetric seed maps its blocks onto
    themselves under b -> d_2 - b - mu, so the family (k, b + d_k - d_2, mu - 1),
    k >= 2, holds the reflections of one block and, at k = 2, the tent of another.
    """
    _, step = _family(lambda k: (dim_cusp_eta8(seed.N, k, 1 if k % 2 == 0 else -1), 0), 2, 1)
    return [((2, b, mu - 1), step) for b, mu in seed.blocks]


class GhostSeries:
    """The zeros of the series on one component, as one table.

    Each classical zero w_k is a tent (k, d_k, ell_k), ell_k = d_k^new - 1: its
    multiplicity in g_i is the up-down term s_{i - d_k}(ell_k).  Passing a
    weight-2 seed adds the eta_8 zeros of the modified p = 2 series as tents
    of the same kind; the table holds each kind as a few families.  Every
    consumer reads it: ``values`` for the degrees and the valuations at a
    weight, ``divisor`` for the zeros of one g_i (``rows``, ``coefficient``).
    """

    def __init__(self, ctx: PrimeContext, eps: ComponentLabel, seed=None):
        if seed is not None:
            if ctx.p != 2:
                raise ValueError("the modified series exists only for p = 2")
            if ctx.N != seed.N:
                raise ValueError(f"seed belongs to N = {seed.N}, not N = {ctx.N}")
        self.component = eps
        eta8 = _eta8_families(seed) if seed is not None else []
        self._families = {Classical: _classical_families(ctx, eps), EtaEight: eta8}
        # the least valuation of w_z over the zeros z: eta_8 zeros, which only
        # a fractional block adds, sit at v_2(w) = 1; classical ones at
        # v_p(w) >= 1 (>= 3 for p = 2)
        self.floor_cap = Fraction(1 if ctx.p != 2 or self._families[EtaEight] else 3)
        # every family's degree marks, as progressions (a, s, w); see _family_marks
        nonempty = [_level_family(*f) for fams in self._families.values() for f in fams]
        self.progressions = [m for f in nonempty if f for m in _family_marks(*f)]
        self._lams: list[int] = [0]

    def degree_bound(self) -> tuple[int, Fraction, Fraction]:
        """(A, alpha, beta) with lam(Delta_x) >= alpha*x - beta for every x >= A.

        lam(Delta_x) sums the marks (a, s, w) of ``progressions`` on [1, x].  A
        mark with s > 0 hits [1, x] at least (x - a + 1)/s times for every
        x >= 0, which bounds the w > 0 marks, and at most (x - a + s)/s times
        from x = a - s on, which bounds the w < 0 ones; a single mark (s = 0)
        adds w from x = a on.  So each mark counts from its own start, and A is
        the largest of 1, a - s over the marks with w < 0 and a over the single ones.
        """
        marks = self.progressions
        A = max(1, *(a - s for a, s, w in marks if w < 0 or not s))
        L = lcm(*(s for _, s, _ in marks if s))
        alpha = beta = 0
        for a, s, w in marks:
            if s:
                alpha += w * (L // s)
                beta += w * (a - 1 if w > 0 else a - s) * (L // s)
            else:
                beta -= w * L
        if alpha <= 0:
            raise AssertionError("the degree increments must grow linearly")
        return A, Fraction(alpha, L), Fraction(beta, L)

    def values(self, upto: int, leg: LegRule | None = None) -> list:
        """[sum over the zeros z of g_i of m_i(z) * leg(z) * leg.den, for i = 0..upto].

        With no ``leg``, the degrees lam(g_i).  With ``weightspace.leg_rule(kappa,
        ctx)``, the valuations v_p(g_i(w_kappa)) times the common denominator
        ``leg.den`` of the legs, all ints: +Infinity wherever a zero of g_i has
        an infinite leg.  A tent's multiplicity rises by one on [d + 1,
        d + ceil(ell/2)] and falls by one on [d + floor(ell/2) + 2, d + ell + 1].
        These second differences, as weighted progressions (a, s, w),
        ``progressions`` or ``_level_marks``, are each added as one extended
        slice, which stops at upto, and two prefix sums read them out.
        """
        stop = upto + 1
        marks, infinite = (self.progressions, ()) if leg is None else self._level_marks(upto, leg)
        try:
            out = [0] * stop
            for a, s, w in marks:
                part = slice(a, stop, s or stop)  # s = 0: the single mark at a
                out[part] = map(add, out[part], repeat(w))
            out = list(accumulate(accumulate(out)))
            for d, ell in infinite:
                out[d + 1 : d + ell + 1] = repeat(INFINITY, min(ell, upto - d))
        except (MemoryError, OverflowError):
            raise CertificationError(f"the series arrays through index {upto} do not fit in memory") from None
        return out

    def _level_marks(self, upto: int, leg: LegRule) -> tuple[list, list]:
        """The marks (a, s, w) of the legs of g_1..g_upto scaled by ``leg.den``,
        and the tents (d, ell) of infinite leg, by levels.

        An own zero at level j = v_p(k - a) has the leg min(top, e + j), the
        sum of the rises of the levels i <= j.  Level i holds the families of
        ``_level_family`` at q = p^i; the other kind has one level, of leg
        ``other``.  A kind's levels stop at a rise of 0, when no zero is left,
        or when only tents at k = a are left: those of infinite leg.  The rule
        is called on each level's least-k zero, so a ``PrecisionError`` names
        the least-k zero whose leg the weight does not determine.
        """
        den, marks, infinite = leg.den, [], []
        for kind, families in self._families.items():
            top, below = (leg.top if kind is leg.own else leg.other), 0
            for i in count():
                rise = min(top, leg.e + i) - below
                live = [f for f in (_level_family(*f, leg.a, leg.p**i) for f in families) if f and f[0][1] < upto]
                if not (rise and live):
                    break
                leg(kind, min(head[0] for head, _ in live))
                if top is INFINITY and all(k == leg.a and (not dd or d + dd >= upto) for (k, d, _), (_, dd, _) in live):
                    infinite += [(d, ell) for (_, d, ell), _ in live]
                    break
                below += rise
                marks += [(a, s, w * int(rise * den)) for f in live for a, s, w in _family_marks(*f)]
        return marks, infinite

    def lam_upto(self, upto: int) -> list[int]:
        """[lam(g_i) for i = 0..] through at least upto; the longest one is cached."""
        if upto >= len(self._lams):
            self._lams = self.values(upto)
        return self._lams

    def divisor(self, i: int) -> list[tuple[type, int, int]]:
        """[(zero type, k, m_i(k)) for each zero of g_i], classical zeros by increasing k first.

        Tent t of a family, head (k, d, ell) and step (dk, dd, dell), is live in
        g_i iff d_t = d + t*dd < i <= d_t + ell + t*dell: an interval of t.  Its
        multiplicity min(i - d_t, d_t + ell_t + 1 - i) is the second term, rising
        with t, while t*(2dd + dell) < (i - d) - (d + ell + 1 - i), then the first.
        Two seed blocks' eta_8 families share their k, never at one i (disjoint runs).
        """
        out = []
        for kind, families in self._families.items():
            zeros = []
            for (k, d, ell), (dk, dd, dell) in families:
                up, down = i - d, d + ell + 1 - i
                if not dd:  # the single weight-2 tent
                    zeros += [(kind, k, min(up, down))] if 0 < up <= ell else []
                    continue
                rise = dd + dell
                lo, hi = max(0, -((down - 1) // rise)), -(-up // dd)
                mid = min(max(-((down - up) // (dd + rise)), lo), hi)
                mults = chain(range(down + lo * rise, down + mid * rise, rise), range(up - mid * dd, 0, -dd))
                zeros += zip(repeat(kind), range(k + lo * dk, k + hi * dk, dk), mults)
            out += sorted(zeros, key=itemgetter(1))
        return out

    def coefficient(self, i: int) -> GhostCoefficient:
        """g_i alone (i >= 1), from ``divisor(i)``."""
        if i < 1:
            raise ValueError(f"coefficient index i = {i} must be at least 1")
        return GhostCoefficient(i, self.component, {kind(k): mult for kind, k, mult in self.divisor(i)})


def coefficient_divisor(ctx: PrimeContext, eps: ComponentLabel, i: int) -> GhostCoefficient:
    """Divisor of the i-th coefficient on the component eps (i >= 1)."""
    if i < 1:  # before the table, which refuses a component of another prime
        raise ValueError(f"coefficient index i = {i} must be at least 1")
    return GhostSeries(ctx, eps).coefficient(i)
