"""Even p-adic weight space: components, w-coordinates, exact valuations.

Even weight space is a disjoint union of open unit discs, one per even
character of the torsion subgroup of Z_p^x.  On a fixed disc the coordinate
of a weight ``kappa`` is ``w = kappa(gamma) - 1`` where ``gamma`` topologically
generates ``1 + 2pZ_p``.  Everything here is exact: valuations are returned
as ints or `fractions.Fraction` values (normalized so ``v_p(p) = 1``) or as
the :data:`INFINITY` sentinel, never as floats.

The distance formulas used throughout:

* two even integer weights k, k' on one component satisfy
  ``v_2(w_k - w_k') = 2 + v_2(k - k')`` for p = 2 and
  ``v_p(w_k - w_k') = 1 + v_p(k - k')`` for odd p (both follow from
  ``v_p(gamma^m - 1) = v_p(gamma - 1) + v_p(m)``);
* a weight ``z^k eta_8^{+-}`` (p = 2) has ``w = -5^k - 1``, so it sits at
  distance exactly 1 from every integer weight and at distance
  ``2 + v_2(k - k')`` from its siblings;
* a weight ``z^k chi`` with chi of conductor ``p^t`` (t >= 2) sits at
  distance ``v_p(zeta - 1) = 1/(p^(t-2)(p-1))`` from every integer weight,
  where zeta is the primitive ``p^(t-1)``-th root of unity ``chi(gamma)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd

from .errors import ComponentMismatch, PrecisionError
from .record import Record, init


# ---------------------------------------------------------------------------
# exact arithmetic helpers

@total_ordering
class _PlusInfinity:
    """The point +infinity of the extended rationals: it compares above every finite value."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "+Infinity"

    def __lt__(self, other) -> bool:
        return False


INFINITY = _PlusInfinity()

ExtendedRational = int | Fraction | _PlusInfinity


def padic_valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    if n == 0:
        raise ValueError("v_p(0) is infinite; handle zero before calling")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# every composite n below PRIME_BOUND fails the strong probable-prime test to one
# of these bases, the primes through 41 (Sorenson-Webster 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _unproved(n: int) -> ValueError:
    return ValueError(f"cannot prove {n} prime: primality is decided only below {PRIME_BOUND}")


def is_prime(n: int) -> bool:
    """Whether n is prime, proved: by a factor among ``_BASES``, else by the
    strong probable-prime test to each of them, where one witness proves n
    composite at any size.  A probable prime n >= PRIME_BOUND is refused with
    ValueError, since passing the test proves nothing there.
    """
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_BOUND:
        raise _unproved(n)
    return True


# ---------------------------------------------------------------------------
# contexts and components

class PrimeContext(Record):
    """A prime p together with a tame level N coprime to p."""

    __slots__ = ("p", "N")

    def __init__(self, p: int, N: int = 1) -> None:
        if p.bit_length() > 512:  # past 512 bits is_prime's exponentiations mod p take seconds
            raise _unproved(p)
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if N < 1:
            raise ValueError(f"tame level N = {N} must be positive")
        if gcd(N, p) != 1:
            raise ValueError(f"N = {N} must be coprime to p = {p}")
        init(self, "p", p)
        init(self, "N", N)


class ComponentLabel(Record):
    """A component of even weight space: an even residue mod (p-1).

    For p = 2 the modulus degenerates to 1 and the unique component is
    labelled 0.
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int) -> None:
        modulus = max(p - 1, 1)
        if not (0 <= residue < modulus):
            raise ValueError(f"residue {residue} out of range mod {modulus}")
        if residue % 2 != 0:
            raise ValueError("component residue must be even")
        init(self, "residue", residue)
        init(self, "p", p)


def component_of(k: int, ctx: PrimeContext) -> ComponentLabel:
    """Component containing the integer weight z^k.  Rejects odd k."""
    if k % 2 != 0:
        raise ValueError(f"integer weight k = {k} must be even")
    modulus = max(ctx.p - 1, 1)
    return ComponentLabel(k % modulus, ctx.p)


# ---------------------------------------------------------------------------
# weight points

class Classical(Record):
    """The weight z^k for an even integer k (any sign)."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if k % 2 != 0:
            raise ValueError(f"classical weight k = {k} must be even")
        init(self, "k", k)


class EtaEight(Record):
    """The weight z^k eta_8^{+-} (p = 2 only), sign forced to (-1)^k."""

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("eta_8 weights require k >= 2")
        init(self, "k", k)


class CharClassical(Record):
    """The weight z^k chi for chi of conductor p^t, t >= 2 (odd p only).

    The tame part of chi is trivial, so evenness forces k even; the choice
    of primitive chi does not affect any valuation computed here.
    """

    __slots__ = ("k", "t")

    def __init__(self, k: int, t: int) -> None:
        if k % 2 != 0:
            raise ValueError(f"character weight k = {k} must be even")
        if t < 2:
            raise ValueError("character conductor exponent must satisfy t >= 2")
        init(self, "k", k)
        init(self, "t", t)


class Annulus(Record):
    """A weight at exact distance v from the integer weight k0, v positive
    and non-integral.

    Integral v is rejected: with v not an integer every ultrametric
    ``min(v, integer)`` below is strict, so the polygon is well defined
    without further information about the weight.
    """

    __slots__ = ("center", "v")

    def __init__(self, center: int, v: Fraction) -> None:
        if center % 2 != 0:
            raise ValueError("annulus center must be an even integer weight")
        if isinstance(v, float):
            raise TypeError("annulus radius must be exact: pass a Fraction, not a float")
        v = Fraction(v)
        if v <= 0:
            raise ValueError("annulus radius v must be positive")
        if v.denominator == 1:
            raise ValueError(
                "annulus radius v must not be an integer; "
                "use an explicit w-value with enough precision instead"
            )
        init(self, "center", center)
        init(self, "v", v)


class ExplicitW(Record):
    """A weight given by its w-coordinate w0 (an integer) mod p^m.

    The coordinate presumes the fixed generator gamma = 1 + p (gamma = 5 for
    p = 2) unless ``generator`` overrides it.  For odd p the coordinate alone
    does not say which disc the weight lives on, so ``residue`` names the
    component; it may be omitted for p = 2.
    """

    __slots__ = ("w0", "m", "residue", "generator")

    def __init__(self, w0: int, m: int, residue: int | None = None, generator: int | None = None) -> None:
        if m < 1:
            raise ValueError("precision m must be at least 1")
        init(self, "w0", w0)
        init(self, "m", m)
        init(self, "residue", residue)
        init(self, "generator", generator)


WeightPoint = Classical | EtaEight | CharClassical | Annulus | ExplicitW


def weight_component(a: WeightPoint, ctx: PrimeContext) -> ComponentLabel:
    """Component of weight space containing the point ``a``."""
    if isinstance(a, Classical):
        return component_of(a.k, ctx)
    if isinstance(a, EtaEight):
        if ctx.p != 2:
            raise ValueError("eta_8 weights exist only for p = 2")
        return ComponentLabel(0, 2)
    if isinstance(a, CharClassical):
        if ctx.p == 2:
            raise ValueError("conductor-p^t weights are used only for odd p")
        return component_of(a.k, ctx)
    if isinstance(a, Annulus):
        return component_of(a.center, ctx)
    if isinstance(a, ExplicitW):
        if ctx.p == 2:
            return ComponentLabel(0, 2)
        if a.residue is None:
            raise ValueError(
                "explicit w-values need a component residue for odd p "
                "(the coordinate does not determine the disc)"
            )
        return ComponentLabel(a.residue % (ctx.p - 1), ctx.p)
    raise TypeError(f"not a weight point: {a!r}")


# ---------------------------------------------------------------------------
# valuations

class LegRule(Record):
    """The legs v_p(w_kappa - w_z) of one weight against the zeros z = kind(k).

    A zero of kind ``own`` has the leg min(top, e + v_p(k - a)), ``top`` at
    k = a: it depends only on the level v_p(k - a).  A zero of the other
    kind has the leg ``other``.  A w-value known mod p^m only (else ``m`` is
    None) leaves a leg of m or more undetermined: ``PrecisionError``.
    """

    __slots__ = ("p", "own", "a", "e", "top", "other", "m")

    def __call__(self, zero: type, k: int) -> ExtendedRational:
        if zero is not self.own:
            v = self.other
        elif k == self.a:
            v = self.top
        else:
            v = min(self.top, self.e + padic_valuation(k - self.a, self.p))
        p, m = self.p, self.m
        if m is not None and not v < m:
            raise PrecisionError(f"w-value known mod {p}^{m} only: v_{p}(w - w_z) >= {m} is not determined (zero at k = {k})")
        return v


def leg_rule(kappa: WeightPoint, ctx: PrimeContext) -> LegRule:
    """The :class:`LegRule` of kappa, its component unchecked (:func:`pair_valuation`
    checks it; a series reads only the zeros of its own component).

    An annulus caps its center's legs at its radius v (strict ultrametric:
    v is not an integer and they are); a character weight has the one leg
    v_p(zeta - 1) < 1.  Every other weight has w + 1 = +-gen^a, with the sign
    of the zeros of one kind: against it the leg is the int e + v_p(k - a),
    e = v_p(gen - 1), +Infinity at k = a; against the other kind (p = 2:
    5^k + 5^k' is 2 mod 4) it is 1.  w known mod p^m gives a mod p^(m - e).
    """
    p, kind, m = ctx.p, kappa.__class__, None
    e = 2 if p == 2 else 1
    if kind is Annulus:
        return LegRule(p, Classical, kappa.center, e, kappa.v, min(kappa.v, 1), None)
    if kind is CharClassical:
        # v_p(zeta - 1) < 1 <= v_p(gamma^(k-z) - 1), so the root of unity wins
        v = Fraction(1, p ** (kappa.t - 2) * (p - 1))
        return LegRule(p, Classical, kappa.k, e, v, v, None)
    if kind is Classical or kind is EtaEight:
        own, a = kind, kappa.k
    elif kind is ExplicitW:
        if kappa.w0 % p != 0:
            raise ValueError(f"w0 = {kappa.w0} is not in the open unit disc")
        gen = 1 + p**e if kappa.generator is None else kappa.generator  # 5 for p = 2, else 1 + p
        if gen <= 1 or padic_valuation(gen - 1, p) != e:
            raise ValueError(f"{gen} does not generate 1 + {p ** e}Z_{p}: need v_{p}(gen - 1) = {e}")
        m, mod = kappa.m, p ** kappa.m
        u, own = (kappa.w0 + 1) % mod, Classical
        if p == 2 and u % 4 == 3:
            # w + 1 = -gen^a, as for the eta_8 zeros: eta_8^{+-}(gamma) = -1
            # because gamma = 5 mod 8 for every generator
            u, own = mod - u, EtaEight
        # gen^(p^j) = 1 + c p^(e + j) mod p^(e + j + 1) with one unit c for every
        # j, so digit j of a is the next digit of t = u gen^-(a mod p^j), over c
        unit, a, t, g = pow((gen - 1) // p ** e, -1, p), 0, u, pow(gen, -1, mod)
        for j in range(m - e):  # t = 1 mod p^(e + j), g = gen^-(p^j)
            digit = (t - 1) // p ** (e + j) * unit % p
            a, t, g = a + digit * p ** j, t * pow(g, digit, mod) % mod, pow(g, p, mod)
    else:
        raise TypeError(f"not a weight point: {kappa!r}")
    return LegRule(p, own, a, e, INFINITY, 1, m)


def pair_valuation(a: WeightPoint, z: Classical | EtaEight, ctx: PrimeContext) -> ExtendedRational:
    """v_p(w_a - w_z) for a weight point ``a`` and a coefficient zero ``z``.

    ``z`` must be a Classical or EtaEight point on the component of ``a``.
    """
    if not isinstance(z, (Classical, EtaEight)):
        raise TypeError(f"coefficient zeros are Classical or EtaEight points, not {z!r}")
    if isinstance(z, EtaEight) and ctx.p != 2:
        raise ValueError("eta_8 zeros exist only for p = 2")
    if weight_component(a, ctx) != weight_component(z, ctx):
        raise ComponentMismatch(
            f"{a!r} and {z!r} lie on different components of weight space"
        )
    return leg_rule(a, ctx)(z.__class__, z.k)


def weight_valuation(a: WeightPoint, ctx: PrimeContext) -> ExtendedRational:
    """v_p(w_a), i.e. the distance from ``a`` to the center of its disc: the
    leg of ``a`` against the center w = 0, which is the zero z^0.

    Raises PrecisionError for an explicit w-value that is 0 mod p^m.
    """
    v = leg_rule(a, ctx)(Classical, 0)
    return v if v is INFINITY else Fraction(v)
