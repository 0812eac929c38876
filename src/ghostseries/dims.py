"""Exact dimension formulas for the cusp form spaces driving the series.

Everything is computed from the standard Gamma_0(M) invariants (index,
elliptic point counts, cusps, genus) and, for the eta_8 spaces with
character, from the Cohen-Oesterle dimension formula.  All arithmetic is
exact; every genus and dimension is asserted to come out a nonnegative
integer before it is returned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .record import Record
from .weightspace import PrimeContext


def _prime_factors(M: int) -> list[tuple[int, int]]:
    """(p, v_p(M)) pairs by trial division; M here is always desk-sized."""
    out = []
    n = M
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _legendre_minus1(ell: int) -> int:
    """Legendre symbol (-1/ell) with the convention (-1/2) = 0."""
    if ell == 2:
        return 0
    return 1 if ell % 4 == 1 else -1


def _legendre_minus3(ell: int) -> int:
    """Legendre symbol (-3/ell) with (-3/3) = 0."""
    if ell == 3:
        return 0
    return 1 if ell % 3 == 1 else -1


def _euler_phi(n: int) -> int:
    out = n
    for ell, _ in _prime_factors(n):
        out = out // ell * (ell - 1)
    return out


class Gamma0Invariants(Record):
    """Index, elliptic point counts, cusps and genus of X_0(M)."""

    __slots__ = ("level", "index", "nu2", "nu3", "cusps", "genus")


@lru_cache(maxsize=None)
def gamma0_invariants(M: int) -> Gamma0Invariants:
    if M < 1:
        raise ValueError(f"level M = {M} must be positive")
    factors = _prime_factors(M)

    index = M
    for ell, _ in factors:
        index = index // ell * (ell + 1)

    if M % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for ell, _ in factors:
            nu2 *= 1 + _legendre_minus1(ell)

    if M % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for ell, _ in factors:
            nu3 *= 1 + _legendre_minus3(ell)

    cusps = 0
    d = 1
    while d * d <= M:
        if M % d == 0:
            cusps += _euler_phi(gcd(d, M // d))
            if d != M // d:
                cusps += _euler_phi(gcd(M // d, d))
        d += 1

    genus = 1 + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    if genus.denominator != 1 or genus < 0:
        raise AssertionError(f"genus formula broke at M = {M}: {genus}")

    return Gamma0Invariants(M, index, nu2, nu3, cusps, int(genus))


@lru_cache(maxsize=None)
def dim_cusp_gamma0(M: int, k: int) -> int:
    """dim S_k(Gamma_0(M)) for even k; zero in weights k <= 0.

    Weight 2 is the genus; even weights k >= 4 use
    (k-1)(g-1) + (k/2 - 1)nu_inf + floor(k/4)nu2 + floor(k/3)nu3.
    """
    if k % 2 != 0:
        raise ValueError(f"weight k = {k} must be even")
    if k <= 0:
        return 0
    inv = gamma0_invariants(M)
    if k == 2:
        return inv.genus
    dim = (k - 1) * (inv.genus - 1) + (k // 2 - 1) * inv.cusps + (k // 4) * inv.nu2 + (k // 3) * inv.nu3
    if dim < 0:
        raise AssertionError(f"negative dimension at M = {M}, k = {k}")
    return dim


def dim_pnew(ctx: PrimeContext, k: int) -> int:
    """dim S_k(Gamma_0(Np))^{p-new} = dim S_k(Gamma_0(Np)) - 2 dim S_k(Gamma_0(N))."""
    dim = dim_cusp_gamma0(ctx.N * ctx.p, k) - 2 * dim_cusp_gamma0(ctx.N, k)
    if dim < 0:
        raise AssertionError(f"p-new dimension came out negative at p={ctx.p}, N={ctx.N}, k={k}")
    return dim


# ---------------------------------------------------------------------------
# spaces with the conductor-8 character (p = 2 machinery)

def _cohen_oesterle_lambda(r: int, s: int, p: int) -> int:
    """The local factor lambda(r_p, s_p, p) of the Cohen-Oesterle formula."""
    if 2 * s <= r:
        if r % 2 == 0:
            return p ** (r // 2) + p ** (r // 2 - 1)
        return 2 * p ** ((r - 1) // 2)
    return 2 * p ** (r - s)


@lru_cache(maxsize=None)
def _dim_eta8(N: int, k: int) -> int:
    M = 8 * N
    lam = 1
    for ell, r in _prime_factors(M):
        s = 3 if ell == 2 else 0  # the character has conductor 8
        lam *= _cohen_oesterle_lambda(r, s, ell)
    # the elliptic terms vanish: 8 | M, and x^2 + 1, x^2 + x + 1 have no roots mod 8
    dim = Fraction(k - 1, 12) * gamma0_invariants(M).index - Fraction(lam, 2)
    # at k = 2 the formula computes dim S_2 - dim M_0; eta_8 is nontrivial,
    # so dim M_0 = 0 and no correction is needed
    if dim.denominator != 1 or dim < 0:
        raise AssertionError(f"character dimension broke at N = {N}, k = {k}: {dim}")
    return int(dim)


def dim_cusp_eta8(N: int, k: int, sign: int) -> int:
    """dim S_k(Gamma_1(8N), eta_8^{sign}) for odd N and k >= 2.

    The sign must equal (-1)^k, the parity that makes the space nonzero.
    """
    if N % 2 == 0 or N < 1:
        raise ValueError(f"tame level N = {N} must be odd and positive")
    if k < 2:
        raise ValueError(f"weight k = {k} must be at least 2")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign != (1 if k % 2 == 0 else -1):
        raise ValueError(f"sign {sign:+d} does not match the parity of k = {k}")
    return _dim_eta8(N, k)


def eta8_weight2_excess(N: int) -> int:
    """dim S_2(Gamma_1(8N), eta_8^+) - 2(dim S_2(Gamma_0(2N)) - dim S_2(Gamma_0(N))).

    A positive value certifies fractional weight-2 slopes at level 8N.
    Defined for odd N > 1.
    """
    if N <= 1 or N % 2 == 0:
        raise ValueError("the bound is stated for odd N > 1")
    return dim_cusp_eta8(N, 2, 1) - 2 * (dim_cusp_gamma0(2 * N, 2) - dim_cusp_gamma0(N, 2))
