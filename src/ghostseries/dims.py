"""Exact dimension formulas for the cusp form spaces driving the series.

Every dimension is one integer count: twelve times the Cohen-Oesterle
dimension of S_k(Gamma_0(M), chi), read off the index of Gamma_0(M), the
cusp term lambda and the elliptic counts nu2 and nu3.  Every count is
checked and divided in one place (``_dim``): it must be a nonnegative
multiple of 12.  The index, nu2, nu3 and the cusps of X_0(M) are products
of local factors over the prime powers of M, the cusps being the product
of lambda(r, 0, ell), and each level's record is built once
(``gamma0_invariants``).  At the trivial character the weight-2 count is
the genus of X_0(M) and the count at even k is ``dim_cusp_gamma0``; the
eta_8 spaces of level 8N read the record of Gamma_0(8N) with half its
cusps.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

from .record import Record
from .weightspace import _BASES, PrimeContext, is_prime


def _prime_factors(M: int) -> list[tuple[int, int]]:
    """(p, v_p(M)) pairs in ascending p.  Trial division takes the primes of
    ``_BASES``; each cofactor left is proved prime by ``is_prime`` or split by
    Pollard's rho, x -> x^2 + c for c in 1..4: a prime factor q costs about
    sqrt(q) steps, and a step about b^2 on a b-bit cofactor, so each c runs
    2^18 steps, 2^18 (128/b)^2 past 128 bits.  A composite rho does not split,
    or a probable prime above ``is_prime``'s bound, is refused with ValueError."""
    out: dict[int, int] = {}
    n = M
    for f in _BASES:
        while n % f == 0:
            n //= f
            out[f] = out.get(f, 0) + 1
    todo = [n] if n > 1 else []
    while todo:
        n = todo.pop()
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        steps = min(1 << 18, (1 << 32) // n.bit_length() ** 2)
        for c in range(1, 5):
            x = y = 2
            for _ in range(steps):  # Floyd: y takes two steps to each of x's
                x, y = (x * x + c) % n, (y * y + c) % n
                y = (y * y + c) % n
                d = gcd(x - y, n)
                if d != 1:
                    break
            if 1 < d < n:
                todo += [d, n // d]
                break
        else:
            raise ValueError(f"cannot factor the level {M}: Pollard's rho splits no factor off the composite {n}")
    return sorted(out.items())


def _cohen_oesterle_lambda(r: int, p: int) -> int:
    """The local cusp count lambda(r, 0, p) of X_0(p^r) in the Cohen-Oesterle formula."""
    if r % 2 == 0:
        return p ** (r // 2) + p ** (r // 2 - 1)
    return 2 * p ** ((r - 1) // 2)


def _dim(k: int, index: int, lam: int, nu2: int, nu3: int, trivial: bool) -> int:
    """dim S_k(Gamma_0(M), chi) for k >= 2 and chi(-1) = (-1)^k, by Cohen-Oesterle.

    12 dim = (k - 1) index - 6 lam + 12 gamma_4(k) nu2 + 12 gamma_3(k) nu3, where
    nu2 and nu3 count the roots of x^2 + 1 and x^2 + x + 1 mod M weighted by chi,
    plus 12 dim M_0 = 12 at k = 2 for the trivial character.  A count that is
    negative or not a multiple of 12 is a broken formula, not an input error.
    """
    twelve = (
        (k - 1) * index - 6 * lam + (3, 0, -3, 0)[k % 4] * nu2 + (4, 0, -4)[k % 3] * nu3
        + (12 if k == 2 and trivial else 0)
    )
    if twelve % 12 or twelve < 0:
        raise AssertionError(f"Cohen-Oesterle count 12 dim = {twelve} at k = {k} is not a nonnegative multiple of 12")
    return twelve // 12


class Gamma0Invariants(Record):
    """Index, elliptic point counts, cusps and genus of X_0(M)."""

    __slots__ = ("level", "index", "nu2", "nu3", "cusps", "genus")


@lru_cache(maxsize=None)
def gamma0_invariants(M: int) -> Gamma0Invariants:
    if M < 1:
        raise ValueError(f"level M = {M} must be positive")
    factors = _prime_factors(M)
    index = prod(ell ** (r - 1) * (ell + 1) for ell, r in factors)
    # the roots of x^2 + 1 (x^2 + x + 1) mod ell^r: one mod 2 (3), none mod 4 (9),
    # two for ell = 1 mod 4 (mod 3), else none
    nu2 = prod(r == 1 if ell == 2 else 2 * (ell % 4 == 1) for ell, r in factors)
    nu3 = prod(r == 1 if ell == 3 else 2 * (ell % 3 == 1) for ell, r in factors)
    cusps = prod(_cohen_oesterle_lambda(r, ell) for ell, r in factors)
    return Gamma0Invariants(M, index, nu2, nu3, cusps, _dim(2, index, cusps, nu2, nu3, True))


def dim_cusp_gamma0(M: int, k: int) -> int:
    """dim S_k(Gamma_0(M)) for even k: the genus at k = 2, zero in weights k <= 0."""
    if k % 2 != 0:
        raise ValueError(f"weight k = {k} must be even")
    if k <= 0:
        return 0
    inv = gamma0_invariants(M)
    return _dim(k, inv.index, inv.cusps, inv.nu2, inv.nu3, True)


def dim_pnew(ctx: PrimeContext, k: int) -> int:
    """dim S_k(Gamma_0(Np))^{p-new} = dim S_k(Gamma_0(Np)) - 2 dim S_k(Gamma_0(N))."""
    dim = dim_cusp_gamma0(ctx.N * ctx.p, k) - 2 * dim_cusp_gamma0(ctx.N, k)
    if dim < 0:
        raise AssertionError(f"p-new dimension came out negative at p={ctx.p}, N={ctx.N}, k={k}")
    return dim


# ---------------------------------------------------------------------------
# spaces with the conductor-8 character (p = 2 machinery)

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
    inv = gamma0_invariants(8 * N)
    # N is odd, so 2^3 || 8N: at 2 the conductor-8 character gives lambda(3, 3, 2) = 2
    # against lambda(3, 0, 2) = 4, and each odd factor has s = 0, so the cusp term is
    # half the cusps of X_0(8N).  The elliptic terms vanish (no roots of x^2 + 1 or
    # x^2 + x + 1 mod 8), and eta_8 is nontrivial, so dim M_0 = 0 at k = 2
    return _dim(k, inv.index, inv.cusps // 2, 0, 0, False)


def eta8_weight2_excess(N: int) -> int:
    """dim S_2(Gamma_1(8N), eta_8^+) - 2(dim S_2(Gamma_0(2N)) - dim S_2(Gamma_0(N))).

    A positive value certifies fractional weight-2 slopes at level 8N.
    Defined for odd N > 1.
    """
    if N <= 1 or N % 2 == 0:
        raise ValueError("the bound is stated for odd N > 1")
    return dim_cusp_eta8(N, 2, 1) - 2 * (dim_cusp_gamma0(2 * N, 2) - dim_cusp_gamma0(N, 2))
