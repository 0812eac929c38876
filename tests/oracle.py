"""Reference builders the tests compare the package against.

``gamma0_reference`` counts the invariants of X_0(M) the slow way: the
index by a divisor sum, nu2 and nu3 as the roots of x^2 + 1 and
x^2 + x + 1 mod M, and the cusps as the sum of phi(gcd(d, M/d)) over the
divisors d of M.  ``dim_cusp_genus_form`` reads the dimension of
S_k(Gamma_0(M)) off them in its genus form, so both check the one
Cohen-Oesterle count of ``ghostseries.dims``.  ``dim_cusp_eta8_reference``
factors 8N on every call and takes the conductor-8 local factor at 2, so it
checks the eta_8 dimensions that the package reads off the cached record
of Gamma_0(8N).

Each coefficient divisor is built here as a dict, zero by zero, straight
from the dimension formulas: d_k = dim S_k(Gamma_0(N)), the p-new
dimension and the eta_8 dimensions, with no zero table.  These are slow,
but independent of ``ghostseries.series``' table and its reads, which is
what makes them a reference.  ``tents`` steps each family of the
package's table one tent at a time, by addition, as no code in the package
does; the tests check it against the dimension formulas.
``values_reference`` walks those tents and calls the leg once per zero, so
it checks the progressions that ``GhostSeries.values`` adds.
``boundary_slopes_reference`` certifies boundary slopes over the whole
degree array, with no period and no shear, so it checks
``boundary_polygon`` apart from its period proof, and
``ap_report_reference`` runs both progression scans over every slope, so it
checks the CLI's report apart from the positions the shear settles.
``hull_slopes_reference`` and ``shear_reference`` are the slope lists in
``Fraction`` arithmetic, one Fraction per edge of a hull and one per run
and period of a shear, so they check the int numerators and denominators
that ``SlopeList`` holds from the hull to the output.
``last_start_bound`` is the degree bound read from the last start of every
mark, so the certificate can be checked against the longer window.  The
one-line ``modified_boundary_slopes`` wraps the package's boundary polygon
for the tests that read the modified boundary slopes by tame level.

``is_prime_reference`` decides primality by trial division, so it checks
the Miller-Rabin test of ``ghostseries.weightspace.is_prime``.

``true_classical_slopes`` is no rebuild of the series: it reads the U_p
slopes on S_k(Gamma_0(p)) off exact Hecke data at level 1 (T_p on the
basis Delta^j E_4^a E_6^b, its characteristic polynomial and a Newton
polygon of its own), with the dimensions from ``dim_cusp_genus_form``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, pairwise
from math import comb, gcd, isqrt, lcm
from typing import Dict, Iterator

from ghostseries.boundary import ap_check, boundary_polygon, scan_burn_in
from ghostseries.dims import dim_cusp_eta8, dim_cusp_gamma0, dim_pnew, gamma0_invariants
from ghostseries.modified import Weight2SeedSlopes, seed_multiplicities
from ghostseries.polygon import DEFAULT_CAP, NewtonPolygon, SlopeList, certified_slopes
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
    leg_rule,
    weight_component,
)


# ---------------------------------------------------------------------------
# primality

def is_prime_reference(n: int) -> bool:
    """Whether n is prime, by trial division through its square root."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def prime_factors_reference(M: int) -> list[tuple[int, int]]:
    """(p, v_p(M)) pairs in ascending p, by trial division through the square root of the cofactor."""
    out, n, f = [], M, 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n, e = n // f, e + 1
        if e:
            out.append((f, e))
        f += 1
    return out + [(n, 1)] * (n > 1)


# ---------------------------------------------------------------------------
# dimension formulas

@lru_cache(maxsize=None)
def gamma0_reference(M: int) -> tuple[int, int, int, int, int]:
    """(index, nu2, nu3, cusps, genus) of X_0(M), each counted directly.

    The index is the sum of M/d over the squarefree divisors d of M, and the
    genus comes from Riemann-Hurwitz: 12(g - 1) = index - 3 nu2 - 4 nu3 - 6 cusps.
    """
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    index = sum(M // d for d in divisors if all(d % (q * q) for q in range(2, isqrt(d) + 1)))
    nu2 = sum(1 for x in range(M) if (x * x + 1) % M == 0)
    nu3 = sum(1 for x in range(M) if (x * x + x + 1) % M == 0)
    cusps = sum(sum(1 for a in range(1, g + 1) if gcd(a, g) == 1) for g in (gcd(d, M // d) for d in divisors))
    twelve_genus = 12 + index - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_genus % 12:
        raise AssertionError(f"Riemann-Hurwitz gave a fractional genus at M = {M}")
    return index, nu2, nu3, cusps, twelve_genus // 12


def dim_cusp_genus_form(M: int, k: int) -> int:
    """dim S_k(Gamma_0(M)) for even k >= 2: the genus at k = 2, else
    (k - 1)(g - 1) + (k/2 - 1)nu_inf + floor(k/4)nu2 + floor(k/3)nu3."""
    _, nu2, nu3, cusps, genus = gamma0_reference(M)
    if k == 2:
        return genus
    return (k - 1) * (genus - 1) + (k // 2 - 1) * cusps + (k // 4) * nu2 + (k // 3) * nu3


def _cohen_oesterle_lambda(r: int, s: int, p: int) -> int:
    """The local factor lambda(r, s, p) at p^r || M for a character of conductor p^s there."""
    if 2 * s <= r:
        if r % 2 == 0:
            return p ** (r // 2) + p ** (r // 2 - 1)
        return 2 * p ** ((r - 1) // 2)
    return 2 * p ** (r - s)


def dim_cusp_eta8_reference(N: int, k: int) -> int:
    """dim S_k(Gamma_1(8N), eta_8^{sign}) for odd N, k >= 2 and sign (-1)^k, per call.

    Cohen-Oesterle over the factors of M = 8N found by trial division: the
    index of Gamma_0(M), the cusp term with lambda(r, 3, 2) at 2 (eta_8 has
    conductor 8) and lambda(r, 0, ell) at each odd ell, no elliptic terms
    (8 | M) and no weight-2 constant (eta_8 is nontrivial).
    """
    n, factors, f = 8 * N, [], 2
    while f * f <= n:
        r = 0
        while n % f == 0:
            n //= f
            r += 1
        if r:
            factors.append((f, r))
        f += 1
    if n > 1:
        factors.append((n, 1))
    index = lam = 1
    for ell, r in factors:
        index *= ell ** (r - 1) * (ell + 1)
        lam *= _cohen_oesterle_lambda(r, 3 if ell == 2 else 0, ell)
    twelve = (k - 1) * index - 6 * lam
    if twelve % 12 or twelve < 0:
        raise AssertionError(f"character dimension broke at N = {N}, k = {k}: {twelve}/12")
    return twelve // 12


def classical_weights(ctx: PrimeContext, eps: ComponentLabel) -> Iterator[int]:
    """Yield the even integer weights k >= 2 lying on the component eps,
    in increasing order.  (These are the only possible coefficient zeros.)
    """
    if eps.p != ctx.p:
        raise ValueError("component belongs to a different prime")
    if ctx.p == 2:
        k, step = 2, 2
    else:
        step = ctx.p - 1
        k = eps.residue if eps.residue >= 2 else step
    while True:
        yield k
        k += step


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


def hull_slopes_reference(poly: NewtonPolygon, n: int) -> tuple[Fraction, ...]:
    """The first n slopes of a hull flattened with multiplicity, one Fraction per edge."""
    out: list[Fraction] = []
    for (x1, y1), (x2, y2) in pairwise(poly.vertices):
        out.extend([Fraction(y2 - y1, x2 - x1)] * min(x2 - x1, n - len(out)))
        if len(out) >= n:
            break
    return tuple(out)


def shear_reference(head: tuple[Fraction, ...], q: int, delta: int, n: int) -> tuple[Fraction, ...]:
    """``head`` extended to n slopes by slope(j) = slope(j - q) + delta: the
    last q slopes of ``head`` as runs, one Fraction per run and period."""
    runs = [(s.numerator, s.denominator, len(list(run))) for s, run in groupby(head[len(head) - q :])]
    out = list(head)
    shift = 0
    while len(out) < n:
        shift += delta
        for a, d, length in runs:
            s = Fraction(a + shift) if d == 1 else Fraction(a + shift * d, d)
            out += [s] * length
    del out[n:]
    return tuple(out)


def last_start_bound(series: GhostSeries) -> tuple[int, Fraction, Fraction]:
    """(A, alpha, beta) with lam(Delta_x) >= alpha*x - beta for x >= A, A the last
    start of the marks of ``series.progressions`` (a + 1 for a single mark): from
    A on, a mark (a, s, w) with s > 0 hits floor((x - a)/s) + 1 times, between
    (x - a + 1)/s and (x - a + s)/s, and a single mark adds w."""
    marks = series.progressions
    L = lcm(*(s for _, s, _ in marks if s))
    alpha = sum(w * (L // s) for _, s, w in marks if s)
    beta = sum(w * (a - 1 if w > 0 else a - s) * (L // s) if s else -w * L for a, s, w in marks)
    return max(a + (not s) for a, s, _ in marks), Fraction(alpha, L), Fraction(beta, L)


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


def tents(series: GhostSeries, upto: int, zero: type = Classical) -> Iterator[tuple[int, int, int]]:
    """(k, d, ell) for each zero of the type in g_1..g_upto, by increasing k.

    The families of ``series`` step side by side, one term each in turn, and
    each stops at its first d >= upto.  Tents with ell < 1 are empty and skipped.
    """
    live = [[*head, *step] for head, step in series._families[zero] if head[1] < upto]
    while live:
        for t in live:
            k, d, ell, dk, dd, dell = t
            if ell >= 1:
                yield k, d, ell
            t[0], t[1], t[2] = k + dk, d + dd, ell + dell
        live = [t for t in live if t[4] and t[1] < upto]


def values_reference(series: GhostSeries, upto: int, leg) -> list:
    """[sum over the zeros z of g_i of m_i(z) * leg(kind, k), for i = 0..upto]
    by the per-tent walk: ``leg`` is any function of the zero kind and k, and
    is called once per zero of g_1..g_upto, classical zeros by increasing k
    first.  A value is +Infinity wherever a zero of g_i has an infinite leg."""
    spill = upto + 1  # marks past upto land here and never reach a sum
    marks = [0] * (upto + 2)
    hits = [0] * (upto + 2)  # first differences of the count of infinite legs
    for zero in (Classical, EtaEight):
        for k, d, ell in tents(series, upto, zero):
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


# ---------------------------------------------------------------------------
# true U_p slopes at level 1

def _sigma_series(r: int, scale: int, prec: int) -> list[int]:
    """1 + scale * sum sigma_r(n) q^n to O(q^prec): E_4 at (3, 240), E_6 at (5, -504)."""
    out = [1] + [0] * (prec - 1)
    for d in range(1, prec):
        for n in range(d, prec, d):
            out[n] += scale * d ** r
    return out


def _mul(f: list[int], g: list[int], prec: int) -> list[int]:
    """f g to O(q^prec), by one integer product (Kronecker substitution).

    Coefficients are packed as whole-byte digits base B = 2^bits, the signs
    split off as a difference of two nonnegative packings.  Every product
    coefficient is below B / 2 in absolute value, so the product unpacks
    digit by digit, a digit of B / 2 or more being negative with a carry.
    """
    f, g = f[:prec], g[:prec]
    top_f, top_g = max(map(abs, f)), max(map(abs, g))
    bound = min(len(f), len(g)) * top_f * top_g + top_f + top_g  # bounds the inputs too
    size = bound.bit_length() // 8 + 1
    bits, half = 8 * size, 1 << (8 * size - 1)

    def pack(h: list[int]) -> int:
        return (int.from_bytes(b"".join(max(c, 0).to_bytes(size, "little") for c in h), "little")
                - int.from_bytes(b"".join(max(-c, 0).to_bytes(size, "little") for c in h), "little"))

    raw = (pack(f) * pack(g) & ((1 << bits * prec) - 1)).to_bytes(size * prec, "little")
    out, carry = [], 0
    for i in range(0, size * prec, size):
        c = int.from_bytes(raw[i:i + size], "little") + carry
        carry = c >= half
        out.append(c - (carry << bits))
    return out


@lru_cache(maxsize=None)
def _level_one_power(name: str, e: int, prec: int) -> list[int]:
    """E_4^e, E_6^e or Delta^e to O(q^prec); Delta = (E_4^3 - E_6^2) / 1728."""
    if e == 0:
        return [1] + [0] * (prec - 1)
    if e > 1:
        return _mul(_level_one_power(name, e - 1, prec), _level_one_power(name, 1, prec), prec)
    if name == "E4":
        return _sigma_series(3, 240, prec)
    if name == "E6":
        return _sigma_series(5, -504, prec)
    cube, square = _level_one_power("E4", 3, prec), _level_one_power("E6", 2, prec)
    return [(a - b) // 1728 for a, b in zip(cube, square)]


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _newton_slopes(coeffs: list[int], p: int) -> list[Fraction]:
    """The slopes of the lower hull of (i, v_p(coeffs[i])) over the nonzero coefficients."""
    hull: list[tuple[int, int]] = []
    for pt in ((i, _valuation(c, p)) for i, c in enumerate(coeffs) if c):
        while len(hull) > 1 and (
            (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0]) >= (pt[1] - hull[-2][1]) * (hull[-1][0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(pt)
    return [Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(hull, hull[1:]) for _ in range(b[0] - a[0])]


def true_classical_slopes(p: int, k: int) -> list[Fraction]:
    """The U_p slopes on S_k(Gamma_0(p)) for even k >= 4, sorted, from exact Hecke data.

    S_k(SL_2(Z)) has the basis Delta^j E_4^a E_6^b, 12j + 4a + 6b = k, b in
    {0, 1}, j = 1..d, echelonized over Z to f_j = q^j + O(q^(d+1)); T_p acts
    by (T_p f)_n = a_(pn) + p^(k-1) a_(n/p), so its matrix is read off the
    first d coefficients, and its characteristic polynomial P comes exactly
    by Faddeev-LeVerrier.  The 2d p-old slopes are those of the Newton
    polygon of x^d P((x^2 + p^(k-1)) / x), whose roots are the U_p
    eigenvalues; the dim S_k(Gamma_0(p)) - 2d p-new slopes are (k - 2) / 2.
    """
    d = dim_cusp_genus_form(1, k)
    prec = p * (d + 1) + 1
    basis = []
    for j in range(1, d + 1):
        b = (k - 12 * j) % 4 // 2
        f = _mul(_level_one_power("Delta", j, prec), _level_one_power("E6", b, prec), prec)
        basis.append(_mul(f, _level_one_power("E4", (k - 12 * j - 6 * b) // 4, prec), prec))
    for j in reversed(range(d)):
        for i in range(j + 1, d):
            c = basis[j][i + 1]
            basis[j] = [x - c * y for x, y in zip(basis[j], basis[i])]
    power = p ** (k - 1)
    A = [[f[p * n] + (power * f[n // p] if n % p == 0 else 0) for f in basis] for n in range(1, d + 1)]
    # Faddeev-LeVerrier: P(y) = sum c[i] y^i, monic, every division exact
    c, Mk = [0] * d + [1], [[0] * d for _ in range(d)]
    for m in range(1, d + 1):
        Mk = [[sum(A[r][t] * Mk[t][s] for t in range(d)) + (c[d - m + 1] if r == s else 0) for s in range(d)]
              for r in range(d)]
        c[d - m] = -sum(A[r][t] * Mk[t][r] for r in range(d) for t in range(d)) // m
    # x^d P((x^2 + C) / x) = sum_i c[i] x^(d-i) sum_m binom(i, m) x^(2m) C^(i-m)
    poly = [0] * (2 * d + 1)
    for i, ci in enumerate(c):
        for m in range(i + 1):
            poly[d - i + 2 * m] += ci * comb(i, m) * power ** (i - m)
    old = _newton_slopes(poly[::-1], p)
    return sorted(old + [Fraction(k - 2, 2)] * (dim_cusp_genus_form(p, k) - 2 * d))
