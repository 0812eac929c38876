"""The modified 2-adic series: eta_8 zeros seeded by weight-2 slope data.

For odd tame level N > 1 the spaces S_k(Gamma_1(8N), eta_8^{+-}) carry
repeated fractional slopes that the plain series cannot see.  The fix
multiplies extra zeros at the weights z^k eta_8^{+-} into the coefficients.
All extra multiplicities are pinned down by the weight-2 slope list
nu_1(2) <= ... <= nu_d(2) of U_2 on S_2(Gamma_1(8N), eta_8^+):

    m_i(2) = s_i(mu_i - 1, beta_i - 1)  if nu_i(2) is not an integer, else 0,

with mu_i the multiplicity and beta_i the first index of nu_i(2), and the
higher weights reflect down to weight 2:

    m_i(k) = m_{d_k - i}(2)  for 1 <= i < d_k,  d_k = dim S_k(Gamma_1(8N), eta_8^{+-}).

The weight-2 slope list is the one input this package cannot compute; it
must be supplied (the N = 3 list {1/2, 1/2} ships as package data).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Dict, Mapping

from .boundary import boundary_polygon
from .dims import dim_cusp_eta8, dim_cusp_gamma0
from .errors import ExternalDataError
from .polygon import SlopeList
from .polygon import certified_slopes  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
from .series import GhostCoefficient, coefficient_divisor, updown_padded
from .weightspace import ComponentLabel, EtaEight, PrimeContext, WeightPoint


@dataclass(frozen=True)
class Weight2SeedSlopes:
    """The slope list of U_2 on S_2(Gamma_1(8N), eta_8^+), exact and sorted.

    The list must have length dim S_2(Gamma_1(8N), eta_8^+) and be symmetric
    around 1/2 (the involution pairs slopes summing to k - 1 = 1).
    """

    N: int
    slopes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.N < 1 or self.N % 2 == 0:
            raise ValueError(f"tame level N = {self.N} must be odd and positive")
        slopes = tuple(Fraction(s) for s in self.slopes)
        object.__setattr__(self, "slopes", slopes)
        expected = dim_cusp_eta8(self.N, 2, 1)
        if len(slopes) != expected:
            raise ExternalDataError(
                f"seed for N = {self.N} must list {expected} slopes, got {len(slopes)}"
            )
        if any(b < a for a, b in zip(slopes, slopes[1:])):
            raise ExternalDataError("seed slopes must be sorted nondecreasingly")
        if any(s < 0 for s in slopes):
            raise ExternalDataError("seed slopes must be nonnegative")
        d = len(slopes)
        for i in range(d):
            if slopes[i] + slopes[d - 1 - i] != 1:
                raise ExternalDataError(
                    "seed slopes must be symmetric around 1/2 "
                    f"(positions {i + 1} and {d - i} sum to {slopes[i] + slopes[d - 1 - i]})"
                )

    @property
    def dimension(self) -> int:
        return len(self.slopes)


def seed_from_json(obj: dict) -> Weight2SeedSlopes:
    """Parse {"N": odd int, "weight2_slopes": [{"num", "den"}, ...]}."""
    try:
        N = int(obj["N"])
        slopes = tuple(Fraction(int(s["num"]), int(s["den"])) for s in obj["weight2_slopes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ExternalDataError(f"malformed seed file: {exc}") from exc
    return Weight2SeedSlopes(N, slopes)


def load_seed(path) -> Weight2SeedSlopes:
    with open(path, "r", encoding="utf-8") as handle:
        return seed_from_json(json.load(handle))


def bundled_seed(N: int) -> Weight2SeedSlopes:
    """Seeds shipped with the package (N = 1 trivially, N = 3 from data)."""
    if N == 1:
        return Weight2SeedSlopes(1, ())
    if N == 3:
        text = resources.files("ghostseries.data").joinpath("eta8_seed_N3.json").read_text()
        return seed_from_json(json.loads(text))
    raise ExternalDataError(
        f"no bundled weight-2 slope data for N = {N}; supply a seed file"
    )


# ---------------------------------------------------------------------------
# extra multiplicities

def seed_multiplicities(seed: Weight2SeedSlopes) -> tuple[int, ...]:
    """m_i(2) for i = 1..d: the up-down pattern of each fractional block.

    Entry i is positive exactly when the i-th and (i+1)-st seed slopes agree
    and lie strictly between 0 and 1.
    """
    slopes = seed.slopes
    out = []
    for i in range(1, len(slopes) + 1):
        nu = slopes[i - 1]
        if nu.denominator == 1:
            out.append(0)
            continue
        mu = slopes.count(nu)
        beta = slopes.index(nu) + 1
        out.append(updown_padded(mu - 1, beta - 1, i))
    return tuple(out)


def modified_multiplicity(N: int, i: int, k: int, seed: Weight2SeedSlopes) -> int:
    """m_i(k): multiplicity of the zero z^k eta_8^{+-} in the i-th coefficient."""
    if k < 2:
        raise ValueError(f"eta_8 zero weights satisfy k >= 2, got {k}")
    if seed.N != N:
        raise ValueError(f"seed belongs to N = {seed.N}, not N = {N}")
    mults = seed_multiplicities(seed)
    if k == 2:
        return mults[i - 1] if 1 <= i <= len(mults) else 0
    dk = dim_cusp_eta8(N, k, 1 if k % 2 == 0 else -1)
    if not (1 <= i < dk):
        return 0
    j = dk - i
    return mults[j - 1] if 1 <= j <= len(mults) else 0


@dataclass(frozen=True)
class ModifiedCoefficient:
    """A plain coefficient divisor plus its extra eta_8 zeros."""

    base: GhostCoefficient
    extra: Mapping[WeightPoint, int] = field(default_factory=dict)

    @property
    def index(self) -> int:
        return self.base.index

    @property
    def component(self) -> ComponentLabel:
        return self.base.component

    @property
    def zeros(self) -> Mapping[WeightPoint, int]:
        merged: Dict[WeightPoint, int] = dict(self.base.zeros)
        merged.update(self.extra)
        return merged

    @property
    def lam(self) -> int:
        return self.base.lam + sum(self.extra.values())


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


def modified_coefficient(ctx: PrimeContext, i: int, seed: Weight2SeedSlopes) -> ModifiedCoefficient:
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
    return ModifiedCoefficient(base, extra)


def eta8_points(seed: Weight2SeedSlopes, upto: int):
    """(EtaEight(k), i, m) for every eta_8 zero of g_1..g_upto, by increasing k.

    The weight-2 zero sits at i = j and each higher weight at i = d_k - j,
    with multiplicity m_j(2) for j = 1..d_2.
    """
    mults = seed_multiplicities(seed)
    d2 = len(mults)
    if d2 == 0:
        return
    for k, dk in _eta8_dims(seed.N):
        if k > 2 and dk - d2 > upto:
            return
        for j, m in enumerate(mults, start=1):
            i = j if k == 2 else dk - j
            if m and 1 <= i <= upto:
                yield EtaEight(k), i, m


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
# regularity

def regularity_check_p2(N: int, weight2_slopes, weight4_slopes) -> bool:
    """Is p = 2 regular at level Gamma_0(N)?

    Needs the true T_2 slope lists on S_2(Gamma_0(N)) and S_4(Gamma_0(N)),
    which must be computed externally.  Regularity means every weight-2
    slope is 0 and every weight-4 slope is 0 or 1.
    """
    if weight2_slopes is None or weight4_slopes is None:
        raise ExternalDataError(
            "external data required: supply the T_2 slopes on S_2(Gamma_0(N)) "
            "and S_4(Gamma_0(N))"
        )
    d2 = dim_cusp_gamma0(N, 2)
    d4 = dim_cusp_gamma0(N, 4)
    if len(weight2_slopes) != d2 or len(weight4_slopes) != d4:
        raise ValueError(
            f"slope lists must have lengths {d2} and {d4}, "
            f"got {len(weight2_slopes)} and {len(weight4_slopes)}"
        )
    return all(v == 0 for v in weight2_slopes) and all(v in (0, 1) for v in weight4_slopes)
