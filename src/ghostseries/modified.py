"""The modified 2-adic series: eta_8 zeros seeded by weight-2 slope data.

For odd tame level N > 1 the spaces S_k(Gamma_1(8N), eta_8^{+-}) carry
repeated fractional slopes that the plain series cannot see.  The fix
multiplies extra zeros at the weights z^k eta_8^{+-} into the coefficients.
All extra multiplicities are pinned down by the weight-2 slope list
nu_1(2) <= ... <= nu_d(2) of U_2 on S_2(Gamma_1(8N), eta_8^+):

    m_i(2) = s_i(mu_i - 1, beta_i - 1)  if nu_i(2) is not an integer, else 0,

with mu_i the multiplicity and beta_i the first index of nu_i(2), and every
weight reflects down to weight 2:

    m_i(k) = m_{d_k - i}(2)  for 1 <= i < d_k,  d_k = dim S_k(Gamma_1(8N), eta_8^{+-}).

At k = 2 the reflection holds too: the seed is symmetric around 1/2, so
its fractional blocks, and with them m_i(2), are symmetric under i -> d_2 - i.

The weight-2 slope list is the one input this package cannot compute; it
must be supplied (the N = 3 list {1/2, 1/2} ships as package data).
"""

from __future__ import annotations

import json
import pkgutil
from fractions import Fraction
from typing import Dict, Mapping

from .dims import dim_cusp_eta8, dim_cusp_gamma0
from .errors import ExternalDataError
from .polygon import certified_slopes  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
from .record import Record, init
from .series import GhostCoefficient, GhostSeries, _coefficient_zeros, coefficient_divisor
from .weightspace import ComponentLabel, EtaEight, PrimeContext, WeightPoint


class Weight2SeedSlopes(Record):
    """The slope list of U_2 on S_2(Gamma_1(8N), eta_8^+), exact and sorted.

    The list must have length dim S_2(Gamma_1(8N), eta_8^+) and be symmetric
    around 1/2 (the involution pairs slopes summing to k - 1 = 1).
    """

    __slots__ = ("N", "slopes")

    def __init__(self, N: int, slopes: tuple[Fraction, ...]) -> None:
        if N < 1 or N % 2 == 0:
            raise ValueError(f"tame level N = {N} must be odd and positive")
        slopes = tuple(Fraction(s) for s in slopes)
        expected = dim_cusp_eta8(N, 2, 1)
        if len(slopes) != expected:
            raise ExternalDataError(
                f"seed for N = {N} must list {expected} slopes, got {len(slopes)}"
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
        init(self, "N", N)
        init(self, "slopes", slopes)

    @property
    def dimension(self) -> int:
        return len(self.slopes)


def json_int(x) -> int:
    """An integer read from parsed JSON; a float or a boolean is refused, never truncated."""
    if isinstance(x, (bool, float)):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def seed_from_json(obj: dict) -> Weight2SeedSlopes:
    """Parse {"N": odd int, "weight2_slopes": [{"num", "den"}, ...]}."""
    try:
        N = json_int(obj["N"])
        slopes = tuple(Fraction(json_int(s["num"]), json_int(s["den"])) for s in obj["weight2_slopes"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ExternalDataError(f"malformed seed file: {exc}") from exc
    return Weight2SeedSlopes(N, slopes)


def load_seed(path) -> Weight2SeedSlopes:
    """Read a seed file; a file that holds no valid seed raises ExternalDataError naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ExternalDataError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return seed_from_json(obj)
    except ExternalDataError as exc:
        raise ExternalDataError(f"{path}: {exc}") from exc


def bundled_seed(N: int) -> Weight2SeedSlopes:
    """Seeds shipped with the package (N = 1 trivially, N = 3 from data)."""
    if N == 1:
        return Weight2SeedSlopes(1, ())
    if N == 3:
        return seed_from_json(json.loads(pkgutil.get_data(__package__, "data/eta8_seed_N3.json")))
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
        mu, beta = slopes.count(nu), slopes.index(nu) + 1
        j = i - beta + 1  # the place of i in the up-down pattern s(mu - 1), after beta - 1 zeros
        out.append(min(j, mu - j) if j < mu else 0)
    return tuple(out)


class ModifiedCoefficient(Record):
    """A plain coefficient divisor plus its extra eta_8 zeros."""

    __slots__ = ("base", "extra")

    def __init__(self, base: GhostCoefficient, extra: Mapping[WeightPoint, int] | None = None) -> None:
        init(self, "base", base)
        init(self, "extra", {} if extra is None else extra)

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


def modified_coefficient(ctx: PrimeContext, i: int, seed: Weight2SeedSlopes) -> ModifiedCoefficient:
    """Divisor of the i-th modified coefficient (p = 2, N odd)."""
    eps = ComponentLabel(0, 2)
    series = GhostSeries(ctx, eps, seed)  # rejects p != 2 and a seed of another N
    return ModifiedCoefficient(coefficient_divisor(ctx, eps, i), _coefficient_zeros(series, i, EtaEight))


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
