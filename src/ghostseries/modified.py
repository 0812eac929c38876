"""The modified 2-adic series: eta_8 zeros seeded by weight-2 slope data.

For odd tame level N > 1 the spaces S_k(Gamma_1(8N), eta_8^{+-}) carry
repeated fractional slopes that the plain series cannot see.  The fix
multiplies extra zeros at the weights z^k eta_8^{+-} into the coefficients.
All extra multiplicities are pinned down by the weight-2 slope list
nu_1(2) <= ... <= nu_d(2) of U_2 on S_2(Gamma_1(8N), eta_8^+), through its
fractional blocks alone, ``Weight2SeedSlopes.blocks``: the runs (b, mu) of
mu > 1 equal non-integer slopes from position b + 1,

    m_i(2) = s_{i - b}(mu - 1)  for b < i < b + mu in a block, else 0,

and every weight reflects down to weight 2:

    m_i(k) = m_{d_k - i}(2)  for 1 <= i < d_k,  d_k = dim S_k(Gamma_1(8N), eta_8^{+-}).

At k = 2 the reflection holds too: the seed is symmetric around 1/2, so
its fractional blocks, and with them m_i(2), are symmetric under i -> d_2 - i.
A modified coefficient is a ``series.GhostCoefficient``, eta_8 zeros last.

The weight-2 slope list is the one input this package cannot compute; it
must be supplied (the N = 3 list {1/2, 1/2} ships as package data).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .dims import dim_cusp_eta8, dim_cusp_gamma0
from .errors import ExternalDataError
from .polygon import certified_slopes  # noqa: F401  kept importable: perfbench/tracer.py wraps this name
from .record import Record, init, json_int
from .series import GhostCoefficient, GhostSeries
from .weightspace import ComponentLabel, PrimeContext


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

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """[(b, mu)] for each run of mu > 1 equal fractional slopes from position b + 1."""
        slopes = self.slopes
        runs = [(slopes.index(nu), slopes.count(nu)) for nu in dict.fromkeys(slopes) if nu.denominator != 1]
        return [(b, mu) for b, mu in runs if mu > 1]


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
        # package data through this module's loader, as pkgutil.get_data reads it, without
        # importing pkgutil (and with it typing) into a request
        data = __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "data", "eta8_seed_N3.json"))
        return seed_from_json(json.loads(data))
    raise ExternalDataError(
        f"no bundled weight-2 slope data for N = {N}; supply a seed file"
    )


# ---------------------------------------------------------------------------
# extra multiplicities

def seed_multiplicities(seed: Weight2SeedSlopes) -> tuple[int, ...]:
    """m_i(2) for i = 1..d: the up-down pattern s(mu - 1) of each block (b, mu).

    Entry i is positive exactly when the i-th and (i+1)-st seed slopes agree
    and lie strictly between 0 and 1.
    """
    out = [0] * seed.dimension
    for b, mu in seed.blocks:
        out[b : b + mu - 1] = [min(j, mu - j) for j in range(1, mu)]
    return tuple(out)


def modified_coefficient(ctx: PrimeContext, i: int, seed: Weight2SeedSlopes) -> GhostCoefficient:
    """Divisor of the i-th modified coefficient (p = 2, N odd): classical zeros, then eta_8 zeros."""
    return GhostSeries(ctx, ComponentLabel(0, 2), seed).coefficient(i)  # p and N are checked before i


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
