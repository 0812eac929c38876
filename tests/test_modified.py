import json
import sys
from fractions import Fraction

import pytest

from ghostseries.errors import ExternalDataError
from ghostseries.modified import (
    Weight2SeedSlopes,
    bundled_seed,
    load_seed,
    modified_coefficient,
    regularity_check_p2,
    seed_from_json,
    seed_multiplicities,
)
from ghostseries.polygon import ghost_slopes
from ghostseries.series import GhostSeries
from ghostseries.weightspace import Annulus, Classical, ComponentLabel, EtaEight, ExplicitW, PrimeContext, leg_rule
import oracle
from oracle import modified_boundary_slopes, modified_multiplicity

HALF = Fraction(1, 2)
CTX23 = PrimeContext(2, 3)
EPS2 = ComponentLabel(0, 2)


def seed3():
    return Weight2SeedSlopes(3, (HALF, HALF))


def test_seed_validation():
    seed = seed3()
    assert seed.dimension == 2
    with pytest.raises(ExternalDataError):
        Weight2SeedSlopes(3, (HALF,))  # wrong length
    with pytest.raises(ExternalDataError):
        Weight2SeedSlopes(3, (Fraction(1, 3), Fraction(1, 3)))  # not symmetric
    with pytest.raises(ExternalDataError):
        Weight2SeedSlopes(3, (Fraction(3, 4), Fraction(1, 4)))  # not sorted
    with pytest.raises(ValueError):
        Weight2SeedSlopes(2, ())  # even level
    # the level is refused by the eta_8 dimension, before any slope is read
    for N in (4, 0, -3):
        with pytest.raises(ValueError, match=f"^tame level N = {N} must be odd and positive$"):
            Weight2SeedSlopes(N, ("not a slope",))


def test_seed_refuses_negative_slopes():
    with pytest.raises(ExternalDataError) as err:
        Weight2SeedSlopes(3, (Fraction(-1), Fraction(2)))  # symmetric and sorted, but negative
    assert str(err.value) == "seed slopes must be nonnegative"


def test_bundled_and_file_seeds(tmp_path):
    assert bundled_seed(3) == seed3()
    assert bundled_seed(1).slopes == ()
    with pytest.raises(ExternalDataError):
        bundled_seed(7)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({
        "N": 3,
        "weight2_slopes": [{"num": 1, "den": 2}, {"num": 1, "den": 2}],
    }))
    assert load_seed(path) == seed3()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"N": 3}))
    with pytest.raises(ExternalDataError):
        load_seed(bad)


@pytest.mark.parametrize(
    "obj",
    [
        {"N": 3, "weight2_slopes": [{"num": 1.9, "den": 2}, {"num": 1, "den": 2}]},
        {"N": 3.7, "weight2_slopes": [{"num": 1, "den": 2}, {"num": 1, "den": 2}]},
        {"N": 3, "weight2_slopes": [{"num": 1, "den": 2}, {"num": True, "den": 2}]},
        {"N": True, "weight2_slopes": []},
    ],
)
def test_seed_refuses_inexact_entries(obj):
    # int() would truncate 1.9 to 1 and 3.7 to 3, loading the N = 3 seed {1/2, 1/2}
    with pytest.raises(ExternalDataError, match="malformed seed file: expected an integer, got "):
        seed_from_json(obj)


def test_seed_multiplicities_examples():
    # each seed's fractional blocks (b, mu): mu > 1 equal slopes from position b + 1
    assert seed_multiplicities(seed3()) == (1, 0)
    assert seed3().blocks == [(0, 2)]
    assert seed_multiplicities(Weight2SeedSlopes(1, ())) == ()
    # two fractional blocks (dim 4 happens at N = 5): mu = 2, beta = 1
    # contributes s(1, 0) = (1, 0, ...) and mu = 2, beta = 3 contributes
    # s(1, 2) = (0, 0, 1, 0, ...)
    thirds = Weight2SeedSlopes(5, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)))
    assert seed_multiplicities(thirds) == (1, 0, 1, 0)
    assert thirds.blocks == [(0, 2), (2, 2)]
    # integer slopes never contribute
    whole = Weight2SeedSlopes(3, (Fraction(0), Fraction(1)))
    assert seed_multiplicities(whole) == (0, 0)
    assert whole.blocks == []
    # blocks of three (N = 7): s(2) = (1, 1) after 0 and after 3 zeros
    triples = Weight2SeedSlopes(7, (Fraction(1, 3),) * 3 + (Fraction(2, 3),) * 3)
    assert seed_multiplicities(triples) == (1, 1, 0, 1, 1, 0)
    assert triples.blocks == [(0, 3), (3, 3)]


def test_positivity_criterion():
    # m_i(2) > 0 iff the i-th and (i+1)-st seed slopes agree in (0, 1)
    thirds = Weight2SeedSlopes(5, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)))
    for seed in (seed3(), thirds, Weight2SeedSlopes(3, (Fraction(0), Fraction(1)))):
        mults = seed_multiplicities(seed)
        s = seed.slopes
        for i in range(1, len(s) + 1):
            expected = (
                i < len(s)
                and s[i - 1] == s[i]
                and 0 < s[i - 1] < 1
            )
            assert (mults[i - 1] > 0) == expected


def test_modified_multiplicity_reflection():
    seed = seed3()
    assert modified_multiplicity(3, 5, 3, seed) == 1  # d_3 = 6
    assert modified_multiplicity(3, 9, 4, seed) == 1  # d_4 = 10
    assert modified_multiplicity(3, 2, 3, seed) == 0
    assert modified_multiplicity(3, 1, 2, seed) == 1
    assert modified_multiplicity(3, 2, 2, seed) == 0
    with pytest.raises(ValueError):
        modified_multiplicity(3, 1, 1, seed)
    with pytest.raises(ValueError):
        modified_multiplicity(5, 1, 2, seed)


def _divisor_or_error(build, ctx, i, seed):
    """The zeros of a modified coefficient, all of them, base and extra, in order; or the error text."""
    try:
        coef = build(ctx, i, seed)
    except ValueError as exc:
        return str(exc)
    return list(coef.zeros.items()), list(coef.base.zeros.items()), list(coef.extra.items())


def test_modified_coefficient_divisors(monkeypatch):
    seed = seed3()
    c1 = modified_coefficient(CTX23, 1, seed)
    assert dict(c1.extra) == {EtaEight(2): 1}
    assert c1.lam == c1.base.lam + 1
    c2 = modified_coefficient(CTX23, 2, seed)
    assert not c2.extra
    c5 = modified_coefficient(CTX23, 5, seed)
    assert dict(c5.extra) == {EtaEight(3): 1}
    c9 = modified_coefficient(CTX23, 9, seed)
    assert dict(c9.extra) == {EtaEight(4): 1}
    with pytest.raises(ValueError):
        modified_coefficient(PrimeContext(3, 1), 1, seed)
    # the reads equal the reference item by item, error texts included (i = 0,
    # p = 3, a seed of another N), with every zero table of the package switched
    # off while the reference runs
    thirds = Weight2SeedSlopes(5, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)))
    whole = Weight2SeedSlopes(3, (Fraction(0), Fraction(1)))
    triples = Weight2SeedSlopes(7, (Fraction(1, 3),) * 3 + (Fraction(2, 3),) * 3)
    cases = [(PrimeContext(2, s.N), i, s) for s in (bundled_seed(3), thirds, whole, triples) for i in range(121)]
    cases += [(PrimeContext(3, 1), 1, seed), (PrimeContext(2, 5), 1, seed)]
    got = [_divisor_or_error(modified_coefficient, *case) for case in cases]
    assert {type(g) for g in got} == {tuple, str}
    lams = GhostSeries(CTX23, EPS2).values(40)
    values = GhostSeries(CTX23, EPS2).values(40, leg_rule(Classical(-2), CTX23))

    def no_table(*args):
        raise AssertionError("a zero table was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("ghostseries") and hasattr(module, "GhostSeries"):
            monkeypatch.setattr(module, "GhostSeries", no_table)
    with pytest.raises(AssertionError, match="zero table"):
        modified_coefficient(CTX23, 1, seed)
    assert [_divisor_or_error(oracle.modified_coefficient, *case) for case in cases] == got
    for i in range(1, 41):
        assert oracle.delta_divisor(CTX23, EPS2, i).lam == lams[i] - lams[i - 1]
        assert oracle.coefficient_valuation(oracle.coefficient_divisor(CTX23, EPS2, i), Classical(-2)) == values[i]


def test_level_one_extra_is_empty():
    seed = bundled_seed(1)
    ctx = PrimeContext(2, 1)
    for i in (1, 2, 7, 20):
        assert not modified_coefficient(ctx, i, seed).extra


def test_extra_degree_growth():
    modified = GhostSeries(CTX23, EPS2, seed3()).lam_upto(200)
    extra = [m - b for m, b in zip(modified, GhostSeries(CTX23, EPS2).values(200))]
    # one extra zero per weight: indices d_k - 1 = 4k - 7, k = 2, 3, 4, ...
    assert sum(extra) == 50
    assert all((extra[i] == 1) == (i % 4 == 1) for i in range(1, 201))


def test_degree_array_matches_divisors():
    lams = GhostSeries(CTX23, EPS2, seed3()).lam_upto(40)
    for i in range(1, 41):
        assert lams[i] == modified_coefficient(CTX23, i, seed3()).lam


def test_modified_boundary_slopes_fixture():
    got = modified_boundary_slopes(3, seed3(), 10)
    assert got.slopes == (HALF, HALF, 1, 1, Fraction(3, 2), Fraction(3, 2), 2, 2, Fraction(5, 2), Fraction(5, 2))
    plain = modified_boundary_slopes(1, bundled_seed(1), 6)
    assert plain.slopes == (1, 2, 3, 4, 5, 6)


def test_modified_annulus_scaling():
    seed = seed3()
    boundary = modified_boundary_slopes(3, seed, 12)
    for v in (Fraction(1, 3), HALF, Fraction(3, 4)):
        slopes = ghost_slopes(CTX23, Annulus(0, v), 12, seed=seed)
        assert [s / v for s in slopes.slopes] == list(boundary.slopes)


def test_n1_pipelines_agree():
    ctx = PrimeContext(2, 1)
    seed = bundled_seed(1)
    for kappa in (Classical(0), Classical(-2), Annulus(0, Fraction(5, 2))):
        assert ghost_slopes(ctx, kappa, 8).slopes == ghost_slopes(ctx, kappa, 8, seed=seed).slopes


def test_whole_slope_seed_is_the_plain_series():
    # a seed without a block of equal fractional slopes adds no eta_8 zero,
    # so the valuation floor stays at 3 and every slope is the plain one
    whole = Weight2SeedSlopes(3, (Fraction(0), Fraction(1)))
    assert GhostSeries(CTX23, EPS2, whole).floor_cap == 3
    assert GhostSeries(CTX23, EPS2, seed3()).floor_cap == 1
    for kappa in (Annulus(0, Fraction(5, 2)), ExplicitW(20, 8)):
        plain = ghost_slopes(CTX23, kappa, 8, cap=12)
        assert ghost_slopes(CTX23, kappa, 8, seed=whole, cap=12) == plain
    assert GhostSeries(CTX23, EPS2, whole).lam_upto(60) == GhostSeries(CTX23, EPS2).values(60)


def test_regularity_check():
    # S_2 and S_4 at Gamma_0(3) are zero-dimensional: vacuously regular
    assert regularity_check_p2(3, [], []) is True
    # level 5: dim S_4 = 1 and the true T_2 slope there is 2 -> irregular
    assert regularity_check_p2(5, [], [2]) is False
    assert regularity_check_p2(5, [], [1]) is True
    with pytest.raises(ExternalDataError):
        regularity_check_p2(3, None, [])
    with pytest.raises(ValueError):
        regularity_check_p2(3, [0], [])  # wrong length
