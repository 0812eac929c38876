from collections import Counter
from fractions import Fraction
from operator import sub

import pytest

import ghostseries.modified
import ghostseries.series
from ghostseries.dims import dim_pnew, gamma0_invariants
from ghostseries.modified import Weight2SeedSlopes, bundled_seed
from ghostseries.series import GhostSeries
from oracle import (
    _component_dims,
    coefficient_divisor,
    coefficient_valuation,
    delta_divisor,
    modified_coefficient,
    multiplicity,
    updown,
    updown_padded,
    values_reference,
)
from ghostseries.weightspace import (
    INFINITY,
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
    leg_rule,
    pair_valuation,
    weight_component,
)

CTX21 = PrimeContext(2, 1)
EPS2 = ComponentLabel(0, 2)


def test_updown_patterns():
    assert updown(5).terms == (1, 2, 3, 2, 1)
    assert updown(3).terms == (1, 2, 1)
    assert updown(4).terms == (1, 2, 2, 1)
    assert updown(0).terms == ()
    assert updown(-3).terms == ()
    # s(5, 3) = (0, 0, 0, 1, 2, 3, 2, 1, 0, ...)
    padded = [updown_padded(5, 3, j) for j in range(1, 10)]
    assert padded == [0, 0, 0, 1, 2, 3, 2, 1, 0]


def test_updown_palindrome_unimodal():
    for ell in range(1, 1001):
        terms = updown(ell).terms
        assert terms == terms[::-1]
        peak = max(range(ell), key=lambda j: terms[j])
        assert all(terms[j] <= terms[j + 1] for j in range(peak))
        assert all(terms[j] >= terms[j + 1] for j in range(peak, ell - 1))
        assert max(terms) == (ell + 1) // 2


def test_multiplicity_fixtures():
    assert multiplicity(CTX21, 4, 38) == 2
    assert multiplicity(CTX21, 1, 14) == 1
    assert multiplicity(CTX21, 1, 20) == 0
    assert multiplicity(CTX21, 0, 14) == 0
    with pytest.raises(ValueError):
        multiplicity(CTX21, 1, 15)


def test_first_coefficients_match_printed_series():
    expected = {
        1: {14: 1},
        2: {20: 1, 22: 1, 26: 1},
        3: {26: 1, 28: 1, 30: 1, 32: 1, 34: 1, 38: 1},
        4: {32: 1, 34: 1, 36: 1, 38: 2, 40: 1, 42: 1, 44: 1, 46: 1, 50: 1},
    }
    for i, zeros in expected.items():
        coef = coefficient_divisor(CTX21, EPS2, i)
        assert {z.k: m for z, m in coef.zeros.items()} == zeros
    assert coefficient_divisor(CTX21, EPS2, 4).lam == 10


def test_zero_set_closed_form():
    # zero set of g_i is {6i+8, ..., 12i-2 even} union {12i+2}
    for i in range(1, 201):
        got = {z.k for z in coefficient_divisor(CTX21, EPS2, i).zeros}
        want = set(range(6 * i + 8, 12 * i - 1, 2)) | {12 * i + 2}
        assert got == want, i


def test_delta_divisor_closed_form():
    for i in (1, 2, 3, 4, 25, 100):
        dd = delta_divisor(CTX21, EPS2, i)
        assert {z.k for z in dd.zeros} == set(range(8 * i + 4, 12 * i - 1, 2)) | {12 * i + 2}
        assert {z.k for z in dd.poles} == set(range(6 * i + 2, 8 * i - 1, 2))
        assert set(dd.zeros.values()) <= {1} and set(dd.poles.values()) <= {1}
        assert dd.lam == i
    d4 = delta_divisor(CTX21, EPS2, 4)
    assert {z.k for z in d4.zeros} == {36, 38, 40, 42, 44, 46, 50}
    assert {z.k for z in d4.poles} == {26, 28, 30}
    d1 = delta_divisor(CTX21, EPS2, 1)
    assert {z.k for z in d1.zeros} == {14} and not d1.poles


def test_lam_arrays_agree_with_divisors():
    for (p, N) in [(2, 1), (2, 3), (3, 1), (5, 2)]:
        ctx = PrimeContext(p, N)
        eps = ComponentLabel(0, p)
        lams = GhostSeries(ctx, eps).values(60)
        deltas = [0, *map(sub, lams[1:], lams)]
        assert min(lams) >= 0
        for i in range(1, 61):
            assert lams[i] == coefficient_divisor(ctx, eps, i).lam
            assert deltas[i] == delta_divisor(ctx, eps, i).lam


def test_p3_delta_degrees_are_exactly_2i():
    lams = GhostSeries(PrimeContext(3, 1), ComponentLabel(0, 3)).values(100)
    deltas = [0, *map(sub, lams[1:], lams)]
    assert all(deltas[i] == 2 * i for i in range(1, 101))


def test_delta_degree_estimate_bound():
    # lam(Delta_i) tracks c*i/(mu0(p+1)) - c*i/(mu0 p(p+1)) with c = 12
    # (6 when p = 2), within a uniformly small constant
    worst = Fraction(0)
    for p in (2, 3, 5, 7, 11, 13):
        scale = 6 if p == 2 else 12
        for N in range(1, 11):
            if N % p == 0:
                continue
            ctx = PrimeContext(p, N)
            mu0 = gamma0_invariants(N).index
            for res in range(0, max(p - 2, 1), 2):
                lams = GhostSeries(ctx, ComponentLabel(res, p)).values(100)
                deltas = [0, *map(sub, lams[1:], lams)]
                for i in range(1, 101):
                    dev = abs(
                        Fraction(deltas[i])
                        - Fraction(scale * i, mu0 * (p + 1))
                        + Fraction(scale * i, mu0 * p * (p + 1))
                    )
                    worst = max(worst, dev)
    assert worst <= 20


def test_superlinear_degree_growth():
    for (p, N) in [(2, 1), (2, 3), (3, 1), (5, 1)]:
        lams = GhostSeries(PrimeContext(p, N), ComponentLabel(0, p)).values(200)
        assert min(lams) >= 0
        ratios = [Fraction(lams[i], i) for i in range(1, 201)]
        tail = ratios[30:]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert ratios[-1] > ratios[30]


def test_coefficient_divisor_rejects_bad_index():
    with pytest.raises(ValueError):
        coefficient_divisor(CTX21, EPS2, 0)
    with pytest.raises(ValueError):
        delta_divisor(CTX21, EPS2, 0)
    for i in (0, -3):  # the package's read fails as the reference does
        with pytest.raises(ValueError) as want:
            coefficient_divisor(CTX21, EPS2, i)
        with pytest.raises(ValueError) as got:
            ghostseries.series.coefficient_divisor(CTX21, EPS2, i)
        assert str(got.value) == str(want.value)


def test_one_zero_table_per_coefficient_read(monkeypatch):
    builds = []
    build = GhostSeries.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    monkeypatch.setattr(GhostSeries, "__init__", counted)
    for i in (1, 5, 40):
        builds.clear()
        ghostseries.modified.modified_coefficient(PrimeContext(2, 3), i, bundled_seed(3))
        assert len(builds) == 1, i
        builds.clear()
        ghostseries.series.coefficient_divisor(CTX21, EPS2, i)
        assert len(builds) == 1, i
    builds.clear()
    with pytest.raises(ValueError, match="index"):
        ghostseries.series.coefficient_divisor(PrimeContext(3, 1), EPS2, 0)
    assert not builds  # the index is checked before the table, which refuses a component of p = 2 at p = 3


# the first five ids are kept fixed, so their test names stay comparable across versions
@pytest.mark.parametrize(
    "ctx, kappa, seed",
    [
        pytest.param(CTX21, Classical(14), None, id="ctx0-kappa0-False"),  # a zero of g_1: infinite legs
        pytest.param(CTX21, Annulus(0, Fraction(5, 2)), None, id="ctx1-kappa1-False"),
        pytest.param(PrimeContext(7, 1), CharClassical(4, 2), None, id="ctx2-kappa2-False"),
        pytest.param(
            CTX21, ExplicitW((pow(5, -2, 2**40) - 1) % 2**40, 40), None, id="ctx3-kappa3-False"
        ),
        # a zero of the modified g_5
        pytest.param(PrimeContext(2, 3), EtaEight(3), bundled_seed(3), id="ctx4-kappa4-True"),
        # two fractional blocks, so two weight-2 tents
        pytest.param(
            PrimeContext(2, 5),
            EtaEight(3),
            Weight2SeedSlopes(5, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))),
            id="N5-two-blocks",
        ),
        # w0 = 2 mod 4: w + 1 = -5^a, beside the eta_8 zeros; then w0 = 0 mod 4 beside the classical ones
        pytest.param(
            PrimeContext(2, 3),
            ExplicitW((-pow(5, -2, 2**40) - 1) % 2**40, 40),
            bundled_seed(3),
            id="explicit-eta8-kind",
        ),
        pytest.param(
            PrimeContext(2, 3),
            ExplicitW((pow(5, -2, 2**40) - 1) % 2**40, 40),
            bundled_seed(3),
            id="explicit-classical-kind-modified",
        ),
        pytest.param(
            PrimeContext(5, 1), ExplicitW((pow(6, -4, 5**20) - 1) % 5**20, 20, residue=0), None, id="explicit-p5"
        ),
        # 14 is a zero of g_1: the legs rise through four levels and stop at 9/2, never +Infinity
        pytest.param(PrimeContext(3, 1), Annulus(14, Fraction(9, 2)), None, id="annulus-on-a-zero"),
    ],
)
def test_zero_table_matches_divisor_oracle(ctx, kappa, seed):
    D = 60
    eps = weight_component(kappa, ctx)
    series = GhostSeries(ctx, eps, seed)
    if seed is not None:
        oracle = [modified_coefficient(ctx, i, seed) for i in range(1, D + 1)]
    else:
        oracle = [coefficient_divisor(ctx, eps, i) for i in range(1, D + 1)]

    def leg(kind, k):
        return pair_valuation(kappa, kind(k), ctx)

    want = [0] + [coefficient_valuation(coef, kappa) for coef in oracle]
    degrees = [0] + [coef.lam for coef in oracle]
    for upto in range(D + 1):  # every truncation, so the clipping at upto is covered
        assert values_reference(series, upto, leg) == want[: upto + 1]
        assert series.values(upto, leg_rule(kappa, ctx)) == want[: upto + 1]
        assert series.values(upto) == degrees[: upto + 1]
    if kappa in (Classical(14), EtaEight(3)):
        assert INFINITY in want

    rows = list(series.rows(D))
    assert [list(row.items()) for row in rows] == [list(coef.zeros.items()) for coef in oracle]


def _oracle_tents(ctx, eps, upto):
    """The tent list from the memoized dimension functions."""
    out = []
    for k, d in _component_dims(ctx, eps, upto):
        if d < upto:
            ell = dim_pnew(ctx, k) - 1
            if ell >= 1:
                out.append((k, d, ell))
    return out


def test_tent_walk_matches_dimension_oracle():
    # N = 7 and 13 have elliptic points (nu2 or nu3 > 0), N = 4 and 9 none
    assert gamma0_invariants(7).nu3 > 0 and gamma0_invariants(13).nu2 > 0
    assert gamma0_invariants(4).nu2 == gamma0_invariants(4).nu3 == 0
    assert gamma0_invariants(9).nu2 == gamma0_invariants(9).nu3 == 0
    weight_two = set()
    for p in (2, 3, 5, 7, 11, 13):
        for N in range(1, 41):
            if N % p == 0:
                continue
            ctx = PrimeContext(p, N)
            for residue in range(0, max(p - 1, 1), 2):
                eps = ComponentLabel(residue, p)
                series = GhostSeries(ctx, eps)
                for upto in (1, 12, 40, 400):
                    tents = list(series.tents(upto))
                    assert tents == _oracle_tents(ctx, eps, upto), (p, N, eps, upto)
                    if tents and tents[0][0] == 2:
                        weight_two.add(N)
                # the package's read of one coefficient equals the reference, dict order included
                for i in (1, 12, 40):
                    got, want = ghostseries.series.coefficient_divisor(ctx, eps, i), coefficient_divisor(ctx, eps, i)
                    assert got == want and list(got.zeros.items()) == list(want.zeros.items()), (p, N, eps, i)
                    assert got.extra == {} and got.base == got  # a plain coefficient has classical zeros only
    assert {4, 7, 9, 13} <= weight_two


@pytest.mark.parametrize(
    "ctx, seed", [(PrimeContext(5, 1), None), (PrimeContext(2, 3), bundled_seed(3))], ids=["p5", "p2-modified"]
)
def test_dimension_calls_do_not_grow_with_upto(monkeypatch, ctx, seed):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # every dimension function the series module calls, dim_cusp_gamma0 and dim_pnew among them
    for name, fn in list(vars(ghostseries.series).items()):
        if callable(fn) and (name.startswith("dim_") or name.endswith("_dim")):
            monkeypatch.setattr(ghostseries.series, name, counted(name, fn))

    def walk(upto):
        calls.clear()
        series = GhostSeries(ctx, ComponentLabel(0, ctx.p), seed)
        n = sum(1 for zero in (Classical, EtaEight) for _ in series.tents(upto, zero))
        return Counter(calls), n

    (small, few), (big, many) = walk(1000), walk(100_000)
    assert small["dim_cusp_gamma0"] and small["dim_pnew"]
    assert small == big
    assert many > 50 * few


def _one(kind, k):
    return 1


def test_degree_array_matches_tent_walk():
    # values(upto) adds whole progressions of tents; the reference takes the
    # per-tent walk with a leg of 1.  p = 1009 (one class of huge ell) runs every component
    # on three levels: N = 7 has nu3 > 0 and N = 13 nu2 > 0
    uptos = (0, 1, 2, 3, 12, 40, 400, 2000)
    seeds = (
        bundled_seed(3),
        Weight2SeedSlopes(5, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))),
        Weight2SeedSlopes(3, (Fraction(0), Fraction(1))),
    )
    cases = [GhostSeries(PrimeContext(2, seed.N), EPS2, seed) for seed in seeds]
    for p in (2, 3, 5, 7, 11, 13, 59, 1009):
        for N in range(1, 41) if p < 1009 else (1, 7, 13):
            if N % p:
                ctx = PrimeContext(p, N)
                cases += [GhostSeries(ctx, ComponentLabel(r, p)) for r in range(0, max(p - 1, 1), 2)]
    for series in cases:
        for upto in uptos:
            assert series.values(upto) == values_reference(series, upto, _one), (series._families, upto)


@pytest.mark.parametrize(
    "ctx, seed, kappas",
    [
        pytest.param(
            PrimeContext(5, 1),
            None,
            (Classical(12), Annulus(0, Fraction(7, 2)), ExplicitW((pow(6, -4, 5**20) - 1) % 5**20, 20, residue=0)),
            id="p5",
        ),
        pytest.param(
            PrimeContext(2, 3),
            bundled_seed(3),
            (Classical(14), Annulus(0, Fraction(5, 2)), ExplicitW((-pow(5, -2, 2**40) - 1) % 2**40, 40)),
            id="p2-modified",
        ),
    ],
)
def test_degree_array_takes_no_tent_walk(monkeypatch, ctx, seed, kappas):
    # the degrees and the valuations at a weight (a zero weight, with
    # infinite legs; an annulus; a w-value) all add progressions
    D = 300
    series = GhostSeries(ctx, ComponentLabel(0, ctx.p), seed)
    small = values_reference(series, D, _one)
    rules = [leg_rule(kappa, ctx) for kappa in kappas]
    want = [values_reference(series, D, rule) for rule in rules]
    assert INFINITY in want[0] and INFINITY not in want[1]

    def no_walk(*args):
        raise AssertionError("the degree array walked the tents")

    monkeypatch.setattr(GhostSeries, "tents", no_walk)
    big = series.values(100_000)
    assert len(big) == 100_001 and big[: D + 1] == small
    assert [series.values(D, rule) for rule in rules] == want
    with pytest.raises(AssertionError, match="walked the tents"):
        values_reference(series, D, _one)
