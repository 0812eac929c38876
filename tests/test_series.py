from fractions import Fraction

import pytest

from ghostseries.dims import gamma0_invariants
from ghostseries.modified import bundled_seed, modified_coefficient
from ghostseries.polygon import coefficient_valuation
from ghostseries.series import (
    GhostSeries,
    coefficient_divisor,
    delta_divisor,
    lam_deltas,
    lam_values,
    multiplicity,
    updown,
    updown_padded,
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
        lams = lam_values(ctx, eps, 60)
        deltas = lam_deltas(ctx, eps, 60)
        for i in range(1, 61):
            assert lams[i] == coefficient_divisor(ctx, eps, i).lam
            assert deltas[i] == delta_divisor(ctx, eps, i).lam


def test_p3_delta_degrees_are_exactly_2i():
    deltas = lam_deltas(PrimeContext(3, 1), ComponentLabel(0, 3), 100)
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
                deltas = lam_deltas(ctx, ComponentLabel(res, p), 100)
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
        lams = lam_values(PrimeContext(p, N), ComponentLabel(0, p), 200)
        ratios = [Fraction(lams[i], i) for i in range(1, 201)]
        tail = ratios[30:]
        assert all(b >= a for a, b in zip(tail, tail[1:]))
        assert ratios[-1] > ratios[30]


def test_coefficient_divisor_rejects_bad_index():
    with pytest.raises(ValueError):
        coefficient_divisor(CTX21, EPS2, 0)
    with pytest.raises(ValueError):
        delta_divisor(CTX21, EPS2, 0)


@pytest.mark.parametrize(
    "ctx, kappa, modified",
    [
        (CTX21, Classical(14), False),  # a zero of g_1: infinite legs
        (CTX21, Annulus(0, Fraction(5, 2)), False),
        (PrimeContext(7, 1), CharClassical(4, 2), False),
        (CTX21, ExplicitW((pow(5, -2, 2**40) - 1) % 2**40, 40), False),
        (PrimeContext(2, 3), EtaEight(3), True),  # a zero of the modified g_5
    ],
)
def test_zero_table_matches_divisor_oracle(ctx, kappa, modified):
    D = 60
    eps = weight_component(kappa, ctx)
    seed = bundled_seed(ctx.N) if modified else None
    series = GhostSeries(ctx, eps, seed)
    if modified:
        oracle = [modified_coefficient(ctx, i, seed) for i in range(1, D + 1)]
    else:
        oracle = [coefficient_divisor(ctx, eps, i) for i in range(1, D + 1)]

    def leg(z):
        return pair_valuation(kappa, z, ctx)

    want = [0] + [coefficient_valuation(coef, kappa) for coef in oracle]
    degrees = [0] + [coef.lam for coef in oracle]
    for upto in range(D + 1):  # every truncation, so the clipping at upto is covered
        assert series.values(upto, leg) == want[: upto + 1]
        assert series.values(upto) == degrees[: upto + 1]
    if kappa in (Classical(14), EtaEight(3)):
        assert INFINITY in want

    rows = list(series.rows(D))
    assert [list(row.items()) for row in rows] == [list(coef.zeros.items()) for coef in oracle]
