import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostseries.dims import (
    _dim,
    _prime_factors,
    dim_cusp_eta8,
    dim_cusp_gamma0,
    dim_pnew,
    gamma0_invariants,
    eta8_weight2_excess,
)
from ghostseries.weightspace import PrimeContext, is_prime
from oracle import dim_cusp_eta8_reference, dim_cusp_genus_form, gamma0_reference, prime_factors_reference


def test_invariants_small_levels():
    one = gamma0_invariants(1)
    assert (one.index, one.nu2, one.nu3, one.cusps, one.genus) == (1, 1, 1, 1, 0)
    two = gamma0_invariants(2)
    assert (two.index, two.nu2, two.nu3, two.cusps, two.genus) == (3, 1, 0, 2, 0)
    # X_0(11) is an elliptic curve
    assert gamma0_invariants(11).genus == 1
    # a few more published genera
    assert gamma0_invariants(37).genus == 2
    assert gamma0_invariants(59).genus == 5


def test_prime_factors_match_trial_division_below_30000():
    for M in range(1, 30_000):
        assert _prime_factors(M) == prime_factors_reference(M), M


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_prime_factors_match_trial_division(M):
    assert _prime_factors(M) == prime_factors_reference(M)


def test_prime_factors_split_large_levels():
    # factors near 10^9 are found by rho, prime powers above 41 too
    p, q = 10**9 + 7, 10**9 + 9
    assert _prime_factors(p * q) == [(p, 1), (q, 1)]
    assert _prime_factors(8 * 3 * p**2 * q) == [(2, 3), (3, 1), (p, 2), (q, 1)]
    assert _prime_factors(43**7 * 47) == [(43, 7), (47, 1)]
    assert _prime_factors(43**100) == [(43, 100)]
    assert _prime_factors((10**12 + 39) * (10**12 + 61)) == [(10**12 + 39, 1), (10**12 + 61, 1)]
    assert gamma0_invariants(p * q).index == (p + 1) * (q + 1)
    # a probable prime above the primality bound cannot be a proved factor
    with pytest.raises(ValueError, match=r"^cannot prove 618970019642690137449562111 prime: "):
        _prime_factors(3 * (2**89 - 1))


def test_a_huge_level_that_rho_does_not_split_is_refused_fast():
    # rho's steps per constant shrink as (128/b)^2 past 128 bits: 3,375 of them on this 1,128-bit cofactor
    M = (2**521 - 1) * (2**607 - 1)
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        _prime_factors(M)
    assert time.perf_counter() - started < 2.0
    assert str(refused.value) == f"cannot factor the level {M}: Pollard's rho splits no factor off the composite {M}"


def test_genus_integrality_identity():
    # mu0 = 12(g-1) + 3 nu2 + 4 nu3 + 6 nu_inf, exact for every level
    for M in range(1, 10_001):
        inv = gamma0_invariants(M)
        assert inv.index == 12 * (inv.genus - 1) + 3 * inv.nu2 + 4 * inv.nu3 + 6 * inv.cusps


def test_invariants_and_dimensions_match_the_counting_oracle():
    # the cusps as the divisor sum of phi(gcd(d, M/d)), nu2 and nu3 as root
    # counts, the index by squarefree divisors, the genus by Riemann-Hurwitz
    for M in range(1, 1001):
        inv = gamma0_invariants(M)
        assert (inv.index, inv.nu2, inv.nu3, inv.cusps, inv.genus) == gamma0_reference(M), M
    # the genus form of dim S_k, floor(k/4) and floor(k/3) in place of the Cohen-Oesterle table
    for M in range(1, 301):
        for k in range(2, 101, 2):
            assert dim_cusp_gamma0(M, k) == dim_cusp_genus_form(M, k), (M, k)


def test_dim_cusp_fixtures():
    assert dim_cusp_gamma0(1, 12) == 1  # the discriminant form
    assert dim_cusp_gamma0(1, 14) == 0
    assert dim_cusp_gamma0(2, 14) == 2
    assert dim_cusp_gamma0(1, 2) == 0
    assert dim_cusp_gamma0(11, 2) == 1
    assert dim_cusp_gamma0(1, 0) == 0
    assert dim_cusp_gamma0(1, -8) == 0
    with pytest.raises(ValueError):
        dim_cusp_gamma0(1, 11)


def test_dim_pnew_fixtures():
    ctx = PrimeContext(2, 1)
    assert dim_pnew(ctx, 14) == 2
    assert dim_pnew(ctx, 38) == 4
    assert dim_pnew(ctx, 62) == 6  # the multiplicity seen at slope 30


def test_dim_pnew_nonnegative_grid():
    # the comparison grid: even k <= 400, N <= 42, p <= 199
    primes = [p for p in range(2, 200) if is_prime(p)]
    for p in primes:
        for N in range(1, 43):
            if N % p == 0:
                continue
            ctx = PrimeContext(p, N)
            for k in range(2, 401, 2):
                assert dim_pnew(ctx, k) >= 0


def test_dimension_monotone_for_composite_levels():
    # monotone in k for M >= 2; M = 1 genuinely dips (S_12 -> S_14 is 1 -> 0)
    for M in range(2, 51):
        dims = [dim_cusp_gamma0(M, k) for k in range(2, 201, 2)]
        assert all(b >= a for a, b in zip(dims, dims[1:])), M
    assert dim_cusp_gamma0(1, 12) > dim_cusp_gamma0(1, 14)


def test_level_one_tail_bound():
    # the enumeration cutoff relies on d_k' >= d_k - ceil(nu2/2 + 2nu3/3)
    dims = [dim_cusp_gamma0(1, k) for k in range(2, 401, 2)]
    for j, d in enumerate(dims):
        assert min(dims[j:]) >= d - 2


def test_eta8_dimensions():
    assert dim_cusp_eta8(3, 2, 1) == 2
    assert dim_cusp_eta8(3, 3, -1) == 6
    assert dim_cusp_eta8(3, 4, 1) == 10
    assert dim_cusp_eta8(1, 2, 1) == 0


@pytest.mark.parametrize(
    "args, text",
    [
        ((2, 2, 1), "tame level N = 2 must be odd and positive"),
        ((-3, 2, 1), "tame level N = -3 must be odd and positive"),
        ((3, 1, -1), "weight k = 1 must be at least 2"),
        ((3, 2, 2), "sign must be +1 or -1"),
        ((3, 4, -1), "sign -1 does not match the parity of k = 4"),
        ((3, 3, 1), "sign +1 does not match the parity of k = 3"),
        # the checks run in order: the level first, then the weight, then the sign
        ((2, 1, 2), "tame level N = 2 must be odd and positive"),
        ((3, 1, 2), "weight k = 1 must be at least 2"),
    ],
)
def test_eta8_refusals(args, text):
    with pytest.raises(ValueError) as err:
        dim_cusp_eta8(*args)
    assert str(err.value) == text


def test_level_below_one_is_refused():
    with pytest.raises(ValueError) as err:
        gamma0_invariants(0)
    assert str(err.value) == "level M = 0 must be positive"


@pytest.mark.parametrize(
    "args, twelve",
    [
        ((4, 1, 1, 0, 0, True), -3),  # (k - 1) index - 6 lam = 3 - 6
        ((4, 2, 0, 0, 0, True), 6),  # not a multiple of 12
    ],
)
def test_an_impossible_count_is_a_broken_formula(args, twelve):
    # no level reaches these counts: the check guards the formula, not the input
    with pytest.raises(AssertionError) as err:
        _dim(*args)
    assert str(err.value) == f"Cohen-Oesterle count 12 dim = {twelve} at k = 4 is not a nonnegative multiple of 12"


def test_eta8_dimensions_match_the_per_call_formula():
    # the package halves the cusps of the cached Gamma_0(8N) record; the
    # reference factors 8N and takes the conductor-8 local factor at 2
    for N in range(1, 600, 2):
        for k in range(2, 80):
            assert dim_cusp_eta8(N, k, 1 if k % 2 == 0 else -1) == dim_cusp_eta8_reference(N, k), (N, k)


def test_eta8_dimension_growth_is_linear():
    # with 8 | level the elliptic corrections vanish: exact linear growth
    for N in (1, 3, 5, 7, 9):
        step = gamma0_invariants(8 * N).index // 12
        dims = [dim_cusp_eta8(N, k, 1 if k % 2 == 0 else -1) for k in range(2, 40)]
        assert all(b - a == step for a, b in zip(dims, dims[1:]))


def test_eta8_weight2_excess():
    assert eta8_weight2_excess(3) > 0
    assert eta8_weight2_excess(5) > 0
    for N in range(3, 100, 2):
        assert eta8_weight2_excess(N) > 0
    with pytest.raises(ValueError):
        eta8_weight2_excess(1)
    with pytest.raises(ValueError):
        eta8_weight2_excess(4)
