import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostseries.errors import ComponentMismatch, PrecisionError
from ghostseries.weightspace import (
    INFINITY,
    PRIME_BOUND,
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
    component_of,
    is_prime,
    leg_rule,
    padic_valuation,
    pair_valuation,
    weight_component,
    weight_valuation,
)
from oracle import is_prime_reference


def test_prime_context_validation():
    PrimeContext(2, 1)
    PrimeContext(59, 42)
    with pytest.raises(ValueError):
        PrimeContext(4, 1)
    with pytest.raises(ValueError):
        PrimeContext(3, 6)
    with pytest.raises(ValueError):
        PrimeContext(5, 0)


def test_is_prime_matches_trial_division_below_20000():
    assert [n for n in range(-3, 20_000) if is_prime(n)] == [n for n in range(-3, 20_000) if is_prime_reference(n)]


@settings(deadline=None)
@given(st.integers(min_value=-10, max_value=10**12))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == is_prime_reference(n)


def test_is_prime_is_a_proof_below_its_bound():
    assert not is_prime(3215031751)  # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(318665857834031151167461)  # ... to every base through 37; base 41 catches it
    assert is_prime(2**61 - 1)
    # a factor below 42 is found at any size; without one, a number at the bound is refused
    assert not is_prime(41 * PRIME_BOUND) and not is_prime(2**200)
    for n in (PRIME_BOUND, 2**89 - 1):  # a strong pseudoprime to every base, and a prime
        with pytest.raises(ValueError) as err:
            is_prime(n)
        assert str(err.value) == f"cannot prove {n} prime: primality is decided only below 3317044064679887385961981"
    with pytest.raises(ValueError, match=f"^p = {3 * PRIME_BOUND} is not prime$"):
        PrimeContext(3 * PRIME_BOUND)
    # a witness proves n composite at any size, with no factor below 42
    M = (10**20 + 39) * (10**20 + 129)
    assert not is_prime(M) and not is_prime((2**89 - 1) * (2**61 - 1))
    with pytest.raises(ValueError, match=f"^p = {M} is not prime$"):
        PrimeContext(M)


def test_component_of():
    assert component_of(2, PrimeContext(5)) == ComponentLabel(2, 5)
    assert component_of(6, PrimeContext(5)) == ComponentLabel(2, 5)
    assert component_of(14, PrimeContext(2)) == ComponentLabel(0, 2)
    assert component_of(4, PrimeContext(7)) == ComponentLabel(4, 7)
    with pytest.raises(ValueError):
        component_of(3, PrimeContext(5))
    with pytest.raises(ValueError):
        ComponentLabel(1, 5)


def test_weight_point_validation():
    with pytest.raises(ValueError):
        Classical(3)
    with pytest.raises(ValueError):
        EtaEight(1)
    with pytest.raises(ValueError):
        CharClassical(2, 1)
    with pytest.raises(ValueError):
        Annulus(1, Fraction(1, 2))  # odd center
    with pytest.raises(ValueError):
        Annulus(0, Fraction(2))  # integral radius
    with pytest.raises(ValueError):
        Annulus(0, Fraction(-1, 2))
    with pytest.raises(ValueError):
        ExplicitW(4, 0)


def test_classical_pair_valuation_examples():
    ctx2 = PrimeContext(2, 1)
    assert pair_valuation(Classical(14), Classical(26), ctx2) == 4  # 2 + v_2(12)
    assert pair_valuation(Classical(14), Classical(14), ctx2) is INFINITY
    # odd-p rule 1 + v_p(k - k'), with the binomial-expansion oracle
    ctx3 = PrimeContext(3, 1)
    assert pair_valuation(Classical(2), Classical(20), ctx3) == 3
    oracle = padic_valuation((1 + 3) ** 18 - 1, 3)
    assert pair_valuation(Classical(2), Classical(20), ctx3) == oracle
    with pytest.raises(ComponentMismatch):
        pair_valuation(Classical(2), Classical(4), PrimeContext(5))


def test_pair_valuation_examples():
    ctx2 = PrimeContext(2, 1)
    assert pair_valuation(Annulus(0, Fraction(5, 2)), Classical(14), ctx2) == Fraction(5, 2)
    assert pair_valuation(Classical(0), EtaEight(2), ctx2) == 1
    ctx5 = PrimeContext(5, 1)
    assert pair_valuation(CharClassical(2, 2), Classical(6), ctx5) == Fraction(1, 4)


def test_char_valuation_cyclotomic_oracle():
    # v_5(zeta_5 - 6^4) = v_5(Phi_5(6^4)) / 4: all four conjugate legs are equal
    c = 6 ** 4
    phi = c ** 4 + c ** 3 + c ** 2 + c + 1
    oracle = Fraction(padic_valuation(phi, 5), 4)
    assert pair_valuation(CharClassical(2, 2), Classical(6), PrimeContext(5)) == oracle


def test_char_valuation_higher_conductor():
    # conductor p^3: chi(gamma) is a primitive p^2-th root, v = 1/(p(p-1))
    assert pair_valuation(CharClassical(2, 3), Classical(6), PrimeContext(5)) == Fraction(1, 20)


def test_eta8_pair_valuations():
    ctx = PrimeContext(2, 3)
    assert pair_valuation(EtaEight(2), EtaEight(3), ctx) == 2  # 2 + v_2(1)
    assert pair_valuation(EtaEight(2), EtaEight(6), ctx) == 4  # 2 + v_2(4)
    assert pair_valuation(EtaEight(5), EtaEight(5), ctx) is INFINITY
    assert pair_valuation(EtaEight(4), Classical(12), ctx) == 1
    # the coordinate of z^k eta_8 is -5^k - 1, independently of the sign
    w2 = (-(5 ** 2) - 1)
    assert padic_valuation(w2, 2) == 1
    with pytest.raises(ValueError):
        pair_valuation(EtaEight(2), Classical(2), PrimeContext(3))


def test_zero_location_bounds():
    # classical zeros satisfy v_p(w_k) >= 1 (odd p) and v_2(w_k) >= 3
    for k in range(2, 200, 2):
        assert weight_valuation(Classical(k), PrimeContext(2)) >= 3
        assert weight_valuation(Classical(k), PrimeContext(5)) >= 1
    assert weight_valuation(EtaEight(7), PrimeContext(2)) == 1


def test_explicit_w_valuations():
    ctx = PrimeContext(2, 1)
    w14 = pow(5, 14, 2 ** 30) - 1
    a = ExplicitW(w14 % 2 ** 30, 30)
    # distance to the zero at 26 equals the abstract rule
    assert pair_valuation(a, Classical(26), ctx) == 4
    # the weight *is* the zero at 14: no finite precision can resolve it
    with pytest.raises(PrecisionError):
        pair_valuation(a, Classical(14), ctx)
    with pytest.raises(ValueError):
        pair_valuation(ExplicitW(3, 10), Classical(2), ctx)  # outside the disc


def test_explicit_w_component_required_for_odd_p():
    ctx = PrimeContext(5, 1)
    with pytest.raises(ValueError):
        weight_component(ExplicitW(5, 4), ctx)
    assert weight_component(ExplicitW(5, 4, residue=2), ctx) == ComponentLabel(2, 5)


def test_explicit_w_generator_convention_is_irrelevant():
    # the same abstract weight in two coordinate conventions, equal legs
    ctx = PrimeContext(3, 1)
    for gen in (4, 7, 16):  # 1+3, 1+2*3, (1+3)^2
        w0 = (pow(gen, 10, 3 ** 25) - 1) % 3 ** 25
        a = ExplicitW(w0, 25, residue=0, generator=gen)
        for z in (4, 16, 28):
            assert pair_valuation(a, Classical(z), ctx) == pair_valuation(Classical(10), Classical(z), ctx)
    for gen in (10, 0):  # 0 is refused as 1 is, not read as "no generator given"
        with pytest.raises(ValueError):
            pair_valuation(ExplicitW(12, 10, residue=0, generator=gen), Classical(4), ctx)


def _w_coordinate(kind, k, gen, mod):
    """w_z mod p^m: gen^k - 1 for a classical zero, -gen^k - 1 for an eta_8 zero."""
    return ((pow(gen, k, mod) if kind is Classical else -pow(gen, k, mod)) - 1) % mod


@pytest.mark.parametrize("p, generators", [(2, (5, 13)), (3, (4, 16)), (5, (6, 11)), (7, (8, 15)), (13, (14, 27))])
def test_explicit_w_legs_match_w_coordinates(p, generators):
    rng = random.Random(p)
    kinds = (Classical, EtaEight) if p == 2 else (Classical,)
    zeros = [(kind, k) for kind in kinds for k in range(2, 120, 2)]
    ctx = PrimeContext(p)
    for m in range(1, 31):
        mod = p ** m
        for gen in generators:
            explicit = (None, gen) if gen == generators[0] else (gen,)
            # w0 near a zero, at a random distance p^j (j = m: on it), from either kind at p = 2
            weights = []
            for _ in range(3):
                kind, k0 = rng.choice(zeros)
                w_z = _w_coordinate(kind, k0, gen, mod)
                weights.append((w_z + p ** rng.randrange(1, m + 1) * rng.randrange(1, p)) % mod)
            for w0 in weights:
                for given in explicit:
                    kappa = ExplicitW(w0, m, residue=0, generator=given)
                    rule = leg_rule(kappa, ctx)
                    for kind, k in zeros:
                        diff = (w0 - _w_coordinate(kind, k, gen, mod)) % mod  # v_p(w0 - w_z) unless 0
                        if diff == 0:
                            with pytest.raises(PrecisionError) as err:
                                rule(kind, k)
                            assert str(err.value) == (
                                f"w-value known mod {p}^{m} only: v_{p}(w - w_z) >= {m} "
                                f"is not determined (zero at k = {k})"
                            )
                        else:
                            leg = rule(kind, k)
                            assert leg == padic_valuation(diff, p) and type(leg) is int, (m, gen, w0, kind, k)
    if p == 2:
        # w known mod 2: no leg is determined; mod 4: only those against the other kind
        for w0 in (0, 2):
            with pytest.raises(PrecisionError):
                leg_rule(ExplicitW(w0, 1), ctx)(Classical, 2)
            with pytest.raises(PrecisionError):
                leg_rule(ExplicitW(w0, 1), ctx)(EtaEight, 2)
        assert leg_rule(ExplicitW(0, 2), ctx)(EtaEight, 2) == 1
        assert leg_rule(ExplicitW(2, 2), ctx)(Classical, 2) == 1
        with pytest.raises(PrecisionError):
            leg_rule(ExplicitW(0, 2), ctx)(Classical, 4)
        with pytest.raises(PrecisionError):
            leg_rule(ExplicitW(2, 2), ctx)(EtaEight, 4)


def _random_weights(rng, ctx, size):
    """Random mutually comparable weight points on one component."""
    out = []
    for _ in range(size):
        if ctx.p == 2 and rng.random() < 0.4:
            out.append(EtaEight(rng.randrange(2, 40)))
        else:
            step = max(ctx.p - 1, 2)
            out.append(Classical(step * rng.randrange(-20, 21)))
    return out


def test_symmetry_and_ultrametric_property():
    rng = random.Random(20260810)
    checked = 0
    while checked < 1000:
        p = rng.choice([2, 2, 3, 5, 7])
        ctx = PrimeContext(p, 1)
        a, b, c = _random_weights(rng, ctx, 3)
        vab = pair_valuation(a, b, ctx)
        vba = pair_valuation(b, a, ctx)
        assert vab == vba or (vab is INFINITY and vba is INFINITY)
        triple = sorted(
            [vab, pair_valuation(a, c, ctx), pair_valuation(b, c, ctx)],
            key=lambda v: (v is INFINITY, v if v is not INFINITY else 0),
        )
        assert triple[0] == triple[1] or (triple[0] is INFINITY and triple[1] is INFINITY)
        checked += 1


def test_weight_valuation_cases():
    ctx = PrimeContext(2, 1)
    assert weight_valuation(Classical(0), ctx) is INFINITY
    assert weight_valuation(Classical(14), ctx) == 3
    assert weight_valuation(Annulus(0, Fraction(5, 2)), ctx) == Fraction(5, 2)
    assert weight_valuation(Annulus(14, Fraction(7, 2)), ctx) == 3  # center wins
    with pytest.raises(PrecisionError):
        weight_valuation(ExplicitW(0, 10), ctx)


def test_explicit_w_valuation_is_the_valuation_of_its_residue():
    # the reference reads the residue alone: v_p(w) = v_p(w0 mod p^m), which
    # the precision leaves undetermined when that residue is 0
    cases = 0
    for p in (2, 3, 5, 7):
        e = 2 if p == 2 else 1
        generators = (None, *(1 + p**e * u for u in (1, 1 + p, 1 + 2 * p)))
        w0s = [p * j for j in range(-10, 30)] + [p**i * u for i in range(2, 15) for u in (1, -1, 2, 1 + p)]
        for m in range(1, 13):
            for w0 in w0s:
                rep = w0 % p**m
                for gen in generators:
                    kappa = ExplicitW(w0, m, residue=0, generator=gen)
                    if rep == 0:
                        with pytest.raises(PrecisionError):
                            weight_valuation(kappa, PrimeContext(p))
                    else:
                        assert weight_valuation(kappa, PrimeContext(p)) == padic_valuation(rep, p), (p, w0, m, gen)
                    cases += 1
    assert cases == 4 * 12 * 92 * 4


@pytest.mark.parametrize("x", [0, -7, 10**30, Fraction(7, 2)])
def test_infinity_compares_above_every_finite_value(x):
    assert (INFINITY < x, INFINITY <= x, INFINITY > x, INFINITY >= x, INFINITY == x) == (False, False, True, True, False)
    assert (x < INFINITY, x <= INFINITY, x > INFINITY, x >= INFINITY, x == INFINITY) == (True, True, False, False, False)


def test_infinity_against_itself():
    assert (INFINITY < INFINITY, INFINITY <= INFINITY, INFINITY > INFINITY, INFINITY >= INFINITY) == (False, True, False, True)
    assert INFINITY == INFINITY and not INFINITY != INFINITY
    assert repr(INFINITY) == "+Infinity"


NOT_A_WEIGHT = object()


@pytest.mark.parametrize(
    "call, error, text",
    [
        pytest.param(lambda: padic_valuation(0, 3), ValueError, "v_p(0) is infinite; handle zero before calling", id="v_p(0)"),
        pytest.param(lambda: ComponentLabel(6, 5), ValueError, "residue 6 out of range mod 4", id="residue"),
        pytest.param(lambda: CharClassical(3, 2), ValueError, "character weight k = 3 must be even", id="odd-char-k"),
        pytest.param(
            lambda: weight_component(NOT_A_WEIGHT, PrimeContext(3)),
            TypeError,
            f"not a weight point: {NOT_A_WEIGHT!r}",
            id="component-of-object",
        ),
        pytest.param(
            lambda: leg_rule(NOT_A_WEIGHT, PrimeContext(3)), TypeError, f"not a weight point: {NOT_A_WEIGHT!r}", id="leg-of-object"
        ),
        pytest.param(
            lambda: pair_valuation(Classical(4), Annulus(0, Fraction(1, 2)), PrimeContext(3)),
            TypeError,
            "coefficient zeros are Classical or EtaEight points, not Annulus(center=0, v=Fraction(1, 2))",
            id="annulus-zero",
        ),
        pytest.param(
            lambda: pair_valuation(Classical(4), EtaEight(2), PrimeContext(3)),
            ValueError,
            "eta_8 zeros exist only for p = 2",
            id="eta8-zero-at-odd-p",
        ),
        pytest.param(
            lambda: weight_valuation(ExplicitW(3, 5), PrimeContext(2)),
            ValueError,
            "w0 = 3 is not in the open unit disc",
            id="w0-off-the-disc",
        ),
        pytest.param(
            lambda: leg_rule(ExplicitW(4, 5, generator=3), PrimeContext(2)),
            ValueError,
            "3 does not generate 1 + 4Z_2: need v_2(gen - 1) = 2",
            id="generator-at-p=2",
        ),
        pytest.param(
            lambda: leg_rule(ExplicitW(3, 4, residue=0, generator=10), PrimeContext(3)),
            ValueError,
            "10 does not generate 1 + 3Z_3: need v_3(gen - 1) = 1",
            id="generator-at-odd-p",
        ),
    ],
)
def test_refusals(call, error, text):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == text
