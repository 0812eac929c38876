import random
from fractions import Fraction
from math import lcm
from operator import sub

import pytest

from ghostseries.boundary import (
    ap_check,
    boundary_period,
    boundary_polygon,
    halo_profile,
    scan_burn_in,
    ap_parameters,
)
from ghostseries.errors import GhostError
from ghostseries.modified import Weight2SeedSlopes, bundled_seed
from ghostseries.polygon import ghost_slopes
from ghostseries.series import GhostSeries
from ghostseries.weightspace import (
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    ExplicitW,
    PrimeContext,
    is_prime,
    leg_rule,
    weight_component,
)
from oracle import boundary_slopes_reference, slope_list


def test_boundary_p2_level1_is_1_2_3():
    bp = boundary_polygon(PrimeContext(2, 1), ComponentLabel(0, 2), 12)
    assert bp.slopes.slopes == tuple(Fraction(i) for i in range(1, 13))
    # every point is a vertex: lam(g_i) = i(i+1)/2
    assert bp.polygon.vertices[:5] == ((0, 0), (1, 1), (2, 3), (3, 6), (4, 10))


def test_boundary_p2_level3_fixture():
    bp = boundary_polygon(PrimeContext(2, 3), ComponentLabel(0, 2), 10)
    assert bp.slopes.slopes == (0, 1, 1, 1, 1, 2, 2, 2, 2, 3)


def test_boundary_p3_eventual_increments():
    bp = boundary_polygon(PrimeContext(3, 1), ComponentLabel(0, 3), 40)
    diffs = [b - a for a, b in zip(bp.slopes.slopes, bp.slopes.slopes[1:])]
    assert diffs[5:] == [2] * len(diffs[5:])


def _components(primes, levels):
    for p in primes:
        for N in levels:
            if N % p:
                for residue in range(0, max(p - 1, 1), 2):
                    yield PrimeContext(p, N), ComponentLabel(residue, p)


def test_boundary_slopes_match_the_direct_hull():
    cases = 0
    for ctx, eps in _components((2, 3, 5, 7, 11, 13), range(1, 13)):
        for n in (50, 300, 1500):
            assert boundary_polygon(ctx, eps, n).slopes == boundary_slopes_reference(ctx, eps, n), (ctx, eps, n)
            cases += 1
    assert cases == 582
    ctx, eps, seed = PrimeContext(2, 3), ComponentLabel(0, 2), bundled_seed(3)
    assert boundary_polygon(ctx, eps, 2000, seed=seed).slopes == boundary_slopes_reference(ctx, eps, 2000, seed=seed)


def test_boundary_period_pins_the_degree_increments():
    components = 0
    for ctx, eps in _components((2, 3, 5, 7, 11, 13), range(1, 41)):
        conjectured = ap_parameters(ctx)
        series = GhostSeries(ctx, eps)
        A = max(a for a, _, _ in series.progressions)
        L = lcm(*(s for _, s, _ in series.progressions if s))
        n, delta, b = boundary_period(series, *conjectured)
        assert (n, delta) == conjectured, (ctx, eps)
        lams = series.values(A + L + 3 * n)
        d = [0, *map(sub, lams[1:], lams)]
        g = list(map(sub, d[n:], d))  # g[x] = lam(Delta_{x+n}) - lam(Delta_x)
        assert set(g[b : A + L + 2 * n + 1]) == {delta}, (ctx, eps)
        assert b == 1 or g[b - 1] != delta, (ctx, eps)
        components += 1
    assert components == 623


def test_degree_bound_holds_past_the_last_mark():
    # lam(Delta_x) >= alpha*x - beta for x >= A, with alpha the progression ratio
    # delta/n_ap (1/mu_0 at p = 2); eta_8 families add marks but no growth.  Each
    # mark counts from its own start, so A stays small: the last start reaches 7,983
    seeds = (
        bundled_seed(3),
        Weight2SeedSlopes(5, (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))),
        Weight2SeedSlopes(3, (Fraction(0), Fraction(1))),
    )
    cases = [(ctx, eps, None) for ctx, eps in _components((2, 3, 5, 7, 11, 13), range(1, 41))]
    cases += [(PrimeContext(2, seed.N), ComponentLabel(0, 2), seed) for seed in seeds]
    starts, betas = [], []
    for ctx, eps, seed in cases:
        series = GhostSeries(ctx, eps, seed)
        A, alpha, beta = series.degree_bound()
        assert alpha == Fraction(*ap_parameters(ctx)[::-1]), (ctx, eps)
        q = lcm(alpha.denominator, beta.denominator)  # compare in ints
        a, b = int(alpha * q), int(beta * q)
        last = max(start + (not step) for start, step, _ in series.progressions)  # check from A to past it
        lams = series.lam_upto(last + 3000)
        assert all((lams[x] - lams[x - 1]) * q >= a * x - b for x in range(A, last + 3001)), (ctx, eps, seed)
        starts.append(A)
        betas.append(beta)
    assert len(betas) == 626
    assert max(starts[:623]) <= 75
    assert max(betas[:623]) <= 24  # the components
    assert max(betas[623:]) < 30  # the seeds: each eta_8 family adds about 4


def test_boundary_period_falls_back_to_the_common_period():
    for ctx, eps in _components((3, 5, 7), (1, 2, 5)):
        series = GhostSeries(ctx, eps)
        L = lcm(*(s for _, s, _ in series.progressions if s))
        n_ap, delta_ap = ap_parameters(ctx)
        n, delta, b = boundary_period(series, n_ap, delta_ap + 1)
        assert n == L
        lams = series.values(b + 4 * L)
        d = [0, *map(sub, lams[1:], lams)]
        g = list(map(sub, d[L:], d))
        assert set(g[b : b + 3 * L]) == {delta}, (ctx, eps)
        assert b == 1 or g[b - 1] != delta, (ctx, eps)


def test_boundary_base_stays_short():
    bp = boundary_polygon(PrimeContext(5, 1), ComponentLabel(0, 5), 100_000, cap=10**7)
    assert len(bp.slopes) == bp.slopes.certified_count == 100_000
    assert bp.polygon.vertices[-1][0] + 1 < 1000  # the base hull reads D + 1 degree points


def test_boundary_polygon_records_its_shear():
    for ctx, (q, delta) in ((PrimeContext(5, 1), (5, 8)), (PrimeContext(3, 7), (8, 2)), (PrimeContext(2, 3), (4, 1))):
        eps = ComponentLabel(0, ctx.p)
        assert boundary_polygon(ctx, eps, 2 * q + 1).shear is None  # no shorter base: certified directly
        bp = boundary_polygon(ctx, eps, 2000)
        assert bp.shear[:3] == boundary_period(GhostSeries(ctx, eps), q, delta)
        start, s = bp.shear[3], bp.slopes.slopes
        assert start < 2000 and all(s[j] == s[j - q] + delta for j in range(start, 2000))
        assert repr(bp).endswith(f"shear={bp.shear!r})")


def test_ap_parameters():
    assert ap_parameters(PrimeContext(3, 1)) == (1, 2)
    assert ap_parameters(PrimeContext(5, 1)) == (5, 8)
    assert ap_parameters(PrimeContext(7, 1)) == (14, 18)
    assert ap_parameters(PrimeContext(3, 2)) == (3, 2)
    # p = 2: (mu_0(N), 1)
    assert ap_parameters(PrimeContext(2, 1)) == (1, 1)
    assert ap_parameters(PrimeContext(2, 3)) == (4, 1)
    assert ap_parameters(PrimeContext(2, 15)) == (24, 1)


def test_ap_count_integrality_grid():
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        for N in range(1, 43):
            if N % p == 0:
                continue
            n_ap, delta = ap_parameters(PrimeContext(p, N))
            assert n_ap >= 1 and delta == (p - 1) ** 2 // 2


def test_ap_check_toy_sequences():
    toy = [Fraction(2 * j) for j in range(30)]
    report = ap_check(toy, 1, 2, 0)
    assert report.verified and report.first_violation is None
    bad = list(toy)
    bad[17] += 1
    report = ap_check(bad, 1, 2, 0)
    assert not report.verified and report.first_violation == 16
    with pytest.raises(GhostError):
        ap_check(toy[:3], 5, 8, 0)


def _first_violation_reference(slopes, n_ap, delta, burn_in):
    """ap_check's scan as one Fraction addition per slope."""
    for j in range(burn_in, len(slopes) - n_ap):
        if slopes[j + n_ap] != slopes[j] + delta:
            return j
    return None


def _burn_in_reference(slopes, n_ap, delta, max_burn_in):
    """scan_burn_in as one Fraction addition per slope, from the end."""
    last_bad = -1
    for j in range(len(slopes) - n_ap - 1, -1, -1):
        if slopes[j + n_ap] != slopes[j] + delta:
            last_bad = j
            break
    return last_bad + 1 if last_bad + 1 <= max_burn_in else None


def test_ap_check_matches_fraction_reference():
    rng = random.Random(20)
    cases = []
    for _ in range(400):
        n_ap = rng.randint(1, 6)
        delta = Fraction(rng.randint(0, 12), rng.choice([1, 1, 2, 3, 5]))
        head = sorted(Fraction(rng.randint(0, 40), rng.randint(1, 7)) for _ in range(n_ap))
        slopes = list(head)
        for j in range(n_ap, rng.randint(n_ap, 80)):
            slopes.append(slopes[j - n_ap] + delta)
        for _ in range(rng.choice([0, 0, 1, 2, 3])):  # plant violations
            if slopes:
                j = rng.randrange(len(slopes))
                slopes[j] += rng.choice([Fraction(1, 3), Fraction(-1, 2), 1, delta or 1])
        cases.append((sorted(slopes) if rng.random() < 0.5 else slopes, n_ap, delta))
    for p in (3, 5, 7):
        ctx = PrimeContext(p, 1)
        for eps in range(0, p - 1, 2):
            slopes = boundary_polygon(ctx, ComponentLabel(eps, p), 300).slopes
            n_ap, delta = ap_parameters(ctx)
            cases += [(slopes, n_ap, delta), (slopes, n_ap, delta + 1), (slopes, 1, delta), (slopes, 2 * n_ap, 2 * delta)]
    violations = 0
    for slopes, n_ap, delta in cases:
        for max_burn_in in (0, 5, len(slopes)):
            assert scan_burn_in(slopes, n_ap, delta, max_burn_in) == _burn_in_reference(
                slopes, n_ap, delta, max_burn_in
            )
        for burn_in in range(0, len(slopes) - n_ap, 7):
            expected = _first_violation_reference(slopes, n_ap, delta, burn_in)
            report = ap_check(slopes, n_ap, delta, burn_in)
            assert report.first_violation == expected, (list(slopes), n_ap, delta, burn_in)
            violations += expected is not None
    assert violations > 1000  # the planted and shifted cases do fail


def test_ap_structure_odd_primes():
    for (p, N, eps) in [(3, 1, 0), (5, 1, 0), (5, 1, 2), (7, 1, 0), (3, 2, 0)]:
        ctx = PrimeContext(p, N)
        n_ap, delta = ap_parameters(ctx)
        slopes = boundary_polygon(ctx, ComponentLabel(eps, p), 320).slopes
        burn = scan_burn_in(slopes, n_ap, delta, 100)
        assert burn is not None and burn <= 100, (p, N, eps)
        assert ap_check(slopes, n_ap, delta, burn).verified


def _sub_floor_weights():
    """(ctx, weight, n) over the grid of weights whose centre leg is below the floor."""
    for p in (3, 5, 7, 11):
        for N in (1, 2, 4, 5, 7):
            if N % p:
                for kappa in (CharClassical(2, 2), CharClassical(4, 3), Annulus(0, "1/2"), Annulus(2, "2/3")):
                    yield PrimeContext(p, N), kappa, 60
    for N in (1, 3, 5, 7, 9, 11):
        for kappa in (Annulus(0, "1/2"), Annulus(0, "5/2"), Annulus(4, "7/4")):
            yield PrimeContext(2, N), kappa, 200
    rng = random.Random(20160715)
    for draw in range(28):
        w0 = 2 ** rng.choice((1, 2)) * (2 * rng.randrange(2**36) + 1)  # v_2(w) = 1 or 2
        yield PrimeContext(2, (1, 3, 5, 7)[draw % 4]), ExplicitW(w0, 40), 150


def test_boundary_equals_scaled_annulus_slopes():
    # over 0 < v < 1 every leg collapses to v: slopes are the boundary times v
    for p in (3, 5, 7):
        for N in range(1, 7):
            if N % p == 0:
                continue
            ctx = PrimeContext(p, N)
            boundary = boundary_polygon(ctx, ComponentLabel(0, p), 50).slopes
            annulus = ghost_slopes(ctx, Annulus(0, Fraction(1, 2)), 50)
            assert [2 * s for s in annulus.slopes] == list(boundary.slopes), (p, N)
    # below the floor, the least valuation of a zero, every leg is the centre leg c
    # by the strict ultrametric inequality: the slopes are c times the boundary's
    cases = 0
    for ctx, kappa, n in _sub_floor_weights():
        eps = weight_component(kappa, ctx)
        c = leg_rule(kappa, ctx)(Classical, 0)
        assert c < GhostSeries(ctx, eps).floor_cap, (ctx, kappa)
        assert ghost_slopes(ctx, kappa, n).slopes == tuple(c * s for s in boundary_polygon(ctx, eps, n).slopes)
        cases += 1
    assert cases == 118
    # the modified N = 3 series has eta_8 zeros at v_2(w) = 1, its floor: the rule
    # holds at v = 1/2 and not at v = 5/2
    ctx, eps, seed = PrimeContext(2, 3), ComponentLabel(0, 2), bundled_seed(3)
    assert GhostSeries(ctx, eps, seed).floor_cap == 1
    boundary = boundary_polygon(ctx, eps, 60, seed=seed).slopes
    for v, agree in ((Fraction(1, 2), True), (Fraction(5, 2), False)):
        slopes = ghost_slopes(ctx, Annulus(0, v), 60, seed=seed).slopes
        assert (slopes == tuple(v * s for s in boundary)) is agree, v


def test_halo_center_zero_slopes_linear_in_v():
    ctx = PrimeContext(2, 1)
    for r in (0, 1, 2):
        profile = halo_profile(ctx, 0, r, samples=3, n=20)
        for v, slopes in profile.rows:
            assert slopes.slopes == tuple(i * v for i in range(1, 21))
        assert profile.fits == tuple((Fraction(0), Fraction(i)) for i in range(1, 21))


def test_halo_center_62_slope_30_multiplicity_6():
    ctx = PrimeContext(2, 1)
    profile = halo_profile(ctx, 62, 20, samples=3, n=20)
    for _, slopes in profile.rows:
        assert list(slopes.slopes).count(Fraction(30)) == 6


def test_halo_rows_affine_fits():
    ctx = PrimeContext(2, 1)
    for r in range(5):
        profile = halo_profile(ctx, 62, r, samples=3, n=12)
        for t, (a, b) in enumerate(profile.fits):
            for v, slopes in profile.rows:
                assert slopes[t] == a + b * v


def test_halo_local_constancy_across_centers():
    ctx = PrimeContext(2, 1)
    a = ghost_slopes(ctx, Annulus(0, Fraction(1, 2)), 15)
    b = ghost_slopes(ctx, Annulus(62, Fraction(1, 2)), 15)
    assert a.slopes == b.slopes


def test_halo_validation():
    ctx = PrimeContext(2, 1)
    with pytest.raises(ValueError):
        halo_profile(ctx, 0, -1)
    with pytest.raises(ValueError):
        halo_profile(ctx, 0, 0, samples=0)


def fake_halo_rows(ctx, kappa, n, *, seed=None, cap=None):
    """Rows whose one slope is 1, 2 and 4 at v = 1/4, 1/2 and 3/4: not affine in v."""
    return slope_list((Fraction({Fraction(1, 4): 1, Fraction(1, 2): 2, Fraction(3, 4): 4}[kappa.v]),))


def test_halo_refuses_rows_not_affine_in_v(monkeypatch):
    monkeypatch.setattr("ghostseries.boundary.ghost_slopes", fake_halo_rows)
    with pytest.raises(GhostError) as info:
        halo_profile(PrimeContext(2), 0, 0, samples=3, n=1)
    assert str(info.value) == "slope 1 is not affine in v on (0, 1) at center 0"
