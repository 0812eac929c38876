"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.
"""

import math
import random
import time
from fractions import Fraction

from ghostseries.boundary import ap_check, boundary_polygon, halo_profile, scan_burn_in, ap_parameters
from ghostseries.cli import main as cli_main
from ghostseries.dims import dim_cusp_eta8, gamma0_invariants, eta8_weight2_excess
from ghostseries.modified import (
    Weight2SeedSlopes,
    bundled_seed,
    modified_coefficient,
    seed_multiplicities,
)
from ghostseries.polygon import (
    classical_ghost_slopes,
    ghost_slopes,
    lower_hull,
)
from ghostseries.series import coefficient_divisor
from ghostseries.weightspace import (
    INFINITY,
    Annulus,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
    is_prime,
    padic_valuation,
    pair_valuation,
)
from oracle import coefficient_valuation, delta_divisor, modified_boundary_slopes, modified_multiplicity

CTX21 = PrimeContext(2, 1)
EPS2 = ComponentLabel(0, 2)


def _report(number: int, budget: float, started: float, text: str) -> None:
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {number} overran its {budget}s budget: {elapsed:.1f}s"
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.2f}s) — {text}")


def test_criterion_1_printed_coefficients():
    started = time.time()
    expected = {
        1: {14: 1},
        2: {20: 1, 22: 1, 26: 1},
        3: {26: 1, 28: 1, 30: 1, 32: 1, 34: 1, 38: 1},
        4: {32: 1, 34: 1, 36: 1, 38: 2, 40: 1, 42: 1, 44: 1, 46: 1, 50: 1},
    }
    for i, want in expected.items():
        got = {z.k: m for z, m in coefficient_divisor(CTX21, EPS2, i).zeros.items()}
        assert got == want, f"coefficient {i}"
    _report(1, 1.0, started, "printed divisors for i = 1..4 match exactly")


def test_criterion_2_closed_form_zero_sets():
    started = time.time()
    for i in range(1, 201):
        zeros = {z.k for z in coefficient_divisor(CTX21, EPS2, i).zeros}
        assert zeros == set(range(6 * i + 8, 12 * i - 1, 2)) | {12 * i + 2}, i
        dd = delta_divisor(CTX21, EPS2, i)
        assert {z.k for z in dd.zeros} == set(range(8 * i + 4, 12 * i - 1, 2)) | {12 * i + 2}, i
        assert {z.k for z in dd.poles} == set(range(6 * i + 2, 8 * i - 1, 2)), i
        assert set(dd.zeros.values()) <= {1} and set(dd.poles.values()) <= {1}, i
        assert dd.lam == i
    _report(2, 10.0, started, "zero sets, ratio divisors and lam(Delta_i) = i for i <= 200")


def _factorial_increment(k: int, i: int) -> int:
    num = 4 ** i * math.factorial(-k + 12 * i + 2) * math.factorial(-k + 6 * i)
    den = math.factorial(-k + 8 * i + 2) * math.factorial(-k + 8 * i - 2) * (-k + 12 * i)
    return padic_valuation(num, 2) - padic_valuation(den, 2)


def test_criterion_3_factorial_formula_slopes():
    started = time.time()
    for k in (0, -2, -14):
        closed = [Fraction(_factorial_increment(k, i)) for i in range(1, 31)]
        kappa = Classical(k)
        values = [coefficient_valuation(coefficient_divisor(CTX21, EPS2, i), kappa) for i in range(1, 31)]
        increments = [values[0]] + [values[i] - values[i - 1] for i in range(1, 30)]
        assert [Fraction(v) for v in increments] == closed, k
        assert all(b >= a for a, b in zip(closed, closed[1:])), k
        assert list(ghost_slopes(CTX21, kappa, 30).slopes) == closed, k
    assert ghost_slopes(CTX21, Classical(0), 3).slopes == (3, 7, 13)
    _report(3, 10.0, started, "independent factorial oracle at k = 0, -2, -14; first slopes 3, 7, 13")


def test_criterion_4_low_valuation_slopes_are_iv():
    started = time.time()
    for v in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        slopes = ghost_slopes(CTX21, Annulus(0, v), 30)
        assert slopes.slopes == tuple(i * v for i in range(1, 31)), v
        assert slopes.certified_count == 30
    _report(4, 10.0, started, "first 30 slopes equal i*v for v in {1/4, 1/2, 3/2, 5/2}")


def test_criterion_5_arithmetic_progressions():
    started = time.time()
    for (p, N) in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        ctx = PrimeContext(p, N)
        n_ap, delta = ap_parameters(ctx)
        slopes = boundary_polygon(ctx, ComponentLabel(0, p), 320).slopes
        assert len(slopes) >= 300 and slopes.certified_count == 320
        burn = scan_burn_in(slopes, n_ap, delta, 100)
        assert burn is not None and burn <= 100, (p, N)
        report = ap_check(slopes, n_ap, delta, burn)
        assert report.verified, (p, N)
    count = 0
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        for N in range(1, 43):
            if N % p == 0:
                continue
            n_ap, _ = ap_parameters(PrimeContext(p, N))
            assert n_ap == p * (p - 1) * (p + 1) * gamma0_invariants(N).index // 24
            count += 1
    assert count > 1500
    _report(5, 120.0, started, "interleaving AP identity for four (p, N); n_ap integral on the full grid")


def test_criterion_6_figure_reproduction(tmp_path):
    started = time.time()
    # halos centered at 0: slope_i(v) = i*v on every interval inside (0, 3),
    # checked on the emitted CSV itself
    code = cli_main(
        [
            "halo", "--p", "2", "--N", "1", "--center", "0",
            "--interval", "0", "--interval", "1", "--interval", "2",
            "--count", "20", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    for r in (0, 1, 2):
        lines = (tmp_path / f"halo_c0_r{r}.csv").read_text().strip().splitlines()
        assert lines[0] == "v," + ",".join(f"s{t}" for t in range(1, 21))
        for line in lines[1:]:
            cells = [Fraction(c) for c in line.split(",")]
            v, slopes = cells[0], cells[1:]
            assert r < v < r + 1
            assert slopes == [i * v for i in range(1, 21)], (r, v)
    # centered at 62: the multiplicity-6 line at slope 30 (v above the
    # emergence threshold 14), and NP(G_62) itself in full mode
    for r in (14, 20):
        profile = halo_profile(CTX21, 62, r, samples=3, n=20)
        for _, slopes in profile.rows:
            assert list(slopes.slopes).count(Fraction(30)) == 6, r
    full = classical_ghost_slopes(CTX21, 62, "full")
    assert list(full.slopes).count(Fraction(30)) == 6
    _report(6, 30.0, started, "halo rows i*v near the center; slope 30 with multiplicity 6 at k = 62")


def test_criterion_7_modified_series_fixtures():
    started = time.time()
    assert dim_cusp_eta8(3, 2, 1) == 2
    seed = bundled_seed(3)
    assert seed == Weight2SeedSlopes(3, (Fraction(1, 2), Fraction(1, 2)))
    assert seed_multiplicities(seed) == (1, 0)
    assert dim_cusp_eta8(3, 3, -1) == 6 and dim_cusp_eta8(3, 4, 1) == 10
    assert modified_multiplicity(3, 1, 2, seed) == 1
    assert modified_multiplicity(3, 5, 3, seed) == 1
    assert modified_multiplicity(3, 9, 4, seed) == 1
    ctx = PrimeContext(2, 3)
    assert dict(modified_coefficient(ctx, 1, seed).extra) == {EtaEight(2): 1}
    assert dict(modified_coefficient(ctx, 5, seed).extra) == {EtaEight(3): 1}
    assert dict(modified_coefficient(ctx, 9, seed).extra) == {EtaEight(4): 1}

    got = modified_boundary_slopes(3, seed, 10)
    want = (Fraction(1, 2), Fraction(1, 2), 1, 1, Fraction(3, 2), Fraction(3, 2), 2, 2, Fraction(5, 2), Fraction(5, 2))
    assert got.slopes == want
    plain = boundary_polygon(ctx, EPS2, 10).slopes
    assert plain.slopes == (0, 1, 1, 1, 1, 2, 2, 2, 2, 3)

    for N in range(3, 100, 2):
        assert eta8_weight2_excess(N) > 0

    seed1 = bundled_seed(1)
    for kappa in (Classical(0), Classical(-2), Annulus(0, Fraction(5, 2)), Annulus(0, Fraction(1, 2))):
        unmodified = ghost_slopes(CTX21, kappa, 8)
        modified = ghost_slopes(CTX21, kappa, 8, seed=seed1)
        assert unmodified == modified
    _report(7, 30.0, started, "eta_8 fixtures, modified/plain boundary lists, positivity, N = 1 degeneration")


def _hull_supported(points, poly) -> None:
    finite = [(i, Fraction(v)) for i, v in points if v is not INFINITY]
    assert set(poly.vertices) <= set(finite)
    assert poly.vertices[0] == finite[0]
    assert poly.vertices[-1][0] == finite[-1][0]
    slopes = [s for s, _ in poly.slope_pairs()]
    assert all(b > a for a, b in zip(slopes, slopes[1:]))
    for (x1, y1), (x2, y2) in zip(poly.vertices, poly.vertices[1:]):
        for x, y in finite:
            assert (y - y1) * (x2 - x1) >= (x - x1) * (y2 - y1)


def test_criterion_8_property_suites():
    started = time.time()
    rng = random.Random(97)

    # hull vs brute-force support oracle, 1000 random instances
    for _ in range(1000):
        size = rng.randrange(1, 30)
        points = [(0, Fraction(0))]
        for i in range(1, size + 1):
            if rng.random() < 0.1:
                points.append((i, INFINITY))
            else:
                points.append((i, Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))))
        _hull_supported(points, lower_hull(points))

    # symmetry + ultrametric, 1000 random triples
    for _ in range(1000):
        p = rng.choice([2, 2, 3, 5, 7])
        ctx = PrimeContext(p, 1)
        pts = []
        for _ in range(3):
            if p == 2 and rng.random() < 0.4:
                pts.append(EtaEight(rng.randrange(2, 40)))
            else:
                step = max(p - 1, 2)
                pts.append(Classical(step * rng.randrange(-20, 21)))
        a, b, c = pts
        vab, vba = pair_valuation(a, b, ctx), pair_valuation(b, a, ctx)
        assert vab == vba or (vab is INFINITY and vba is INFINITY)
        legs = sorted(
            [vab, pair_valuation(a, c, ctx), pair_valuation(b, c, ctx)],
            key=lambda v: (v is INFINITY, v if v is not INFINITY else 0),
        )
        assert legs[0] == legs[1] or (legs[0] is INFINITY and legs[1] is INFINITY)

    # 50 matched weights: generator-free rules vs fixed-generator w-values
    matched = 0
    for p, gen in [(2, 13), (3, 4), (5, 6), (7, 8), (11, 12)]:
        ctx = PrimeContext(p, 1)
        for k in range(0, -20, -2):
            w0 = (pow(gen, k, p ** 50) - 1) % p ** 50
            residue = None if p == 2 else k % (p - 1)
            abstract = ghost_slopes(ctx, Classical(k), 4)
            explicit = ghost_slopes(ctx, ExplicitW(w0, 50, residue=residue, generator=gen), 4)
            assert abstract.slopes == explicit.slopes, (p, k)
            matched += 1
    assert matched == 50

    # determinism and the local-constancy restatements
    v = Fraction(1, 2)
    first = ghost_slopes(CTX21, Annulus(0, v), 12)
    assert first == ghost_slopes(CTX21, Annulus(0, v), 12)
    assert first.slopes == ghost_slopes(CTX21, Annulus(62, v), 12).slopes
    ctx5 = PrimeContext(5, 1)
    a5 = ghost_slopes(ctx5, Annulus(0, v), 12)
    b5 = ghost_slopes(ctx5, Annulus(4 * 17, v), 12)
    assert a5.slopes == b5.slopes
    _report(8, 60.0, started, "hull oracle, ultrametric/symmetry, 50 matched weights, constancy")
