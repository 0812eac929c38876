import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import accumulate, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostseries.boundary import boundary_polygon
from ghostseries.dims import dim_cusp_gamma0
from ghostseries.errors import CertificationError, PrecisionError
from ghostseries.modified import bundled_seed
from ghostseries.polygon import (
    NewtonPolygon,
    SlopeList,
    _tail_fault,
    certified_slopes,
    classical_ghost_slopes,
    ghost_polygon,
    ghost_slopes,
    lower_hull,
)
from ghostseries.series import GhostSeries, coefficient_divisor
from ghostseries.weightspace import (
    INFINITY,
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
    padic_valuation,
)
from oracle import (
    coefficient_valuation,
    hull_slopes_reference,
    last_start_bound,
    shear_reference,
    slope_list,
    true_classical_slopes,
)

CTX21 = PrimeContext(2, 1)
EPS2 = ComponentLabel(0, 2)


# ---------------------------------------------------------------------------
# hulls

def test_hull_spec_examples():
    poly = lower_hull([(0, 0), (1, 3), (2, 7)])
    assert poly.vertices == ((0, 0), (1, 3), (2, 7))
    assert poly.slopes().slopes == (3, 4)

    poly = lower_hull([(0, 0), (1, INFINITY), (2, 4)])
    assert poly.vertices == ((0, 0), (2, 4))
    assert poly.slopes().slopes == (2, 2)

    poly = lower_hull([(0, 0), (1, 1), (2, 2)])
    assert poly.vertices == ((0, 0), (2, 2))
    assert poly.slopes().slopes == (1, 1)


def test_hull_input_validation():
    with pytest.raises(ValueError):
        lower_hull([])
    with pytest.raises(ValueError):
        lower_hull([(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        lower_hull([(0, 0), (0, 2)])


def _assert_hull_supported(points, poly):
    """Brute-force support check: all points on or above every edge line,
    vertices are input points, slopes strictly increase, extremes kept."""
    finite = [(i, Fraction(v)) for i, v in points if v is not INFINITY]
    assert set(poly.vertices) <= set(finite)
    assert poly.vertices[0] == finite[0]
    assert poly.vertices[-1][0] == finite[-1][0]
    slopes = [s for s, _ in poly.slope_pairs()]
    assert all(b > a for a, b in zip(slopes, slopes[1:]))
    for (x1, y1), (x2, y2) in zip(poly.vertices, poly.vertices[1:]):
        for x, y in finite:
            assert (y - y1) * (x2 - x1) >= (x - x1) * (y2 - y1)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-40, max_value=40, max_denominator=12),
            st.just(INFINITY),
        ),
        min_size=0,
        max_size=29,
    )
)
def test_hull_against_support_oracle(tail):
    points = [(0, Fraction(0))] + list(enumerate(tail, start=1))
    poly = lower_hull(points)
    _assert_hull_supported(points, poly)


def test_hull_oracle_random_cases():
    rng = random.Random(1234)
    for _ in range(1000):
        size = rng.randrange(1, 30)
        points = [(0, Fraction(0))]
        for i in range(1, size + 1):
            if rng.random() < 0.1:
                points.append((i, INFINITY))
            else:
                points.append((i, Fraction(rng.randrange(-60, 61), rng.randrange(1, 13))))
        poly = lower_hull(points)
        _assert_hull_supported(points, poly)
        # slope multiplicities fill the index range of the finite points
        finite_last = max(i for i, v in points if v is not INFINITY)
        assert sum(m for _, m in poly.slope_pairs()) == finite_last


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-60, 60), st.just(INFINITY)), max_size=29), st.integers(2, 12))
def test_int_hull_matches_fraction_hull(tail, den):
    ints = [(0, 0)] + list(enumerate(tail, start=1))
    fracs = [(i, v if v is INFINITY else Fraction(v)) for i, v in ints]
    poly, ref = lower_hull(ints), lower_hull(fracs)
    assert poly.vertices == ref.vertices
    assert poly.slope_pairs() == ref.slope_pairs()
    assert all(type(y) is int for _, y in poly.vertices)
    # the values v/den, given to the hull as the ints v with den
    scaled, ref = lower_hull(ints, den), lower_hull([(i, v if v is INFINITY else v / den) for i, v in fracs])
    assert scaled.vertices == ref.vertices and scaled.slope_pairs() == ref.slope_pairs()
    assert all(type(y) is Fraction for _, y in scaled.vertices)


def test_newton_polygon_rejects_collinear_vertices():
    with pytest.raises(AssertionError, match="increase strictly"):
        NewtonPolygon(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(AssertionError, match="increase strictly"):
        NewtonPolygon(((0, 0), (2, Fraction(1, 2)), (3, Fraction(3, 4))))


@st.composite
def convex_edges(draw):
    """Edges (slope, dx) of a convex polygon: strictly increasing int or Fraction slopes."""
    values = st.integers(-30, 30) if draw(st.booleans()) else st.fractions(-30, 30, max_denominator=12)
    return [(s, draw(st.integers(1, 6))) for s in sorted(set(draw(st.lists(values, max_size=8))))]


@settings(deadline=None)
@given(convex_edges(), st.integers(-20, 20))
def test_hull_reads_follow_the_vertices(edges, y0):
    vertices = [(0, y0)]  # x from 0 on, y an int or a Fraction with the slopes
    for s, dx in edges:
        x, y = vertices[-1]
        vertices.append((x + dx, y + s * dx))
    poly = NewtonPolygon(tuple(vertices))
    pairs = poly.slope_pairs()
    assert pairs == tuple((Fraction(s), dx) for s, dx in edges)
    assert all(type(s) is Fraction for s, _ in pairs)
    flat = tuple(s for s, dx in pairs for _ in range(dx))
    for n in (None, -1, *range(len(flat) + 3)):
        assert poly.slopes(n).slopes == (flat if n is None else flat[: max(n, 0)]), n


def _tail_clears_reference(lam, D, window_end, c, s, i0, y0):
    """The window check in Fraction arithmetic."""
    return all(lam[i] * c > y0 + s * (i - i0) for i in range(D + 1, window_end + 1))


def test_tail_check_is_strict_at_equality():
    # lam[1] * c == y0 + s * (1 - i0): 4/3 == 5/6 + 1/2
    c, s = Fraction(1, 3), Fraction(1, 2)
    assert _tail_fault([0, 4], 0, 1, c, s, 0, Fraction(5, 6)) is not None
    assert _tail_fault([0, 4], 0, 1, c, s, 0, Fraction(4, 6)) is None
    # step * c == s: 3 * 1/2 == 3/2, with the line well below; only the line counts
    c = Fraction(1, 2)
    assert _tail_fault([0, 3], 0, 1, c, Fraction(3, 2), 0, -1) is None
    assert _tail_fault([0, 3], 0, 1, c, Fraction(7, 5), 0, -1) is None


def test_tail_check_matches_fraction_reference():
    rng = random.Random(4321)
    outcomes = set()
    for _ in range(3000):
        D = rng.randrange(0, 6)
        window_end = D + rng.randrange(1, 8)
        lam = [0]
        for _ in range(window_end):
            lam.append(lam[-1] + rng.randrange(0, 6))
        c = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        s = Fraction(rng.randrange(-3, 12), rng.randrange(1, 4))
        i0 = rng.randrange(0, D + 1)
        y0 = rng.choice([rng.randrange(-5, 10), Fraction(rng.randrange(-10, 20), rng.randrange(1, 4))])
        got = _tail_fault(lam, D, window_end, c, s, i0, y0) is None
        assert got == _tail_clears_reference(lam, D, window_end, c, s, i0, y0)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_slope_list_bookkeeping():
    slopes = slope_list((Fraction(1), Fraction(1), Fraction(2)))
    assert slopes.pairs() == ((Fraction(1), 2), (Fraction(2), 1))
    assert len(slopes) == 3 and slopes[2] == 2
    with pytest.raises(AssertionError):
        slope_list((Fraction(2), Fraction(1)))


def test_slope_list_refuses_a_denominator_below_one():
    # (1, -1/2) read as 1/1, 1/-2 would pass the cross-multiplied order check
    for dens in ((1, -2), (0, 1), (-1, -1)):
        with pytest.raises(ValueError, match="positive denominator"):
            SlopeList((1, 1), dens)
    with pytest.raises(ValueError, match="one positive denominator per numerator"):
        SlopeList((1, 2), (1,))


def test_slope_list_stores_tuples():
    # lists are stored as tuples, so the record hashes
    slopes = SlopeList([1, 2], [1, 1])
    assert type(slopes.nums) is tuple and type(slopes.dens) is tuple
    assert slopes == SlopeList((1, 2), (1, 1)) and hash(slopes) == hash(SlopeList((1, 2), (1, 1)))


def test_slope_list_order_check_on_ints():
    # the check cross-multiplies numerators by the positive denominators
    for drop in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(-1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(3, 2))):
        with pytest.raises(AssertionError, match="^slope lists are nondecreasing$"):
            slope_list(drop)
    for rising in ((Fraction(-1, 2), Fraction(0), Fraction(1, 3)), (Fraction(1, 3),) * 4 + (Fraction(2, 5),) * 3, ()):
        assert slope_list(rising).slopes == rising
    sheared = boundary_polygon(PrimeContext(5, 1), ComponentLabel(0, 5), 300_000, cap=10**7)
    assert sheared.shear is not None
    assert slope_list(sheared.slopes.slopes) == sheared.slopes


def _agrees_with(slopes: SlopeList, reference: tuple[Fraction, ...]) -> None:
    """An engine's slope list against its Fraction reference: every read agrees,
    and the record holds only its ints."""
    copied, pickled = copy.copy(slopes), pickle.loads(pickle.dumps(slopes))
    assert len(slopes) == slopes.certified_count == len(reference)
    assert copied == slopes == pickled and hash(copied) == hash(slopes) == hash(pickled)
    assert slopes.pairs() == tuple((s, len(list(run))) for s, run in groupby(reference))
    assert all(type(x) is int for x in slopes.nums + slopes.dens)
    assert slopes.slopes == reference and all(type(s) is Fraction for s in slopes.slopes)
    assert [slopes[j] for j in (0, len(reference) // 2, -1)] == [reference[j] for j in (0, len(reference) // 2, -1)]
    assert slopes == slope_list(reference) and hash(slopes) == hash(slope_list(reference))


def test_int_slope_lists_match_the_fraction_reference():
    # the boundary slopes of every (p, N <= 12) and component with p <= 13, and the modified N = 3 series
    cases = [
        (PrimeContext(p, N), ComponentLabel(residue, p), None)
        for p in (2, 3, 5, 7, 11, 13)
        for N in range(1, 13)
        if N % p
        for residue in range(0, p - 1, 2)
    ] + [(PrimeContext(2, 3), ComponentLabel(0, 2), bundled_seed(3))]
    sheared = 0
    for ctx, eps, seed in cases:
        for n in (50, 300, 1500):
            bp = boundary_polygon(ctx, eps, n, seed=seed)
            if bp.shear is None:
                reference = hull_slopes_reference(bp.polygon, n)
                assert bp.polygon.slopes(n).slopes == reference
            else:
                q, delta, _, end = bp.shear
                reference = shear_reference(hull_slopes_reference(bp.polygon, end), q, delta, n)
                sheared += 1
            _agrees_with(bp.slopes, reference)
    assert len(cases) == 195 and 0 < sheared < 3 * len(cases)
    # every weight kind, at den = 1 and den > 1
    seed, ctx23 = bundled_seed(3), PrimeContext(2, 3)
    weights = [
        (PrimeContext(3, 1), Classical(20), None),
        (PrimeContext(5, 7), Classical(-2), None),
        (PrimeContext(3, 1), Annulus(0, Fraction(5, 2)), None),
        (ctx23, Annulus(0, Fraction(1, 2)), seed),
        (PrimeContext(7, 5), CharClassical(4, 3), None),
        (ctx23, EtaEight(3), seed),
        (CTX21, ExplicitW(12345678, 40), None),
    ]
    for ctx, kappa, seed in weights:
        slopes, poly = ghost_polygon(ctx, kappa, 200, seed=seed)
        assert poly.slopes(200).slopes == hull_slopes_reference(poly, 200)
        _agrees_with(slopes, hull_slopes_reference(poly, 200))


# ---------------------------------------------------------------------------
# coefficient valuations

def test_coefficient_valuation_examples():
    g1 = coefficient_divisor(CTX21, EPS2, 1)
    assert coefficient_valuation(g1, Annulus(0, Fraction(5, 2))) == Fraction(5, 2)
    assert coefficient_valuation(g1, Classical(14)) is INFINITY
    assert coefficient_valuation(g1, Classical(0)) == 3


# ---------------------------------------------------------------------------
# slopes at weights

def test_weight_zero_slopes():
    assert ghost_slopes(CTX21, Classical(0), 3).slopes == (3, 7, 13)


def test_annulus_slopes_scale_linearly():
    sl = ghost_slopes(CTX21, Annulus(0, Fraction(5, 2)), 4)
    assert sl.slopes == (Fraction(5, 2), 5, Fraction(15, 2), 10)
    assert sl.certified_count == 4


def _closed_form_increment(k, i):
    num = 4 ** i * math.factorial(-k + 12 * i + 2) * math.factorial(-k + 6 * i)
    den = math.factorial(-k + 8 * i + 2) * math.factorial(-k + 8 * i - 2) * (-k + 12 * i)
    return padic_valuation(num, 2) - padic_valuation(den, 2)


@pytest.mark.parametrize("k", [0, -2, -14])
def test_negative_weight_slopes_match_factorial_formula(k):
    kappa = Classical(k)
    values = [coefficient_valuation(coefficient_divisor(CTX21, EPS2, i), kappa) for i in range(1, 31)]
    increments = [values[0]] + [values[i] - values[i - 1] for i in range(1, 30)]
    closed = [_closed_form_increment(k, i) for i in range(1, 31)]
    assert [Fraction(c) for c in closed] == [Fraction(v) for v in increments]
    assert all(b >= a for a, b in zip(closed, closed[1:]))
    assert list(ghost_slopes(CTX21, kappa, 30).slopes) == [Fraction(c) for c in closed]


def test_classical_modes():
    assert classical_ghost_slopes(CTX21, 14, "tame").slopes == ()
    full14 = classical_ghost_slopes(CTX21, 14, "full")
    assert full14.slopes == (6, 6)  # both newforms have slope (14-2)/2
    full62 = classical_ghost_slopes(CTX21, 62, "full")
    assert list(full62.slopes).count(Fraction(30)) == 6
    assert len(full62.slopes) == 14
    with pytest.raises(ValueError):
        classical_ghost_slopes(CTX21, 14, "nope")
    with pytest.raises(ValueError):
        classical_ghost_slopes(CTX21, 13, "tame")


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_ghost_slopes_are_the_true_level_one_slopes(p):
    # the conjecture in the regular case: the full classical ghost slopes are
    # the U_p slopes on S_k(Gamma_0(p)), computed from exact Hecke data
    for k in range(4, 81, 2):
        assert list(classical_ghost_slopes(PrimeContext(p), k, "full").slopes) == true_classical_slopes(p, k), k


@pytest.mark.parametrize("k, agree", [(16, False), (18, True), (46, False), (48, True), (74, False), (76, False)])
def test_true_slopes_at_the_irregular_prime_59(k, agree):
    # 59 is the least prime that is not Gamma_0(1)-regular; among the even
    # k <= 80 the ghost slopes miss the true ones exactly at k = 16, 46, 74, 76
    assert (list(classical_ghost_slopes(PrimeContext(59), k, "full").slopes) == true_classical_slopes(59, k)) is agree


def _classical_facts_hold(slopes, d: int, k: int) -> bool:
    """Whether the 2d + d' full classical slopes in weight k, d = dim S_k(Gamma_0(N)),
    hold the p-new block s_{d+1} = ... = s_{d+d'} = (k - 2)/2 and the
    Atkin-Lehner pairs s_i + s_{2d+d'+1-i} = k - 1 for i <= d."""
    s = slopes.slopes
    block = s[d : len(s) - d]
    return all(x == Fraction(k - 2, 2) for x in block) and all(s[i] + s[-1 - i] == k - 1 for i in range(d))


def test_classical_slopes_have_the_p_new_block_and_atkin_lehner_pairs():
    cases, failures = 0, set()
    for p in (2, 3, 5, 7, 11, 13):
        for N in (1, 2, 3, 4, 5, 7, 11):
            if N % p == 0:
                continue
            for k in range(4, 89, 2):
                cases += 1
                slopes = classical_ghost_slopes(PrimeContext(p, N), k, "full")
                if not _classical_facts_hold(slopes, dim_cusp_gamma0(N, k), k):
                    failures.add((p, N, k))
    # the plain p = 2 series fails at every level the modified series exists for
    assert (cases, cases - len(failures)) == (1548, 1376)
    assert failures == {(2, N, k) for N in (3, 5, 7, 11) for k in range(4, 89, 2)}
    seed = bundled_seed(3)
    for k in range(4, 89, 2):
        slopes = classical_ghost_slopes(PrimeContext(2, 3), k, "full", seed=seed)
        assert _classical_facts_hold(slopes, dim_cusp_gamma0(3, k), k), k


def test_slopes_below_m_plus_one_are_locally_constant_in_k():
    # Gouvea-Mazur (Math. Comp. 1992): the slopes below m + 1 agree at weights k and
    # k' with k' = k mod (p - 1)p^m, and mod 2^(m+1) at p = 2; checked here on the
    # first 60 ghost slopes, at the first three levels N coprime to p
    cases, differ = 0, []
    for p in (2, 3, 5, 7, 11):
        for N in [N for N in range(1, 6) if N % p][:3]:
            ctx = PrimeContext(p, N)
            for m in (1, 2, 3):
                shift = 2 ** (m + 1) if p == 2 else (p - 1) * p**m
                for k in range(4, 61, 2):
                    low = [[s for s in ghost_slopes(ctx, Classical(j), 60) if s < m + 1] for j in (k, k + shift)]
                    cases += 1
                    if low[0] != low[1]:
                        differ.append((p, N, m, k))
    assert (cases, differ) == (1305, [])


def test_59_adic_ordinary_weight():
    # no coefficient zero comes near w_16, so the single classical slope is 0
    sl = classical_ghost_slopes(PrimeContext(59, 1), 16, "tame")
    assert sl.slopes == (0,)


def test_certification_cap_failure():
    with pytest.raises(CertificationError):
        ghost_slopes(CTX21, Classical(0), 40, cap=12)


def test_certification_error_says_how_far_it_got():
    with pytest.raises(CertificationError) as failed:
        ghost_slopes(CTX21, Classical(0), 40, cap=12)
    assert str(failed.value) == (
        "could not certify 40 slopes within the degree cap 12; raise the cap (flag --cap); "
        "last round D = 12, window end 56: the hull had 12 slopes, fewer than 40"
    )
    with pytest.raises(CertificationError, match="D = 3, window end 38: the line condition failed at index 4$"):
        ghost_slopes(CTX21, Classical(0), 3, cap=3)
    # a small step or a falling one is no fault: only the line condition is checked
    assert _tail_fault([0, 3], 0, 1, Fraction(1, 2), Fraction(3, 2), 0, -1) is None
    assert _tail_fault([0, 5, 9], 0, 2, Fraction(1), Fraction(0), 0, 0) is None
    assert _tail_fault([0, 5, 10], 0, 2, Fraction(1), Fraction(0), 0, 0) is None


def test_a_proved_tail_certifies_later_never_earlier():
    # both failed the old per-step condition inside the window (at index 41 and
    # at 79); the degree bound needs only the line, and the slopes are the uncapped ones
    ctx, kappa = PrimeContext(11, 12), CharClassical(4, 3)
    assert ghost_slopes(ctx, kappa, 3, cap=40) == ghost_slopes(ctx, kappa, 3)
    ctx, eps = PrimeContext(31, 6), ComponentLabel(6, 31)
    assert boundary_polygon(ctx, eps, 10, cap=60).slopes == boundary_polygon(ctx, eps, 10).slopes


def test_the_window_reaches_the_degree_bound():
    # lam(Delta_i) = i through i = 100, then 0: the line of the 10th slope,
    # 10i - 45, meets lam = 5050 at i = 510, far past 2D + 32 = 72
    lam = list(accumulate([0] + [i if i <= 100 else 0 for i in range(1, 1200)]))
    window = (lambda upto: lam, lambda upto: lam, Fraction(1), 10, 20)
    with pytest.raises(CertificationError, match="window end 999: the line condition failed at index 510$"):
        certified_slopes(*window, (0, Fraction(1, 100), Fraction(0)))  # W = 10/alpha - 1
    assert len(certified_slopes(*window, (0, Fraction(1, 10), Fraction(0)))[0]) == 10  # W = 99


def test_a_valuation_floor_of_zero_is_refused():
    lam = list(range(50))
    with pytest.raises(ValueError) as err:
        certified_slopes(lambda upto: lam, lambda upto: lam, Fraction(0), 10, 20, (0, Fraction(1), Fraction(0)))
    assert str(err.value) == "the valuation floor c must be positive"


def _outcome(compute):
    try:
        return compute()
    except CertificationError:
        return CertificationError


def test_the_last_start_bound_certifies_the_same_slopes(monkeypatch):
    # each mark counted from its own start certifies what the bound from the last start did
    requests = []
    for p, N in ((p, N) for p in (2, 3, 5, 7, 11, 13, 31, 59, 101) for N in (1, 3, 4, 7, 12) if N % p):
        ctx = PrimeContext(p, N)
        kappas = [Classical(0), Classical(-2), Annulus(0, Fraction(1, 2)), CharClassical(2, 2) if p > 2 else ExplicitW(8, 20)]
        for kappa, n in zip(kappas, (3, 12, 30, 6)):
            requests.append(lambda ctx=ctx, kappa=kappa, n=n: ghost_slopes(ctx, kappa, n, cap=2000))
        requests.append(lambda ctx=ctx: boundary_polygon(ctx, ComponentLabel(0, ctx.p), 25, cap=2000).slopes)
    slopes = [_outcome(compute) for compute in requests]
    monkeypatch.setattr(GhostSeries, "degree_bound", last_start_bound)
    assert [_outcome(compute) for compute in requests] == slopes
    assert len(slopes) == 200 and slopes.count(CertificationError) < 20


def test_cap_below_one_is_rejected():
    for cap in (0, -1):
        with pytest.raises(ValueError, match="degree cap"):
            ghost_slopes(CTX21, Classical(0), 3, cap=cap)


@pytest.mark.parametrize("w0, m, last_good, k", [(40, 10, 10, 254), (8, 12, 7, 326)])
def test_precision_error_onset(w0, m, last_good, k):
    # legs are taken only for the zeros of g_1..g_D, so an explicit w-value
    # fails exactly when the truncation first reaches a zero it cannot
    # separate from w
    kappa = ExplicitW(w0, m)
    assert len(ghost_slopes(CTX21, kappa, last_good)) == last_good
    with pytest.raises(PrecisionError, match=f"zero at k = {k}"):
        ghost_slopes(CTX21, kappa, last_good + 1)


def test_slopes_at_a_zero_weight():
    # at kappa = 14 the first coefficient vanishes: a doubled slope appears
    sl = ghost_slopes(CTX21, Classical(14), 2)
    assert sl.slopes == (6, 6)


def test_explicit_w_matches_classical_polygon():
    for p, gen in [(2, 5), (3, 4), (5, 6)]:
        ctx = PrimeContext(p, 1)
        for k in (0, -2, -6):
            w0 = (pow(gen, k, p ** 40) - 1) % p ** 40
            res = None if p == 2 else k % (p - 1)
            a = ghost_slopes(ctx, Classical(k), 5)
            b = ghost_slopes(ctx, ExplicitW(w0, 40, residue=res, generator=gen), 5)
            assert a.slopes == b.slopes


def test_ghost_polygon_consistency():
    slopes, poly = ghost_polygon(CTX21, Classical(0), 5)
    assert poly.slopes(5).slopes == slopes.slopes
    assert poly.vertices[0] == (0, 0)


def test_char_weight_slopes_scale_the_boundary():
    # every leg from a conductor-25 weight has valuation exactly 1/4, so
    # its polygon is the boundary polygon of the component scaled by 1/4
    from ghostseries.boundary import boundary_polygon

    ctx = PrimeContext(5, 1)
    slopes = ghost_slopes(ctx, CharClassical(2, 2), 10)
    bdry = boundary_polygon(ctx, ComponentLabel(2, 5), 10).slopes
    assert [4 * s for s in slopes.slopes] == list(bdry.slopes)


def test_determinism():
    a = ghost_slopes(CTX21, Annulus(0, Fraction(3, 2)), 10)
    b = ghost_slopes(CTX21, Annulus(0, Fraction(3, 2)), 10)
    assert a == b
