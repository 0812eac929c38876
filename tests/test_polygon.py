import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostseries.errors import CertificationError, PrecisionError
from ghostseries.polygon import (
    NewtonPolygon,
    SlopeList,
    _tail_clears,
    classical_ghost_slopes,
    ghost_polygon,
    ghost_slopes,
    lower_hull,
)
from ghostseries.series import coefficient_divisor
from ghostseries.weightspace import (
    INFINITY,
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    ExplicitW,
    PrimeContext,
    padic_valuation,
)
from oracle import coefficient_valuation

CTX21 = PrimeContext(2, 1)
EPS2 = ComponentLabel(0, 2)


# ---------------------------------------------------------------------------
# hulls

def test_hull_spec_examples():
    poly = lower_hull([(0, 0), (1, 3), (2, 7)])
    assert poly.vertices == ((0, 0), (1, 3), (2, 7))
    assert poly.slopes() == (3, 4)

    poly = lower_hull([(0, 0), (1, INFINITY), (2, 4)])
    assert poly.vertices == ((0, 0), (2, 4))
    assert poly.slopes() == (2, 2)

    poly = lower_hull([(0, 0), (1, 1), (2, 2)])
    assert poly.vertices == ((0, 0), (2, 2))
    assert poly.slopes() == (1, 1)


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
@given(st.lists(st.one_of(st.integers(-60, 60), st.just(INFINITY)), max_size=29))
def test_int_hull_matches_fraction_hull(tail):
    ints = [(0, 0)] + list(enumerate(tail, start=1))
    fracs = [(i, v if v is INFINITY else Fraction(v)) for i, v in ints]
    poly, ref = lower_hull(ints), lower_hull(fracs)
    assert poly.vertices == ref.vertices
    assert poly.slope_pairs() == ref.slope_pairs()
    assert all(type(y) is int for _, y in poly.vertices)


def test_newton_polygon_rejects_collinear_vertices():
    with pytest.raises(AssertionError, match="increase strictly"):
        NewtonPolygon(((0, 0), (1, 1), (2, 2)))
    with pytest.raises(AssertionError, match="increase strictly"):
        NewtonPolygon(((0, 0), (2, Fraction(1, 2)), (3, Fraction(3, 4))))


def _tail_clears_reference(lam, D, window_end, c, s, i0, y0):
    """The window check in Fraction arithmetic."""
    deltas = []
    for i in range(D + 1, window_end + 1):
        step = lam[i] - lam[i - 1]
        deltas.append(step)
        if not (lam[i] * c > y0 + s * (i - i0)):
            return False
        if not (step * c > s):
            return False
    half = len(deltas) // 2
    return not (half and min(deltas[half:]) < min(deltas[:half]))


def test_tail_check_is_strict_at_equality():
    # lam[1] * c == y0 + s * (1 - i0): 4/3 == 5/6 + 1/2
    c, s = Fraction(1, 3), Fraction(1, 2)
    assert not _tail_clears([0, 4], 0, 1, c, s, 0, Fraction(5, 6))
    assert _tail_clears([0, 4], 0, 1, c, s, 0, Fraction(4, 6))
    # step * c == s: 3 * 1/2 == 3/2, with the line well below
    c = Fraction(1, 2)
    assert not _tail_clears([0, 3], 0, 1, c, Fraction(3, 2), 0, -1)
    assert _tail_clears([0, 3], 0, 1, c, Fraction(7, 5), 0, -1)


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
        got = _tail_clears(lam, D, window_end, c, s, i0, y0)
        assert got == _tail_clears_reference(lam, D, window_end, c, s, i0, y0)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_slope_list_bookkeeping():
    slopes = SlopeList((Fraction(1), Fraction(1), Fraction(2)), 3)
    assert slopes.pairs() == ((Fraction(1), 2), (Fraction(2), 1))
    assert len(slopes) == 3 and slopes[2] == 2
    with pytest.raises(AssertionError):
        SlopeList((Fraction(2), Fraction(1)), 2)


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


def test_59_adic_ordinary_weight():
    # no coefficient zero comes near w_16, so the single classical slope is 0
    sl = classical_ghost_slopes(PrimeContext(59, 1), 16, "tame")
    assert sl.slopes == (0,)


def test_certification_cap_failure():
    with pytest.raises(CertificationError):
        ghost_slopes(CTX21, Classical(0), 40, cap=12)


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
    assert poly.slopes(5) == slopes.slopes
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
