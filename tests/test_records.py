import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import ghostseries
from ghostseries.boundary import APReport, boundary_polygon
from ghostseries.dims import Gamma0Invariants, gamma0_invariants
from ghostseries.modified import Weight2SeedSlopes
from ghostseries.polygon import NewtonPolygon, SlopeList
from ghostseries.record import Record
from ghostseries.series import GhostCoefficient
from ghostseries.weightspace import (
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
)
from oracle import slope_list

SRC = Path(__file__).resolve().parent.parent / "src"

# (value, an equal value built another way, its repr, a field name)
VALUES = [
    (Classical(2), Classical(k=2), "Classical(k=2)", "k"),
    (EtaEight(3), EtaEight(k=3), "EtaEight(k=3)", "k"),
    (CharClassical(2, 3), CharClassical(k=2, t=3), "CharClassical(k=2, t=3)", "t"),
    (Annulus(0, Fraction(5, 2)), Annulus(0, "5/2"), "Annulus(center=0, v=Fraction(5, 2))", "v"),
    (ExplicitW(5, 4, residue=2), ExplicitW(5, 4, 2, None), "ExplicitW(w0=5, m=4, residue=2, generator=None)", "m"),
    (ComponentLabel(2, 5), ComponentLabel(residue=2, p=5), "ComponentLabel(residue=2, p=5)", "residue"),
    (PrimeContext(2), PrimeContext(2, N=1), "PrimeContext(p=2, N=1)", "N"),
    (
        Weight2SeedSlopes(3, (Fraction(1, 2), Fraction(1, 2))),
        Weight2SeedSlopes(N=3, slopes=[Fraction(1, 2), "1/2"]),
        "Weight2SeedSlopes(N=3, slopes=(Fraction(1, 2), Fraction(1, 2)))",
        "slopes",
    ),
    (
        GhostCoefficient(5, ComponentLabel(0, 2), {Classical(8): 1, EtaEight(3): 2}),
        GhostCoefficient(index=5, component=ComponentLabel(0, 2), zeros=[(Classical(8), 1), (EtaEight(3), 2)]),
        "GhostCoefficient(index=5, component=ComponentLabel(residue=0, p=2), zeros={Classical(k=8): 1, EtaEight(k=3): 2})",
        "zeros",
    ),
    (
        slope_list((Fraction(1, 2), Fraction(2, 4), Fraction(3))),
        SlopeList(nums=[1, 1, 3], dens=[2, 2, 1]),
        "SlopeList(nums=(1, 1, 3), dens=(2, 2, 1))",
        "nums",
    ),
]


@pytest.mark.parametrize("value, twin, text, field", VALUES, ids=[v[2].split("(")[0] for v in VALUES])
def test_value_types(value, twin, text, field):
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert repr(value) == repr(twin) == text
    assert len({value, twin}) == 1
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.other = 1  # no instance dict
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_equality_needs_the_same_type():
    assert Classical(2) != EtaEight(2)
    assert EtaEight(2) != Classical(2)
    assert {Classical(2): "classical", EtaEight(2): "eta8"}[EtaEight(2)] == "eta8"
    assert Classical(2) != 2 and Classical(2) != (2,)
    assert PrimeContext(2, 3) != PrimeContext(2, 5)
    assert ComponentLabel(0, 5) != ComponentLabel(2, 5)
    assert ComponentLabel(0, 3) != PrimeContext(3, 1)
    assert Annulus(0, Fraction(5, 2)) != Annulus(2, Fraction(5, 2))
    assert ExplicitW(5, 4) != ExplicitW(5, 4, generator=13)


def test_coercion_and_validation_happen_at_construction():
    assert type(Annulus(0, "5/2").v) is Fraction
    assert Weight2SeedSlopes(3, ["1/2", Fraction(1, 2)]).slopes == (Fraction(1, 2),) * 2
    with pytest.raises(TypeError):
        Annulus(0, 2.5)
    with pytest.raises(ValueError):
        Classical(3)
    with pytest.raises(ValueError):
        PrimeContext(2, N=4)


def test_polygon_edges_are_read_off_its_vertices():
    poly = NewtonPolygon(((0, 0), (1, 1), (3, 5)))
    assert repr(poly) == "NewtonPolygon(vertices=((0, 0), (1, 1), (3, 5)))"
    assert poly == NewtonPolygon(((0, 0), (1, 1), (3, 5)))
    assert poly.slope_pairs() == ((Fraction(1), 1), (Fraction(2), 2))
    assert copy.deepcopy(poly).slope_pairs() == poly.slope_pairs()
    inv = gamma0_invariants(11)
    assert repr(inv) == "Gamma0Invariants(level=11, index=12, nu2=0, nu3=0, cusps=2, genus=1)"


def test_slope_list_round_trips_through_its_fields():
    # pickle and deepcopy rebuild the record from (nums, dens) by the checked
    # constructor, and a slope list holds nothing else
    slopes = SlopeList((-1, 1, 1, 7), (2, 3, 3, 1))
    assert SlopeList.__slots__ == ("nums", "dens")
    assert slopes.__reduce__() == (SlopeList, ((-1, 1, 1, 7), (2, 3, 3, 1)))
    assert slopes.slopes == (Fraction(-1, 2), Fraction(1, 3), Fraction(1, 3), Fraction(7))
    for twin in (pickle.loads(pickle.dumps(slopes)), copy.deepcopy(slopes)):
        assert type(twin) is SlopeList and twin == slopes and hash(twin) == hash(slopes)
        assert (twin.nums, twin.dens) == ((-1, 1, 1, 7), (2, 3, 3, 1))
        assert repr(twin) == "SlopeList(nums=(-1, 1, 1, 7), dens=(2, 3, 3, 1))"
        assert twin.slopes == slopes.slopes


def _record_types(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_types(sub)


def test_every_slot_of_a_record_is_a_field():
    for info in pkgutil.iter_modules(ghostseries.__path__):
        if info.name != "__main__":  # running it is the command line
            importlib.import_module(f"ghostseries.{info.name}")
    types = [cls for cls in _record_types() if cls.__module__.startswith("ghostseries.")]
    assert SlopeList in types and len(types) >= 10
    for cls in types:
        assert cls._fields == cls.__slots__, cls


def test_slope_list_makes_its_fractions_on_each_read():
    slopes = boundary_polygon(PrimeContext(5), ComponentLabel(0, 5), 100_000, cap=10**7).slopes
    tracemalloc.start()
    try:
        reads = [slopes[j] for j in range(0, 100_000, 100)]
        window = slopes[50_000:50_100]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak  # no tuple of 100,000 Fractions is built and kept
    whole = slopes.slopes
    assert reads == [whole[j] for j in range(0, 100_000, 100)] and window == whole[50_000:50_100]
    assert type(window) is tuple and all(type(s) is Fraction for s in window + tuple(reads))
    for j in (0, 1, 99_999, -1, -2, -100_000):
        assert slopes[j] == whole[j]
    for part in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -7), slice(10, 2)):
        assert slopes[part] == whole[part]
    assert tuple(slopes) == whole and len(whole) == len(slopes) == 100_000
    with pytest.raises(IndexError):
        slopes[100_000]


def test_plain_records_take_fields_by_position_or_name():
    report = APReport(5, Fraction(8), 0, 300, None)
    assert report == APReport(5, Fraction(8), burn_in=0, first_violation=None, verified_through=300)
    assert report.verified and repr(report).startswith("APReport(n_ap=5, delta=Fraction(8, 1), burn_in=0,")
    assert gamma0_invariants(11) == Gamma0Invariants(11, 12, 0, 0, 2, 1)
    for args, kwargs in [((5, 8, 0, 300), {}), ((5, 8, 0, 300, None, 1), {}), ((5, 8, 0, 300), {"n_ap": 5})]:
        with pytest.raises(TypeError):
            APReport(*args, **kwargs)


def test_cli_import_leaves_dataclass_machinery_out():
    code = (
        "import sys; import ghostseries.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_coefficient_zeros_are_read_only():
    zeros = {Classical(4): 1, EtaEight(3): 2}
    coef = GhostCoefficient(3, ComponentLabel(0, 2), zeros)
    zeros[Classical(6)] = 1  # the record keeps its own copy
    with pytest.raises(TypeError):
        coef.zeros[Classical(4)] = 5
    assert coef.lam == 3 and coef.zeros == {Classical(4): 1, EtaEight(3): 2}
    # equal in any order, with an equal hash; the items keep their order
    twin = GhostCoefficient(3, ComponentLabel(0, 2), {EtaEight(3): 2, Classical(4): 1})
    assert coef == twin and hash(coef) == hash(twin) and list(twin.zeros) == [EtaEight(3), Classical(4)]
    assert coef != GhostCoefficient(3, ComponentLabel(0, 2), {Classical(4): 1})
    assert type(pickle.loads(pickle.dumps(coef)).zeros) is type(coef.zeros)
