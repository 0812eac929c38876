"""Exact ghost-series slope predictions for overconvergent p-adic cuspforms.

The package constructs the two-variable series whose coefficient zeros sit
at the integer weights where p-new slopes repeat, evaluates its Newton
polygon at arbitrary p-adic weights in exact rational arithmetic, and
certifies every emitted slope against the truncation degree.  Each public
name is imported from its submodule on first use (PEP 562).
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in (
    ("boundary", "APReport BoundaryPolygon HaloProfile ap_check ap_parameters boundary_polygon halo_profile "
                 "scan_burn_in"),
    ("dims", "Gamma0Invariants dim_cusp_eta8 dim_cusp_gamma0 dim_pnew eta8_weight2_excess gamma0_invariants"),
    ("errors", "CertificationError ComponentMismatch ExternalDataError GhostError PrecisionError"),
    ("modified", "ModifiedCoefficient Weight2SeedSlopes bundled_seed load_seed modified_coefficient "
                 "regularity_check_p2 seed_multiplicities"),
    ("polygon", "DEFAULT_CAP NewtonPolygon SlopeList classical_ghost_slopes ghost_polygon ghost_slopes lower_hull"),
    ("series", "GhostCoefficient GhostSeries coefficient_divisor"),
    ("weightspace", "INFINITY Annulus CharClassical Classical ComponentLabel EtaEight ExplicitW PrimeContext "
                    "component_of pair_valuation weight_component weight_valuation"),
) for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
