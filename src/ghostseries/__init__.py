"""Exact ghost-series slope predictions for overconvergent p-adic cuspforms.

The package constructs the two-variable series whose coefficient zeros sit
at the integer weights where p-new slopes repeat, evaluates its Newton
polygon at arbitrary p-adic weights in exact rational arithmetic, and
certifies every emitted slope against the truncation degree.
"""

from .boundary import (
    APReport,
    BoundaryPolygon,
    HaloProfile,
    ap_check,
    boundary_polygon,
    halo_profile,
    scan_burn_in,
    ap_parameters,
)
from .dims import (
    Gamma0Invariants,
    dim_cusp_eta8,
    dim_cusp_gamma0,
    dim_pnew,
    gamma0_invariants,
    eta8_weight2_excess,
)
from .errors import (
    CertificationError,
    ComponentMismatch,
    ExternalDataError,
    GhostError,
    PrecisionError,
)
from .modified import (
    ModifiedCoefficient,
    Weight2SeedSlopes,
    bundled_seed,
    load_seed,
    modified_coefficient,
    regularity_check_p2,
    seed_multiplicities,
)
from .polygon import (
    DEFAULT_CAP,
    NewtonPolygon,
    SlopeList,
    classical_ghost_slopes,
    ghost_polygon,
    ghost_slopes,
    lower_hull,
)
from .series import (
    GhostCoefficient,
    GhostSeries,
    coefficient_divisor,
    lam_deltas,
    lam_values,
)
from .weightspace import (
    INFINITY,
    Annulus,
    CharClassical,
    Classical,
    ComponentLabel,
    EtaEight,
    ExplicitW,
    PrimeContext,
    classical_pair_valuation,
    component_of,
    pair_valuation,
    weight_component,
    weight_valuation,
)

__version__ = "0.1.0"
