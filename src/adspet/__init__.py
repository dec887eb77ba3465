"""Energy-momenta and positivity bounds for asymptotically anti-de Sitter
initial data in 4+1 dimensions.

The package computes the fifteen conserved charges of an initial data set,
assembles the Hermitian charge matrix, evaluates the lower bounds on the
energy implied by its positivity, and cross-checks every ingredient
numerically: the Clifford representation, the imaginary Killing spinors,
the Killing vector fields, and the spinor boundary identity tying them
together.
"""

__version__ = "1.0.0"

from .charges import (
    CHARGE_NAMES,
    J_ORDER,
    ChargeSet,
    DerivedCharges,
    charge_surface_values,
    compute_charges,
    derived,
)
from .clifford import ETA, gamma
from .geometry import (
    DegenerateCoordinateError,
    ModelConstants,
    QuadratureSpec,
    radial_limit,
    sphere_grid,
)
from .initial_data import (
    AdsExactModel,
    DecayReport,
    GridModel,
    InitialDataModel,
    OffdiagMomentumModel,
    RadialBumpModel,
    decay_validate,
    model_from_config,
    model_registry,
    read_grid_file,
    write_grid_file,
)
from .killing import (
    ALL_LABELS,
    killing_residual,
    killing_vector_frame,
    normalize_label,
)
from .qmatrix import (
    BoundsReport,
    IdentityReport,
    PsdReport,
    RigidityReport,
    assemble_q,
    boundary_identity,
    det_closed_form,
    psd_check,
    rigidity_check,
    theorem_bounds,
    third_minor_sum,
)
from .spinors import (
    KillingParams,
    killing_spinor_residual,
    profiles,
)

__all__ = [
    "__version__",
    "CHARGE_NAMES",
    "J_ORDER",
    "ChargeSet",
    "DerivedCharges",
    "charge_surface_values",
    "compute_charges",
    "derived",
    "ETA",
    "gamma",
    "DegenerateCoordinateError",
    "ModelConstants",
    "QuadratureSpec",
    "radial_limit",
    "sphere_grid",
    "AdsExactModel",
    "DecayReport",
    "GridModel",
    "InitialDataModel",
    "OffdiagMomentumModel",
    "RadialBumpModel",
    "decay_validate",
    "model_from_config",
    "model_registry",
    "read_grid_file",
    "write_grid_file",
    "ALL_LABELS",
    "killing_residual",
    "killing_vector_frame",
    "normalize_label",
    "BoundsReport",
    "IdentityReport",
    "PsdReport",
    "RigidityReport",
    "assemble_q",
    "boundary_identity",
    "det_closed_form",
    "psd_check",
    "rigidity_check",
    "theorem_bounds",
    "third_minor_sum",
    "KillingParams",
    "killing_spinor_residual",
    "profiles",
]
