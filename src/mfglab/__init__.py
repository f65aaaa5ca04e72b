"""Solver and verification lab for discounted infinite-horizon
linear-quadratic mean field games."""

__version__ = "0.1.0"

from .errors import (
    AmbiguousRootError,
    BlowUpError,
    ConfigError,
    DegenerateA3Error,
    DivergedError,
    MFGLabError,
    ModelError,
    NoAdmissibleRootError,
    NoRealRootError,
    RestPointMismatchError,
    StepTooLargeError,
)
from .admissibility import (
    AdmissibilityReport,
    MonotonicityReport,
    check_monotonicity_sampled,
    check_structural,
)
from .config import RunConfig
from .fixed_point import (
    DecouplingField,
    FixedPointReport,
    MeanFlow,
    backward_field_solve,
    forward_flow_update,
    solve_mfg,
)
from .master import (
    QuadraticValue,
    ResidualReport,
    eval_jet,
    is_admissible,
    master_residual,
    pa_master_residual,
    root_system_residuals,
    select_admissible,
    solve_root_system,
    solve_selected,
    square_grid,
)
from .model import (
    LQModel,
    alpha_hat,
    closed_loop_coeffs,
    cost_rate,
    drift,
    generalized_hamiltonian,
    hamiltonian_H,
    hamiltonian_H_dx,
    hamiltonian_H_dy,
)
from .riccati import RiccatiPath, riccati_backward
from .simulate import (
    AffineFeedback,
    CostEstimate,
    InitialLaw,
    PopulationPath,
    TrajectoryBatch,
    estimate_cost,
    simulate_population,
    simulate_representative,
    w2_empirical,
)
from .verify import (
    CheckResult,
    flow_consistency,
    gateaux_slope,
    lipschitz_scan,
    verify_nash,
    weak_uniqueness_check,
    y_representation_check,
)

# Two reference instances used throughout the tests: a fully symmetric one
# whose equilibrium value and costs have simple closed forms, and a second
# one with every coefficient active.
EXAMPLE_MODEL = LQModel(r=2.0, b1=0.0, b2=0.0, b3=2.0, b4=0.0, A=2.0, C=1.0)
INSTANCE_B = LQModel(r=1.0, b1=-0.1, b2=0.5, b3=2.0, b4=0.5, A=2.0, C=1.0)

__all__ = [name for name in dir() if not name.startswith("_")]
