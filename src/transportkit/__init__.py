"""Solver and analysis toolkit for the singular transport equation
(D_X + A) u = lambda u + v at a zero of X whose linearization spectrum
lies in the right half plane.

Submodules: jets (truncated Taylor algebra), opmatrix (operator
matrices on jet spaces), spectral (resonances, kernels, dual kernels,
solvability), taylor (jet-space solver), flow (backward-flow integral
evaluation), estimates (transition-matrix norm bounds), applications
(heat coefficients, WKB expansions), cli (command-line front end).
"""

from types import ModuleType as _ModuleType

from .applications import (
    HeatProblem,
    WKBExpansion,
    WKBProblem,
    heat_coefficients_jet,
    heat_coefficients_numeric,
    wkb_expand,
)
from .errors import (
    FieldMismatchError,
    FlowIntegrationError,
    HypothesisViolationError,
    IllConditionedWarning,
    NearResonanceWarning,
    NumericError,
    OrderBudgetError,
    QuantityUnderflowError,
    RankAmbiguityWarning,
    RegionExitError,
    ResonantProblemError,
    SchemaError,
    ShapeMismatchError,
    TailDecayError,
    TransportKitError,
    ValidationError,
)
from .estimates import (
    EstimateReport,
    LemmaBound,
    MatrixPath,
    compute_M,
    ell,
    inverse_two_regime_bound,
    perturbation_bound,
    two_regime_bound,
)
from .flow import (
    EvalConfig,
    EvaluationResult,
    FieldSampler,
    FlowState,
    FlowTrajectory,
    empirical_decay_rate,
    evaluate_solution,
    integrate_flow,
)
from .jets import (
    Jet,
    VectorFieldJet,
    jet_from_json,
    jet_mul,
    jet_to_json,
)
from .opmatrix import (
    OperatorMatrix,
    ProblemData,
    apply_operator,
    assemble,
    jet_to_vec,
    vec_to_jet,
)
from .spectral import (
    DualDistribution,
    ResonanceEntry,
    dual_kernel_basis,
    endo_spectrum,
    enumerate_resonances,
    kernel_basis,
    linearization_spectrum,
    solvability_test,
    sternberg_resonance_check,
)
from .taylor import JetSolution, residual, solve_to_order

__version__ = "0.1.0"

# every name imported above; the submodules are reached as attributes
__all__ = ["__version__"] + [name for name, obj in list(globals().items())
                             if not name.startswith("_")
                             and not isinstance(obj, _ModuleType)]
