"""Extremal solutions and directional sensitivities of obstacle-type QVIs on 1D grids."""

from .fem import (
    BoundaryCondition,
    DualElement,
    EllipticOperator,
    Grid,
    GridMismatchError,
    NodalFunction,
    SingularOperatorError,
    assemble_operator,
    dual_norm,
    leq,
    sup_embedding_constant,
    v_norm,
)
from .vi import (
    ActiveSetPartition,
    ViSolution,
    ViSolveError,
    check_comparison,
    classify_active,
    complementarity_residual,
    multiplier,
    oracle_vi,
    solve_vi,
)
from .obstacle_maps import (
    InnerSolveError,
    InverseEllipticMap,
    ObstacleMap,
    PlateauMap,
    ScalarNonlinearity,
    ThermoformingMap,
    check_increasing,
    lipschitz_estimate,
    lipschitz_threshold_check,
    smoothstep,
    smoothstep_deriv,
)
from .extremal import (
    ExtremalIterationError,
    ExtremalRunReport,
    check_subsolution,
    check_supersolution,
    comparison_in_f,
    iterate_max,
    iterate_min,
    qvi_residual,
)
from .sensitivity import (
    CriticalConeData,
    DerivativeReport,
    DerivativeSolveError,
    build_cone,
    fd_validate,
    solve_derivative_qvi,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    RunArtifacts,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_")]
