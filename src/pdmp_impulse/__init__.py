"""Epsilon-optimal impulse control of piecewise deterministic Markov processes.

Build a model (:func:`load_model`), validate it, compute the no-impulse cost
and the budgeted value functions with their intervention policy
(:func:`compute_h`, :func:`value_iterate`), then simulate the controlled
process and check that its Monte Carlo cost matches the computed values
(:func:`estimate_cost_J`).
"""

from .controlled import (
    CEMETERY,
    AugmentedState,
    ControlledTrajectory,
    CostEstimate,
    aug_flow,
    aug_hit_time,
    aug_step,
    check_intervention_markov,
    check_joint_law,
    estimate_cost_J,
    simulate_controlled,
)
from .dynamics import (
    JumpEvent,
    PathRecord,
    cumulative_intensity,
    default_horizon,
    flow_at,
    hit_time,
    sample_post_jump,
    sample_sojourn,
    simulate_uncontrolled,
)
from .errors import (
    ArtifactMismatchError,
    DomainError,
    ExtrapolationError,
    KernelCoverageError,
    ModelParseError,
    ModelValidationError,
    NumericalError,
    PdmpError,
    PolicyCoverageError,
    UnsupportedFeatureError,
)
from .model import (
    PdmpModel,
    StatePoint,
    ValidationReport,
    as_state,
    load_model,
    validate_model,
)
from .operators import (
    BRANCH_INTERVENE,
    BRANCH_WAIT,
    ConstantEvaluable,
    FunctionEvaluable,
    InfJResult,
    MinRelocationValue,
    inf_J,
    op_F,
    op_J,
    op_K,
    op_Lscript,
    op_M,
    op_Qw,
)
from .valuefn import (
    FunctionStore,
    GridSpec,
    PolicyTable,
    compute_h,
    policy_query,
    value_iterate,
)

__version__ = "0.1.0"
