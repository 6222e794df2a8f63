"""Quantum guessing games with classical posterior information.

Exact success probabilities, an enumeration-based solver for optimal
anticipative measurements, and a seeded shot-level simulator, all for the
four-state qubit task.

The functions exported here, :func:`run_verification` aside, are the
package's public operations: the test suite requires a verification run
to call every one of them.
"""

from .bloch import (
    JointTable,
    Measurement,
    StateEnsemble,
    joint_table,
)
from .game import (
    GameSpec,
    PartialInfoMap,
    PostProcessing,
    bayes_optimal_post,
    deterministic_post,
    exclusion_info_map,
    no_exclusion_map,
    success_no_cpost,
    success_with_cpost,
    win_weights,
)
from .solver import (
    AuxiliaryEnsemble,
    anticipative_success,
    build_auxiliary,
    certify_optimal,
    counts,
    enumerate_functions,
    gamma,
    lambda_argmax,
    paired_measurement,
    reduce_to_povm,
)
from .task import (
    SCENARIOS,
    Scenario,
    anticipative_directions,
    closed_form,
    kind_axes,
    make_ensemble,
    measurement_for,
    pipeline_success,
    pq_values,
    priority_table,
    signed_axes,
    theta_grid,
)
from .simulate import (
    AngleSchedule,
    Estimate,
    ExperimentPlan,
    NoiseModel,
    angle_schedule,
    empirical_success,
    exact_success,
    native_decomposition_check,
    plan_experiment,
    sample_run,
)
from .verify import run_verification

__version__ = "0.1.0"
