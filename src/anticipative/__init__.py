"""Quantum guessing games with classical posterior information.

Exact success probabilities, an enumeration-based solver for optimal
anticipative measurements, and a seeded shot-level simulator, all for the
four-state qubit task.
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
    exclusion_info_map,
    no_exclusion_map,
    success_no_cpost,
    success_with_cpost,
)
from .solver import (
    AuxiliaryEnsemble,
    anticipative_success,
    build_auxiliary,
    certify_optimal,
    enumerate_functions,
    lambda_argmax,
    paired_measurement,
    reduce_to_povm,
)
from .task import (
    SCENARIOS,
    Scenario,
    anticipative_directions,
    closed_form,
    make_ensemble,
    measurement_for,
    pipeline_success,
    pq_values,
    priority_table,
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
