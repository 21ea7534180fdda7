"""policylab: a desk-scale laboratory for clipped-surrogate policy
optimization and entropy steering on exact tabular softmax policies."""

__version__ = "0.1.0"

from .advantage import (
    dynamic_sampling_filter,
    group_advantages,
    standardize_groups,
)
from .entropy_dynamics import (
    ConvergenceReport,
    EntropyPrediction,
    QuadrantStats,
    center_advantages,
    entropy_covariance,
    predict_entropy_change,
    verify_predictor_convergence,
)
from .env import (
    EnvConfig,
    ModSumTask,
    RolloutGroup,
    Trajectory,
    read_rollout_log,
    rollout_group,
    sample_episodes,
    sample_task,
    verify_reward,
    write_rollout_log,
)
from .gradcheck import (
    GradCheckReport,
    build_gradcheck_batch,
    check_objective_gradient,
    frozen_surrogate_evaluator,
    numeric_gradient,
)
from .objectives import (
    BRANCHES,
    ObjectiveSpec,
    TokenBatch,
    aggregate_objective,
    batch_token_terms,
    clip_terms,
    entropy_bonus,
)
from .policy import (
    TabularPolicy,
    exact_kl,
)
from .seeding import named_stream
from .trainer import (
    ConfigError,
    EmptyBatchError,
    RunConfig,
    RunResult,
    StabilityAlarm,
    StepMetrics,
    evaluate,
    run_experiment_suite,
    suite_configs,
    train,
)
