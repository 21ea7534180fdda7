"""policylab: a desk-scale laboratory for clipped-surrogate policy
optimization and entropy steering on exact tabular softmax policies."""

__version__ = "0.1.0"

from .advantage import (
    AdvantageBatch,
    advantages_from_rewards,
    dynamic_sampling_filter,
    group_advantages,
)
from .entropy_dynamics import (
    ClipSide,
    ConvergenceReport,
    EntropyPrediction,
    Quadrant,
    QuadrantStats,
    TokenRecord,
    batch_quadrant_stats,
    center_advantages,
    classify_token,
    entropy_covariance,
    predict_entropy_change,
    predict_entropy_change_for_update,
    verify_predictor_convergence,
)
from .env import (
    EnvConfig,
    ModSumTask,
    RolloutGroup,
    Trajectory,
    read_rollout_log,
    rollout_group,
    rollout_trajectory,
    sample_episodes,
    sample_task,
    sample_trajectories,
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
    Branch,
    ObjectiveSpec,
    TokenBatch,
    TokenTerm,
    aggregate_objective,
    batch_token_terms,
    ce_gppo_token_term,
    cispo_token_term,
    dapo_token_term,
    entropy_bonus,
    gspo_sequence_terms,
    ppo_token_term,
    token_term,
)
from .policy import (
    PolicySnapshot,
    TabularPolicy,
    entropy_logit_gradient,
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
