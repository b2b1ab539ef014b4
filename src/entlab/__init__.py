"""Desk-scale laboratory for entropy-modulated group policy optimization.

Small tabular policies on deterministic multi-turn token environments, a
self-calibrated entropy modulation of group advantages, and exact/finite-
difference verification of the entropy-drift identities that motivate it.
"""

__version__ = "0.1.0"

from .advantage import grpo_advantage, oracle_value_advantage, rloo_advantage
from .envs import EnvState, RewardScheme, make_env, terminal_reward
from .geometry import (
    DriftConfig,
    DriftReport,
    ParamPolicy,
    natural_gradient,
    parametrized_drift,
    regularized_drift,
    resp_entropy_drift,
    verify_drift_fd,
)
from .modulation import ModulationSet, apply_modulation, modulate_batch
from .policy import (
    Response,
    TablePolicy,
    Vocabulary,
    exact_response_entropy,
    mc_response_entropy,
    sample_response,
)
from .probes import consistency_probe, doob_probe, transition_tracker
from .rollout import Group, Trajectory, collect_group
from .trainer import StepMetrics, TrainConfig, TrainResult, surrogate_loss, train

__all__ = [
    "DriftConfig",
    "DriftReport",
    "EnvState",
    "Group",
    "ModulationSet",
    "ParamPolicy",
    "Response",
    "RewardScheme",
    "StepMetrics",
    "TablePolicy",
    "TrainConfig",
    "TrainResult",
    "Trajectory",
    "Vocabulary",
    "apply_modulation",
    "collect_group",
    "consistency_probe",
    "doob_probe",
    "exact_response_entropy",
    "grpo_advantage",
    "make_env",
    "mc_response_entropy",
    "modulate_batch",
    "natural_gradient",
    "oracle_value_advantage",
    "parametrized_drift",
    "regularized_drift",
    "resp_entropy_drift",
    "rloo_advantage",
    "sample_response",
    "surrogate_loss",
    "terminal_reward",
    "train",
    "transition_tracker",
    "verify_drift_fd",
]
