"""Group-relative advantage estimators.

All estimators produce one value per (rollout, turn) span.  The group-based
ones (grpo, rloo) assign each trajectory a single scalar broadcast to all of
its spans; the enumeration oracle subtracts an exact per-state value baseline
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .envs import Env, EnvState, RewardScheme, successors
from .policy import PolicySnapshot, TablePolicy
from .rollout import Group

GRPO_EPS = 1e-8


@dataclass
class AdvantageTable:
    """Span-indexed advantages: values[(rollout_index, turn_index)] for one group."""

    values: dict[tuple[int, int], float] = field(default_factory=dict)


def _broadcast(group: Group, per_traj: list[float]) -> AdvantageTable:
    table = AdvantageTable()
    for span in group.spans:
        table.values[(span.rollout_index, span.turn_index)] = per_traj[span.rollout_index]
    return table


def grpo_advantage(group: Group, eps: float = GRPO_EPS) -> AdvantageTable:
    """Group-standardized advantage: (R_i - mean(R)) / (population std(R) + eps).

    A zero-variance group yields all-zero advantages rather than an error.
    """
    rewards = group.rewards
    n = len(rewards)
    mean = sum(rewards) / n
    var = sum((r - mean) ** 2 for r in rewards) / n
    std = math.sqrt(var)
    per_traj = [(r - mean) / (std + eps) for r in rewards]
    return _broadcast(group, per_traj)


def rloo_advantage(group: Group) -> AdvantageTable:
    """Leave-one-out advantage: R_i minus the mean reward of the other rollouts."""
    rewards = group.rewards
    n = len(rewards)
    if n < 2:
        raise ValueError("rloo needs at least two rollouts per group")
    total = sum(rewards)
    per_traj = [r - (total - r) / (n - 1) for r in rewards]
    return _broadcast(group, per_traj)


def state_value(policy: TablePolicy | PolicySnapshot, env: Env, state: EnvState, scheme: RewardScheme,
                _memo: dict | None = None) -> float:
    """Exact on-policy value of a state by enumerating all continuations.

    Counts the terminal outcome payoff plus invalid penalties incurred from
    this state onward (penalties already paid earlier in the episode are sunk).
    ``_memo`` holds each state's value under one policy version, read through
    PolicySnapshot.tree; next states are read from envs.successors.
    """
    _memo = {} if _memo is None else _memo
    value = _memo.get(state)
    if value is not None:
        return value
    if state.done:
        value = scheme.success if state.success else scheme.failure
    else:
        snapshot = PolicySnapshot.of(policy)
        leaves = snapshot.tree(state.policy_key)[1]
        penalty = scheme.invalid_penalty
        value = 0.0
        for (_, prob), (nxt, valid) in zip(leaves, successors(env, state), strict=True):
            if prob == 0.0:
                continue
            v = _memo.get(nxt)
            if v is None:
                v = state_value(snapshot, env, nxt, scheme, _memo)
            value += prob * ((0.0 if valid else penalty) + v)
    _memo[state] = value
    return value


def oracle_value_advantage(group: Group, env: Env, policy: TablePolicy | PolicySnapshot,
                           scheme: RewardScheme) -> AdvantageTable:
    """Exact-baseline advantage: R(trajectory) minus the enumerated value of each turn's state."""
    snapshot = PolicySnapshot.of(policy)
    memo: dict = {}
    table = AdvantageTable()
    for i, traj in enumerate(group.trajectories):
        for t, turn in enumerate(traj.turns):
            v = state_value(snapshot, env, turn.state, scheme, memo)
            table.values[(i, t)] = traj.reward - v
    return table


ESTIMATORS = ("grpo", "rloo", "oracle_value")


def compute_advantages(group: Group, estimator: str, env: Env | None = None,
                       policy: TablePolicy | PolicySnapshot | None = None,
                       scheme: RewardScheme | None = None) -> AdvantageTable:
    """Dispatch by estimator name; the oracle needs env, policy and scheme."""
    if estimator == "grpo":
        return grpo_advantage(group)
    if estimator == "rloo":
        return rloo_advantage(group)
    if estimator == "oracle_value":
        if env is None or policy is None or scheme is None:
            raise ValueError("oracle_value advantage needs env, policy and scheme")
        return oracle_value_advantage(group, env, policy, scheme)
    raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
