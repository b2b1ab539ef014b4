"""Group-relative advantage estimators.

All estimators produce one value per (rollout, turn) span.  The group-based
ones (grpo, rloo) assign each trajectory a single scalar broadcast to all of
its spans; the enumeration oracle subtracts an exact per-state value baseline
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .envs import Env, EnvState, RewardScheme, value_plan
from .policy import PolicySnapshot, TablePolicy, _leaf_probs
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
    """Exact on-policy value of a state: the terminal outcome payoff plus the invalid penalties incurred from
    this state onward (penalties already paid earlier in the episode are sunk).

    Backward induction over the value plan of the state's task start, envs.value_plan(env, env.reset(task_id)),
    with the leaf probabilities of its keys' stacked tables: each layer, last first, adds prob * (penalty + next
    value) over the responses left to right from 0.0, the enumeration's value += ... bit for bit (a
    probability-0.0 leaf adds ±0.0, which changes no sum from +0.0).  ``_memo`` holds values under one policy
    version; a miss stores every plan state's.  A policy of another vocabulary or max_len than the env's, and a
    state that its task start does not reach, are refused.
    """
    _memo = {} if _memo is None else _memo
    value = _memo.get(state)
    if value is not None:
        return value
    if state.done:
        return scheme.success if state.success else scheme.failure
    snapshot = PolicySnapshot.of(policy)
    if (snapshot.policy.vocab, snapshot.policy.max_len) != (env.vocab, env.max_len):
        raise ValueError(f"policy vocab {snapshot.policy.vocab} and max_len {snapshot.policy.max_len} differ from "
                         f"{env.kind} vocab {env.vocab} and max_len {env.max_len}")
    plan = value_plan(env, env.reset(state.task_id))
    tables = np.array(snapshot.tables(plan.keys)).reshape(len(plan.keys), -1)
    probs = _leaf_probs(tables, snapshot._shape)[plan.key_row]
    penalties = np.where(plan.valid, 0.0, scheme.invalid_penalty)
    values = np.concatenate(([scheme.failure, scheme.success], np.empty(len(plan.states))))
    for lo, hi in reversed(list(pairwise(plan.bounds))):
        terms = probs[lo:hi] * (penalties[lo:hi] + values[plan.slot[lo:hi]])
        values[2 + lo:2 + hi] = np.add.accumulate(np.hstack((np.zeros((hi - lo, 1)), terms)), axis=1)[:, -1]
    _memo.update(zip(plan.states, values[2:].tolist()))
    if state not in _memo:
        raise ValueError(f"{state!r} is not reachable from the start of task {state.task_id}, so it has no value")
    return _memo[state]


def oracle_value_advantage(group: Group, env: Env, policy: TablePolicy | PolicySnapshot,
                           scheme: RewardScheme) -> AdvantageTable:
    """Exact-baseline advantage: R(trajectory) minus state_value of each turn's state, under one snapshot and
    one memo, so each group's first turn (its task's start) evaluates one plan that holds every later turn."""
    snapshot = PolicySnapshot.of(policy)
    memo: dict = {}
    table = AdvantageTable()
    for i, traj in enumerate(group.trajectories):
        for t, turn in enumerate(traj.turns):
            table.values[(i, t)] = traj.reward - state_value(snapshot, env, turn.state, scheme, memo)
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
