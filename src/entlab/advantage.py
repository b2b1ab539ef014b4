"""Group-relative advantage estimators.

All estimators produce one value per (rollout, turn) span.  The group-based
ones (grpo, rloo) assign each trajectory a single scalar broadcast to all of
its spans; the enumeration oracle subtracts an exact per-state value baseline
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .envs import Env, EnvState, RewardScheme
from .policy import PolicySnapshot, TablePolicy, response_space
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


def _transition_row(env: Env, state: EnvState, transitions: dict) -> tuple:
    """env.step(state, response) for every response of response_space, cached in ``transitions``.

    Dynamics are a pure function of (state, response), so a row holds for the
    whole run, whatever the policy.  The table also maps each distinct
    (next state, valid) pair to itself, so equal pairs in all rows share one object.
    """
    row = transitions.get(state)
    if row is None:
        row = transitions[state] = tuple(transitions.setdefault(pair, pair) for pair in (
            env.step(state, list(tokens)) for tokens in response_space(env.vocab, env.max_len)))
    return row


def state_value(policy: TablePolicy | PolicySnapshot, env: Env, state: EnvState, scheme: RewardScheme,
                _memo: dict | None = None, transitions: dict | None = None) -> float:
    """Exact on-policy value of a state by enumerating all continuations.

    Counts the terminal outcome payoff plus invalid penalties incurred from
    this state onward (penalties already paid earlier in the episode are sunk).
    ``_memo`` holds each state's value under one policy version, read through
    PolicySnapshot.tree; ``transitions`` (see _transition_row) does not depend
    on the policy and may be shared across calls.
    """
    _memo = {} if _memo is None else _memo
    transitions = {} if transitions is None else transitions
    value = _memo.get(state)
    if value is not None:
        return value
    if state.done:
        value = scheme.success if state.success else scheme.failure
    else:
        snapshot = PolicySnapshot.of(policy)
        leaves = snapshot.tree(state.policy_key)[1]
        row = _transition_row(env, state, transitions)
        penalty = scheme.invalid_penalty
        value = 0.0
        for (_, prob), (nxt, valid) in zip(leaves, row, strict=True):
            if prob == 0.0:
                continue
            v = _memo.get(nxt)
            if v is None:
                v = state_value(snapshot, env, nxt, scheme, _memo, transitions)
            value += prob * ((0.0 if valid else penalty) + v)
    _memo[state] = value
    return value


def oracle_value_advantage(group: Group, env: Env, policy: TablePolicy | PolicySnapshot,
                           scheme: RewardScheme, transitions: dict | None = None) -> AdvantageTable:
    """Exact-baseline advantage: R(trajectory) minus the enumerated value of each turn's state."""
    snapshot = PolicySnapshot.of(policy)
    memo: dict = {}
    transitions = {} if transitions is None else transitions
    table = AdvantageTable()
    for i, traj in enumerate(group.trajectories):
        for t, turn in enumerate(traj.turns):
            v = state_value(snapshot, env, turn.state, scheme, memo, transitions)
            table.values[(i, t)] = traj.reward - v
    return table


ESTIMATORS = ("grpo", "rloo", "oracle_value")


def compute_advantages(group: Group, estimator: str, env: Env | None = None,
                       policy: TablePolicy | PolicySnapshot | None = None,
                       scheme: RewardScheme | None = None,
                       transitions: dict | None = None) -> AdvantageTable:
    """Dispatch by estimator name; the oracle needs env, policy and scheme and reads or
    fills ``transitions`` (see _transition_row)."""
    if estimator == "grpo":
        return grpo_advantage(group)
    if estimator == "rloo":
        return rloo_advantage(group)
    if estimator == "oracle_value":
        if env is None or policy is None or scheme is None:
            raise ValueError("oracle_value advantage needs env, policy and scheme")
        return oracle_value_advantage(group, env, policy, scheme, transitions)
    raise ValueError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
