"""Group rollouts and the span bookkeeping that links tokens back to turns.

A group is N independent trajectories from the same prompt (an environment
task).  Every turn's response becomes one environment-reactive span; a span
references its Response, whose per-token entropies and logprobs recorded at
sampling time are what the modulation and the trainer consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs import Env, EnvState, RewardScheme, terminal_reward
from .policy import Response, TablePolicy, sample_response

FILTER_MODES = ("off", "drop_uniform")


@dataclass
class Turn:
    """One (state, response) interaction plus the environment's validity verdict."""

    state: EnvState
    response: Response
    valid: bool


@dataclass
class Trajectory:
    """A terminated episode: ordered turns, the final state and the terminal reward."""

    prompt_id: int
    turns: list[Turn]
    final_state: EnvState
    reward: float = 0.0

    @property
    def success(self) -> bool:
        return self.final_state.success

    @property
    def invalid_count(self) -> int:
        return sum(1 for turn in self.turns if not turn.valid)


@dataclass
class ResponseSpan:
    """Turn t of rollout i: the policy key it was sampled at and the sampled response."""

    rollout_index: int
    turn_index: int
    state_key: str
    response: Response


@dataclass
class Group:
    """N trajectories for one prompt plus their parsed spans."""

    prompt_id: int
    trajectories: list[Trajectory]
    spans: list[ResponseSpan] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.spans:
            for i, traj in enumerate(self.trajectories):
                self.spans.extend(parse_spans(traj, rollout_index=i))

    @property
    def rewards(self) -> list[float]:
        return [traj.reward for traj in self.trajectories]


def parse_spans(trajectory: Trajectory, rollout_index: int = 0) -> list[ResponseSpan]:
    """One span per turn, in turn order; the spans' responses tile the trajectory's token stream."""
    return [ResponseSpan(rollout_index, t, turn.state.policy_key, turn.response)
            for t, turn in enumerate(trajectory.turns)]


def rollout_trajectory(
    policy: TablePolicy,
    env: Env,
    task_id: int,
    scheme: RewardScheme,
    rng: np.random.Generator,
) -> Trajectory:
    """Play one episode to termination and attach its terminal reward."""
    state = env.reset(task_id)
    turns: list[Turn] = []
    while not state.done:
        response = sample_response(policy, state.policy_key, rng)
        nxt, valid = env.step(state, response.tokens)
        turns.append(Turn(state=state, response=response, valid=valid))
        state = nxt
    traj = Trajectory(prompt_id=task_id, turns=turns, final_state=state)
    traj.reward = terminal_reward(traj, scheme)
    return traj


def collect_group(
    policy: TablePolicy,
    env: Env,
    prompt_id: int,
    n_rollouts: int,
    scheme: RewardScheme,
    rng: np.random.Generator,
) -> Group:
    """Collect N independent rollouts of one prompt.

    Each rollout runs on its own generator seeded from a single upfront draw,
    so the result is identical whether the rollouts execute sequentially or
    in parallel.
    """
    child_seeds = rng.integers(0, 2**63 - 1, size=n_rollouts)
    trajectories = [
        rollout_trajectory(policy, env, prompt_id, scheme, np.random.default_rng(int(s)))
        for s in child_seeds
    ]
    return Group(prompt_id=prompt_id, trajectories=trajectories)


def filter_degenerate_groups(groups: list[Group], mode: str = "off") -> list[Group]:
    """Optionally drop groups whose rewards are all identical (no learning signal)."""
    if mode == "off":
        return list(groups)
    if mode == "drop_uniform":
        return [g for g in groups if max(g.rewards) > min(g.rewards)]
    raise ValueError(f"unknown filter mode {mode!r}")

