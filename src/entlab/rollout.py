"""Group rollouts and the span bookkeeping that links tokens back to turns.

A group is N independent trajectories from the same prompt (an environment
task).  Every turn's response becomes one environment-reactive span; a span
references its Response, whose per-token entropies and logprobs recorded at
sampling time are what the modulation and the trainer consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .envs import Env, EnvState, RewardScheme, terminal_reward
from .policy import PolicySnapshot, Response, TablePolicy, sample_response

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


def collect_groups(policy: PolicySnapshot | TablePolicy, env: Env, prompt_ids: list[int], scheme: RewardScheme,
                   rngs_per_group: list[list[np.random.Generator]]) -> list[Group]:
    """One group per prompt, rollout i of group g on its own generator rngs_per_group[g][i], all in lockstep: each turn
    first asks the snapshot for the samplers at the live rollouts' states in one batched read, then samples and steps
    each on its own generator, so every draw is the one it makes played alone.  A TablePolicy gets one snapshot."""
    snapshot = PolicySnapshot.of(policy)
    starts = [env.reset(prompt_id) for prompt_id in prompt_ids]
    rollouts = [[(Trajectory(prompt_id, [], start), rng) for rng in rngs]
                for prompt_id, start, rngs in zip(prompt_ids, starts, rngs_per_group)]
    live = [rollout for group in rollouts for rollout in group]
    while live:  # final_state is each trajectory's current state until it is done
        snapshot.samplers([traj.final_state.policy_key for traj, _ in live])
        for traj, rng in live:
            state = traj.final_state
            response = sample_response(snapshot, state.policy_key, rng)
            traj.final_state, valid = env.step(state, response.tokens)
            traj.turns.append(Turn(state=state, response=response, valid=valid))
        live = [(traj, rng) for traj, rng in live if not traj.final_state.done]
    groups = [Group(prompt_id, [traj for traj, _ in group]) for prompt_id, group in zip(prompt_ids, rollouts)]
    for traj in (traj for group in groups for traj in group.trajectories):
        traj.reward = terminal_reward(traj, scheme)
    return groups


def collect_group(policy: PolicySnapshot | TablePolicy, env: Env, prompt_id: int, scheme: RewardScheme,
                  rngs: list[np.random.Generator]) -> Group:
    """One rollout of a prompt per generator in rngs, in order: collect_groups of one prompt, so each rollout runs on
    its own generator.  Pass a PolicySnapshot to share its softmaxes across groups."""
    return collect_groups(policy, env, [prompt_id], scheme, [rngs])[0]


# numpy's SeedSequence hash (after O'Neill's seed_seq_fe) on a pool of 4 uint32 words.  Its k-th
# hash constant is init * mult**k mod 2**32 whatever the data, so all rows of a batch share them.
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n + 1)], np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray, k: int, n: int) -> np.ndarray:
    """numpy's hashmix of value with hash constants k .. k + n - 1, one per column."""
    value = (value ^ consts[k:k + n]) * consts[k + 1:k + n + 1]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return result ^ (result >> np.uint32(16))


def _entropy_words(entropy) -> list[int]:
    """An int or a nested sequence of ints as uint32 words, low word first, as SeedSequence reads it."""
    if isinstance(entropy, (int, np.integer)):
        n = int(entropy)
        if n < 0:
            raise ValueError(f"seed entropy must be non-negative, got {n}")
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    return [w for item in entropy for w in _entropy_words(item)]


def seed_states(entropies) -> np.ndarray:
    """Row i is np.random.SeedSequence(entropies[i]).generate_state(4, np.uint64), bit for bit.

    numpy's mix_entropy and generate_state run over all rows at once on uint32
    arrays.  Rows are zero-padded to the pool size, which is exact: the hash of
    a missing word is the hash of 0.  Words beyond the pool go through the
    extra-entropy loop, each row up to its own length.  A 1-D integer array
    takes a fast path: each seed is below 2**64, so at most two words.
    """
    if isinstance(entropies, np.ndarray) and entropies.ndim == 1 and entropies.dtype.kind in "iu":
        if entropies.dtype.kind == "i" and (entropies < 0).any():
            raise ValueError("seed entropy must be non-negative")
        seeds = entropies.astype(np.uint64)
        lengths = np.full(len(seeds), 2)
        words = np.zeros((len(seeds), _POOL), np.uint32)
        words[:, 0] = seeds & np.uint64(_MASK32)
        words[:, 1] = seeds >> np.uint64(32)
    else:
        rows = [_entropy_words(e) for e in entropies]
        lengths = np.array([len(r) for r in rows], dtype=int)
        words = np.zeros((len(rows), max(_POOL, int(lengths.max(initial=0)))), np.uint32)
        for i, row in enumerate(rows):
            words[i, :len(row)] = row

    consts = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * words.shape[1])
    pool = _hashmix(words[:, :_POOL], consts, 0, _POOL)
    k = _POOL
    for src in range(_POOL):  # mix every word into every other; column src is read, not written
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], consts, k, _POOL - 1))
        k += _POOL - 1
    for src in range(_POOL, words.shape[1]):
        more = lengths > src
        pool[more] = _mix(pool[more], _hashmix(words[more, src:src + 1], consts, k, _POOL))
        k += _POOL
    state = _hashmix(np.tile(pool, 2), _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL), 0, 2 * _POOL)
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """One row of seed_states, handed to PCG64 as the state its SeedSequence would generate."""

    def __init__(self, row: np.ndarray) -> None:
        self.row = row

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("a seed_states row is the state of PCG64 only")
        return self.row


def generator_from(row: np.ndarray) -> np.random.Generator:
    """np.random.default_rng(np.random.SeedSequence(e)) for row = seed_states([e])[0]; PCG64 seeds itself from it."""
    return np.random.Generator(np.random.PCG64(_SeedState(row)))


def filter_degenerate_groups(groups: list[Group], mode: str = "off") -> list[Group]:
    """Optionally drop groups whose rewards are all identical (no learning signal)."""
    if mode == "off":
        return list(groups)
    if mode == "drop_uniform":
        return [g for g in groups if max(g.rewards) > min(g.rewards)]
    raise ValueError(f"unknown filter mode {mode!r}")

