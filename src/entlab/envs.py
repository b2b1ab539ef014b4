"""Deterministic multi-turn token environments with sparse terminal rewards.

Three families, all sharing the same contract: an episode is a sequence of
(state, response) turns, dynamics are a pure function of (state, response),
and reward is assigned only at termination (success/failure plus a penalty
per invalid response).  Hidden task parameters (keys, goals, arms) are drawn
once from the environment seed, so replaying a trajectory's responses
reproduces its states exactly.

* key-chain: emit the secret multi-token key of each turn; any wrong or
  invalid response ends the episode as a failure, so each task has exactly
  one success path.
* grid-fetch: walk a small grid to a goal cell with movement-token
  responses, several moves per turn, clipped at the walls.
* bandit-chain: pick one arm per turn; only the terminal outcome reveals
  whether every pick was correct.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .policy import Vocabulary, response_space


@dataclass(frozen=True)
class EnvState:
    """Observable environment state at the start of a turn."""

    env_kind: str
    task_id: int
    step_index: int
    features: tuple[int, ...]
    done: bool = False
    success: bool = False
    # policy_key and the hash, set on first read: a field keeps one attribute layout, where cached_property was slower.
    _key: str | None = field(default=None, init=False, repr=False, compare=False)
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:  # the generated hash of the compared fields, computed once per state
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.env_kind, self.task_id, self.step_index, self.features, self.done, self.success)))
        return self._hash

    @property
    def policy_key(self) -> str:
        """Hashable key the policy conditions on (kind, task and features, not raw step), joined once per state."""
        if self._key is None:
            object.__setattr__(self, "_key", f"{self.env_kind}#{self.task_id}#{','.join(map(str, self.features))}")
        return self._key


@dataclass(frozen=True)
class RewardScheme:
    """Terminal reward parameters: success/failure payoffs and a per-invalid-response penalty."""

    success: float = 10.0
    failure: float = 0.0
    invalid_penalty: float = -0.1

    def __post_init__(self) -> None:
        if not self.success > self.failure:
            raise ValueError("reward scheme must pay success strictly more than failure")


#: Named schemes selectable from config.  "sparse" is the default desk-scale
#: setting; "binary" is the plain 1/0 alternative with no invalid penalty.
REWARD_SCHEMES = {
    "sparse": RewardScheme(success=10.0, failure=0.0, invalid_penalty=-0.1),
    "binary": RewardScheme(success=1.0, failure=0.0, invalid_penalty=0.0),
}


def terminal_reward(trajectory, scheme: RewardScheme) -> float:
    """Reward of a terminated trajectory: outcome payoff plus invalid-response penalties."""
    final = trajectory.final_state
    if not final.done:
        raise ValueError("terminal_reward requires a terminated trajectory")
    base = scheme.success if final.success else scheme.failure
    return base + scheme.invalid_penalty * trajectory.invalid_count


def _require_positive(env, *names: str) -> None:
    """Refuse a size below 1 before it reaches the tables and loops that the size drives."""
    for name in names:
        if getattr(env, name) < 1:
            raise ValueError(f"{env.kind} {name} must be >= 1, got {getattr(env, name)}")


class _Table(dict):
    """One env definition's successors: state -> row; pair, (state, outcome), (state, tokens) -> pair; plans, starts."""

    def __init__(self) -> None:
        super().__init__()
        self.plans, self.starts = {}, {}


@lru_cache(maxsize=16)
def _successor_table(cls: type, attributes: tuple) -> _Table:
    """The one successor table of the env definition (class, public attribute items), kept for the process."""
    return _Table()


@lru_cache(maxsize=16)
def _contents(vocab: Vocabulary, max_len: int) -> tuple[tuple[int, ...], ...]:
    """The content of each response of response_space, in order; a truncated response is its own tuple."""
    return tuple(r[:-1] if r[-1] == vocab.terminator_id else r for r in response_space(vocab, max_len))


class Env:
    """The episode contract every environment shares; each kind writes only _start and _move.

    reset checks the task id and starts at step 0.  step refuses a terminated state and tokens that are not
    one complete response, and moves on the response's content to the kept next state that successors' rows
    hold, so dynamics are a pure function of (state, content) and the reward is left to terminal_reward.
    A kind sets kind, vocab, max_len, horizon and task_count, and keeps its task table as tuples, because
    reset and successors keep states computed from it (rebinding drops them).
    Every public attribute must be hashable (tuples of tuples are): its class and their values are
    the env's definition, the key of the successor rows that every env of one definition shares.
    """

    kind: str
    vocab: Vocabulary
    max_len: int
    horizon: int
    task_count: int

    def reset(self, task_id: int) -> EnvState:
        """Task ``task_id``'s start state: one kept object per task for every env of the definition."""
        starts = _table(self).starts
        found = starts.get(task_id)
        if found is None:
            if not 0 <= task_id < self.task_count:
                raise ValueError(f"task_id {task_id} outside [0, {self.task_count})")
            found = starts[task_id] = EnvState(self.kind, task_id, 0, self._start(task_id))
        return found

    def __setattr__(self, name: str, value) -> None:
        vars(self).pop("_successors", None)
        super().__setattr__(name, value)

    def step(self, state: EnvState, tokens: list[int]) -> tuple[EnvState, bool]:
        """The kept (next state, valid) pair of the turn after ``state`` on ``tokens``, one complete response: one _move
        on its content, no successor row, and kept under (state, tokens) once checked, so a repeat is a lookup."""
        table, tokens = _table(self), tuple(tokens)
        pair = table.get((state, tokens))
        if pair is not None:
            return pair
        leaves = response_space(self.vocab, self.max_len)
        leaf = bisect_left(leaves, tokens)
        if leaf == len(leaves) or leaves[leaf] != tokens:
            raise ValueError(f"tokens {list(tokens)} are not one complete response: tokens in range({self.vocab.size}) "
                             f"that end at the first {self.vocab.terminator_id} or at max_len {self.max_len}")
        if state.done:
            raise ValueError("step called on a terminated state")
        pair = table[state, tokens] = _pair(self, state, self._move(state, _contents(self.vocab, self.max_len)[leaf]))
        return pair

    def _start(self, task_id: int) -> tuple[int, ...]:
        """Features of task ``task_id``'s first state."""
        raise NotImplementedError

    def _move(self, state: EnvState, content: Sequence[int]) -> tuple[tuple[int, ...], bool, bool, bool]:
        """(features, valid, success, done) of the turn after ``state`` whose response has ``content``."""
        raise NotImplementedError


@dataclass
class KeyChainEnv(Env):
    """Emit the turn's secret key exactly, or the episode ends in failure.

    A response is invalid when its content length differs from the key
    length; invalid or wrong responses terminate the episode immediately,
    which makes the full key sequence the unique success path.
    """

    task_count: int = 8
    seed: int = 0
    n_content: int = 2
    key_len: int = 2
    chain_len: int = 2
    horizon: int = 8
    kind: str = field(init=False, default="key-chain")

    def __post_init__(self) -> None:
        _require_positive(self, "task_count", "n_content", "key_len", "chain_len", "horizon")
        if self.chain_len > self.horizon:
            raise ValueError("chain_len cannot exceed the horizon")
        self.vocab = Vocabulary(size=self.n_content + 1, terminator_id=self.n_content)
        # Responses are at most key_len tokens: a correct key fills the whole
        # window, and the terminator only appears in (invalid) short responses.
        self.max_len = self.key_len
        rng = np.random.default_rng(np.random.SeedSequence([7, self.seed]))
        self.keys = tuple(
            tuple(tuple(int(t) for t in rng.integers(0, self.n_content, self.key_len)) for _ in range(self.chain_len))
            for _ in range(self.task_count)
        )

    def _start(self, task_id: int) -> tuple[int, ...]:
        return (0,)

    def _move(self, state: EnvState, content: Sequence[int]) -> tuple[tuple[int, ...], bool, bool, bool]:
        progress = state.features[0]
        valid = len(content) == self.key_len
        if not (valid and tuple(content) == self.keys[state.task_id][progress]):
            return (progress,), valid, False, True
        success = progress + 1 == self.chain_len
        return (progress + 1,), valid, success, success or state.step_index + 1 >= self.horizon


# Movement tokens for grid-fetch: index into (dx, dy).
_MOVES = [(0, -1), (0, 1), (-1, 0), (1, 0)]


@dataclass
class GridFetchEnv(Env):
    """Navigate a small grid to a goal cell; each turn executes up to a few moves.

    Off-grid moves clip at the walls.  A response with no movement tokens is
    invalid (wasted turn).  Success is reaching the goal at the end of a
    turn within the horizon.
    """

    task_count: int = 4
    seed: int = 0
    width: int = 4
    height: int = 4
    moves_per_turn: int = 2
    horizon: int = 8
    kind: str = field(init=False, default="grid-fetch")

    def __post_init__(self) -> None:
        _require_positive(self, "task_count", "width", "height", "moves_per_turn", "horizon")
        if self.width + self.height - 2 < 2 or self.moves_per_turn * self.horizon < 2:
            raise ValueError("grid-fetch needs a start and a goal 2 to moves_per_turn * horizon moves apart")
        self.vocab = Vocabulary(size=5, terminator_id=4)
        self.max_len = self.moves_per_turn + 1
        rng = np.random.default_rng(np.random.SeedSequence([11, self.seed]))
        tasks = []
        cells = [(x, y) for x in range(self.width) for y in range(self.height)]
        while len(tasks) < self.task_count:
            start = cells[int(rng.integers(len(cells)))]
            goal = cells[int(rng.integers(len(cells)))]
            dist = abs(start[0] - goal[0]) + abs(start[1] - goal[1])
            if 2 <= dist <= self.moves_per_turn * self.horizon:
                tasks.append((start, goal))
        self.tasks = tuple(tasks)

    def _start(self, task_id: int) -> tuple[int, ...]:
        return self.tasks[task_id][0]

    def _move(self, state: EnvState, content: Sequence[int]) -> tuple[tuple[int, ...], bool, bool, bool]:
        x, y = state.features
        for tok in content:
            dx, dy = _MOVES[tok]
            x = min(max(x + dx, 0), self.width - 1)
            y = min(max(y + dy, 0), self.height - 1)
        success = (x, y) == self.tasks[state.task_id][1]
        return (x, y), len(content) > 0, success, success or state.step_index + 1 >= self.horizon


@dataclass
class BanditChainEnv(Env):
    """One arm choice per turn, judged only at the end of the chain.

    The first content token names the arm; trailing tokens are free text the
    environment ignores.  The observable state carries (turn, correct count),
    so dynamics stay a pure function of (state, response) while the reward
    still reveals nothing before termination.
    """

    task_count: int = 8
    seed: int = 0
    n_arms: int = 2
    chain_len: int = 4
    horizon: int = 8
    kind: str = field(init=False, default="bandit-chain")

    def __post_init__(self) -> None:
        _require_positive(self, "task_count", "n_arms", "chain_len", "horizon")
        if self.chain_len > self.horizon:
            raise ValueError("chain_len cannot exceed the horizon")
        self.vocab = Vocabulary(size=self.n_arms + 1, terminator_id=self.n_arms)
        self.max_len = 2
        rng = np.random.default_rng(np.random.SeedSequence([13, self.seed]))
        self.arms = tuple(
            tuple(int(a) for a in rng.integers(0, self.n_arms, self.chain_len)) for _ in range(self.task_count)
        )

    def _start(self, task_id: int) -> tuple[int, ...]:
        return (0, 0)

    def _move(self, state: EnvState, content: Sequence[int]) -> tuple[tuple[int, ...], bool, bool, bool]:
        turn, n_correct = state.features
        valid = len(content) > 0
        if valid and content[0] == self.arms[state.task_id][turn]:
            n_correct += 1
        done = state.step_index + 1 >= self.chain_len
        return (state.step_index + 1, n_correct), valid, done and n_correct == self.chain_len, done


_ENV_CLASSES = {
    "key-chain": KeyChainEnv,
    "grid-fetch": GridFetchEnv,
    "bandit-chain": BanditChainEnv,
}


def _table(env: Env) -> _Table:
    """The successor table of env's definition, bound to env._successors on first use."""
    table = vars(env).get("_successors")
    if table is None:
        definition = tuple(item for item in vars(env).items() if not item[0].startswith("_"))
        table = vars(env)["_successors"] = _successor_table(type(env), definition)
    return table


def _pair(env: Env, state: EnvState, outcome: tuple[tuple[int, ...], bool, bool, bool]) -> tuple[EnvState, bool]:
    """The (next state, valid) pair after ``state`` whose _move gave ``outcome``: the same task at step_index + 1,
    kept in env's table under (state, outcome) and under itself, so equal pairs of env.step and of every row are
    one object, and a turn taken before builds nothing."""
    table = _table(env)
    pair = table.get((state, outcome))
    if pair is None:
        features, valid, success, done = outcome
        pair = EnvState(env.kind, state.task_id, state.step_index + 1, features, done, success), valid
        pair = table[state, outcome] = table.setdefault(pair, pair)
    return pair


def successors(env: Env, state: EnvState) -> tuple[tuple[tuple[EnvState, bool], ...], np.ndarray]:
    """(pairs, index), the row of ``state``: the distinct (next state, valid) pairs of its turn in first-seen
    order, and as int32 each response's pair index, responses in response_space order.

    One _move per response's content, one _pair per distinct outcome.  Dynamics are a pure function of
    (definition, state, response), so a row is computed once per env definition per process, whatever the
    policy: every env of one class and equal public attribute values (init fields, kind, vocab, max_len and
    the task table, all hashable) reads one shared table.
    """
    table = _table(env)
    row = table.get(state)
    if row is None:
        if state.done:
            raise ValueError("step called on a terminated state")
        outcomes: dict = {}  # outcome -> pair index, streamed: no list of 10^5 outcomes on a large space
        index = [outcomes.setdefault(env._move(state, c), len(outcomes)) for c in _contents(env.vocab, env.max_len)]
        row = table[state] = (tuple(_pair(env, state, outcome) for outcome in outcomes),
                              np.array(index, dtype=np.int32))
    return row


def reachable(env: Env, starts: Iterable[EnvState]) -> Iterator[EnvState]:
    """Breadth-first and lazily: each distinct start (non-terminal, as a reset is), then every
    non-terminal state reachable from them, once each in first-seen order."""
    queue = list(dict.fromkeys(starts))
    seen = set(queue)
    for state in queue:  # the queue grows while it is walked
        pairs = successors(env, state)[0]  # the row, before the caller reads it
        yield state
        for nxt, _ in pairs:  # about 13 distinct pairs of grid-fetch's 85
            if not nxt.done and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def verify_success_reachable(env: Env) -> None:
    """Exhaustive check that every task has at least one success trajectory within the horizon."""
    for task_id in range(env.task_count):
        states = reachable(env, [env.reset(task_id)])
        if not any(nxt.success for state in states for nxt, _ in successors(env, state)[0]):
            raise ValueError(f"{env.kind} task {task_id} has no success trajectory within the horizon")


class ValuePlan(NamedTuple):
    """The non-terminal states reachable from one start, breadth first, so layer by layer (_pair always sets
    step_index + 1), and what backward induction over them reads.  Policy-free, so kept per env definition."""
    states: tuple[EnvState, ...]  # states[0] is the start
    bounds: tuple[int, ...]  # layer k is states[bounds[k]:bounds[k + 1]]
    keys: tuple[str, ...]  # the distinct policy keys of states, first seen first
    key_row: np.ndarray  # each state's index into keys
    slot: np.ndarray  # (states, responses): each response's next state, 0 a failure, 1 a success, 2 + i states[i]
    valid: np.ndarray  # (states, responses): whether each response is valid


def value_plan(env: Env, start: EnvState) -> ValuePlan:
    """The ValuePlan of a non-terminal start, built from the successor rows once per env definition."""
    successors(env, start)
    table = env._successors
    plan = table.plans.get(start)
    if plan is None:
        states = tuple(reachable(env, [start]))
        at, slot, valid, keys = {state: 2 + i for i, state in enumerate(states)}, [], [], {}
        for pairs, index in map(table.get, states):
            slot.append(np.array([at.get(nxt, int(nxt.success)) for nxt, _ in pairs], dtype=np.int32)[index])
            valid.append(np.array([ok for _, ok in pairs])[index])
        key_row = [keys.setdefault(state.policy_key, len(keys)) for state in states]
        steps = [state.step_index for state in states]
        bounds = tuple(np.searchsorted(steps, range(steps[0], steps[-1] + 2)).tolist())
        plan = table.plans[start] = ValuePlan(states, bounds, tuple(keys), np.array(key_row), np.array(slot),
                                              np.array(valid))
    return plan


def env_class(kind: str, overrides: dict) -> type:
    """The environment class of ``kind``, after checking that it takes every override key
    and that each value given for an ``int`` field is an integer."""
    if kind not in _ENV_CLASSES:
        raise ValueError(f"unknown env kind {kind!r}; choose from {sorted(_ENV_CLASSES)}")
    params = {f.name: f.type for f in fields(_ENV_CLASSES[kind]) if f.init and f.name != "seed"}
    if not isinstance(overrides, dict) or not params.keys() >= overrides.keys():
        raise ValueError(f"{kind} overrides must be an object with keys from {sorted(params)}, got {overrides!r}")
    for name, value in overrides.items():
        if params[name] == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{kind} override {name} must be an integer, got {value!r}")
    return _ENV_CLASSES[kind]


def make_env(kind: str, seed: int = 0, **overrides) -> Env:
    """Construct an environment by kind name and verify its tasks are solvable."""
    env = env_class(kind, overrides)(seed=seed, **overrides)
    verify_success_reachable(env)
    return env
