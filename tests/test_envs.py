"""Tests for the environment simulators and reward schemes."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from entlab.envs import (
    REWARD_SCHEMES,
    BanditChainEnv,
    EnvState,
    GridFetchEnv,
    KeyChainEnv,
    RewardScheme,
    make_env,
    reachable,
    successors,
    terminal_reward,
    verify_success_reachable,
)
from entlab.policy import TablePolicy, response_space
from entlab.rollout import Trajectory, collect_group
from env_reference import fresh_step
from seeding import child_rngs


def _expanded(row):
    """A successors row (pairs, index) as one (next state, valid) pair per response, in response_space order."""
    pairs, index = row
    return tuple(pairs[i] for i in index)


#: sha256 of repr([(state, successors row expanded in response order) for every reachable state]) at env seed 0:
#: the dynamics of every kind, defaults and one other size, pinned row by row, so a change to reset, step or a
#: task table shows.
SUCCESSOR_DIGESTS = [
    ("key-chain", {}, 16, "9946a2f0c8b0d2af3895d652c41bdedbf7e605f26861f4461200e2150f91c806"),
    ("key-chain", {"n_content": 3, "key_len": 3, "chain_len": 3}, 24,
     "4cddc4feda99648a2c7a0377c94663e9a09df3a03be61cde00e4868fdfa67ae9"),
    ("grid-fetch", {}, 411, "2fe4983d27371db422158343899f640629fc48d57c0b777ad887a6e34ed72273"),
    ("grid-fetch", {"width": 5, "height": 3, "moves_per_turn": 3}, 395,
     "e381cb159c98d739d5753f9e4fefe44af9d1648bdf3821d8dfce4c137c8dbbff"),
    ("bandit-chain", {}, 80, "dca4c80c72094520bc17f5060f7b246922ac7786f398b02b89d66636e22e0ac9"),
    ("bandit-chain", {"n_arms": 3, "chain_len": 3}, 48,
     "46ddeec948879a5758b7ffa786822bab86189f9321f16254e0212f34c95bb81a"),
]


@pytest.mark.parametrize("kind,overrides,n_states,digest", SUCCESSOR_DIGESTS,
                         ids=[f"{kind}{overrides or ''}" for kind, overrides, _, _ in SUCCESSOR_DIGESTS])
def test_successor_tables_are_pinned(kind, overrides, n_states, digest):
    env = make_env(kind, seed=0, **overrides)
    table = [(s, _expanded(successors(env, s)))
             for s in reachable(env, [env.reset(t) for t in range(env.task_count)])]
    assert len(table) == n_states
    assert hashlib.sha256(repr(table).encode()).hexdigest() == digest


@pytest.mark.parametrize("kind,overrides", [(kind, overrides) for kind, overrides, _, _ in SUCCESSOR_DIGESTS],
                         ids=[f"{kind}{overrides or ''}" for kind, overrides, _, _ in SUCCESSOR_DIGESTS])
def test_successor_rows_equal_env_step(kind, overrides):
    """A row's pairs, expanded in response order, are the fresh-_move reference's element by element, and
    env.step returns the kept pair itself (is) for every response; each row holds each distinct pair once, in
    first-seen order, with an int32 index; equal pairs are one object across rows; and a terminated state is
    refused with step's error."""
    env = make_env(kind, seed=0, **overrides)
    space = response_space(env.vocab, env.max_len)
    states = list(reachable(env, [env.reset(t) for t in range(env.task_count)]))
    shared: dict = {}
    for state in states:
        pairs, index = successors(env, state)
        assert index.dtype == np.int32 and len(index) == len(space)
        assert list(dict.fromkeys(index.tolist())) == list(range(len(pairs))) == list(range(len(set(pairs))))
        for pair, r in zip(_expanded((pairs, index)), space):
            (nxt, valid), (want_nxt, want_valid) = pair, fresh_step(env, state, list(r))
            assert nxt == want_nxt and repr(nxt) == repr(want_nxt) and hash(nxt) == hash(want_nxt)
            assert type(valid) is type(want_valid) and valid == want_valid
            assert env.step(state, list(r)) is pair
        for pair in pairs:
            assert shared.setdefault(pair, pair) is pair
    done = next(nxt for s in states for nxt, _ in successors(env, s)[0] if nxt.done)
    with pytest.raises(ValueError) as stepped:
        env.step(done, list(space[0]))
    with pytest.raises(ValueError) as listed:
        successors(env, done)
    assert str(listed.value) == str(stepped.value) == "step called on a terminated state"
    assert done not in env._successors


@pytest.mark.parametrize("kind", ["key-chain", "grid-fetch"])
def test_rollout_turns_step_to_the_kept_pairs(kind):
    """Every turn of collect_group, on every task, moves to the kept row's next state object (is), with its
    valid flag: a rollout's states are the env graph's own, from the kept start on."""
    env = make_env(kind, seed=0)
    leaf = {r: j for j, r in enumerate(response_space(env.vocab, env.max_len))}
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    turns = 0
    for task in range(env.task_count):
        group = collect_group(policy, env, task, REWARD_SCHEMES["sparse"], child_rngs(np.random.default_rng(task), 8))
        for traj in group.trajectories:
            assert traj.turns[0].state is env.reset(task)
            for turn, nxt in zip(traj.turns, [t.state for t in traj.turns[1:]] + [traj.final_state]):
                pairs, index = successors(env, turn.state)
                kept = pairs[index[leaf[tuple(turn.response.tokens)]]]
                assert kept[0] is nxt and kept[1] is turn.valid
                turns += 1
    assert turns > 8 * env.task_count  # some rollouts take more than one turn


@pytest.mark.parametrize("kind", ["key-chain", "grid-fetch", "bandit-chain"])
def test_step_refuses_tokens_that_are_not_one_complete_response(kind):
    """step reads the row of one complete response, so it refuses tokens past the terminator or past max_len,
    tokens that stop short without the terminator, and tokens outside the vocabulary; no tokens at all too."""
    env = make_env(kind, seed=0)
    state, term, size = env.reset(0), env.vocab.terminator_id, env.vocab.size
    cases = [[term, 0], [0] * env.max_len + [term], [0] * (env.max_len - 1), [size, term], [-1, term], []]
    for tokens in cases:
        with pytest.raises(ValueError, match=r"are not one complete response"):
            env.step(state, tokens)
    assert env.step(state, [term]) == fresh_step(env, state, [term])


@pytest.mark.parametrize("kind", ["key-chain", "grid-fetch", "bandit-chain"])
def test_step_refuses_bad_tokens_and_terminated_states_whatever_it_keeps(kind):
    """step keeps only checked turns of non-terminal states, so tokens that are not one complete response and a
    terminated state are refused alike before and after it holds (state, tokens) entries; a refusal keeps none."""
    env = make_env(kind, seed=3)
    state, term, size = env.reset(0), env.vocab.terminator_id, env.vocab.size
    space = response_space(env.vocab, env.max_len)
    bad = [[term, 0], [0] * env.max_len + [term], [0] * (env.max_len - 1), [size, term], [-1, term], []]
    done = next(nxt for s in reachable(env, [state]) for nxt, _ in successors(env, s)[0] if nxt.done)
    for kept in (False, True):
        assert ((state, space[0]) in env._successors) is kept
        for tokens in bad:
            with pytest.raises(ValueError, match=r"are not one complete response"):
                env.step(state, tokens)
            assert (state, tuple(tokens)) not in env._successors
        for tokens in space:
            with pytest.raises(ValueError, match="step called on a terminated state"):
                env.step(done, list(tokens))
            assert (done, tokens) not in env._successors
        for tokens in space:  # every response's turn, through the memo the second time round
            assert env.step(state, list(tokens)) == fresh_step(env, state, list(tokens))


def test_step_runs_one_move_and_builds_no_successor_row(monkeypatch):
    """A rollout turn costs at most one _move, whatever the response space: step keeps the one pair it reaches,
    so a state it leaves has no row, and a second step on the same tokens is one lookup, with no _move."""
    env = make_env("grid-fetch", seed=0)
    state = EnvState(env.kind, 0, env.horizon + 5, env.reset(0).features)  # unreachable, so no row is kept
    calls = []
    original = type(env)._move

    def counted(self, state, content):
        calls.append(content)
        return original(self, state, content)

    monkeypatch.setattr(type(env), "_move", counted)
    first = env.step(state, [0, env.vocab.terminator_id])
    assert calls == [(0,)] and state not in env._successors
    assert env.step(state, [0, env.vocab.terminator_id]) is first and calls == [(0,)]
    assert env.step(state, (0, env.vocab.terminator_id)) is first and calls == [(0,)]
    assert state not in env._successors
    assert first == fresh_step(env, state, [0, env.vocab.terminator_id])


def test_rebinding_an_env_attribute_drops_its_successor_rows():
    """make_env keeps rows from its solvability check; a rebound task table must not be checked against them.
    reset keeps one start state per task in the same table, and a rebound grid-fetch task table drops them."""
    env = make_env("key-chain", seed=0, task_count=3)
    assert env._successors
    assert env.reset(1) is env.reset(1)
    env.keys = (*env.keys[:2], (env.keys[2][0], (0, env.vocab.terminator_id)))
    assert "_successors" not in vars(env)
    with pytest.raises(ValueError, match="key-chain task 2 has no success trajectory"):
        verify_success_reachable(env)

    grid = make_env("grid-fetch", seed=0)
    start = grid.reset(0)
    assert grid.reset(0) is start and start.features == grid.tasks[0][0]
    cell = next((x, y) for x in range(grid.width) for y in range(grid.height) if (x, y) != start.features)
    grid.tasks = ((cell, grid.tasks[0][1]), *grid.tasks[1:])
    assert "_successors" not in vars(grid)
    assert grid.reset(0).features == cell and grid._successors.starts[0] is grid.reset(0)


class _TorusGridEnv(GridFetchEnv):
    """grid-fetch whose moves wrap around the walls: the attributes of GridFetchEnv, other dynamics."""

    def _move(self, state, content):
        x, y = state.features
        for tok in content:
            dx, dy = ((0, -1), (0, 1), (-1, 0), (1, 0))[tok]
            x, y = (x + dx) % self.width, (y + dy) % self.height
        success = (x, y) == self.tasks[state.task_id][1]
        return (x, y), len(content) > 0, success, success or state.step_index + 1 >= self.horizon


def _rows_are_env_step(env) -> bool:
    """Every reachable row of env's successors, expanded, equals the fresh-_move reference over the response space."""
    space = response_space(env.vocab, env.max_len)
    return all(_expanded(successors(env, s)) == tuple(fresh_step(env, s, list(r)) for r in space)
               for s in reachable(env, [env.reset(t) for t in range(env.task_count)]))


def test_envs_of_one_definition_share_one_successor_table():
    """make_env with equal arguments reads the rows another env built; a different seed, override, kind or
    class (equal attributes, other dynamics) is another definition, with its own table and its own rows."""
    a, b = make_env("grid-fetch", seed=0), make_env("grid-fetch", seed=0)
    assert a is not b and a._successors is b._successors and a.reset(1) is b.reset(1)
    assert successors(a, a.reset(0)) is successors(b, b.reset(0))
    others = [make_env("grid-fetch", seed=1), make_env("grid-fetch", seed=0, width=5),
              make_env("key-chain", seed=0), _TorusGridEnv(seed=0)]
    for other in others:
        successors(other, other.reset(0))
        assert other._successors is not a._successors
        assert _rows_are_env_step(other)
    assert len({id(other._successors) for other in others}) == len(others)
    assert _rows_are_env_step(a)


def test_rebinding_one_env_leaves_the_rows_of_another_intact():
    """A rebound task table is another definition: the rebound env gets rows of its new dynamics, and an env
    of the old definition keeps its table object and its rows."""
    a, b = make_env("key-chain", seed=0, task_count=3), make_env("key-chain", seed=0, task_count=3)
    table, row = a._successors, successors(a, a.reset(2))
    b.keys = (*b.keys[:2], (b.keys[2][0], (0, b.vocab.terminator_id)))
    assert _rows_are_env_step(b)
    assert b._successors is not table
    assert a._successors is table and successors(a, a.reset(2)) is row
    assert _rows_are_env_step(a)
    verify_success_reachable(a)
    with pytest.raises(ValueError, match="key-chain task 2 has no success trajectory"):
        verify_success_reachable(b)


def test_reward_scheme_validation():
    with pytest.raises(ValueError):
        RewardScheme(success=0.0, failure=0.0)
    assert REWARD_SCHEMES["sparse"].invalid_penalty == -0.1
    assert REWARD_SCHEMES["binary"].invalid_penalty == 0.0


def test_policy_key_format():
    s = EnvState(env_kind="key-chain", task_id=3, step_index=1, features=(2, 5))
    assert s.policy_key == "key-chain#3#2,5"
    # Joined once per state; the cached key takes no part in equality, hashing or repr.
    assert s.policy_key is s.policy_key
    fresh = EnvState(env_kind="key-chain", task_id=3, step_index=1, features=(2, 5))
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert s != EnvState(env_kind="key-chain", task_id=3, step_index=2, features=(2, 5))


@pytest.mark.parametrize("first", ["policy_key", "hash", "neither"])
def test_env_state_hash_is_cached_and_consistent_with_eq(first):
    """Equal states hash equal whichever cache was filled first, and neither cache shows in repr or ==."""
    fields = dict(env_kind="grid-fetch", task_id=1, step_index=2, features=(3, 0), done=True, success=True)
    a, b = EnvState(**fields), EnvState(**fields)
    before = repr(a)
    if first == "policy_key":
        a.policy_key
    elif first == "hash":
        hash(a)
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert hash(a) == hash(a) and a == b and {a: 1}[b] == 1
    assert repr(a) == repr(b) == before and "_hash" not in before and "_key" not in before
    b.policy_key
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    for name, other in [("task_id", 2), ("features", (3, 1)), ("done", False), ("success", False)]:
        changed = EnvState(**{**fields, name: other})
        assert changed != a and hash(changed) == hash(tuple({**fields, name: other}.values()))


def _run_to_reward(env, task_id, responses, scheme):
    """Drive the env with scripted responses and return (trajectory reward, final state)."""
    from entlab.policy import Response

    state = env.reset(task_id)
    turns = []
    for tokens in responses:
        nxt, valid = env.step(state, tokens)
        fake = Response(tokens=list(tokens), logprobs=[0.0] * len(tokens), entropies=[0.0] * len(tokens))
        from entlab.rollout import Turn

        turns.append(Turn(state=state, response=fake, valid=valid))
        state = nxt
        if state.done:
            break
    traj = Trajectory(prompt_id=task_id, turns=turns, final_state=state)
    traj.reward = terminal_reward(traj, scheme)
    return traj, state


def test_key_chain_success_path_and_rewards():
    env = KeyChainEnv(seed=0)
    scheme = REWARD_SCHEMES["sparse"]
    for task_id in range(env.task_count):
        keys = env.keys[task_id]
        traj, state = _run_to_reward(env, task_id, [list(k) for k in keys], scheme)
        assert state.done and state.success
        assert traj.reward == pytest.approx(scheme.success)


def test_key_chain_wrong_key_fails_immediately():
    env = KeyChainEnv(seed=0)
    key = env.keys[0][0]
    wrong = list(key)
    wrong[0] = (wrong[0] + 1) % env.n_content
    state, valid = env.step(env.reset(0), wrong)
    assert valid  # right shape, wrong content
    assert state.done and not state.success


def test_key_chain_short_response_is_invalid():
    env = KeyChainEnv(seed=0)
    state, valid = env.step(env.reset(0), [env.vocab.terminator_id])
    assert not valid
    assert state.done and not state.success
    traj, state = _run_to_reward(env, 0, [[env.vocab.terminator_id]], REWARD_SCHEMES["sparse"])
    assert traj.invalid_count == 1
    assert traj.reward == pytest.approx(0.0 + (-0.1) * 1)


def test_key_chain_window_matches_key_length():
    env = KeyChainEnv(seed=0, key_len=3)
    assert env.max_len == 3
    assert all(len(k) == 3 for task in env.keys for k in task)


def test_key_chain_progress_feature_advances():
    env = KeyChainEnv(seed=1)
    state = env.reset(2)
    assert state.features == (0,)
    state, _ = env.step(state, list(env.keys[2][0]))
    assert state.features == (1,)
    assert not state.done


def test_grid_fetch_moves_and_wall_clipping():
    env = GridFetchEnv(seed=0)
    start, goal = env.tasks[0]
    state = env.reset(0)
    assert state.features == start
    # move left twice from x=0 stays clipped on the wall
    env2 = GridFetchEnv(seed=0)
    s = EnvState(env_kind="grid-fetch", task_id=0, step_index=0, features=(0, 0))
    nxt, valid = env2.step(s, [2, 2, env2.vocab.terminator_id])
    assert valid
    assert nxt.features == (0, 0)


def test_grid_fetch_empty_response_invalid_but_nonterminal():
    env = GridFetchEnv(seed=0)
    state = env.reset(0)
    nxt, valid = env.step(state, [env.vocab.terminator_id])
    assert not valid
    assert not nxt.done or nxt.step_index >= env.horizon


def test_grid_fetch_tasks_within_reach():
    env = GridFetchEnv(seed=3)
    for start, goal in env.tasks:
        dist = abs(start[0] - goal[0]) + abs(start[1] - goal[1])
        assert 2 <= dist <= env.moves_per_turn * env.horizon


def test_bandit_chain_counts_correct_arms():
    env = BanditChainEnv(seed=0)
    arms = env.arms[0]
    state = env.reset(0)
    for turn, arm in enumerate(arms):
        assert state.features == (turn, turn)
        state, valid = env.step(state, [arm, env.vocab.terminator_id])
        assert valid
    assert state.done and state.success


def test_bandit_chain_single_miss_fails_at_the_end():
    env = BanditChainEnv(seed=0)
    arms = env.arms[1]
    state = env.reset(1)
    for turn, arm in enumerate(arms):
        played = arm if turn > 0 else 1 - arm
        state, _ = env.step(state, [played, env.vocab.terminator_id])
    assert state.done and not state.success
    assert state.features[1] == len(arms) - 1


@pytest.mark.parametrize("kind", ["key-chain", "grid-fetch", "bandit-chain"])
def test_stepping_a_terminated_state_raises(kind):
    env = make_env(kind, seed=0)
    state = next(nxt for s in reachable(env, [env.reset(0)]) for nxt, _ in successors(env, s)[0] if nxt.done)
    with pytest.raises(ValueError, match="terminated"):
        env.step(state, [0, env.vocab.terminator_id])


@pytest.mark.parametrize("kind", ["key-chain", "grid-fetch", "bandit-chain"])
def test_reset_refuses_a_task_id_out_of_range(kind):
    env = make_env(kind, seed=0)
    for task_id in (-1, env.task_count):
        with pytest.raises(ValueError, match="outside"):
            env.reset(task_id)


def test_response_space_is_complete_and_sorted():
    from entlab.policy import Vocabulary

    space = response_space(Vocabulary(size=3, terminator_id=2), max_len=2)
    assert list(space) == sorted(space)
    # 2-token window over {0, 1, term}: (term,), (0,*), (1,*)
    assert (2,) in space
    assert (0, 2) in space and (1, 1) in space
    assert len(space) == 1 + 2 * 3


def test_make_env_verifies_and_rejects_unknown_kind():
    env = make_env("key-chain", seed=0)
    verify_success_reachable(env)
    with pytest.raises(ValueError):
        make_env("maze")


def test_verify_success_reachable_refuses_an_unsolvable_task():
    """A key holding the terminator cannot be emitted: content stops at the terminator."""
    env = KeyChainEnv(seed=0, task_count=3)
    with pytest.raises(TypeError):  # the table is frozen: an in-place edit would leave successor rows stale
        env.keys[2][1] = (0, env.vocab.terminator_id)
    env.keys = (*env.keys[:2], (env.keys[2][0], (0, env.vocab.terminator_id)))
    with pytest.raises(ValueError, match="key-chain task 2 has no success trajectory"):
        verify_success_reachable(env)


def test_env_seeds_change_tasks():
    a = KeyChainEnv(seed=0)
    b = KeyChainEnv(seed=1)
    assert a.keys != b.keys
    assert KeyChainEnv(seed=0).keys == a.keys


def test_reset_helper_returns_initial_state():
    state = make_env("bandit-chain", seed=0).reset(2)
    assert state.policy_key == "bandit-chain#2#0,0"
    assert not state.done


def test_terminal_reward_requires_termination():
    env = KeyChainEnv(seed=0)
    traj = Trajectory(prompt_id=0, turns=[], final_state=env.reset(0))
    with pytest.raises(ValueError):
        terminal_reward(traj, REWARD_SCHEMES["binary"])
