"""Tests for the advantage estimators: GRPO, leave-one-out and the enumeration oracle."""

from __future__ import annotations

import numpy as np
import pytest

from entlab.advantage import (
    compute_advantages,
    grpo_advantage,
    oracle_value_advantage,
    rloo_advantage,
    state_value,
)
import entlab.envs
from entlab.envs import REWARD_SCHEMES, make_env, reachable
from entlab.policy import Response, TablePolicy, _tree_shape, enumerate_responses, response_space
from entlab.probes import reachable_states
from entlab.rollout import Group, Trajectory, Turn, collect_group
from seeding import child_rngs


def _group_with_rewards(rewards):
    """Minimal single-turn group whose trajectories carry the given rewards."""
    env = make_env("key-chain", seed=0)
    trajectories = []
    for r in rewards:
        resp = Response(tokens=[env.vocab.terminator_id], logprobs=[-1.0], entropies=[1.0])
        state = env.reset(0)
        nxt, valid = env.step(state, resp.tokens)
        traj = Trajectory(
            prompt_id=0,
            turns=[Turn(state=state, response=resp, valid=valid)],
            final_state=nxt,
            reward=float(r),
        )
        trajectories.append(traj)
    return Group(prompt_id=0, trajectories=trajectories)


def test_grpo_worked_values():
    group = _group_with_rewards([10.0, 0.0, 0.0, 10.0])
    table = grpo_advantage(group)
    got = [table.values[(i, 0)] for i in range(4)]
    np.testing.assert_allclose(got, [1.0, -1.0, -1.0, 1.0], rtol=1e-6)


def test_grpo_zero_variance_yields_zeros():
    group = _group_with_rewards([3.0, 3.0, 3.0])
    table = grpo_advantage(group)
    assert all(v == 0.0 for v in table.values.values())


def test_grpo_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rewards = rng.normal(size=6)
        a = grpo_advantage(_group_with_rewards(rewards))
        b = grpo_advantage(_group_with_rewards(rewards + 17.5))
        for key in a.values:
            assert a.values[key] == pytest.approx(b.values[key], abs=1e-9)


def test_grpo_mean_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rewards = rng.normal(size=5)
        table = grpo_advantage(_group_with_rewards(rewards))
        per_traj = [table.values[(i, 0)] for i in range(5)]
        assert sum(per_traj) == pytest.approx(0.0, abs=1e-9)


def test_rloo_worked_values():
    group = _group_with_rewards([10.0, 0.0, 0.0, 0.0])
    table = rloo_advantage(group)
    assert table.values[(0, 0)] == pytest.approx(10.0)
    for i in (1, 2, 3):
        assert table.values[(i, 0)] == pytest.approx(-10.0 / 3.0)


def test_rloo_needs_two_rollouts():
    with pytest.raises(ValueError):
        rloo_advantage(_group_with_rewards([1.0]))


def test_advantage_broadcast_covers_every_span():
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    group = collect_group(policy, env, 0, REWARD_SCHEMES["sparse"], child_rngs(np.random.default_rng(3), 8))
    table = grpo_advantage(group)
    assert set(table.values) == {(s.rollout_index, s.turn_index) for s in group.spans}
    # every span of one trajectory shares that trajectory's scalar
    for span in group.spans:
        assert table.values[(span.rollout_index, span.turn_index)] == table.values[(span.rollout_index, 0)]


def test_state_value_uniform_key_chain():
    """Closed-form check: uniform policy, binary scheme, single-key chain.

    With |V| = 3 and a 2-token window, a specific 2-token key has
    probability 1/9 per turn, so the root value of a chain of length 2
    is (1/9)^2.
    """
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    v = state_value(policy, env, env.reset(0), REWARD_SCHEMES["binary"])
    assert v == pytest.approx((1.0 / 9.0) ** 2, rel=1e-9)


def test_state_value_counts_future_invalid_penalties():
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["sparse"]
    v = state_value(policy, env, env.reset(0), scheme)
    # under uniform sampling: P(invalid now) = P(response shorter than the key)
    # = P(term first) + P(content, term) = 1/3 + 2/9 = 5/9; success pays 10 * (1/81)
    # and a correct first key (p = 1/9) leads to a state worth v1
    v1 = 10.0 * (1.0 / 9.0) + scheme.invalid_penalty * (5.0 / 9.0)
    want = (1.0 / 9.0) * v1 + scheme.invalid_penalty * (5.0 / 9.0)
    assert v == pytest.approx(want, rel=1e-9)


def test_oracle_value_advantage_matches_reward_minus_value():
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["binary"]
    group = collect_group(policy, env, 0, scheme, child_rngs(np.random.default_rng(5), 6))
    table = oracle_value_advantage(group, env, policy, scheme)
    memo: dict = {}
    for i, traj in enumerate(group.trajectories):
        for t, turn in enumerate(traj.turns):
            want = traj.reward - state_value(policy, env, turn.state, scheme, memo)
            assert table.values[(i, t)] == pytest.approx(want)


def test_oracle_advantage_mean_zero_over_on_policy_samples():
    """E[R - V(s0)] = 0 by definition of the value; check the MC mean is near zero."""
    env = make_env("key-chain", seed=0, chain_len=1)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["binary"]
    group = collect_group(policy, env, 0, scheme, child_rngs(np.random.default_rng(8), 2000))
    table = oracle_value_advantage(group, env, policy, scheme)
    first_turn = np.array([table.values[(i, 0)] for i in range(len(group.trajectories))])
    stderr = first_turn.std() / np.sqrt(len(first_turn))
    assert abs(float(first_turn.mean())) < 4.0 * stderr


def test_compute_advantages_dispatch():
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["binary"]
    group = collect_group(policy, env, 0, scheme, child_rngs(np.random.default_rng(2), 4))
    mixed = _group_with_rewards([1.0, 0.0, 0.0, 0.5])
    assert compute_advantages(mixed, "grpo").values == grpo_advantage(mixed).values
    assert compute_advantages(mixed, "rloo").values == rloo_advantage(mixed).values != grpo_advantage(mixed).values
    oracle = compute_advantages(group, "oracle_value", env=env, policy=policy, scheme=scheme)
    assert oracle.values == oracle_value_advantage(group, env, policy, scheme).values
    with pytest.raises(ValueError):
        compute_advantages(group, "oracle_value")
    with pytest.raises(ValueError):
        compute_advantages(group, "vtrace")


def _state_value_recursive(policy, env, state, scheme, memo):
    """Straight-line copy of the per-call recursive state_value: env.step and enumeration at every state."""
    if state.done:
        return scheme.success if state.success else scheme.failure
    if state in memo:
        return memo[state]
    total = 0.0
    for tokens, prob in enumerate_responses(policy, state.policy_key):
        if prob == 0.0:
            continue
        nxt, valid = env.step(state, list(tokens))
        contrib = (0.0 if valid else scheme.invalid_penalty) + _state_value_recursive(policy, env, nxt, scheme, memo)
        total += prob * contrib
    memo[state] = total
    return total


def _reachable(env):
    """Every non-done state reachable from any task, in breadth-first order."""
    states = [env.reset(task) for task in range(env.task_count)]
    seen = set(states)
    for state in states:
        for tokens in response_space(env.vocab, env.max_len):
            nxt, _ = env.step(state, list(tokens))
            if not nxt.done and nxt not in seen:
                seen.add(nxt)
                states.append(nxt)
    return states


def _random_logits(env, states, seed):
    """Normal(0, 1.5) logits on every prefix of every visited policy key."""
    rng = np.random.default_rng(seed)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    for key in dict.fromkeys(s.policy_key for s in states):
        for prefix in _tree_shape(env.vocab, env.max_len).prefixes:
            policy.logit_vector(key, prefix)[:] = 1.5 * rng.normal(size=env.vocab.size)
    return policy


@pytest.mark.parametrize("kind, overrides", [
    ("key-chain", {"chain_len": 2}),
    ("grid-fetch", {}),
    ("bandit-chain", {}),
])
def test_state_value_is_bit_identical_to_recursive_walk(kind, overrides):
    """The env's successors table and the per-key enumeration change no float bit, whatever the policy."""
    env = make_env(kind, seed=0, **overrides)
    scheme = REWARD_SCHEMES["sparse"]
    states = _reachable(env)
    for seed in (0, 1):
        policy = _random_logits(env, states, seed)
        logits = {key: vec.copy() for key, vec in policy.logits.items()}
        want_memo: dict = {}
        want = [_state_value_recursive(policy, env, s, scheme, want_memo) for s in states]
        memo: dict = {}
        # One env table across both policies (the second reads what the first filled) ...
        assert [state_value(policy, env, s, scheme, memo) for s in states] == want
        # ... against fresh caches at each task's initial state, which walk every state below it.
        roots = states[:env.task_count]
        assert [state_value(policy, env, s, scheme) for s in roots] == want[:env.task_count]
        assert policy.logits.keys() == logits.keys()
        assert all(np.array_equal(policy.logits[key], vec) for key, vec in logits.items())
    assert all(env._successors[s] for s in states)


@pytest.mark.parametrize("kind", ["key-chain", "grid-fetch", "bandit-chain"])
def test_state_value_after_reachable_states_makes_no_env_step(kind, monkeypatch):
    """reachable_states fills the successors table of the env's definition, so a second make_env with the same
    arguments runs its solvability check and every exact value without moving the env (successors builds rows
    from _move, not step, so _move is what is counted); another definition builds its own rows."""
    entlab.envs._successor_table.cache_clear()  # seed 1 below is built fresh
    env = make_env(kind, seed=0)
    reachable_states(env)
    calls = []
    original = type(env)._move

    def counted(self, state, content):
        calls.append(state)
        return original(self, state, content)

    monkeypatch.setattr(type(env), "_move", counted)
    env = make_env(kind, seed=0)
    states = list(reachable(env, [env.reset(task) for task in range(env.task_count)]))
    policy = _random_logits(env, states, seed=0)
    for state in states:
        state_value(policy, env, state, REWARD_SCHEMES["sparse"], {})
    assert calls == []
    make_env(kind, seed=1)
    assert calls

