"""Tests for the advantage estimators: GRPO, leave-one-out and the enumeration oracle."""

from __future__ import annotations

import re

import numpy as np
import pytest

from entlab.advantage import (
    ESTIMATORS,
    compute_advantages,
    grpo_advantage,
    oracle_value_advantage,
    rloo_advantage,
    state_value,
)
import entlab.envs
from entlab.envs import REWARD_SCHEMES, EnvState, make_env, reachable
from entlab.policy import Response, TablePolicy, Vocabulary, _tree_shape, enumerate_responses
from entlab.probes import reachable_states
from entlab.rollout import Group, Trajectory, Turn, collect_group
from env_reference import fresh_step
from seeding import child_rngs


def _group_with_rewards(rewards):
    """Minimal single-turn group whose trajectories carry the given rewards."""
    env = make_env("key-chain", seed=0)
    trajectories = []
    for i, r in enumerate(rewards):
        resp = Response(tokens=[env.vocab.terminator_id], logprobs=[-1.0], entropies=[1.0])
        state = env.reset(0)
        nxt, valid = env.step(state, resp.tokens)
        traj = Trajectory(
            prompt_id=0,
            turns=[Turn(rollout_index=i, turn_index=0, state=state, response=resp, valid=valid)],
            final_state=nxt,
            reward=float(r),
        )
        trajectories.append(traj)
    return Group(prompt_id=0, trajectories=trajectories)


def test_grpo_worked_values():
    group = _group_with_rewards([10.0, 0.0, 0.0, 10.0])
    advantages = grpo_advantage(group)
    got = [advantages[i] for i in range(4)]  # one single-turn span per rollout, in rollout order
    np.testing.assert_allclose(got, [1.0, -1.0, -1.0, 1.0], rtol=1e-6)


def test_grpo_zero_variance_yields_zeros():
    group = _group_with_rewards([3.0, 3.0, 3.0])
    advantages = grpo_advantage(group)
    assert all(v == 0.0 for v in advantages)


def test_grpo_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rewards = rng.normal(size=6)
        a = grpo_advantage(_group_with_rewards(rewards))
        b = grpo_advantage(_group_with_rewards(rewards + 17.5))
        for pos in range(len(a)):
            assert a[pos] == pytest.approx(b[pos], abs=1e-9)


def test_grpo_mean_zero():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rewards = rng.normal(size=5)
        advantages = grpo_advantage(_group_with_rewards(rewards))
        per_traj = [advantages[i] for i in range(5)]
        assert sum(per_traj) == pytest.approx(0.0, abs=1e-9)


def test_rloo_worked_values():
    group = _group_with_rewards([10.0, 0.0, 0.0, 0.0])
    advantages = rloo_advantage(group)
    assert advantages[0] == pytest.approx(10.0)
    for i in (1, 2, 3):
        assert advantages[i] == pytest.approx(-10.0 / 3.0)


def test_rloo_needs_two_rollouts():
    with pytest.raises(ValueError):
        rloo_advantage(_group_with_rewards([1.0]))


def test_advantage_broadcast_covers_every_span():
    """Every estimator gives a plain list with one value per span, in group.spans order."""
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["sparse"]
    group = collect_group(policy, env, 0, scheme, child_rngs(np.random.default_rng(3), 8))
    assert any(len(traj.turns) > 1 for traj in group.trajectories)
    for estimator in ESTIMATORS:
        advantages = compute_advantages(group, estimator, env=env, policy=policy, scheme=scheme)
        assert type(advantages) is list
        assert len(advantages) == len(group.spans)
        if estimator != "oracle_value":  # every span of one trajectory shares that trajectory's scalar
            first = {span.rollout_index: adv for span, adv in zip(group.spans, advantages) if span.turn_index == 0}
            for span, adv in zip(group.spans, advantages, strict=True):
                assert adv == first[span.rollout_index]


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
    advantages = iter(oracle_value_advantage(group, env, policy, scheme))
    memo: dict = {}
    for traj in group.trajectories:  # group.spans order: rollout by rollout, turns in order
        for turn in traj.turns:
            want = traj.reward - state_value(policy, env, turn.state, scheme, memo)
            assert next(advantages) == pytest.approx(want)
    assert next(advantages, None) is None


def test_oracle_advantage_mean_zero_over_on_policy_samples():
    """E[R - V(s0)] = 0 by definition of the value; check the MC mean is near zero."""
    env = make_env("key-chain", seed=0, chain_len=1)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["binary"]
    group = collect_group(policy, env, 0, scheme, child_rngs(np.random.default_rng(8), 2000))
    advantages = oracle_value_advantage(group, env, policy, scheme)
    first_turn = np.array([adv for span, adv in zip(group.spans, advantages, strict=True) if span.turn_index == 0])
    stderr = first_turn.std() / np.sqrt(len(first_turn))
    assert abs(float(first_turn.mean())) < 4.0 * stderr


def test_compute_advantages_dispatch():
    env = make_env("key-chain", seed=0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    scheme = REWARD_SCHEMES["binary"]
    group = collect_group(policy, env, 0, scheme, child_rngs(np.random.default_rng(2), 4))
    mixed = _group_with_rewards([1.0, 0.0, 0.0, 0.5])
    assert compute_advantages(mixed, "grpo") == grpo_advantage(mixed)
    assert compute_advantages(mixed, "rloo") == rloo_advantage(mixed) != grpo_advantage(mixed)
    oracle = compute_advantages(group, "oracle_value", env=env, policy=policy, scheme=scheme)
    assert oracle == oracle_value_advantage(group, env, policy, scheme)
    with pytest.raises(ValueError):
        compute_advantages(group, "oracle_value")
    with pytest.raises(ValueError):
        compute_advantages(group, "vtrace")


def _state_value_recursive(policy, env, state, scheme, memo):
    """Straight-line copy of the per-call recursive state_value: the fresh-_move reference step and enumeration at
    every state, so nothing is read from the env's kept rows."""
    if state.done:
        return scheme.success if state.success else scheme.failure
    if state in memo:
        return memo[state]
    total = 0.0
    for tokens, prob in enumerate_responses(policy, state.policy_key):
        if prob == 0.0:
            continue
        nxt, valid = fresh_step(env, state, list(tokens))
        contrib = (0.0 if valid else scheme.invalid_penalty) + _state_value_recursive(policy, env, nxt, scheme, memo)
        total += prob * contrib
    memo[state] = total
    return total


def _reachable(env):
    """Every non-done state reachable from any task, in breadth-first order."""
    states = [env.reset(task) for task in range(env.task_count)]
    seen = set(states)
    for state in states:
        for tokens in _tree_shape(env.vocab, env.max_len).leaves:
            nxt, _ = fresh_step(env, state, list(tokens))
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
    # Each fresh memo evaluates its state's task-start plan: one plan per task, none per later state.
    assert env._successors.plans.keys() == {env.reset(task) for task in range(env.task_count)}
    make_env(kind, seed=1)
    assert calls



def test_state_value_is_bit_identical_to_recursive_walk_with_zero_probability_leaves():
    """Underflowing logits (those of the regularizer's grid-fetch-underflow case) give leaves of probability 0.0,
    which the recursion skips and the plan adds as ±0.0 terms; from the roots, the plan also evaluates states
    that no leaf of positive probability reaches, and every value keeps its bits."""
    env = make_env("grid-fetch", seed=0)
    scheme = REWARD_SCHEMES["sparse"]
    states = _reachable(env)
    policy = _random_logits(env, states, seed=0)
    for key in dict.fromkeys(s.policy_key for s in states):
        policy.logit_vector(key, ())[1] = -800.0
        policy.logit_vector(key, (0,))[2] = 750.0
    assert 0 < sum(prob == 0.0 for _, prob in enumerate_responses(policy, states[0].policy_key)) < 85
    roots, want_memo = states[:env.task_count], {}
    want = [_state_value_recursive(policy, env, s, scheme, want_memo) for s in roots]
    memo: dict = {}
    assert [state_value(policy, env, s, scheme, memo) for s in roots] == want
    assert set(want_memo) < set(memo) == set(states)
    assert [memo[s] for s in want_memo] == list(want_memo.values())
    want_memo = {}
    assert [state_value(policy, env, s, scheme, {}) for s in states] == [
        _state_value_recursive(policy, env, s, scheme, want_memo) for s in states]


def test_a_second_env_of_one_definition_builds_no_new_plan(monkeypatch):
    """The plan is kept in the successor table of the env's definition, so another make_env with the same
    arguments reads it: no reachable walk, no new plan, the same values."""
    env = make_env("grid-fetch", seed=0)
    policy = _random_logits(env, _reachable(env), seed=2)
    scheme = REWARD_SCHEMES["sparse"]
    want = [state_value(policy, env, env.reset(task), scheme) for task in range(env.task_count)]
    plans, other = dict(env._successors.plans), make_env("grid-fetch", seed=0)
    monkeypatch.setattr(entlab.envs, "reachable", lambda *_: pytest.fail("walked the env graph again"))
    assert [state_value(policy, other, other.reset(task), scheme) for task in range(env.task_count)] == want
    assert other._successors is env._successors
    assert other._successors.plans.keys() == plans.keys()
    assert all(other._successors.plans[s] is plan for s, plan in plans.items())


def test_rebinding_an_env_attribute_drops_its_value_plans():
    """A rebound task table is another definition: the env drops its plans with its successor rows, and its
    values follow the new dynamics, while an env of the old definition keeps its table and plans."""
    old = make_env("key-chain", seed=0, task_count=3)
    env = make_env("key-chain", seed=0, task_count=3)
    policy = _random_logits(env, _reachable(env), seed=3)
    scheme = REWARD_SCHEMES["sparse"]
    before = state_value(policy, env, env.reset(0), scheme)
    table = env._successors
    plan = table.plans[env.reset(0)]
    key = env.keys[0][0]
    env.keys = (((1 - key[0], *key[1:]), *env.keys[0][1:]), *env.keys[1:])
    assert "_successors" not in vars(env)
    after = state_value(policy, env, env.reset(0), scheme)
    assert after == _state_value_recursive(policy, env, env.reset(0), scheme, {}) != before
    assert env._successors is not table and env._successors.plans[env.reset(0)] is not plan
    assert old._successors is table and table.plans[old.reset(0)] is plan
    assert state_value(policy, old, old.reset(0), scheme) == before


def test_state_value_refuses_a_state_its_task_start_does_not_reach():
    """Values come from the plan of the state's task start, so a hand-built state that this start does not reach
    (step 0 at another cell) is refused with one ValueError naming it, and no plan is built for it."""
    env = make_env("grid-fetch", seed=0)
    start = env.reset(0)
    cell = next((x, y) for x in range(env.width) for y in range(env.height) if (x, y) != start.features)
    state = EnvState(env.kind, 0, 0, cell)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    with pytest.raises(ValueError, match=re.escape(f"{state!r} is not reachable from the start of task 0")):
        state_value(policy, env, state, REWARD_SCHEMES["sparse"])
    assert state not in env._successors.plans and start in env._successors.plans


@pytest.mark.parametrize("change", ["vocab", "max_len"])
def test_state_value_refuses_a_policy_of_another_response_space(change):
    """A policy whose vocabulary or max_len differ from the env's is refused with one ValueError naming both."""
    env = make_env("grid-fetch", seed=0)
    vocab = Vocabulary(size=6, terminator_id=5) if change == "vocab" else env.vocab
    policy = TablePolicy(vocab=vocab, max_len=env.max_len + (change == "max_len"))
    want = (f"policy vocab {policy.vocab} and max_len {policy.max_len} differ from "
            f"grid-fetch vocab {env.vocab} and max_len {env.max_len}")
    with pytest.raises(ValueError) as refused:
        state_value(policy, env, env.reset(0), REWARD_SCHEMES["sparse"])
    assert str(refused.value) == want
