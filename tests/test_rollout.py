"""Tests for trajectory collection, span parsing and degenerate-group filtering."""

from __future__ import annotations

import numpy as np
import pytest

from entlab.envs import REWARD_SCHEMES, make_env
from entlab.modulation import response_entropy_proxy
from entlab.policy import TablePolicy
from entlab.rollout import collect_group, filter_degenerate_groups, parse_spans, rollout_trajectory


def _uniform_policy(env) -> TablePolicy:
    return TablePolicy(vocab=env.vocab, max_len=env.max_len)


def _tokens(traj) -> list[int]:
    """All generated tokens of a trajectory in order, terminators included."""
    return [tok for turn in traj.turns for tok in turn.response.tokens]


def test_rollout_terminates_and_scores():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    scheme = REWARD_SCHEMES["sparse"]
    rng = np.random.default_rng(0)
    for _ in range(50):
        traj = rollout_trajectory(policy, env, 1, scheme, rng)
        assert traj.final_state.done
        assert len(traj.turns) >= 1
        expect = (scheme.success if traj.success else scheme.failure) + scheme.invalid_penalty * traj.invalid_count
        assert traj.reward == pytest.approx(expect)


def test_spans_tile_the_token_stream():
    env = make_env("grid-fetch", seed=0)
    policy = _uniform_policy(env)
    rng = np.random.default_rng(1)
    traj = rollout_trajectory(policy, env, 0, REWARD_SCHEMES["binary"], rng)
    spans = parse_spans(traj, rollout_index=3)
    stream = _tokens(traj)
    assert len(spans) == len(traj.turns)
    for t, (span, turn) in enumerate(zip(spans, traj.turns)):
        assert span.rollout_index == 3
        assert span.turn_index == t
        assert span.response is turn.response  # referenced, not copied
    assert [tok for span in spans for tok in span.response.tokens] == stream


def test_span_state_keys_follow_turn_states():
    env = make_env("bandit-chain", seed=0)
    policy = _uniform_policy(env)
    traj = rollout_trajectory(policy, env, 0, REWARD_SCHEMES["binary"], np.random.default_rng(2))
    spans = parse_spans(traj)
    for span, turn in zip(spans, traj.turns):
        assert span.state_key == turn.state.policy_key
    # bandit-chain always plays the full chain
    assert len(spans) == env.chain_len


def test_span_h_bar_is_mean_entropy():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    traj = rollout_trajectory(policy, env, 0, REWARD_SCHEMES["binary"], np.random.default_rng(3))
    for span in parse_spans(traj):
        entropies = span.response.entropies
        assert response_entropy_proxy(span.response) == pytest.approx(sum(entropies) / len(entropies))


def test_collect_group_shapes_and_determinism():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    g1 = collect_group(policy, env, 2, 6, REWARD_SCHEMES["binary"], np.random.default_rng(7))
    g2 = collect_group(policy, env, 2, 6, REWARD_SCHEMES["binary"], np.random.default_rng(7))
    assert len(g1.trajectories) == 6
    assert g1.prompt_id == 2
    assert [_tokens(t) for t in g1.trajectories] == [_tokens(t) for t in g2.trajectories]
    assert g1.rewards == g2.rewards
    assert len(g1.spans) == sum(len(t.turns) for t in g1.trajectories)


def test_collect_group_varies_with_seed():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    g1 = collect_group(policy, env, 0, 8, REWARD_SCHEMES["binary"], np.random.default_rng(0))
    g2 = collect_group(policy, env, 0, 8, REWARD_SCHEMES["binary"], np.random.default_rng(1))
    assert [_tokens(t) for t in g1.trajectories] != [_tokens(t) for t in g2.trajectories]


def test_filter_degenerate_groups():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    rng = np.random.default_rng(11)
    groups = [collect_group(policy, env, i % env.task_count, 4, REWARD_SCHEMES["binary"], rng) for i in range(40)]
    kept = filter_degenerate_groups(groups, mode="drop_uniform")
    assert all(max(g.rewards) > min(g.rewards) for g in kept)
    assert len(kept) < len(groups)  # uniform groups are common under a uniform policy
    assert filter_degenerate_groups(groups, mode="off") == groups
    with pytest.raises(ValueError):
        filter_degenerate_groups(groups, mode="drop_everything")

