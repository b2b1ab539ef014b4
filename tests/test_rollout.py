"""Tests for trajectory collection, span parsing and degenerate-group filtering."""

from __future__ import annotations

import numpy as np
import pytest

from entlab.envs import REWARD_SCHEMES, make_env, reachable
from entlab.modulation import response_entropy_proxy
from entlab.policy import PolicySnapshot, TablePolicy
from entlab.rollout import (
    collect_group,
    collect_groups,
    filter_degenerate_groups,
    generator_from,
    parse_spans,
    seed_states,
)
from derivations import record_softmax_passes
from rollout_reference import sequential_group
from seeding import child_rngs


def _uniform_policy(env) -> TablePolicy:
    return TablePolicy(vocab=env.vocab, max_len=env.max_len)


def _random_policy(env, rng) -> TablePolicy:
    """Normal logits on every row of every reachable state's block, so that rollouts differ in length."""
    policy = _uniform_policy(env)
    for state in reachable(env, [env.reset(t) for t in range(env.task_count)]):
        block, written = policy._block(state.policy_key)
        block[:], written[:] = 1.5 * rng.normal(size=block.shape), True
    return policy


def _play(policy, env, task_id, scheme, rng):
    """One episode to termination: collect_group with one generator."""
    return collect_group(policy, env, task_id, scheme, [rng]).trajectories[0]


def _tokens(traj) -> list[int]:
    """All generated tokens of a trajectory in order, terminators included."""
    return [tok for turn in traj.turns for tok in turn.response.tokens]


def test_rollout_terminates_and_scores():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    scheme = REWARD_SCHEMES["sparse"]
    rng = np.random.default_rng(0)
    for _ in range(50):
        traj = _play(policy, env, 1, scheme, rng)
        assert traj.final_state.done
        assert len(traj.turns) >= 1
        expect = (scheme.success if traj.success else scheme.failure) + scheme.invalid_penalty * traj.invalid_count
        assert traj.reward == pytest.approx(expect)


def test_spans_tile_the_token_stream():
    env = make_env("grid-fetch", seed=0)
    policy = _uniform_policy(env)
    rng = np.random.default_rng(1)
    traj = _play(policy, env, 0, REWARD_SCHEMES["binary"], rng)
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
    traj = _play(policy, env, 0, REWARD_SCHEMES["binary"], np.random.default_rng(2))
    spans = parse_spans(traj)
    for span, turn in zip(spans, traj.turns):
        assert span.state_key == turn.state.policy_key
    # bandit-chain always plays the full chain
    assert len(spans) == env.chain_len


def test_span_h_bar_is_mean_entropy():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    traj = _play(policy, env, 0, REWARD_SCHEMES["binary"], np.random.default_rng(3))
    for span in parse_spans(traj):
        entropies = span.response.entropies
        assert response_entropy_proxy(span.response) == pytest.approx(sum(entropies) / len(entropies))


def test_collect_group_shapes_and_determinism():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    g1 = collect_group(policy, env, 2, REWARD_SCHEMES["binary"], child_rngs(np.random.default_rng(7), 6))
    g2 = collect_group(policy, env, 2, REWARD_SCHEMES["binary"], child_rngs(np.random.default_rng(7), 6))
    assert len(g1.trajectories) == 6
    assert g1.prompt_id == 2
    assert [_tokens(t) for t in g1.trajectories] == [_tokens(t) for t in g2.trajectories]
    assert g1.rewards == g2.rewards
    assert len(g1.spans) == sum(len(t.turns) for t in g1.trajectories)


def test_collect_group_varies_with_seed():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    g1 = collect_group(policy, env, 0, REWARD_SCHEMES["binary"], child_rngs(np.random.default_rng(0), 8))
    g2 = collect_group(policy, env, 0, REWARD_SCHEMES["binary"], child_rngs(np.random.default_rng(1), 8))
    assert [_tokens(t) for t in g1.trajectories] != [_tokens(t) for t in g2.trajectories]


def test_filter_degenerate_groups():
    env = make_env("key-chain", seed=0)
    policy = _uniform_policy(env)
    rng = np.random.default_rng(11)
    groups = [collect_group(policy, env, i % env.task_count, REWARD_SCHEMES["binary"], child_rngs(rng, 4))
              for i in range(40)]
    kept = filter_degenerate_groups(groups, mode="drop_uniform")
    assert all(max(g.rewards) > min(g.rewards) for g in kept)
    assert len(kept) < len(groups)  # uniform groups are common under a uniform policy
    assert filter_degenerate_groups(groups, mode="off") == groups
    with pytest.raises(ValueError):
        filter_degenerate_groups(groups, mode="drop_everything")


#: Key-chain and grid-fetch rollouts end on different turns; a bandit-chain rollout always plays the whole chain.
LOCKSTEP_ENVS = [("key-chain", {"chain_len": 3}), ("grid-fetch", {}), ("bandit-chain", {})]


@pytest.mark.parametrize("kind,overrides", LOCKSTEP_ENVS, ids=[kind for kind, _ in LOCKSTEP_ENVS])
def test_lockstep_collector_equals_sequential_rollouts(kind, overrides):
    """collect_groups over several prompts at once is each rollout played alone, bit for bit: tokens, logprobs,
    entropies, states, validity, rewards and spans, and every generator ends in the same state."""
    env = make_env(kind, seed=0, **overrides)
    policy, scheme = _random_policy(env, np.random.default_rng(5)), REWARD_SCHEMES["sparse"]
    prompts = [t % env.task_count for t in range(5)]
    rngs = [child_rngs(np.random.default_rng(40 + i), 6) for i in range(len(prompts))]
    twins = [child_rngs(np.random.default_rng(40 + i), 6) for i in range(len(prompts))]
    groups = collect_groups(PolicySnapshot(policy), env, prompts, scheme, rngs)
    assert [g.prompt_id for g in groups] == prompts
    for group, prompt, gens, twin in zip(groups, prompts, rngs, twins):
        want = sequential_group(policy, env, prompt, scheme, twin)
        assert len(group.trajectories) == len(want.trajectories) == 6
        for got, expect in zip(group.trajectories, want.trajectories):
            assert got.prompt_id == expect.prompt_id and got.reward == expect.reward
            assert repr(got.final_state) == repr(expect.final_state)
            assert len(got.turns) == len(expect.turns)
            for turn, other in zip(got.turns, expect.turns):
                assert repr(turn.state) == repr(other.state) and turn.valid is other.valid
                assert repr(turn.response) == repr(other.response)  # tokens, logprobs, entropies: bit for bit
        assert repr(group.spans) == repr(want.spans)
        assert [r.bit_generator.state for r in gens] == [r.bit_generator.state for r in twin]
    lengths = {len(traj.turns) for group in groups for traj in group.trajectories}
    assert len(lengths) > 1 or kind == "bandit-chain"


def test_lockstep_derives_each_state_once_in_one_pass_per_turn(monkeypatch):
    """Each turn of collect_groups makes at most one batched softmax pass, over the states not derived before;
    every state is derived once per snapshot, and no state that no rollout visits is derived."""
    env = make_env("grid-fetch", seed=0)
    policy, scheme = _random_policy(env, np.random.default_rng(6)), REWARD_SCHEMES["sparse"]
    passes = record_softmax_passes(monkeypatch)
    snapshot, prompts = PolicySnapshot(policy), list(range(env.task_count))
    groups = collect_groups(snapshot, env, prompts, scheme, [child_rngs(np.random.default_rng(p), 8) for p in prompts])
    turns = max(len(traj.turns) for group in groups for traj in group.trajectories)
    derived = [state for states in passes for _, _, state in states]
    visited = {span.state_key for group in groups for span in group.spans}
    assert 1 < len(passes) <= turns
    assert len(derived) == len(set(derived)) and set(derived) == visited
    before = list(passes)
    collect_groups(snapshot, env, prompts, scheme, [child_rngs(np.random.default_rng(p), 8) for p in prompts])
    assert passes == before  # the same rollouts again derive nothing


def _seed_sequence_states(entropies) -> np.ndarray:
    return np.stack([np.random.SeedSequence(e).generate_state(4, np.uint64) for e in entropies])


def test_seed_states_match_seed_sequence_on_random_seeds():
    seeds = np.random.default_rng(17).integers(0, 2**63 - 1, size=20_000)
    expect = _seed_sequence_states([int(s) for s in seeds])
    assert np.array_equal(seed_states(seeds), expect)
    assert np.array_equal(seed_states([int(s) for s in seeds[:500]]), expect[:500])


def test_seed_states_match_seed_sequence_at_the_word_edges():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 2, 2**64 + 1]  # one, one, one, two, two and three words
    assert np.array_equal(seed_states(edges), _seed_sequence_states(edges))
    assert np.array_equal(seed_states(np.array(edges[:5], dtype=np.int64)), _seed_sequence_states(edges[:5]))
    assert np.array_equal(seed_states(np.array([2**64 - 1], dtype=np.uint64)), _seed_sequence_states([2**64 - 1]))


def test_seed_states_match_seed_sequence_on_prompt_rows():
    four = [[seed, 1, step, p] for seed in (0, 7, 2**32 - 1) for step in (0, 1, 399) for p in range(4)]
    five = [[seed, 1, step, p] for seed in (2**32, 2**40 + 3, 2**63 + 5) for step in (0, 1, 399) for p in range(4)]
    assert np.array_equal(seed_states(four), _seed_sequence_states(four))
    assert np.array_equal(seed_states(five), _seed_sequence_states(five))
    # One call over rows of 1 to 8 words: a short row is not run through a long row's extra words.
    mixed = [0, [3], 2**32, [2**64 + 1, 1, 0, 2], [2**40 + 3, 1, 12, 3], [2**96, 5, 6, 7, 8], [], [2**200, 1]]
    assert np.array_equal(seed_states(mixed), _seed_sequence_states(mixed))
    assert seed_states([]).shape == (0, 4)


def test_seed_states_refuse_negative_entropy():
    with pytest.raises(ValueError):
        seed_states([[1, -2]])
    with pytest.raises(ValueError):
        seed_states(np.array([3, -1]))


def test_generator_from_a_row_is_default_rng_of_its_seed_sequence():
    entropies = [0, 2**32, 2**63 - 2, [5, 1, 2, 3], [2**40 + 3, 1, 7, 1]]
    for entropy, row in zip(entropies, seed_states(entropies)):
        ours = generator_from(row)
        theirs = np.random.default_rng(np.random.SeedSequence(entropy))
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert np.array_equal(ours.random(8), theirs.random(8))
