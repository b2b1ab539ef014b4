"""Tests for the tabular policy layer: sampling, enumeration, entropies, checkpoints."""

from __future__ import annotations

import math

import numpy as np
import pytest

from entlab.advantage import state_value
from entlab.envs import REWARD_SCHEMES, make_env
from entlab.policy import (
    EnumerationBudgetError,
    Response,
    TablePolicy,
    Vocabulary,
    enumerate_responses,
    exact_response_entropy,
    load_checkpoint,
    mc_response_entropy,
    pathwise_entropy,
    random_policy,
    response_space,
    sample_response,
    save_checkpoint,
    token_distribution,
    _response_tree,
    _tree_shape,
)
from entlab.probes import consistency_probe, doob_exact_residuals, doob_probe


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary(size=1, terminator_id=0)
    with pytest.raises(ValueError):
        Vocabulary(size=3, terminator_id=3)
    v = Vocabulary(size=4, terminator_id=1)
    assert v.content_ids == [0, 2, 3]


def test_response_validation():
    with pytest.raises(ValueError):
        Response(tokens=[0, 1], logprobs=[-0.5], entropies=[0.2, 0.3])
    with pytest.raises(ValueError):
        Response(tokens=[], logprobs=[], entropies=[])
    r = Response(tokens=[0, 2], logprobs=[-0.25, -1.5], entropies=[0.4, 0.9])
    assert r.length == 2
    assert r.surprisal == pytest.approx(1.75)


def test_uniform_distribution_from_zero_logits():
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=2)
    p = token_distribution(policy, "s", ())
    np.testing.assert_allclose(p, np.full(3, 1.0 / 3.0), atol=1e-12)
    for size in range(2, 12):
        empty = TablePolicy(vocab=Vocabulary(size=size, terminator_id=size - 1), max_len=2)
        stored = empty.copy()
        stored.logit_vector("s", ())
        assert token_distribution(empty, "s", ()).tobytes() == token_distribution(stored, "s", ()).tobytes()


def test_softmax_shift_invariance_and_stability():
    policy = TablePolicy(vocab=Vocabulary(size=4, terminator_id=3), max_len=1)
    policy.logits[("s", ())] = np.array([1000.0, 1001.0, 999.0, 1000.5])
    p = token_distribution(policy, "s", ())
    policy.logits[("s", ())] = np.array([0.0, 1.0, -1.0, 0.5])
    q = token_distribution(policy, "s", ())
    np.testing.assert_allclose(p, q, rtol=1e-12)
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0)


def test_prefix_past_max_len_rejected():
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=2)
    with pytest.raises(ValueError):
        policy.logit_vector("s", (0, 1))
    with pytest.raises(ValueError):
        token_distribution(policy, "s", (0, 1))


def test_tree_shape_refuses_empty_responses():
    """With max_len 0 no content path would ever end, so the walk would not stop."""
    with pytest.raises(ValueError, match="max_len"):
        _tree_shape(Vocabulary(size=3, terminator_id=2), 0)


def test_sample_response_stops_at_terminator_or_max_len():
    rng = np.random.default_rng(0)
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=4)
    for _ in range(200):
        r = sample_response(policy, "s", rng)
        assert 1 <= r.length <= 4
        if r.length < 4:
            assert r.tokens[-1] == 2
        assert all(t != 2 for t in r.tokens[:-1])


def test_sample_response_records_consistent_stats():
    rng = np.random.default_rng(3)
    policy = random_policy(4, 3, np.random.default_rng(7))
    for _ in range(50):
        r = sample_response(policy, "s", rng)
        for k, tok in enumerate(r.tokens):
            p = token_distribution(policy, "s", tuple(r.tokens[:k]))
            assert r.logprobs[k] == pytest.approx(math.log(p[tok]))
            assert r.entropies[k] == pytest.approx(float(-(p * np.log(p)).sum()))
        prob = dict(enumerate_responses(policy, "s"))[tuple(r.tokens)]
        assert r.surprisal == pytest.approx(-math.log(prob))


def test_sampling_is_deterministic_per_seed():
    policy = random_policy(4, 3, np.random.default_rng(11))
    a = [sample_response(policy, "s", np.random.default_rng(5)).tokens for _ in range(1)]
    b = [sample_response(policy, "s", np.random.default_rng(5)).tokens for _ in range(1)]
    assert a == b


def test_enumeration_partitions_probability():
    rng = np.random.default_rng(2)
    for _ in range(20):
        size = int(rng.integers(2, 5))
        max_len = int(rng.integers(1, 5))
        policy = random_policy(size, max_len, rng)
        paths = enumerate_responses(policy, "s")
        total = sum(prob for _, prob in paths)
        assert total == pytest.approx(1.0, abs=1e-12)
        term = policy.vocab.terminator_id
        for tokens, _ in paths:
            assert tokens[-1] == term or len(tokens) == max_len
            assert all(t != term for t in tokens[:-1])
        assert [t for t, _ in paths] == sorted(t for t, _ in paths)


def _response_tree_dfs(policy, state, with_entropy=False):
    """Reference copy of the response-tree walk that built and sorted its paths on every call."""
    dists = {}
    out = []
    stack = [((), 1.0)]
    while stack:
        prefix, prob = stack.pop()
        p = dists[prefix] = token_distribution(policy, state, prefix)
        for tok, p_tok in enumerate(p.tolist()):
            path = prefix + (tok,)
            path_prob = prob * p_tok
            if tok == policy.vocab.terminator_id or len(path) == policy.max_len:
                out.append((path, path_prob))
            else:
                stack.append((path, path_prob))
    out.sort(key=lambda item: item[0])
    entropies = {u: float(-(p * np.log(p)).sum()) for u, p in dists.items()} if with_entropy else None
    return dists, out, entropies


@pytest.mark.parametrize("size,max_len", [(3, 2), (5, 3), (4, 4), (3, 6)])
def test_response_tree_is_bit_identical_to_per_call_walk(size, max_len):
    for seed in range(4):
        policy = random_policy(size, max_len, np.random.default_rng(seed))
        # random_policy draws in walk order, so the same seed must fill the same prefixes the same way.
        rng = np.random.default_rng(seed)
        want_logits = {("s", u): 1.5 * rng.normal(size=size) for u in _response_tree_dfs(policy, "s")[0]}
        assert list(policy.logits) == list(want_logits)
        assert all(np.array_equal(policy.logits[k], v) for k, v in want_logits.items())

        dists, paths, entropies = _response_tree(policy, "s", with_entropy=True)
        want_dists, want_paths, want_entropies = _response_tree_dfs(policy, "s", with_entropy=True)
        assert list(dists) == list(want_dists)
        assert all(np.array_equal(dists[u], p) for u, p in want_dists.items())
        assert paths == want_paths
        assert entropies == want_entropies
        assert [tokens for tokens, _ in paths] == list(response_space(policy.vocab, max_len))


def test_reads_leave_the_policy_unchanged():
    env = make_env("key-chain", seed=0, task_count=2, chain_len=1, n_content=3)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    states = [env.reset(t) for t in range(env.task_count)]
    policy.logit_vector(states[0].policy_key, ())[:] = (2.0, -1.0, 0.5, 0.0)
    policy.logit_vector(states[0].policy_key, (0,))[:] = (3.0, -3.0, 0.0, 1.0)
    before = {k: v.copy() for k, v in policy.logits.items()}
    rng = np.random.default_rng(0)
    keys = [s.policy_key for s in states]

    for state, key in zip(states, keys):
        sample_response(policy, key, rng)
        exact_response_entropy(policy, key)
        pathwise_entropy(policy, key)
        doob_probe(policy, key, 100, rng)
        doob_exact_residuals(policy, key)
        state_value(policy, env, state, REWARD_SCHEMES["binary"])
    consistency_probe(policy, keys, 16, rng, n_bootstrap=10)

    assert list(policy.logits) == list(before)
    assert all(np.array_equal(policy.logits[k], v) for k, v in before.items())


def test_enumeration_budget_guard():
    policy = TablePolicy(vocab=Vocabulary(size=11, terminator_id=10), max_len=6)
    with pytest.raises(EnumerationBudgetError):
        enumerate_responses(policy, "s")
    with pytest.raises(EnumerationBudgetError):
        exact_response_entropy(policy, "s")


def test_entropy_routes_agree_on_random_policies():
    rng = np.random.default_rng(4)
    for _ in range(30):
        size = int(rng.integers(2, 5))
        max_len = int(rng.integers(1, 5))
        policy = random_policy(size, max_len, rng)
        direct = exact_response_entropy(policy, "s")
        chained = pathwise_entropy(policy, "s")
        assert abs(direct - chained) < 1e-10


def test_pathwise_entropy_matches_per_position_formula_bit_for_bit():
    rng = np.random.default_rng(6)
    for size, max_len in [(5, 3), (3, 2), (4, 4), (2, 1)]:
        policy = random_policy(size, max_len, rng)
        want = 0.0
        for tokens, prob in enumerate_responses(policy, "s"):
            path_sum = 0.0
            for k in range(len(tokens)):
                p = token_distribution(policy, "s", tuple(tokens[:k]))
                path_sum += float(-(p * np.log(p)).sum())
            want += prob * path_sum
        assert pathwise_entropy(policy, "s") == want


def test_uniform_single_token_entropy_value():
    policy = TablePolicy(vocab=Vocabulary(size=4, terminator_id=3), max_len=1)
    assert exact_response_entropy(policy, "s") == pytest.approx(math.log(4.0))


def test_mc_entropy_estimates_exact():
    rng = np.random.default_rng(9)
    policy = random_policy(3, 3, np.random.default_rng(13))
    exact = exact_response_entropy(policy, "s")
    est = mc_response_entropy(policy, "s", 20000, rng)
    assert abs(est - exact) < 0.05
    with pytest.raises(ValueError):
        mc_response_entropy(policy, "s", 0, rng)


def test_random_policy_covers_every_reachable_prefix():
    policy = random_policy(3, 3, np.random.default_rng(0))
    prefixes = {prefix for (_, prefix) in policy.logits}
    # content tokens 0 and 1, so reachable prefixes are all 0/1 strings shorter than max_len
    want = {()}
    for a in (0, 1):
        want.add((a,))
        for b in (0, 1):
            want.add((a, b))
    assert prefixes == want


def test_checkpoint_round_trip(tmp_path):
    policy = random_policy(4, 3, np.random.default_rng(21))
    path = tmp_path / "policy.json"
    save_checkpoint(policy, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.vocab == policy.vocab
    assert loaded.max_len == policy.max_len
    assert set(loaded.logits) == set(policy.logits)
    for key, vec in policy.logits.items():
        np.testing.assert_allclose(loaded.logits[key], vec, rtol=0, atol=0)


def test_checkpoint_rejects_unknown_version(tmp_path):
    policy = random_policy(3, 2, np.random.default_rng(1))
    path = tmp_path / "policy.json"
    save_checkpoint(policy, str(path))
    doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(doc)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_checkpoint_bytes_are_stable(tmp_path):
    policy = random_policy(3, 3, np.random.default_rng(17))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_checkpoint(policy, str(p1))
    save_checkpoint(policy.copy(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
