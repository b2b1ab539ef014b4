"""Tests for the tabular policy layer: sampling, enumeration, entropies, checkpoints."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from entlab.advantage import state_value
from entlab.envs import REWARD_SCHEMES, make_env
from entlab.geometry import entropy
from entlab.policy import (
    EnumerationBudgetError,
    PolicySnapshot,
    Response,
    TablePolicy,
    Vocabulary,
    enumerate_responses,
    exact_response_entropy,
    load_checkpoint,
    mc_response_entropy,
    path_entropy_sums,
    pathwise_entropy,
    random_policy,
    response_space,
    sample_response,
    save_checkpoint,
    token_distribution,
    _check_budget,
    _tree_shape,
)
import entlab.policy as policy_module
from entlab.probes import consistency_probe, doob_exact_residuals, doob_probe
from entlab.trainer import TrainConfig, _regularizer
from grad_rows import step_tables


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary(size=1, terminator_id=0)
    with pytest.raises(ValueError):
        Vocabulary(size=3, terminator_id=3)
    v = Vocabulary(size=4, terminator_id=1)
    assert [t for t in range(v.size) if t != v.terminator_id] == [0, 2, 3]


def test_response_validation():
    with pytest.raises(ValueError):
        Response(tokens=[0, 1], logprobs=[-0.5], entropies=[0.2, 0.3])
    with pytest.raises(ValueError):
        Response(tokens=[], logprobs=[], entropies=[])
    r = Response(tokens=[0, 2], logprobs=[-0.25, -1.5], entropies=[0.4, 0.9])
    assert len(r.tokens) == 2
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
    policy.logit_vector("s", ())[:] = np.array([1000.0, 1001.0, 999.0, 1000.5])
    p = token_distribution(policy, "s", ())
    policy.logit_vector("s", ())[:] = np.array([0.0, 1.0, -1.0, 0.5])
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


@pytest.mark.parametrize("prefix", [(2,), (3,), (-1,)])
def test_prefix_without_a_block_row_is_refused(prefix):
    """A prefix holding the terminator (or a token outside the vocabulary) has no row to write."""
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=3)
    with pytest.raises(ValueError, match=re.escape(f"{('s', prefix)!r} has no logit row")):
        policy.logit_vector("s", prefix)
    assert policy.logits == {} and policy.writes == 0


def test_logits_view_is_the_written_rows():
    """policy.logits maps exactly the rows written through logit_vector, state by state in row order,
    and refuses item assignment and writes through its rows."""
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=3)
    assert policy.logits == {} and len(policy.logits) == 0 and list(policy.logits) == []
    rows = _tree_shape(policy.vocab, policy.max_len).prefixes
    written = [("t", rows[3]), ("s", rows[2]), ("s", rows[0]), ("t", rows[1])]
    for i, (state, prefix) in enumerate(written):
        policy.logit_vector(state, prefix)[:] = (i, -i, 0.5)
    want = [("t", rows[1]), ("t", rows[3]), ("s", rows[0]), ("s", rows[2])]
    assert list(policy.logits) == want and len(policy.logits) == 4
    assert policy.logits.get(("s", rows[1])) is None and ("s", rows[1]) not in policy.logits
    assert policy.logits.get(("u", ())) is None and policy.logits.get(("s", (2,))) is None
    assert policy.logits[("s", rows[0])].tolist() == [2.0, -2.0, 0.5]
    with pytest.raises(TypeError):
        policy.logits[("s", ())] = np.zeros(3)
    with pytest.raises(ValueError, match="read-only"):
        policy.logits[("s", rows[0])][0] = 1.0
    assert policy.logit_vector("s", rows[0]).tolist() == [2.0, -2.0, 0.5]


def test_copy_is_independent_of_the_original():
    policy = random_policy(3, 3, np.random.default_rng(3))
    copy = policy.copy()
    before = {k: v.copy() for k, v in policy.logits.items()}
    copy.logit_vector("s", ())[0] += 1.0
    copy.logit_vector("t", ())
    policy.logit_vector("s", (0,))[1] -= 1.0
    assert copy.logits[("s", ())][0] == before[("s", ())][0] + 1.0
    assert policy.logits[("s", ())].tobytes() == before[("s", ())].tobytes()
    assert copy.logits[("s", (0,))].tobytes() == before[("s", (0,))].tobytes()
    assert ("t", ()) not in policy.logits and len(copy.logits) == len(policy.logits) + 1


def test_tree_shape_refuses_empty_responses():
    """With max_len 0 no content path would ever end, so the walk would not stop."""
    with pytest.raises(ValueError, match="max_len"):
        _tree_shape(Vocabulary(size=3, terminator_id=2), 0)


#: (|V|, max_len) of the default key-chain, grid-fetch and referee envs, and a tree of one token.
CHILD_SHAPES = {
    **{name: (lambda env: (env.vocab.size, env.max_len))(make_env(kind, seed=0, **overrides))
       for name, kind, overrides in (("key-chain", "key-chain", {}), ("grid-fetch", "grid-fetch", {}),
                                     ("referee", "key-chain", dict(chain_len=1, task_count=64, n_content=3)))},
    "max_len-1": (4, 1),
}


@pytest.mark.parametrize("name", CHILD_SHAPES)
def test_child_rows_index_the_response_tree(name):
    """child[rows[u]][t] is rows[u + (t,)] for an internal extension and len(prefixes), the zero row, for a
    leaf (never a negative index); a walk from row 0 along each leaf's tokens reaches it at the last token."""
    size, max_len = CHILD_SHAPES[name]
    shape = _tree_shape(Vocabulary(size=size, terminator_id=size - 1), max_len)
    leaf, leaves = len(shape.prefixes), set(shape.leaves)
    assert list(shape.rows) == shape.prefixes and len(shape.child) == leaf
    for u in shape.prefixes:
        assert len(shape.child[shape.rows[u]]) == size
        for t in range(size):
            extension = u + (t,)
            assert (extension in leaves) != (extension in shape.rows)
            assert shape.child[shape.rows[u]][t] == (leaf if extension in leaves else shape.rows[extension])
    assert all(0 < row <= leaf for rows in shape.child for row in rows)  # no child is the root, none negative
    for tokens in shape.leaves:
        row, rows = 0, []
        for tok in tokens:
            assert row != leaf, tokens
            rows.append(row)
            row = shape.child[row][tok]
        assert row == leaf and rows == [shape.rows[tokens[:k]] for k in range(len(tokens))]
    assert len(shape.leaves) == len(leaves) and sorted(leaves) == list(shape.leaves)


def test_sample_response_stops_at_terminator_or_max_len():
    rng = np.random.default_rng(0)
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=4)
    for _ in range(200):
        r = sample_response(policy, "s", rng)
        assert 1 <= len(r.tokens) <= 4
        if len(r.tokens) < 4:
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


def _sample_with_choice(policy, state, rng):
    """The sampler as it was before PolicySnapshot: rng.choice on each fresh token_distribution."""
    tokens, logprobs, entropies = [], [], []
    while len(tokens) < policy.max_len:
        p = token_distribution(policy, state, tuple(tokens))
        tok = int(rng.choice(policy.vocab.size, p=p))
        tokens.append(tok)
        logprobs.append(float(np.log(p[tok])))
        entropies.append(_entropy(p))
        if tok == policy.vocab.terminator_id:
            break
    return Response(tokens=tokens, logprobs=logprobs, entropies=entropies)


def _entropy(p) -> float:
    """geometry.entropy of p, bit for bit where p has no exact zero, with 0 * log 0 adding 0 where it has."""
    return float(-(p * np.log(np.where(p > 0.0, p, 1.0))).sum())


def _same_response(a, b) -> bool:
    """Equal tokens and bit-equal stats, finite also over a p with exact zeros."""
    return a.tokens == b.tokens and all(np.array_equal(x, y) and np.isfinite(x).all() for x, y in
                                        ((a.logprobs, b.logprobs), (a.entropies, b.entropies)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inverse_cdf_sampler_matches_generator_choice():
    """Same tokens, logprobs, entropies and generator state as rng.choice, over |V| 2-6.

    Scale 400 puts exact zeros in p, so equal cdf entries test the right-sided search.
    """
    rng = np.random.default_rng(31)
    draws = 0
    for size in range(2, 7):
        for scale in (0.5, 2.0, 6.0, 400.0):
            policy = random_policy(size, 3, rng, scale=scale)
            seed = int(rng.integers(2**32))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            snapshot = PolicySnapshot(policy)
            for _ in range(250):
                got = sample_response(snapshot, "s", ours)
                assert _same_response(got, _sample_with_choice(policy, "s", theirs))
                draws += len(got.tokens)
            assert ours.bit_generator.state == theirs.bit_generator.state
            # A TablePolicy is read through a snapshot of its own, with the same draws.
            assert _same_response(sample_response(policy, "s", ours), _sample_with_choice(policy, "s", theirs))
    assert draws >= 10000


class _Draws:
    """Stands in for a Generator whose random() returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_inverse_cdf_sampler_searches_right_sided():
    """A draw equal to a cdf value takes the next token, as choice's searchsorted(side="right") does,
    so a zero-probability token is never drawn; random draws almost never hit a cdf value exactly."""
    policy = TablePolicy(vocab=Vocabulary(size=4, terminator_id=3), max_len=1)
    policy.logit_vector("s", ())[:] = (0.0, -1000.0, 1.0, 0.5)
    cdf = PolicySnapshot(policy).sampler("s")[0][0]
    assert cdf[0] == cdf[1]
    draws = [0.0, *cdf[:-1], 0.5]
    got = [sample_response(policy, "s", _Draws([u])).tokens[0] for u in draws]
    assert got == np.searchsorted(cdf, draws, side="right").tolist()
    assert 1 not in got


def test_snapshot_entries_are_the_token_distribution_bit_for_bit():
    rng = np.random.default_rng(8)
    for size, max_len in ((2, 4), (4, 3), (6, 2)):
        policy = random_policy(size, max_len, rng)
        before = {k: v.copy() for k, v in policy.logits.items()}
        snapshot = PolicySnapshot(policy)
        # Every reachable prefix by its table row, plus a state with no stored logits (uniform).
        keys = [("s", row, u) for row, u in enumerate(_tree_shape(policy.vocab, max_len).prefixes)] + [("other", 0, ())]
        # One read at a state derives the sampler rows of all its prefixes: the rest are never sampled first.
        assert [len(column) for column in snapshot.sampler("s")] == [len(keys) - 1] * 3
        assert list(snapshot._memos["samplers"]) == ["s"]
        for state, row, prefix in keys:
            cdf, logp, h = (column[row] for column in snapshot.sampler(state))
            want = token_distribution(policy, state, prefix)
            assert snapshot.table(state)[row].tobytes() == want.tobytes()
            csum = want.cumsum()
            assert cdf == (csum / csum[-1]).tolist()
            assert logp == np.log(want).tolist()
            assert h == entropy(want)
            assert snapshot.sampler(state)[0][row] is cdf
        assert list(policy.logits) == list(before)
        assert all(np.array_equal(policy.logits[k], v) for k, v in before.items())
        assert PolicySnapshot.of(snapshot) is snapshot


#: (|V|, max_len) of the golden training configs' envs, then more widths of the batched rows.
TABLE_SHAPES = {
    **{kind: (lambda env: (env.vocab.size, env.max_len))(make_env(kind, seed=0, **overrides))
       for kind, overrides in (("key-chain", dict(task_count=2, chain_len=1, n_content=2, key_len=2)),
                               ("grid-fetch", {}), ("bandit-chain", dict(task_count=2, chain_len=2)))},
    **{f"V{size}": (size, max_len) for size, max_len in ((2, 5), (3, 4), (5, 3), (6, 3), (11, 3))},
}


def _edge_rows(policy, rng):
    """Fill one state per kind of logit row at every internal prefix, and a mixed state with every
    kind and absent rows; returns the states, "absent" (no rows at all) last."""
    size = policy.vocab.size
    kinds = {
        "normal": lambda: 1.5 * rng.normal(size=size),
        "repeated": lambda: np.full(size, 2.5),
        "700": lambda: rng.choice([-700.0, 700.0], size=size),
        "1e300": lambda: rng.choice([-1e300, 1e300], size=size),
    }
    draws = list(kinds.values())
    for i, u in enumerate(_tree_shape(policy.vocab, policy.max_len).prefixes):
        for state, draw in kinds.items():
            policy.logit_vector(state, u)[:] = draw()
        if i % 5:
            policy.logit_vector("mixed", u)[:] = draws[i % 4]()
    return [*kinds, "mixed", "absent"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_batched_rows_are_the_token_distribution_bit_for_bit(shape):
    """Each row of a state's one softmax equals token_distribution's row, and the leaf probabilities, path entropy
    sums and sampler rows built from it equal the per-call walk and per-prefix entries, on absent, repeated, +-700
    and +-1e300 rows."""
    size, max_len = TABLE_SHAPES[shape]
    policy = TablePolicy(vocab=Vocabulary(size=size, terminator_id=size - 1), max_len=max_len)
    prefixes = _tree_shape(policy.vocab, max_len).prefixes
    for state in _edge_rows(policy, np.random.default_rng(size * 10 + max_len)):
        snapshot = PolicySnapshot(policy)
        table = snapshot.table(state)
        assert table.shape == (len(prefixes), size)
        for row, u in zip(table, prefixes):
            assert row.tobytes() == token_distribution(policy, state, u).tobytes(), (state, u)
        want_dists, want_paths, _ = _response_tree_dfs(policy, state)
        dists, paths = dict(zip(prefixes, table)), enumerate_responses(snapshot, state)
        assert list(dists) == list(want_dists)
        assert all(dists[u].tobytes() == p.tobytes() for u, p in want_dists.items())
        assert paths == want_paths
        want_sums = []  # the per-prefix route: _entropy() of each prefix's row, added along each path
        for tokens, _ in want_paths:
            path_sum = 0.0
            for k in range(len(tokens)):
                path_sum += _entropy(want_dists[tokens[:k]])
            want_sums.append(path_sum)
        assert list(map(repr, path_entropy_sums(snapshot, state))) == list(map(repr, want_sums))

        sampled = PolicySnapshot(policy)
        for row, u in enumerate(prefixes):
            cdf, logp, h = (column[row] for column in sampled.sampler(state))
            want = token_distribution(policy, state, u)
            csum = want.cumsum()
            assert sampled.table(state)[row].tobytes() == want.tobytes()
            assert cdf == (csum / csum[-1]).tolist()
            assert logp == np.log(want).tolist()
            assert h == _entropy(want)


def test_snapshot_ends_at_the_first_write():
    policy = random_policy(3, 2, np.random.default_rng(2))
    snapshot = PolicySnapshot(policy)
    snapshot.sampler("s")
    policy.logit_vector("s", ())[0] += 1.0
    for read in (snapshot.table, snapshot.sampler, snapshot.leaf_probs, snapshot.leaf_logs):
        with pytest.raises(RuntimeError, match="after a logit_vector write"):
            read("s")
    with pytest.raises(RuntimeError):
        sample_response(snapshot, "s", np.random.default_rng(0))
    assert PolicySnapshot(policy).table("s")[0].tobytes() == token_distribution(policy, "s", ()).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("logits", [(np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0)])
def test_sampling_refuses_logits_that_give_no_distribution(logits):
    """rng.choice refused such p; the snapshot checks it once per entry instead."""
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=2)
    policy.logit_vector("s", ())[:] = logits
    with pytest.raises(ValueError, match="not a distribution"):
        sample_response(policy, "s", np.random.default_rng(0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_tree_reads_refuse_a_row_that_is_not_a_distribution():
    """One check per state's softmax covers every exact route, not only the sampled prefixes: a NaN row
    at an unsampled prefix used to give a wrong finite exact entropy and a NaN pathwise one."""
    policy = random_policy(5, 3, np.random.default_rng(0))
    policy.logit_vector("s", (1,))[:] = np.array([np.inf, 0.0, 0.0, 0.0, 0.0])
    config = TrainConfig(env_kind="grid-fetch", kl_coef=0.01)

    def regularizer(policy, state):
        snapshot = PolicySnapshot(policy)
        return _regularizer(snapshot, policy.copy(), [state], step_tables(snapshot, [state]), [1.0], config)

    reads = {
        "exact_response_entropy": exact_response_entropy,
        "pathwise_entropy": pathwise_entropy,
        "enumerate_responses": enumerate_responses,
        "sample_response": lambda p, s: sample_response(p, s, np.random.default_rng(0)),
        "_regularizer": regularizer,
    }
    for name, read in reads.items():
        with pytest.raises(ValueError, match=r"at \('s', \(1,\)\) are not a distribution"):
            read(policy, "s")
            pytest.fail(name)

    env = make_env("grid-fetch", seed=0)
    state = env.reset(0)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    policy.logit_vector(state.policy_key, (1,))[0] = np.inf
    with pytest.raises(ValueError, match="not a distribution"):
        state_value(policy, env, state, REWARD_SCHEMES["binary"])


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

        want_dists, want_paths, want_entropies = _response_tree_dfs(policy, "s", with_entropy=True)
        # A fresh snapshot and one that has sampled read the same table and leaf probabilities.
        sampled = PolicySnapshot(policy)
        for _ in range(8):
            sample_response(sampled, "s", rng)
        for snapshot in (PolicySnapshot(policy), sampled):
            dists = dict(zip(snapshot._shape.prefixes, snapshot.table("s")))
            paths = enumerate_responses(snapshot, "s")
            assert list(dists) == list(want_dists)
            assert all(np.array_equal(dists[u], p) for u, p in want_dists.items())
            assert paths == want_paths
            assert {u: entropy(p) for u, p in dists.items()} == want_entropies
            assert [tokens for tokens, _ in paths] == list(response_space(policy.vocab, max_len))
            assert snapshot.leaf_probs("s") is snapshot.leaf_probs("s")


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


def test_tree_ends_at_the_first_write():
    policy = random_policy(3, 2, np.random.default_rng(2))
    snapshot = PolicySnapshot(policy)
    snapshot.leaf_probs("s")
    policy.logit_vector("other", ())
    with pytest.raises(RuntimeError, match="after a logit_vector write"):
        snapshot.leaf_probs("s")
    with pytest.raises(RuntimeError):
        enumerate_responses(snapshot, "s")


@pytest.mark.parametrize("size,max_len", [(2, 1), (2, 5), (3, 2), (3, 13), (4, 4), (5, 3), (6, 2)])
def test_enumeration_budget_counts_complete_responses(size, max_len, monkeypatch):
    """The budget check counts real leaves: a budget of exactly len(response_space) passes, one less refuses."""
    vocab = Vocabulary(size=size, terminator_id=size - 1)
    n_paths = len(response_space(vocab, max_len))
    monkeypatch.setattr(policy_module, "ENUMERATION_BUDGET", n_paths)
    _check_budget(vocab, max_len)
    monkeypatch.setattr(policy_module, "ENUMERATION_BUDGET", n_paths - 1)
    with pytest.raises(EnumerationBudgetError):
        _check_budget(vocab, max_len)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_token_of_probability_zero_adds_no_entropy():
    """0 * log 0 is 0 in every per-token entropy, not NaN, and the two exact routes agree."""
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=2)
    policy.logit_vector("s", ())[:] = (0.0, -800.0, 0.0)
    snapshot = PolicySnapshot(policy)
    p, (_, logp, h) = snapshot.table("s")[0], (column[0] for column in snapshot.sampler("s"))
    assert p[1] == 0.0 and logp[1] == -math.inf and h == -(p[0] * logp[0] + p[2] * logp[2])
    for seed in range(8):
        response = sample_response(snapshot, "s", np.random.default_rng(seed))
        assert response.entropies[0] == h and all(map(math.isfinite, response.entropies))
    assert exact_response_entropy(policy, "s") == 1.2424533248940002
    assert pathwise_entropy(policy, "s") == pytest.approx(exact_response_entropy(policy, "s"), abs=1e-12)


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


def test_mc_entropy_reads_a_snapshot_as_its_policy():
    """A PolicySnapshot is read as itself, as every other reader takes one: the same draws give the same estimate."""
    policy = random_policy(3, 3, np.random.default_rng(13))
    snapshot = PolicySnapshot(policy)
    est = mc_response_entropy(snapshot, "s", 500, np.random.default_rng(4))
    assert est == mc_response_entropy(policy, "s", 500, np.random.default_rng(4))
    assert list(snapshot._memos["samplers"]) == ["s"]


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
    policy.logit_vector("a", (1,))[:] = (0.25, -1.0, 3.0)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p3 = tmp_path / "c.json"
    save_checkpoint(policy, str(p1))
    save_checkpoint(policy.copy(), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    save_checkpoint(load_checkpoint(str(p1)), str(p3))
    assert p3.read_bytes() == p1.read_bytes()


def _write_entries(path, entries):
    """A key-chain checkpoint document (vocab 3, max_len 2) holding the given entries."""
    path.write_text(json.dumps({"format_version": 1, "vocab_size": 3, "terminator_id": 2, "max_len": 2,
                                "entries": entries}))


_GOOD_DOCUMENT = {"format_version": 1, "vocab_size": 3, "terminator_id": 2, "max_len": 2, "entries": []}


@pytest.mark.parametrize("doc, field", [
    ([_GOOD_DOCUMENT], "JSON object"),
    ("policy", "JSON object"),
    ({"format_version": 1}, "vocab_size"),
    ({k: v for k, v in _GOOD_DOCUMENT.items() if k != "terminator_id"}, "terminator_id"),
    ({k: v for k, v in _GOOD_DOCUMENT.items() if k != "entries"}, "entries"),
    (dict(_GOOD_DOCUMENT, max_len="2"), "max_len"),
    (dict(_GOOD_DOCUMENT, max_len=2.0), "max_len"),
    (dict(_GOOD_DOCUMENT, vocab_size=True), "vocab_size"),
    (dict(_GOOD_DOCUMENT, terminator_id=None), "terminator_id"),
    (dict(_GOOD_DOCUMENT, entries={}), "entries"),
    (dict(_GOOD_DOCUMENT, format_version=True), "format_version"),  # True == 1 in Python
    (dict(_GOOD_DOCUMENT, format_version=1.0), "format_version"),
])
def test_checkpoint_refuses_a_malformed_document(tmp_path, doc, field):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=field):
        load_checkpoint(str(path))
    path.write_text(json.dumps(_GOOD_DOCUMENT))
    assert load_checkpoint(str(path)).logits == {}


@pytest.mark.parametrize("entry", [
    ["s", [], [0.5, -0.5]],  # 2 logits for a vocabulary of 3
    ["s", [0, 1], [0.0, 0.0, 0.0]],  # a prefix as long as max_len has no successor
    ["s", [7], [0.0, 0.0, 0.0]],  # token outside range(3)
    ["s", [-1], [0.0, 0.0, 0.0]],
    ["s", [True], [0.0, 0.0, 0.0]],
    [3, [], [0.0, 0.0, 0.0]],  # state not a string
    ["s", [], [0.0, float("nan"), 0.0]],
    ["s", [], [0.0, "1.0", 0.0]],
    ["s", [], [0.0, 0.0, 0.0], "extra"],
    ["s", [2], [0.0, 0.0, 0.0]],  # a prefix holding the terminator has no row
    "s",
])
def test_checkpoint_refuses_a_malformed_entry(tmp_path, entry):
    path = tmp_path / "policy.json"
    _write_entries(path, [["s", [0], [1.0, 2.0, 3.0]], entry])
    with pytest.raises(ValueError, match=r"entry 1 .* is not \[state, prefix"):
        load_checkpoint(str(path))
    _write_entries(path, [["s", [0], [1.0, 2, -3.5]], ["t", [], [0, 0, 0]]])
    loaded = load_checkpoint(str(path))
    assert loaded.logits[("s", (0,))].tolist() == [1.0, 2.0, -3.5]
