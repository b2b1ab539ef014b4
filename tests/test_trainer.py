"""Tests for the training loop: config validation, loss gradients, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys

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
from entlab.envs import REWARD_SCHEMES, make_env
import entlab.envs
import entlab.modulation
import entlab.policy
from entlab.policy import (
    EnumerationBudgetError,
    PolicySnapshot,
    Response,
    TablePolicy,
    Vocabulary,
    draw_logits,
    enumerate_responses,
    exact_response_entropy,
    load_checkpoint,
    random_policy,
    token_distribution,
)
from entlab.modulation import MODES, apply_modulation, modulate_batch, population_coeffs, response_entropy_proxy
from entlab.probes import reachable_states
from entlab.rollout import FILTER_MODES, collect_group
import entlab.trainer
from entlab.trainer import (
    LOSSES,
    TrainConfig,
    _group_rngs,
    _rng_for,
    load_metrics,
    _gradient_blocks,
    _regularizer,
    _TERM,
    prepare_update,
    surrogate_loss,
    train,
)
from derivations import record_softmax_passes
from grad_rows import grad_rows, step_tables
from seeding import child_rngs

FAST = dict(
    env_overrides={"task_count": 2, "chain_len": 1, "n_content": 2, "key_len": 2},
    reward_scheme="binary",
    group_size=4,
    prompts_per_step=2,
    steps=3,
    lr=0.5,
)


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError):
        TrainConfig(loss="ppo")
    with pytest.raises(ValueError):
        TrainConfig(aem_mode="sideways")
    with pytest.raises(ValueError):
        TrainConfig(reward_scheme="dense")
    with pytest.raises(ValueError):
        TrainConfig(clip_low=0.0)
    with pytest.raises(ValueError):
        TrainConfig(clip_high=1.0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(group_size=1)
    with pytest.raises(ValueError):
        TrainConfig(steps=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(estimator="bogus")
    with pytest.raises(ValueError):
        TrainConfig(filter_mode="drop_all")
    with pytest.raises(ValueError):
        TrainConfig(env_kind="bogus")
    with pytest.raises(ValueError):
        TrainConfig(env_overrides=[1])
    with pytest.raises(ValueError):
        TrainConfig(env_overrides={"bogus": 1})
    with pytest.raises(ValueError):
        TrainConfig(env_kind="grid-fetch", env_overrides={"key_len": 2})
    with pytest.raises(ValueError):
        TrainConfig(env_overrides={"seed": 1})  # the env seed is env_seed
    # Every field is checked against its annotation before anything else; bool is no number.
    for bad in ({"group_size": 2.5}, {"steps": "3"}, {"steps": True}, {"seed": 1.0}, {"kl_coef": None},
                {"lr": "x"}, {"aem_lambda": "x"}, {"clip_low": False}, {"loss": 1}, {"env_kind": None},
                {"env_overrides": {"key_len": "x"}}, {"env_overrides": {"key_len": 2.0}},
                {"env_overrides": {"chain_len": True}},
                {"env_kind": "grid-fetch", "env_overrides": {"width": None}}):
        with pytest.raises(ValueError, match="must be"):
            TrainConfig(**bad)
    # Ranges: every float is finite, and each bounded field keeps its bound.
    for bad in ({"lr": math.nan}, {"aem_lambda": math.inf}, {"kl_coef": -math.inf}, {"aem_eps": -1.0},
                {"prompts_per_step": 0}, {"ckpt_every": -1}, {"lr": -0.5}, {"epochs": -1}, {"seed": -1},
                {"env_seed": -1}, {"aem_lambda": 1000.0}, {"aem_lambda": -700.5}):
        with pytest.raises(ValueError, match="must be"):
            TrainConfig(**bad)
    # The regularizer coefficients are never negative, so the pressure (kl_coef + entropy_coef) * Var(S) is not.
    for bad in ({"kl_coef": -1e6}, {"kl_coef": -1e-300}, {"entropy_coef": -1e6}, {"entropy_coef": -0.1}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be >= 0, got"):
            TrainConfig(**bad)
    assert TrainConfig(aem_lambda=700.0).aem_lambda == -TrainConfig(aem_lambda=-700.0).aem_lambda == 700.0
    # Env sizes are checked when the config is built, whether or not the run enumerates.
    for overrides in ({"key_len": 0}, {"task_count": 0}, {"chain_len": 0}):
        with pytest.raises(ValueError, match=">= 1"):
            TrainConfig(env_overrides=overrides, kl_coef=0.0)
    # float fields take ints, int fields take numpy integers.
    assert TrainConfig(lr=1, kl_coef=0, seed=np.int64(3), env_overrides={"task_count": np.int64(2)}).lr == 1


@pytest.mark.parametrize("name, bad", [("loss", "ppo"), ("aem_mode", "sideways"), ("reward_scheme", "dense"),
                                       ("estimator", "bogus"), ("filter_mode", "drop_all")])
def test_config_names_the_choices_and_the_bad_value(name, bad):
    """Each named-choice field is refused with one message: the values it accepts, then the value it got."""
    choices = {"loss": LOSSES, "aem_mode": MODES, "reward_scheme": tuple(sorted(REWARD_SCHEMES)),
               "estimator": ESTIMATORS, "filter_mode": FILTER_MODES}[name]
    with pytest.raises(ValueError) as refused:
        TrainConfig(**{name: bad})
    assert str(refused.value) == f"{name} must be one of {choices}, got {bad!r}"


def test_config_checks_enumeration_budget_on_every_run():
    """make_env's solvability check enumerates the response tree, so every run enumerates, regularized or not."""
    big = {"key_len": 20}  # 2,097,151 complete responses, over the budget
    for fields in ({}, {"kl_coef": 0.0, "entropy_coef": 0.1}, {"kl_coef": 0.0, "estimator": "oracle_value"},
                   {"kl_coef": 0.0}):
        with pytest.raises(EnumerationBudgetError):
            TrainConfig(env_overrides=big, **fields)
    # 3^13 = 1.59M is |V|^max_len, but key_len=13 has only 16,383 complete responses.
    assert TrainConfig(env_overrides={"key_len": 13}).kl_coef == 0.01


def _loss_inputs(config, jitter=0.0, jitter_seed=3):
    """Collect a couple of groups and the advantages the trainer would feed the loss.

    Collection seeds are fixed to ones that give mixed rewards in every group,
    so the advantages are not all zero.  jitter > 0 shifts the policy after
    collection, so importance ratios move off 1 and both clip branches can be
    exercised.
    """
    env = make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    scheme = REWARD_SCHEMES[config.reward_scheme]
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    ref_policy = policy.copy()

    rng = np.random.default_rng(jitter_seed)
    groups = [
        collect_group(policy, env, task, scheme, child_rngs(np.random.default_rng(28 + task), 6))
        for task in range(2)
    ]
    assert all(len(set(g.rewards)) > 1 for g in groups)
    advantages = [
        compute_advantages(g, config.estimator, env=env, policy=policy, scheme=scheme)
        for g in groups
    ]
    if jitter > 0.0:
        for group in groups:
            for span in group.spans:
                for k in range(len(span.response.tokens)):
                    vec = policy.logit_vector(span.state.policy_key, tuple(span.response.tokens[:k]))
                    vec += rng.normal(scale=jitter, size=vec.shape)
    return policy, ref_policy, groups, advantages


def _fd_check(policy, ref_policy, groups, advantages, config, h=1e-6, tol=2e-6):
    """Central finite differences of the loss against every analytic grad entry."""
    loss0, grad = surrogate_loss(policy, groups, advantages, config, ref_policy)
    assert math.isfinite(loss0)
    assert grad, "expected a nonempty gradient table"
    checked = 0
    for (state, prefix), gvec in grad_rows(policy, grad).items():
        vec = policy.logit_vector(state, prefix)
        for tok in range(len(gvec)):
            vec[tok] += h
            up, _ = surrogate_loss(policy, groups, advantages, config, ref_policy)
            vec[tok] -= 2 * h
            down, _ = surrogate_loss(policy, groups, advantages, config, ref_policy)
            vec[tok] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - gvec[tok]) <= tol * max(1.0, abs(gvec[tok])), (
                state, prefix, tok, fd, gvec[tok])
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_gradient_matches_finite_differences(loss):
    config = TrainConfig(loss=loss, kl_coef=0.0, entropy_coef=0.0, **FAST)
    policy, ref_policy, groups, advantages = _loss_inputs(config)
    _fd_check(policy, ref_policy, groups, advantages, config)


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_gradient_with_regularizers(loss):
    config = TrainConfig(loss=loss, kl_coef=0.05, entropy_coef=0.02, **FAST)
    policy, ref_policy, groups, advantages = _loss_inputs(config)
    _fd_check(policy, ref_policy, groups, advantages, config)


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_gradient_off_behavior_policy(loss):
    """Ratios far from 1 select both clip branches; the gradient must track them."""
    config = TrainConfig(loss=loss, kl_coef=0.01, entropy_coef=0.0, **FAST)
    policy, ref_policy, groups, advantages = _loss_inputs(config, jitter=0.5)
    _fd_check(policy, ref_policy, groups, advantages, config)


def test_kl_coef_without_reference_raises():
    config = TrainConfig(kl_coef=0.1, **FAST)
    policy, _, groups, advantages = _loss_inputs(config)
    with pytest.raises(ValueError):
        surrogate_loss(policy, groups, advantages, config, ref_policy=None)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_regularizer_terms_match_exact_enumeration():
    """_regularizer's value is the entropy bonus minus the KL penalty, by exact enumeration."""
    env = make_env("key-chain", seed=0, task_count=2, chain_len=1)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    rng = np.random.default_rng(5)
    state = "key-chain#0#0"
    vec = policy.logit_vector(state, ())
    vec += rng.normal(scale=1.0, size=vec.shape)
    ref_policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)

    def value(entropy_coef, kl_coef):
        config = TrainConfig(entropy_coef=entropy_coef, kl_coef=kl_coef, **FAST)
        snapshot = PolicySnapshot(policy)
        return _regularizer(snapshot, PolicySnapshot(ref_policy), [state], step_tables(snapshot, [state]), [1.0],
                            config)[0][0]

    assert value(0.3, 0.0) == pytest.approx(0.3 * exact_response_entropy(policy, state), abs=1e-12)

    ref = dict(enumerate_responses(ref_policy, state))
    kl = sum(p * (math.log(p) - math.log(ref[t]))
             for t, p in enumerate_responses(policy, state) if p > 0.0)
    assert kl > 0.0
    assert value(0.0, 0.7) == pytest.approx(-0.7 * kl, abs=1e-12)
    assert value(0.3, 0.7) == pytest.approx(0.3 * exact_response_entropy(policy, state) - 0.7 * kl,
                                            abs=1e-12)


def _one_hot_minus_p(p, tok):
    """d log softmax(z)[tok] / d z, the reference's gradient row."""
    g = -p.copy()
    g[tok] += 1.0
    return g


def _grad_add(grad, key, vec):
    """Add vec into a per-key gradient dict at key, copying it on first touch: the reference accumulator."""
    acc = grad.get(key)
    if acc is None:
        grad[key] = vec.copy()
    else:
        acc += vec


def _regularizer_state_per_path(policy, ref_policy, state, config, grad, weight):
    """The per-path regularizer walk the trainer's vectorized one must match bit for bit."""
    paths = enumerate_responses(policy, state)
    h = 0.0
    for _, prob in paths:
        if prob > 0.0:
            h -= prob * math.log(prob)

    kl = 0.0
    ref_logprob = {}
    if config.kl_coef != 0.0:
        for tokens, prob in enumerate_responses(ref_policy, state):
            ref_logprob[tokens] = math.log(prob) if prob > 0.0 else -math.inf
        for tokens, prob in paths:
            if prob > 0.0:
                kl += prob * (math.log(prob) - ref_logprob[tokens])

    value = config.entropy_coef * h - config.kl_coef * kl

    for tokens, prob in paths:
        if prob <= 0.0:
            continue
        logprob = math.log(prob)
        coeff = config.entropy_coef * prob * (-logprob - h)
        if config.kl_coef != 0.0:
            coeff -= config.kl_coef * prob * (logprob - ref_logprob[tokens])
        if coeff == 0.0:
            continue
        for k, tok in enumerate(tokens):
            prefix = tuple(tokens[:k])
            p = token_distribution(policy, state, prefix)
            _grad_add(grad, (state, prefix), (weight * coeff) * _one_hot_minus_p(p, tok))
    return value


def _random_blocks(policy, states, rng, scale=1.5):
    """Write normal(0, scale) logits on every row of each state, states in turn (draw_logits)."""
    for state in states:
        draw_logits(policy, state, rng, scale)
    return policy


def _regularizer_case(shape):
    """(policy, ref policy, states, config) of one case: several states of one tree shape.  Underflow makes
    some leaf probabilities 0.0; step-0 (no logits anywhere) and policy-is-ref, both with entropy_coef 0,
    make every coefficient 0, so that the regularizer adds no term."""
    config = TrainConfig(entropy_coef=0.02, kl_coef=0.05, **FAST)
    if shape in ("grid-fetch", "grid-fetch-underflow"):
        vocab, states = Vocabulary(size=5, terminator_id=4), ["s", "t", "u"]
        policy = _random_blocks(TablePolicy(vocab=vocab, max_len=3), states, np.random.default_rng(11))
        ref_policy = _random_blocks(TablePolicy(vocab=vocab, max_len=3), states, np.random.default_rng(12), 0.5)
        if shape == "grid-fetch-underflow":
            policy.logit_vector("s", ())[1] = -800.0
            policy.logit_vector("s", (0,))[2] = 750.0
            policy.logit_vector("t", (1,))[0] = 760.0
            for state in ("s", "t"):
                leaves = enumerate_responses(policy, state)
                assert 0.0 < sum(prob == 0.0 for _, prob in leaves) < len(leaves)
    elif shape in ("step-0", "policy-is-ref"):
        env = make_env("grid-fetch", seed=0)
        states = list(dict.fromkeys(env.reset(task).policy_key for task in range(env.task_count)))[:3]
        policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
        if shape == "policy-is-ref":
            _random_blocks(policy, states, np.random.default_rng(11))
        ref_policy = policy.copy()
        config = TrainConfig(entropy_coef=0.0, kl_coef=0.05, **FAST)
    else:
        env = make_env("key-chain", seed=0, chain_len=1, task_count=3)
        states = [env.reset(task).policy_key for task in range(3)]
        policy = _random_blocks(TablePolicy(vocab=env.vocab, max_len=env.max_len), states, np.random.default_rng(13))
        ref_policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
        assert len(enumerate_responses(policy, states[0])) == 7
    assert len(set(states)) == 3
    return policy, ref_policy, states, config


def _seeded_terms(snapshot, rng):
    """Clip-like _TERMs at states 2 and 0 of three, two of them at rows the regularizer also adds to, and
    their per-key reference accumulation."""
    rows, size = snapshot._shape.rows, snapshot.policy.vocab.size
    picks = [(2, (0,)), (0, ()), (2, ()), (0, (0,)), (2, (0,))]
    terms = np.array([(i, rows[u], rng.integers(size), rng.normal(scale=0.1)) for i, u in picks], dtype=_TERM)
    return terms, [(i, u, int(tok), float(coeff)) for (i, u), (_, _, tok, coeff) in zip(picks, terms)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", ["grid-fetch", "key-chain", "grid-fetch-underflow", "step-0", "policy-is-ref"])
def test_regularizer_is_bit_identical_to_per_path_walk(shape):
    """Three states in one call, after seeded clip terms: each value is the per-path walk's, and the one
    scatter's blocks hold the per-key accumulation of the clip terms and then the walk, byte for byte."""
    policy, ref_policy, states, config = _regularizer_case(shape)
    snapshot, ref = PolicySnapshot(policy), PolicySnapshot(ref_policy)
    rng = np.random.default_rng(7)
    for weights in ([0.375, 1.0, 0.25], [1.0, 1.0, 1.0]):
        seeded, seeded_keys = _seeded_terms(snapshot, rng)
        expect = {}
        for i, prefix, tok, coeff in seeded_keys:
            p = token_distribution(policy, states[i], prefix)
            _grad_add(expect, (states[i], prefix), coeff * _one_hot_minus_p(p, tok))
        want = [_regularizer_state_per_path(policy, ref_policy, state, config, expect, weight)
                for state, weight in zip(states, weights)]
        tables = step_tables(snapshot, states)
        values, terms = _regularizer(snapshot, ref, states, tables, weights, config)
        assert values.tolist() == want
        blocks = _gradient_blocks(states, tables, np.concatenate((seeded, terms)))
        got = grad_rows(policy, blocks)
        assert list(blocks) == list(dict.fromkeys(state for state, _ in expect))
        assert sorted(got) == sorted(expect)
        for key, vec in expect.items():
            assert got[key].tobytes() == (-vec).tobytes(), key
        # Rows no term reached hold +0.0, the negated -0.0 of the accumulator.
        assert all(block[~mask].tobytes() == np.zeros_like(block[~mask]).tobytes() for block, mask in blocks.values())
        if shape in ("step-0", "policy-is-ref"):
            assert want == [0.0] * 3 and not len(terms)
            assert list(blocks) == [states[2], states[0]]
        # The ref snapshot takes each state's logs once; the second pass reads them again.
        logs = {state: ref._memos["leaf_logs"][state] for state in states}
        assert list(ref._memos["leaf_logs"]) == states
    assert all(ref._memos["leaf_logs"][state] is logs[state] for state in states)


def _clip_active(ratio, advantage, clip_low, clip_high):
    """True when the unclipped branch of min(ratio*A, clip(ratio)*A) is selected."""
    if advantage > 0.0:
        return ratio <= 1.0 + clip_high
    if advantage < 0.0:
        return ratio >= 1.0 - clip_low
    return True


def _clipped_term(ratio, advantage, clip_low, clip_high):
    clipped = min(max(ratio, 1.0 - clip_low), 1.0 + clip_high)
    return min(ratio * advantage, clipped * advantage)


def _surrogate_per_token(policy, ref_policy, groups, advantages, config, masked_keys=()):
    """surrogate_loss's loss and gradient by a per-span, per-token loop: J added token by token (span by span for
    gspo_seq) from 0.0, the gradient accumulated key by key with _grad_add and negated key by key, the per-path
    regularizer walk included.  The reference for its loss value and blocks; returns (loss, gradient, how many clip
    terms were clipped, each token's ratio)."""
    snapshot = PolicySnapshot(policy)
    span_rows = [(advs[pos], span.state.policy_key, span.response.tokens, span.response.logprobs)
                 for g_idx, (group, advs) in enumerate(zip(groups, advantages))
                 for pos, span in enumerate(group.spans) if (g_idx, pos) not in masked_keys]
    n_spans, total_tokens = len(span_rows), sum(len(row[2]) for row in span_rows)
    grad, clipped, seen, j_clip = {}, 0, [], 0.0
    for adv, state, tokens, behavior_lp in span_rows:
        rows = [snapshot._shape.rows[tuple(tokens[:k])] for k in range(len(tokens))]
        dists, logp, size = snapshot.table(state)[rows], snapshot.sampler(state)[1], snapshot.policy.vocab.size
        log_ratios = [logp[row * size + tok] - lp for row, tok, lp in zip(rows, tokens, behavior_lp)]
        seen.extend(math.exp(x) for x in log_ratios)
        if config.loss == "gspo_seq":
            ratios = [math.exp(sum(log_ratios) / len(tokens))]
            j_clip += _clipped_term(ratios[0], adv, config.clip_low, config.clip_high) / n_spans
            weights = [adv * ratios[0] / (n_spans * len(tokens))] * len(tokens)
        else:
            ratios = [math.exp(x) for x in log_ratios]
            token_weight = 1.0 / (n_spans * len(tokens)) if config.loss == "grpo_clip" else 1.0 / total_tokens
            for ratio in ratios:
                j_clip += token_weight * _clipped_term(ratio, adv, config.clip_low, config.clip_high)
            weights = [token_weight * adv * ratio for ratio in ratios]
        active = [adv != 0.0 and _clip_active(ratio, adv, config.clip_low, config.clip_high) for ratio in ratios]
        clipped += sum(adv != 0.0 and not a for a in active)
        for k, tok in enumerate(tokens):
            if active[0 if config.loss == "gspo_seq" else k]:
                _grad_add(grad, (state, tuple(tokens[:k])), weights[k] * _one_hot_minus_p(dists[k], tok))
    j_reg = 0.0
    if (config.entropy_coef != 0.0 or config.kl_coef != 0.0) and n_spans > 0:
        counts = {}
        for _, state, _, _ in span_rows:
            counts[state] = counts.get(state, 0) + 1
        for state, count in counts.items():
            j_reg += count / n_spans * _regularizer_state_per_path(policy, ref_policy, state, config, grad,
                                                                   count / n_spans)
    return -(j_clip + j_reg), {key: -vec for key, vec in grad.items()}, clipped, seen


def _surrogate_grad_per_key(policy, ref_policy, groups, advantages, config):
    """The per-token reference's (gradient, how many clip terms were clipped): the reference for the blocks."""
    return _surrogate_per_token(policy, ref_policy, groups, advantages, config)[1:3]


def _block_inputs(shape):
    """Policy, ref policy, groups and lists of random advantages whose ratios are moved off 1 by jitter."""
    env = make_env("grid-fetch", seed=0) if shape != "key-chain" else make_env("key-chain", seed=0,
                                                                             **FAST["env_overrides"])
    scheme = REWARD_SCHEMES["binary"]
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    if shape == "grid-fetch-underflow":
        # Tokens with probability exactly 0.0 make -0.0 entries in onehot - p.
        for task in range(2):
            policy.logit_vector(env.reset(task).policy_key, ())[1] = -800.0
            policy.logit_vector(env.reset(task).policy_key, (0,))[2] = 750.0
    ref_policy = policy.copy()
    rng = np.random.default_rng(19)
    groups = [collect_group(policy, env, task, scheme, child_rngs(rng, 6)) for task in range(2)]
    advantages = [[float(rng.normal()) for _ in g.spans] for g in groups]
    for group in groups:
        for span in group.spans:
            for k in range(len(span.response.tokens)):
                vec = policy.logit_vector(span.state.policy_key, tuple(span.response.tokens[:k]))
                vec += rng.normal(scale=0.5, size=vec.shape)
    return policy, ref_policy, groups, advantages


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("regularized", [False, True], ids=["clip-only", "regularized"])
@pytest.mark.parametrize("shape", ["key-chain", "grid-fetch", "grid-fetch-underflow"])
@pytest.mark.parametrize("loss", LOSSES)
def test_gradient_blocks_are_the_per_key_accumulation(loss, shape, regularized):
    """Each state's (G, mask) holds, byte for byte, the per-key gradient of _grad_add in its masked rows,
    and exactly +0.0 in the rest; the states come in the reference's order of first key."""
    config = TrainConfig(loss=loss, kl_coef=0.05 if regularized else 0.0, entropy_coef=0.02 if regularized else 0.0)
    policy, ref_policy, groups, advantages = _block_inputs(shape)
    want, clipped = _surrogate_grad_per_key(policy, ref_policy, groups, advantages, config)
    assert clipped > 0
    if shape == "grid-fetch-underflow":
        assert any((np.signbit(vec) & (vec == 0.0)).any() for vec in want.values())
    _, blocks = surrogate_loss(policy, groups, advantages, config, ref_policy)
    got = grad_rows(policy, blocks)
    assert sorted(got) == sorted(want)
    for key, vec in want.items():
        assert got[key].tobytes() == vec.tobytes(), key
    for block, mask in blocks.values():
        assert block.shape == (len(mask), policy.vocab.size)
        assert block[~mask].tobytes() == np.zeros_like(block[~mask]).tobytes()
    assert list(blocks) == list(dict.fromkeys(state for state, _ in want))


def _assert_is_the_per_token_loop(policy, ref_policy, groups, advantages, config, masked_keys=()):
    """surrogate_loss's loss is the per-token reference's by repr and its blocks are the reference's byte for byte;
    returns the reference's token ratios."""
    want, want_grad, _, ratios = _surrogate_per_token(policy, ref_policy, groups, advantages, config, masked_keys)
    loss, blocks = surrogate_loss(policy, groups, advantages, config, ref_policy, set(masked_keys))
    assert type(loss) is float and repr(loss) == repr(want)
    got = grad_rows(policy, blocks)
    assert sorted(got) == sorted(want_grad)
    for key, vec in want_grad.items():
        assert got[key].tobytes() == vec.tobytes(), key
    return ratios


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("regularized", [False, True], ids=["clip-only", "regularized"])
@pytest.mark.parametrize("shape", ["key-chain", "grid-fetch", "grid-fetch-underflow"])
@pytest.mark.parametrize("loss", LOSSES)
def test_loss_value_is_the_per_token_loop(loss, shape, regularized):
    """The loss value is the per-token loop's, by repr, with ratios moved off 1 by jitter: with every span in,
    with every other span masked, with every span masked (no span: -0.0) and with every advantage 0."""
    config = TrainConfig(loss=loss, kl_coef=0.05 if regularized else 0.0, entropy_coef=0.02 if regularized else 0.0)
    policy, ref_policy, groups, advantages = _block_inputs(shape)
    keys = [(g_idx, pos) for g_idx, group in enumerate(groups) for pos in range(len(group.spans))]
    ratios = _assert_is_the_per_token_loop(policy, ref_policy, groups, advantages, config)
    assert sum(ratio != 1.0 for ratio in ratios) > len(ratios) // 2
    _assert_is_the_per_token_loop(policy, ref_policy, groups, advantages, config, keys[::2])
    assert _assert_is_the_per_token_loop(policy, ref_policy, groups, advantages, config, keys) == []
    assert repr(surrogate_loss(policy, groups, advantages, config, ref_policy, set(keys))[0]) == "-0.0"
    zeros = [[0.0] * len(advs) for advs in advantages]
    _assert_is_the_per_token_loop(policy, ref_policy, groups, zeros, config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("regularized", [False, True], ids=["clip-only", "regularized"])
@pytest.mark.parametrize("loss", LOSSES)
def test_a_sampled_token_that_underflowed_has_ratio_zero(loss, regularized):
    """A sampled token whose probability underflowed to 0.0 after sampling (as by a later epoch) has log -inf and
    ratio 0.0, as in the sampler rows' log, and the update raises no RuntimeWarning."""
    config = TrainConfig(loss=loss, kl_coef=0.05 if regularized else 0.0, entropy_coef=0.02 if regularized else 0.0)
    policy, ref_policy, groups, advantages = _block_inputs("grid-fetch")
    for group in groups:
        span = group.spans[0]
        policy.logit_vector(span.state.policy_key, ())[span.response.tokens[0]] = -800.0
        assert token_distribution(policy, span.state.policy_key, ())[span.response.tokens[0]] == 0.0
    assert 0.0 in _assert_is_the_per_token_loop(policy, ref_policy, groups, advantages, config)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_gradient_term_gives_no_block_and_no_write():
    """With every advantage 0 and both coefficients 0, the gradient is {} and a train() step writes nothing."""
    config = TrainConfig(loss="grpo_clip", kl_coef=0.0, entropy_coef=0.0)
    policy, ref_policy, groups, advantages = _block_inputs("grid-fetch")
    zeros = [[0.0] * len(advs) for advs in advantages]
    writes = policy.writes
    assert surrogate_loss(policy, groups, zeros, config, ref_policy)[1] == {}
    assert policy.writes == writes
    # key_len=6 makes every reward of step 0 equal, so every GRPO advantage is 0.
    config = TrainConfig(**dict(FAST, env_overrides=dict(FAST["env_overrides"], key_len=6), steps=1,
                                kl_coef=0.0, entropy_coef=0.0))
    result = train(config)
    assert all(adv == 0.0 for *_, adv in result.metrics[0].spans) and result.metrics[0].spans
    assert result.policy.writes == 0


@pytest.mark.parametrize("shape", ["key-chain", "grid-fetch"])
def test_surrogate_loss_refuses_a_span_that_is_not_a_complete_response(shape):
    """Span tokens that run past a leaf (after the terminator or past max_len), stop short of one or leave the
    vocabulary are refused with the state and the tokens named, not read at a wrong row or wrapped round."""
    policy, ref_policy, groups, advantages = _block_inputs(shape)
    config = TrainConfig(kl_coef=0.05)
    surrogate_loss(policy, groups, advantages, config, ref_policy)
    span, size, max_len = groups[1].spans[-1], policy.vocab.size, policy.max_len
    term = policy.vocab.terminator_id
    past = [[*span.response.tokens, 0], [term, term], [0] * max_len + [term]]
    short = [[0] * k for k in range(1, max_len)] + [[1] * k for k in range(1, max_len)]
    for tokens in [*past, *short, [-1], [size], [0] * (max_len - 1) + [-1]]:
        span.response = Response(tokens=tokens, logprobs=[-1.0] * len(tokens), entropies=[0.5] * len(tokens))
        message = f"span tokens {tokens} at {span.state.policy_key!r} are not one complete response"
        with pytest.raises(ValueError, match=re.escape(message)):
            surrogate_loss(policy, groups, advantages, config, ref_policy)


GRID_KL = dict(env_kind="grid-fetch", kl_coef=0.01, steps=3)
GRID_ORACLE = dict(env_kind="grid-fetch", estimator="oracle_value", kl_coef=0.0, aem_mode="batch_norm", steps=3)
#: FAST keeps every population degenerate; with these sizes about a third of the spans get alpha != 1.
MODULATING = dict(FAST, group_size=8, lr=4.0, steps=6)
#: Two turns per rollout, so traj_norm has a population per trajectory; some are degenerate, some not.
BANDIT_TRAJ = dict(FAST, env_kind="bandit-chain", env_overrides={"task_count": 2, "chain_len": 2},
                   group_size=8, lr=8.0, steps=8, aem_mode="traj_norm")
#: sha256 of each run's metrics.jsonl, pinned from the per-path regularizer, the per-call recursive
#: state_value, the per-mode modulation code paths and the rng.choice sampler (x86-64, Python 3.11, numpy 2.4).
#: A "mask_sign" entry is passed to train() rather than to TrainConfig.
GOLDEN_METRICS = {
    "grid-fetch-kl": (GRID_KL, "42eeb1259335b89af6a2c367ec2c016d262cd3661aefdbd5ff0d76ee5f898fcd"),
    "grid-fetch-oracle": (GRID_ORACLE, "fcc3b8aa339f45fbb8404a8f8f8dd90e047ddaf1338a28f658f8917ca6a35607"),
    "key-chain-fast": (FAST, "40e93b38b391b9b4a65a76fb085db3439e00e16ecada9075bc2072bd23ebb0e6"),
    "key-chain-entropy": (dict(FAST, entropy_coef=0.05, epochs=2),
                          "721ee3d270bdada3e969cfd70840e6e9f0c3f62f31f3b71c4cc9377709e7b65d"),
    "key-chain-aem": (MODULATING, "1d545676bebe78b0a8180c2b4974cbf051966de5f94a85f849c47ee1aad509ec"),
    "key-chain-off": (dict(MODULATING, aem_mode="off"),
                      "b5af2f3a39e8180a6c4b21f3d876237875db079394fef8ff7e9b5856f0d1999c"),
    "key-chain-reverse": (dict(MODULATING, aem_mode="reverse"),
                          "81dca9bd8686de431a87bc6374dac990724323d1fb089f3afc703a6a857cf492"),
    "key-chain-shuffle": (dict(MODULATING, aem_mode="shuffle"),
                          "570d9aaff6ca5dd2452e086c0d63ac13395d86c9468a144a30c7f39135e657b0"),
    "key-chain-off-mask-neg": (dict(MODULATING, aem_mode="off", mask_sign=-1),
                               "0557c1f71796151a56aaba4bb163d12bfa183e9b64d7d5f7c2252fe62b0d86c5"),
    "bandit-chain-traj-norm": (BANDIT_TRAJ, "5a6666032a1095280cdef3eb61017175e388db78360c7bd9770d8e9e86d9063e"),
    # epochs=2: epoch 1 must read the policy after epoch 0's write, not the step's rollout snapshot.
    "key-chain-dapo-epochs2": (dict(MODULATING, loss="dapo_token", epochs=2),
                               "6b2ce7d5e4c353441ababf464a16eb4b4afba52556fad1da653a212a03dfd204"),
    "key-chain-gspo-epochs2": (dict(MODULATING, loss="gspo_seq", epochs=2),
                               "e1e981f61db55c513e46cc2e1272a72a3218976db20b53762868578215ccb8f1"),
    # A seed of 2**32 or more is two words, so each prompt's entropy row has five.
    "key-chain-seed-2^32": (dict(MODULATING, seed=2**32),
                            "10b582ecc50475caa95008f4d157b4b906adee99c4ca9a8f0555759f50dae06d"),
    "key-chain-seed-2^40+3": (dict(MODULATING, seed=2**40 + 3),
                              "bab4e6445b2dd183167927d70b518fd1428be227764601af66bf51b40e70f62b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_METRICS))
def test_metrics_log_matches_golden_digest(name, tmp_path):
    """A change to training arithmetic that reaches the logged numbers fails here, benchmark or not."""
    fields, digest = GOLDEN_METRICS[name]
    fields = dict(fields)
    mask_sign = fields.pop("mask_sign", None)
    path = tmp_path / "metrics.jsonl"
    train(TrainConfig(**fields), metrics_path=str(path), mask_sign=mask_sign)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_oracle_metrics_do_not_depend_on_kept_successor_rows(tmp_path):
    """The exact-value run logs the same bytes with successor rows built cold, read warm from the run before,
    and read after runs of other env definitions filled their own tables in the same process."""
    fields, digest = GOLDEN_METRICS["grid-fetch-oracle"]
    entlab.envs._successor_table.cache_clear()
    digests = []
    for other in (None, None, dict(fields, env_seed=1, steps=1), dict(FAST, steps=1)):
        if other is not None:
            train(TrainConfig(**other))
        path = tmp_path / f"metrics_{len(digests)}.jsonl"
        train(TrainConfig(**fields), metrics_path=str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests == [digest] * 4


def test_train_is_deterministic():
    config = TrainConfig(epochs=2, **FAST)
    first = train(config)
    second = train(config)
    docs_a = [m.to_doc() for m in first.metrics]
    docs_b = [m.to_doc() for m in second.metrics]
    assert json.dumps(docs_a, sort_keys=True) == json.dumps(docs_b, sort_keys=True)
    assert first.policy.logits.keys() == second.policy.logits.keys()
    for key, vec in first.policy.logits.items():
        assert np.array_equal(vec, second.policy.logits[key])


def test_lambda_zero_matches_modulation_off():
    base = dict(FAST, steps=5)
    off = train(TrainConfig(aem_mode="off", **base))
    flat = train(TrainConfig(aem_mode="aem", aem_lambda=0.0, aem_eps=0.0, **base))
    assert off.policy.logits.keys() == flat.policy.logits.keys()
    for key, vec in off.policy.logits.items():
        assert np.array_equal(vec, flat.policy.logits[key])
    for m_off, m_flat in zip(off.metrics, flat.metrics):
        assert m_off.mean_reward == m_flat.mean_reward
        assert m_flat.mean_alpha == pytest.approx(1.0, abs=1e-12)


def test_modulation_changes_the_run():
    """Once groups develop entropy spread, modulated updates leave the off path."""
    base = dict(
        env_overrides={"task_count": 4, "chain_len": 1},
        reward_scheme="binary",
        group_size=16,
        prompts_per_step=2,
        lr=2.0,
        steps=30,
    )
    off = train(TrainConfig(aem_mode="off", **base))
    on = train(TrainConfig(aem_mode="aem", aem_lambda=1.0, **base))
    assert any(abs(m.mean_alpha - 1.0) > 1e-9 for m in on.metrics)
    same = all(
        np.array_equal(vec, on.policy.logits[key])
        for key, vec in off.policy.logits.items()
        if key in on.policy.logits
    )
    assert not (same and off.policy.logits.keys() == on.policy.logits.keys())


def test_training_learns_the_task():
    config = TrainConfig(
        env_overrides={"task_count": 2, "chain_len": 1},
        reward_scheme="binary",
        aem_mode="off",
        lr=2.0,
        group_size=8,
        prompts_per_step=2,
        steps=40,
    )
    result = train(config)
    first = np.mean([m.success_rate for m in result.metrics[:5]])
    last = np.mean([m.success_rate for m in result.metrics[-5:]])
    assert last > first + 0.3
    assert last > 0.8


def test_metrics_log_round_trip(tmp_path):
    config = TrainConfig(**FAST)
    path = tmp_path / "metrics.jsonl"
    result = train(config, metrics_path=str(path))
    records = load_metrics(str(path))
    assert records == result.metrics
    docs = [m.to_doc() for m in records]
    keys = {
        "step", "mean_reward", "success_rate", "policy_entropy_estimate",
        "mean_alpha", "frac_positive_advantage", "loss_value", "spans",
    }
    assert set(docs[0]) == keys
    assert [d["step"] for d in docs] == list(range(config.steps))


def test_checkpoint_cadence(tmp_path):
    config = TrainConfig(**dict(FAST, steps=4, ckpt_every=2))
    result = train(config, checkpoint_dir=str(tmp_path))
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "policy_final.json",
        "policy_init.json",
        "policy_step_0002.json",
        "policy_step_0004.json",
    ]
    final = load_checkpoint(str(tmp_path / "policy_final.json"))
    assert final.logits.keys() == result.policy.logits.keys()
    for key, vec in result.policy.logits.items():
        assert np.allclose(vec, final.logits[key])


def test_reference_policy_stays_empty_after_kl_training():
    result = train(TrainConfig(**dict(FAST, kl_coef=0.01)))
    assert result.ref_policy.logits == {}
    assert result.policy.logits


def test_masked_train_validates_sign():
    with pytest.raises(ValueError):
        train(TrainConfig(**FAST), mask_sign=0)


def test_masked_runs_diverge_by_sign():
    config = TrainConfig(
        env_overrides={"task_count": 4, "chain_len": 1},
        reward_scheme="binary",
        group_size=16,
        prompts_per_step=2,
        lr=2.0,
        steps=30,
    )
    up = train(config, mask_sign=1)
    down = train(config, mask_sign=-1)
    identical = all(
        np.array_equal(vec, down.policy.logits[key])
        for key, vec in up.policy.logits.items()
        if key in down.policy.logits
    )
    assert not (identical and up.policy.logits.keys() == down.policy.logits.keys())


def test_every_per_span_value_is_a_list_in_span_order():
    """Advantages, coefficients and the mask are one format: each estimator, compute_advantages, apply_modulation
    and each ModulationSet field give a list with one entry per span of group.spans, in its order; prepare_update's
    masked (group index, span position) pairs index those lists; and surrogate_loss and apply_modulation refuse an
    advantage list one entry short."""
    config = TrainConfig(**dict(FAST, env_overrides=dict(FAST["env_overrides"], chain_len=2), reward_scheme="sparse"))
    env = make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    scheme = REWARD_SCHEMES[config.reward_scheme]
    policy, rng = TablePolicy(vocab=env.vocab, max_len=env.max_len), np.random.default_rng(7)
    for state in reachable_states(env):
        draw_logits(policy, state, rng)
    snapshot = PolicySnapshot(policy)
    groups = [collect_group(snapshot, env, task, scheme, child_rngs(rng, 8)) for task in range(2)]
    assert any(len(traj.turns) > 1 for group in groups for traj in group.trajectories)
    for group in groups:
        rewards, memo = group.rewards, {}
        mean, std = np.mean(rewards), np.std(rewards)
        want = {
            "grpo": [(rewards[s.rollout_index] - mean) / (std + 1e-8) for s in group.spans],
            "rloo": [rewards[s.rollout_index] - (sum(rewards) - rewards[s.rollout_index]) / (len(rewards) - 1)
                     for s in group.spans],
            "oracle_value": [rewards[s.rollout_index] - state_value(snapshot, env, s.state, scheme, memo)
                             for s in group.spans],
        }
        got = {"grpo": grpo_advantage(group), "rloo": rloo_advantage(group),
               "oracle_value": oracle_value_advantage(group, env, snapshot, scheme)}
        for estimator in ESTIMATORS:
            dispatched = compute_advantages(group, estimator, env=env, policy=snapshot, scheme=scheme)
            assert type(got[estimator]) is list and dispatched == got[estimator]
            np.testing.assert_allclose(got[estimator], want[estimator], rtol=1e-12, atol=1e-12)
    for mode in MODES[1:]:
        for group, mset in zip(groups, modulate_batch(groups, mode, rng=np.random.default_rng(0))):
            assert type(mset.alpha) is list and len(mset.alpha) == len(group.spans)
            assert type(mset.h_tilde) is list and len(mset.h_tilde) == len(group.spans)
    sets = modulate_batch(groups, "aem")
    assert not all(mset.degenerate for mset in sets)
    for group, mset in zip(groups, sets):
        h_tilde, alphas = population_coeffs([response_entropy_proxy(s.response) for s in group.spans])
        assert mset.alpha == alphas and mset.h_tilde == (h_tilde or [None] * len(group.spans))
        advantages = grpo_advantage(group)
        applied = apply_modulation(advantages, mset)
        assert applied == [alpha * adv for alpha, adv in zip(alphas, advantages)]
        with pytest.raises(ValueError):
            apply_modulation(advantages[:-1], mset)
    n_masked = 0
    for mask_sign in (1, -1):
        timings = {"advantage": 0.0, "aem": 0.0}
        update = prepare_update(snapshot, groups, config, env, 0, mask_sign, timings)
        raw = [compute_advantages(group, config.estimator) for group in update.groups]
        assert all(len(advs) == len(group.spans) for group, advs in zip(update.groups, update.advantages))
        assert update.masked == {(g_idx, pos) for g_idx, advs in enumerate(raw) for pos, adv in enumerate(advs)
                                 if mask_sign * (adv * (update.sets[g_idx].alpha[pos] - 1.0)) > 0.0}
        for g_idx, pos in update.masked:
            assert 0 <= pos < len(update.groups[g_idx].spans)
        n_masked += len(update.masked)
        surrogate_loss(snapshot, update.groups, update.advantages, config, policy.copy(), update.masked)
        with pytest.raises(ValueError):
            surrogate_loss(snapshot, update.groups, [advs[:-1] for advs in update.advantages], config,
                           policy.copy(), update.masked)
    assert n_masked > 0


def _advantage_bits(advantages):
    return [[float(value).hex() for value in advs] for advs in advantages]


#: (fields, mask_sign) that reach every rule of prepare_update: each population, the group filter, both masks
#: (one with aem_mode "off", which modulates for the mask only) and second epochs, one of them masked.
STEP_CASES = [
    (dict(MODULATING, aem_mode="aem"), None), (dict(MODULATING, aem_mode="off"), None),
    (dict(MODULATING, aem_mode="shuffle"), None), (dict(MODULATING, aem_mode="batch_norm", epochs=2), None),
    (BANDIT_TRAJ, None), (dict(MODULATING, filter_mode="drop_uniform"), None),
    (dict(MODULATING, aem_mode="off"), 1), (dict(MODULATING, aem_mode="aem", epochs=2), -1),
]


@pytest.mark.parametrize("fields,mask_sign", STEP_CASES,
                         ids=["aem", "off", "shuffle", "batch_norm-epochs2", "traj_norm", "drop_uniform",
                              "off-mask+1", "aem-mask-1-epochs2"])
def test_train_hands_the_loss_what_prepare_update_returns(fields, mask_sign, monkeypatch):
    """train() has one copy of a step's rules: at every step the loss gets the groups, advantages and masked spans
    that prepare_update returns for that step's snapshot and collected groups, bit for bit, in every epoch."""
    config, collected, steps = TrainConfig(**fields), [], []
    collect, loss = entlab.trainer.collect_groups, entlab.trainer.surrogate_loss
    monkeypatch.setattr(entlab.trainer, "collect_groups",
                        lambda *a: collected.append((a, found := collect(*a))) or found)

    def checked(policy, groups, advantages, config_, ref, masked):
        if isinstance(policy, PolicySnapshot):  # epoch 0 reads the step's snapshot, before any write
            (snapshot, env, *_), found = collected[-1]
            timings = {"advantage": 0.0, "aem": 0.0}
            want = prepare_update(policy, found, config, env, len(collected) - 1, mask_sign, timings)
            assert policy is snapshot and timings["advantage"] > 0.0 and timings["aem"] > 0.0
            assert [id(g) for g in groups] == [id(g) for g in want.groups]
            assert _advantage_bits(advantages) == _advantage_bits(want.advantages) and masked == want.masked
            steps.append((groups, advantages, masked, len(found), want.sets))
        else:
            assert steps[-1][:3] == (groups, advantages, masked)  # later epochs train on the same update
        return loss(policy, groups, advantages, config_, ref, masked)

    monkeypatch.setattr(entlab.trainer, "surrogate_loss", checked)
    train(config, mask_sign=mask_sign)
    assert steps
    if config.filter_mode == "drop_uniform":
        assert len(steps) < config.steps or any(len(groups) < n for groups, _, _, n, _ in steps)
    if mask_sign is not None:
        assert any(masked for _, _, masked, _, _ in steps)
    modulated = any(alpha != 1.0 for *_, sets in steps for s in sets for alpha in s.alpha)
    assert modulated == (config.aem_mode != "off" or mask_sign is not None)


@pytest.mark.parametrize("fields", [dict(FAST, kl_coef=0.01), dict(GRID_ORACLE, steps=2),
                                    dict(MODULATING, entropy_coef=0.05, epochs=2, steps=3)],
                         ids=["key-chain-kl", "grid-fetch-oracle", "key-chain-entropy-epochs2"])
def test_one_softmax_per_policy_version(fields, monkeypatch):
    """Rollout, the value oracle and the regularizers of a step share one snapshot, so every
    (policy, version, state) softmax is derived once, in a batched pass, and none goes through token_distribution."""
    singles, passes = [], record_softmax_passes(monkeypatch)
    monkeypatch.setattr(entlab.policy, "token_distribution", lambda *args: singles.append(args))
    train(TrainConfig(**fields))
    keys = [key for derived in passes for key in derived]
    assert keys and len(keys) == len(set(keys))
    assert singles == []


@pytest.mark.parametrize("fields,mask_sign", [(dict(MODULATING, aem_mode="off"), None),
                                              (dict(MODULATING, aem_mode="off"), 1),
                                              (dict(MODULATING, aem_mode="off", filter_mode="drop_uniform"), -1),
                                              (dict(MODULATING, aem_mode="aem", filter_mode="drop_uniform"), None)],
                         ids=["off", "off-mask+1", "off-drop_uniform-mask-1", "aem-drop_uniform"])
def test_prepare_update_returns_a_set_per_trained_group_in_every_mode(fields, mask_sign):
    """Every mode gives one ModulationSet per trained group, holding its spans' h_bar, h_tilde and alpha: under
    "off" the sets are "aem" ones when a mask asks for coefficients and identity sets otherwise, and the applied
    advantages are the raw ones.  update.h_bar lists every collected span's proxy, dropped groups included."""
    config = TrainConfig(**fields)
    env = make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    scheme = REWARD_SCHEMES[config.reward_scheme]
    policy, rng = TablePolicy(vocab=env.vocab, max_len=env.max_len), np.random.default_rng(4)
    for state in reachable_states(env):
        draw_logits(policy, state, rng, scale=2.0)
    snapshot = PolicySnapshot(policy)
    groups = [collect_group(snapshot, env, task % 2, scheme, child_rngs(rng, 8)) for task in range(6)]
    update = prepare_update(snapshot, groups, config, env, 0, mask_sign, {"advantage": 0.0, "aem": 0.0})
    if config.filter_mode == "drop_uniform":
        assert 0 < len(update.groups) < len(groups)
    assert type(update.sets) is list and len(update.sets) == len(update.groups)
    assert update.h_bar == [response_entropy_proxy(span.response) for group in groups for span in group.spans]
    raw = [compute_advantages(group, config.estimator) for group in update.groups]
    want = modulate_batch(update.groups, "aem" if mask_sign is not None else config.aem_mode)
    assert not all(mset.degenerate for mset in want) or config.aem_mode == "off" and mask_sign is None
    for group, mset, want_set in zip(update.groups, update.sets, want, strict=True):
        assert mset == want_set and mset.h_bar == [response_entropy_proxy(span.response) for span in group.spans]
    if config.aem_mode == "off":
        assert update.advantages == raw
    else:
        assert update.advantages == [apply_modulation(advs, mset) for advs, mset in zip(raw, want)]


def test_train_refuses_a_record_that_is_not_finite(tmp_path, monkeypatch):
    """A step record holding an inf or nan stops the run with a ValueError naming its step and field; the lines of
    the steps before it stay written, byte for byte a clean run's, and load_metrics reads them."""
    path = tmp_path / "metrics.jsonl"
    with pytest.raises(ValueError, match="step 0: loss_value is not finite"), np.errstate(over="ignore"):
        train(TrainConfig(**dict(FAST, entropy_coef=1e308)), metrics_path=str(path))
    assert load_metrics(str(path)) == []
    train(TrainConfig(**FAST), metrics_path=str(tmp_path / "clean.jsonl"))
    clean = (tmp_path / "clean.jsonl").read_text().splitlines(keepends=True)
    step_metrics = entlab.trainer._step_metrics
    for field_name, poison in (("mean_alpha", math.nan), ("spans", -math.inf)):
        def poisoned(step, *args):
            record = step_metrics(step, *args)
            if step == 2 and field_name == "spans":
                record.spans[-1][-1] = poison
            elif step == 2:
                setattr(record, field_name, poison)
            return record

        monkeypatch.setattr(entlab.trainer, "_step_metrics", poisoned)
        with pytest.raises(ValueError, match=f"step 2: {field_name} is not finite"):
            train(TrainConfig(**FAST), metrics_path=str(path))
        assert path.read_text().splitlines(keepends=True) == clean[:2]
        assert len(load_metrics(str(path))) == 2


def test_one_entropy_proxy_per_collected_span(monkeypatch):
    """train() computes each collected span's entropy proxy once and hands it to both modulation and
    the step record, trained spans included, whether modulation runs or not."""
    proxied, groups = [], []
    proxy, collect = entlab.modulation.response_entropy_proxy, entlab.trainer.collect_groups
    monkeypatch.setattr(entlab.modulation, "response_entropy_proxy", lambda r: proxied.append(id(r)) or proxy(r))
    monkeypatch.setattr(entlab.trainer, "collect_groups", lambda *a: groups.extend(found := collect(*a)) or found)
    for aem_mode in ("off", "aem", "batch_norm"):
        proxied.clear()
        groups.clear()
        train(TrainConfig(**dict(MODULATING, steps=2, aem_mode=aem_mode)))
        spans = [id(span.response) for group in groups for span in group.spans]
        assert spans and sorted(proxied) == sorted(spans), aem_mode


def test_aem_key_chain_run_computes_one_proxy_per_span(monkeypatch):
    """The 400-step aem run of the transition config trains 400 x 4 x 8 = 12,800 one-turn spans."""
    calls = []
    proxy = entlab.modulation.response_entropy_proxy
    monkeypatch.setattr(entlab.modulation, "response_entropy_proxy", lambda r: calls.append(1) or proxy(r))
    train(TrainConfig(env_overrides={"chain_len": 1}, reward_scheme="binary", lr=2.0, steps=400, aem_mode="aem"))
    assert len(calls) == 12_800


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**40 + 3, 2**64 + 1])
@pytest.mark.parametrize("per_block", [12, 24, 1024], ids=["1-step-blocks", "2-step-blocks", "one-block"])
def test_group_rngs_are_default_rng_of_each_child_seed(seed, per_block, monkeypatch):
    """Group (step, p) gets child_rngs(_rng_for(seed, 1, step, p), group_size), whatever the block size.

    3 prompts of 4 rollouts are 12 per step, so 5 steps end in a partial block of 24.
    """
    monkeypatch.setattr(entlab.trainer, "_ROLLOUTS_PER_BLOCK", per_block)
    config = TrainConfig(**dict(FAST, prompts_per_step=3, steps=5, seed=seed))
    got = [[r.bit_generator.state for r in rngs] for rngs in _group_rngs(config)]
    expect = [[r.bit_generator.state for r in child_rngs(_rng_for(seed, 1, step, p), config.group_size)]
              for step in range(config.steps) for p in range(config.prompts_per_step)]
    assert got == expect


def test_train_builds_no_default_rng_outside_shuffle(monkeypatch):
    """Rollout generators come from seed_states; only the shuffle generator is a default_rng of the trainer.

    Env construction keeps its own task-layout generator, so calls are counted by the calling module.
    """
    callers = []
    original = np.random.default_rng

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    for mode in ("aem", "off", "batch_norm"):
        callers.clear()
        train(TrainConfig(**dict(MODULATING, aem_mode=mode)))
        assert callers and set(callers) == {"entlab.envs"}, (mode, callers)
    callers.clear()
    train(TrainConfig(**dict(MODULATING, aem_mode="shuffle")))
    assert callers.count("entlab.trainer") == MODULATING["steps"]
    assert set(callers) == {"entlab.envs", "entlab.trainer"}
