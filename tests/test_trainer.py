"""Tests for the training loop: config validation, loss gradients, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from entlab.advantage import compute_advantages
from entlab.envs import REWARD_SCHEMES, make_env
import entlab.modulation
import entlab.policy
from entlab.policy import (
    EnumerationBudgetError,
    PolicySnapshot,
    TablePolicy,
    enumerate_responses,
    exact_response_entropy,
    load_checkpoint,
    random_policy,
    token_distribution,
)
from entlab.rollout import collect_group
import entlab.trainer
from entlab.trainer import (
    LOSSES,
    TrainConfig,
    _group_rngs,
    _rng_for,
    load_metrics,
    _grad_add,
    _one_hot_minus_p,
    _regularizer_state,
    surrogate_loss,
    train,
)
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
                {"env_seed": -1}):
        with pytest.raises(ValueError, match="must be"):
            TrainConfig(**bad)
    # Env sizes are checked when the config is built, whether or not the run enumerates.
    for overrides in ({"key_len": 0}, {"task_count": 0}, {"chain_len": 0}):
        with pytest.raises(ValueError, match=">= 1"):
            TrainConfig(env_overrides=overrides, kl_coef=0.0)
    # float fields take ints, int fields take numpy integers.
    assert TrainConfig(lr=1, kl_coef=0, seed=np.int64(3), env_overrides={"task_count": np.int64(2)}).lr == 1


def test_config_checks_enumeration_budget_on_every_run():
    """make_env's solvability check enumerates response_space, so every run enumerates, regularized or not."""
    big = {"key_len": 20}  # 2,097,151 complete responses, over the budget
    for fields in ({}, {"kl_coef": 0.0, "entropy_coef": 0.1}, {"kl_coef": 0.0, "estimator": "oracle_value"},
                   {"kl_coef": 0.0}):
        with pytest.raises(EnumerationBudgetError):
            TrainConfig(env_overrides=big, **fields)
    # 3^13 = 1.59M is |V|^max_len, but key_len=13 has only 16,383 complete responses.
    assert TrainConfig(env_overrides={"key_len": 13}).kl_coef == 0.01


def _loss_inputs(config, jitter=0.0, jitter_seed=3):
    """Collect a couple of groups and the tables the trainer would feed the loss.

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
    tables = [
        compute_advantages(g, config.estimator, env=env, policy=policy, scheme=scheme)
        for g in groups
    ]
    if jitter > 0.0:
        for group in groups:
            for span in group.spans:
                for k in range(len(span.response.tokens)):
                    vec = policy.logit_vector(span.state_key, tuple(span.response.tokens[:k]))
                    vec += rng.normal(scale=jitter, size=vec.shape)
    return policy, ref_policy, groups, tables


def _fd_check(policy, ref_policy, groups, tables, config, h=1e-6, tol=2e-6):
    """Central finite differences of the loss against every analytic grad entry."""
    loss0, grad = surrogate_loss(policy, groups, tables, config, ref_policy)
    assert math.isfinite(loss0)
    assert grad, "expected a nonempty gradient table"
    checked = 0
    for (state, prefix), gvec in grad.items():
        vec = policy.logit_vector(state, prefix)
        for tok in range(len(gvec)):
            vec[tok] += h
            up, _ = surrogate_loss(policy, groups, tables, config, ref_policy)
            vec[tok] -= 2 * h
            down, _ = surrogate_loss(policy, groups, tables, config, ref_policy)
            vec[tok] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - gvec[tok]) <= tol * max(1.0, abs(gvec[tok])), (
                state, prefix, tok, fd, gvec[tok])
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_gradient_matches_finite_differences(loss):
    config = TrainConfig(loss=loss, kl_coef=0.0, entropy_coef=0.0, **FAST)
    policy, ref_policy, groups, tables = _loss_inputs(config)
    _fd_check(policy, ref_policy, groups, tables, config)


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_gradient_with_regularizers(loss):
    config = TrainConfig(loss=loss, kl_coef=0.05, entropy_coef=0.02, **FAST)
    policy, ref_policy, groups, tables = _loss_inputs(config)
    _fd_check(policy, ref_policy, groups, tables, config)


@pytest.mark.parametrize("loss", LOSSES)
def test_loss_gradient_off_behavior_policy(loss):
    """Ratios far from 1 select both clip branches; the gradient must track them."""
    config = TrainConfig(loss=loss, kl_coef=0.01, entropy_coef=0.0, **FAST)
    policy, ref_policy, groups, tables = _loss_inputs(config, jitter=0.5)
    _fd_check(policy, ref_policy, groups, tables, config)


def test_kl_coef_without_reference_raises():
    config = TrainConfig(kl_coef=0.1, **FAST)
    policy, _, groups, tables = _loss_inputs(config)
    with pytest.raises(ValueError):
        surrogate_loss(policy, groups, tables, config, ref_policy=None)


def test_regularizer_terms_match_exact_enumeration():
    """_regularizer_state's value is the entropy bonus minus the KL penalty, by exact enumeration."""
    env = make_env("key-chain", seed=0, task_count=2, chain_len=1)
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    rng = np.random.default_rng(5)
    state = "key-chain#0#0"
    vec = policy.logit_vector(state, ())
    vec += rng.normal(scale=1.0, size=vec.shape)
    ref_policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)

    def value(entropy_coef, kl_coef):
        config = TrainConfig(entropy_coef=entropy_coef, kl_coef=kl_coef, **FAST)
        return _regularizer_state(PolicySnapshot(policy), PolicySnapshot(ref_policy), state, config, {}, 1.0)

    assert value(0.3, 0.0) == pytest.approx(0.3 * exact_response_entropy(policy, state), abs=1e-12)

    ref = dict(enumerate_responses(ref_policy, state))
    kl = sum(p * (math.log(p) - math.log(ref[t]))
             for t, p in enumerate_responses(policy, state) if p > 0.0)
    assert kl > 0.0
    assert value(0.0, 0.7) == pytest.approx(-0.7 * kl, abs=1e-12)
    assert value(0.3, 0.7) == pytest.approx(0.3 * exact_response_entropy(policy, state) - 0.7 * kl,
                                            abs=1e-12)


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


def _seeded_accum(vocab_size, state, rng):
    """An accumulator already holding clip-term entries, two of them at regularizer keys."""
    grad = {}
    for key in [(state, (0,)), ("other", ()), (state, ())]:
        _grad_add(grad, key, rng.normal(scale=0.1, size=vocab_size))
    return grad


@pytest.mark.parametrize("shape", ["grid-fetch", "key-chain", "grid-fetch-underflow", "step-0", "policy-is-ref"])
def test_regularizer_state_is_bit_identical_to_per_path_walk(shape):
    """Also when some leaf probabilities underflow to 0.0, and when policy and ref are equal and
    entropy_coef is 0 (step 0 of a run), so that every coefficient is 0 and no gradient row is added."""
    config = TrainConfig(entropy_coef=0.02, kl_coef=0.05, **FAST)
    if shape in ("grid-fetch", "grid-fetch-underflow"):
        policy = random_policy(5, 3, np.random.default_rng(11))
        ref_policy = random_policy(5, 3, np.random.default_rng(12), scale=0.5)
        state = "s"
        if shape == "grid-fetch-underflow":
            policy.logits[(state, ())][1] = -800.0
            policy.logits[(state, (0,))][2] = 750.0
            leaves = enumerate_responses(policy, state)
            assert 0.0 < sum(prob == 0.0 for _, prob in leaves) < len(leaves)
    elif shape in ("step-0", "policy-is-ref"):
        env = make_env("grid-fetch", seed=0)
        state = env.reset(0).policy_key
        policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
        if shape == "policy-is-ref":
            policy = random_policy(5, 3, np.random.default_rng(11), state=state)
        ref_policy = policy.copy()
        config = TrainConfig(entropy_coef=0.0, kl_coef=0.05, **FAST)
    else:
        env = make_env("key-chain", seed=0, chain_len=1)
        state = "key-chain#0#0"
        policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
        ref_policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
        rng = np.random.default_rng(13)
        for prefix, _ in enumerate_responses(policy, state):
            for k in range(len(prefix)):
                policy.logit_vector(state, prefix[:k])[:] = rng.normal(scale=1.5, size=env.vocab.size)
        assert len(enumerate_responses(policy, state)) == 7
    snapshot, ref = PolicySnapshot(policy), PolicySnapshot(ref_policy)
    for weight in (0.375, 1.0):
        expect = _seeded_accum(policy.vocab.size, state, np.random.default_rng(7))
        got = _seeded_accum(policy.vocab.size, state, np.random.default_rng(7))
        want = _regularizer_state_per_path(policy, ref_policy, state, config, expect, weight)
        # The second pass reads both trees from the snapshots the first one filled.
        assert _regularizer_state(snapshot, ref, state, config, got, weight) == want
        assert list(got) == list(expect)
        for key, vec in expect.items():
            assert got[key].tobytes() == vec.tobytes(), key
        if shape in ("step-0", "policy-is-ref"):
            assert want == 0.0
            untouched = _seeded_accum(5, state, np.random.default_rng(7))
            assert all(got[key].tobytes() == vec.tobytes() for key, vec in untouched.items())
    assert list(ref._trees) == list(snapshot._trees) == [state]


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


@pytest.mark.parametrize("fields", [dict(FAST, kl_coef=0.01), dict(GRID_ORACLE, steps=2),
                                    dict(MODULATING, entropy_coef=0.05, epochs=2, steps=3)],
                         ids=["key-chain-kl", "grid-fetch-oracle", "key-chain-entropy-epochs2"])
def test_one_softmax_per_policy_version(fields, monkeypatch):
    """Rollout, the value oracle and the regularizers of a step share one snapshot, so every
    (policy, version, state) batched softmax is computed once, and none goes through token_distribution."""
    keys, singles = [], []
    table = PolicySnapshot.table

    def counted(self, state):
        if state not in self._tables:
            keys.append((id(self.policy), self.policy.writes, state))
        return table(self, state)

    monkeypatch.setattr(PolicySnapshot, "table", counted)
    monkeypatch.setattr(entlab.policy, "token_distribution", lambda *args: singles.append(args))
    train(TrainConfig(**fields))
    assert keys and len(keys) == len(set(keys))
    assert singles == []


def test_one_entropy_proxy_per_collected_span(monkeypatch):
    """The step record computes each collected span's entropy proxy once, trained spans included;
    with aem off, modulation computes none."""
    proxied, groups = [], []
    proxy, collect = entlab.modulation.response_entropy_proxy, entlab.trainer.collect_group
    monkeypatch.setattr(entlab.modulation, "response_entropy_proxy", lambda r: proxied.append(id(r)) or proxy(r))
    monkeypatch.setattr(entlab.trainer, "collect_group", lambda *a: groups.append(collect(*a)) or groups[-1])
    train(TrainConfig(**dict(FAST, steps=1, aem_mode="off")))
    spans = [id(span.response) for group in groups for span in group.spans]
    assert spans and sorted(proxied) == sorted(spans)


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
