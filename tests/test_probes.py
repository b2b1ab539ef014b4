"""Tests for the diagnostic probes: consistency, martingale residuals, transitions."""

from __future__ import annotations

import numpy as np
import pytest

from entlab.envs import make_env, reachable
from entlab.geometry import entropy
from entlab.modulation import group_minmax_normalize, modulation_coeffs, response_entropy_proxy
from entlab.policy import PolicySnapshot, TablePolicy, Vocabulary, random_policy, sample_response
from entlab.probes import (
    DOOB_ROUNDOFF,
    _correlation,
    consistency_probe,
    doob_exact_residuals,
    doob_probe,
    reachable_states,
    transition_tracker,
)
from entlab.trainer import StepMetrics


def _split_entropy_policy():
    """One state where the first token decides between calm and noisy continuations.

    Token 0 is likely and leads to a near-deterministic second position; token
    1 is unlikely and leads to a uniform one.  Responses through 0 therefore
    have low mean entropy and low surprisal together, which is the alignment
    the consistency probe is meant to detect.
    """
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=2)
    policy.logit_vector("s", ())[:] = (1.5, -0.5, -1.0)
    policy.logit_vector("s", (0,))[:] = (6.0, -6.0, 0.0)
    policy.logit_vector("s", (1,))[:] = (0.0, 0.0, 0.0)
    return policy


def test_consistency_probe_finds_positive_alignment():
    policy = _split_entropy_policy()
    report = consistency_probe(policy, ["s"], k_samples=200,
                               rng=np.random.default_rng(0), n_bootstrap=500)
    assert report.n_states == 1
    assert report.n_pairs == 200
    assert report.pearson_r > 0.3
    assert report.ci_low > 0.0
    assert report.ci_low < report.pearson_r < report.ci_high
    assert report.sign_agreement > 0.5
    assert report.n_sign_pairs <= report.n_pairs


def test_consistency_probe_is_seed_deterministic():
    policy = _split_entropy_policy()
    a = consistency_probe(policy, ["s"], 64, np.random.default_rng(7), n_bootstrap=200)
    b = consistency_probe(policy, ["s"], 64, np.random.default_rng(7), n_bootstrap=200)
    assert a.pairs == b.pairs
    assert a.pearson_r == b.pearson_r
    assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)


def test_consistency_probe_reads_a_snapshot_as_its_policy():
    """A PolicySnapshot is read as itself, as every other reader takes one: the same draws give the same report."""
    policy = _split_entropy_policy()
    snapshot = PolicySnapshot(policy)
    a = consistency_probe(snapshot, ["s"], 64, np.random.default_rng(7), n_bootstrap=200)
    b = consistency_probe(policy, ["s"], 64, np.random.default_rng(7), n_bootstrap=200)
    assert a == b
    assert list(snapshot._memos["samplers"]) == ["s"]


def test_consistency_probe_needs_two_pairs():
    policy = _split_entropy_policy()
    with pytest.raises(ValueError):
        consistency_probe(policy, [], 8, np.random.default_rng(0))
    with pytest.raises(ValueError):
        consistency_probe(policy, ["s"], 1, np.random.default_rng(0))


def test_consistency_probe_rejects_constant_coordinates():
    # Uniform single-token responses: every sample has the same entropy and
    # surprisal, so both pair coordinates are constant.
    policy = TablePolicy(vocab=Vocabulary(size=4, terminator_id=3), max_len=1)
    with pytest.raises(ValueError):
        consistency_probe(policy, ["s"], 16, np.random.default_rng(0))


def _corrcoef_statistics(policy, states, k_samples, rng, n_bootstrap, lam=1.0, eps=1e-8):
    """consistency_probe's pairs, pearson_r and bootstrap interval with np.corrcoef and two .std() checks
    per resample: the reference of its one-entry correlation."""
    snapshot = PolicySnapshot.of(policy)
    pairs = []
    for state in states:
        responses = [sample_response(snapshot, state, rng) for _ in range(k_samples)]
        surprisals = [r.surprisal for r in responses]
        h_mc = sum(surprisals) / len(surprisals)
        h_tilde, degenerate = group_minmax_normalize([response_entropy_proxy(r) for r in responses], eps)
        alphas = [1.0] * k_samples if degenerate else modulation_coeffs(h_tilde, lam, eps)
        pairs.extend((alpha - 1.0, -(s - h_mc)) for alpha, s in zip(alphas, surprisals))
    xs, ys = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
    if xs.std() == 0.0 or ys.std() == 0.0:
        raise ValueError("constant coordinate")
    r = float(np.corrcoef(xs, ys)[0, 1])
    boot = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        idx = rng.integers(0, len(pairs), size=len(pairs))
        bx, by = xs[idx], ys[idx]
        boot[b] = 0.0 if bx.std() == 0.0 or by.std() == 0.0 else np.corrcoef(bx, by)[0, 1]
    ci_low, ci_high = (float(q) for q in np.percentile(boot, [2.5, 97.5]))
    return pairs, r, ci_low, ci_high


@pytest.mark.parametrize("k_samples,n_bootstrap", [(2, 200), (3, 200), (64, 300)])
def test_consistency_bootstrap_is_corrcoef_bit_for_bit(k_samples, n_bootstrap):
    """Two or three pairs make constant resamples common, so the zero branch is taken; every statistic keeps
    np.corrcoef's bits, and the generator ends where the reference leaves it."""
    policy = _split_entropy_policy()
    compared = 0
    for seed in range(30):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            pairs, r, ci_low, ci_high = _corrcoef_statistics(policy, ["s"], k_samples, ref_rng, n_bootstrap)
        except ValueError:
            with pytest.raises(ValueError):
                consistency_probe(policy, ["s"], k_samples, rng, n_bootstrap=n_bootstrap)
            continue
        report = consistency_probe(policy, ["s"], k_samples, rng, n_bootstrap=n_bootstrap)
        assert report.pairs == pairs
        assert [np.float64(v).tobytes() for v in (report.pearson_r, report.ci_low, report.ci_high)] == [
            np.float64(v).tobytes() for v in (r, ci_low, ci_high)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        compared += 1
    assert compared >= 5


def test_one_entry_correlation_is_corrcoef():
    rng = np.random.default_rng(5)
    for n in (2, 3, 7, 64, 3072):
        for _ in range(20):
            x, y = rng.normal(size=n), rng.normal(size=n)
            y[: n // 2] = x[: n // 2]
            assert np.float64(_correlation(x, y)).tobytes() == np.corrcoef(x, y)[0, 1].tobytes()
    assert _correlation(np.array([1.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0])) is None
    assert _correlation(np.array([0.0, 1.0, 2.0]), np.full(3, -0.5)) is None


def test_doob_exact_residuals_vanish():
    rng = np.random.default_rng(11)
    for _ in range(5):
        policy = random_policy(4, 3, rng)
        residuals = doob_exact_residuals(policy, "s")
        assert residuals
        for value in residuals.values():
            assert abs(value) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_doob_exact_residuals_are_finite_at_a_token_of_probability_zero():
    """exp(-800) underflows to a p of exactly 0.0, which adds 0 to the residual (not 0 * inf, which is NaN)."""
    policy = TablePolicy(Vocabulary(3, 2), 2)
    policy.logit_vector("s", ())[:] = (0.0, -800.0, 0.0)
    residuals = doob_exact_residuals(policy, "s")
    assert list(residuals) == PolicySnapshot(policy)._shape.prefixes
    assert all(abs(value) < 1e-12 for value in residuals.values())


def test_doob_exact_residuals_are_the_per_prefix_formula_bit_for_bit():
    """Where no p is 0.0, one pass over the state's table gives the bits of the per-prefix sum
    sum_y p(y) * (-log p(y) - H(p)) over the distributions of the state's table, prefixes in row order."""
    for vocab_size, max_len in ((5, 3), (4, 3), (3, 2)):  # grid-fetch's, key-chain's and the referee's trees
        for seed in range(5):
            policy = random_policy(vocab_size, max_len, np.random.default_rng(seed))
            snapshot = PolicySnapshot(policy)
            dists = dict(zip(snapshot._shape.prefixes, snapshot.table("s")))
            want = {u: float((p * (-np.log(p) - entropy(p))).sum()) for u, p in dists.items()}
            assert doob_exact_residuals(policy, "s") == want


def test_doob_probe_empirical_mean_is_small():
    rng = np.random.default_rng(3)
    policy = random_policy(4, 3, rng)
    report = doob_probe(policy, "s", n_samples=20000, rng=rng)
    assert report.ok
    assert abs(report.residual_mean) <= 4.0 * report.residual_stderr
    assert report.n_samples == 20000
    assert sum(entry["count"] for entry in report.per_length.values()) == 20000
    assert all(1 <= length <= 3 for length in report.per_length)


def test_doob_probe_uniform_policy_is_roundoff_zero():
    # Under a uniform policy every path's surprisal equals its summed
    # conditional entropies, so residuals collapse to float roundoff.
    policy = TablePolicy(vocab=Vocabulary(size=3, terminator_id=2), max_len=2)
    report = doob_probe(policy, "s", n_samples=500, rng=np.random.default_rng(0))
    assert abs(report.residual_mean) < 1e-12
    assert report.residual_stderr < 1e-12


def test_doob_probe_accepts_roundoff_residuals():
    # Near-constant roundoff residuals have a stderr far below their mean (3.6e-16 vs 4.8e-18 at
    # V=3, L=2), so 4 * stderr alone would fail them; the DOOB_ROUNDOFF floor accepts them.
    for size, max_len in ((3, 2), (2, 3), (4, 3), (3, 1)):
        policy = TablePolicy(vocab=Vocabulary(size=size, terminator_id=size - 1), max_len=max_len)
        for seed in range(3):
            report = doob_probe(policy, "s", n_samples=500, rng=np.random.default_rng(seed))
            assert abs(report.residual_mean) <= DOOB_ROUNDOFF
            assert report.ok, (size, max_len, seed, report.residual_mean, report.residual_stderr)


def _metrics(step, entropy, success, pos):
    return StepMetrics(step=step, mean_reward=0.0, success_rate=success,
                       policy_entropy_estimate=entropy, mean_alpha=1.0,
                       frac_positive_advantage=pos, loss_value=0.0)


def test_transition_tracker_quartile_means():
    n = 8
    baseline = [_metrics(i, 2.0 - 0.2 * i, 0.1 * i, 0.5) for i in range(n)]
    modulated = [_metrics(i, 1.5 - 0.1 * i, 0.05 * i, 0.25) for i in range(n)]
    summary = transition_tracker(baseline, modulated)
    assert summary.n_steps == n
    assert summary.quartile == 2
    assert summary.baseline_early_entropy == pytest.approx((2.0 + 1.8) / 2)
    assert summary.baseline_late_entropy == pytest.approx((0.8 + 0.6) / 2)
    assert summary.modulated_early_entropy == pytest.approx((1.5 + 1.4) / 2)
    assert summary.modulated_late_entropy == pytest.approx((0.9 + 0.8) / 2)
    assert summary.baseline_final_success == pytest.approx((0.6 + 0.7) / 2)
    assert summary.modulated_final_success == pytest.approx((0.30 + 0.35) / 2)
    assert summary.baseline_early_frac_positive == pytest.approx(0.5)
    assert summary.modulated_early_frac_positive == pytest.approx(0.25)


def test_transition_tracker_rejects_mismatched_runs():
    baseline = [_metrics(i, 1.0, 0.0, 0.0) for i in range(4)]
    modulated = [_metrics(i, 1.0, 0.0, 0.0) for i in range(5)]
    with pytest.raises(ValueError):
        transition_tracker(baseline, modulated)


def test_reachable_state_counts_match_env_structure():
    assert len(reachable_states(make_env("key-chain", seed=0))) == 16
    assert len(reachable_states(make_env("grid-fetch", seed=0))) == 60
    assert len(reachable_states(make_env("bandit-chain", seed=0))) == 80


def test_reachable_states_enforces_limit():
    with pytest.raises(ValueError):
        reachable_states(make_env("grid-fetch", seed=0), limit=10)
    # The limit counts raw states (several can share a policy key) and refuses only more than it.
    for kind in ("key-chain", "grid-fetch", "bandit-chain"):
        env = make_env(kind, seed=0)
        count = sum(1 for _ in reachable(env, [env.reset(task) for task in range(env.task_count)]))
        assert reachable_states(env, limit=count) == reachable_states(env)
        with pytest.raises(ValueError, match=f"more than {count - 1} reachable states"):
            reachable_states(env, limit=count - 1)
    assert len(reachable_states(make_env("key-chain", seed=0), limit=16)) == 16


def test_reachable_states_start_with_task_resets():
    env = make_env("key-chain", seed=0, task_count=3, chain_len=1)
    keys = reachable_states(env)
    for task_id in range(3):
        assert env.reset(task_id).policy_key in keys
