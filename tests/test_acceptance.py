"""End-to-end acceptance checks for the package.

Each test covers one headline guarantee: exact entropy identities, drift
verification against finite differences, conformance of the modulation
pipeline to a straight-line reference, probe behavior on trained policies,
and reproducibility/overhead bounds of the trainer.  Every test prints a
single PASS/FAIL line with the measured numbers.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from entlab.advantage import AdvantageTable
from entlab.cli import main as cli_main
from entlab.envs import REWARD_SCHEMES, make_env
from entlab.geometry import (
    DriftConfig,
    ParamPolicy,
    entropy,
    param_entropy_gradient,
    parametrized_drift,
    random_interior_simplex,
    regularized_drift,
    resp_entropy_drift,
    surprisal,
    verify_drift_fd,
)
from entlab.modulation import group_minmax_normalize, modulate_batch, modulation_coeffs
from entlab.policy import Response, TablePolicy, exact_response_entropy, pathwise_entropy, random_policy
from entlab.probes import consistency_probe, doob_exact_residuals, doob_probe, reachable_states
from entlab.rollout import Group, ResponseSpan, collect_group
from entlab.trainer import LOSSES, TrainConfig, surrogate_loss, train
from grad_rows import grad_rows
from seeding import child_rngs


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    print(line)
    assert ok, line


def test_entropy_two_routes_agree_exactly():
    """Expected surprisal equals the enumerated pathwise token-entropy sum."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        vocab_size = int(rng.integers(2, 5))
        max_len = int(rng.integers(2, 5))
        policy = random_policy(vocab_size, max_len, rng)
        diff = abs(exact_response_entropy(policy, "s") - pathwise_entropy(policy, "s"))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    _report("entropy-exactness", worst < 1e-10 and elapsed < 10.0,
            f"max |route diff| {worst:.3e} (tol 1e-10) over 50 policies in {elapsed:.2f}s")


def test_simplex_drift_identity_matches_finite_differences():
    """A(S_a - H) is the entropy derivative along the natural score direction."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    reports = verify_drift_fd("resp", 1000, rng, fd_step=1e-6, tol_rel=1e-4)
    elapsed = time.perf_counter() - t0
    n_fail = sum(1 for r in reports if not r.ok)
    worst = max(r.rel_error for r in reports)
    _report("drift-identity", n_fail == 0 and elapsed < 30.0,
            f"{len(reports)} trials, {n_fail} failures, max rel err {worst:.3e} "
            f"(tol 1e-4) in {elapsed:.2f}s")


def test_regularized_drift_decomposition():
    """Regularized drift matches finite differences; the pressure term is never negative."""
    rng = np.random.default_rng(303)
    reports = verify_drift_fd("regularized", 500, rng, fd_step=1e-6, tol_rel=1e-4)
    n_fail = sum(1 for r in reports if not r.ok)

    n_negative = 0
    for _ in range(500):
        m = int(rng.integers(3, 11))
        pi = random_interior_simplex(m, rng)
        a = int(rng.integers(m))
        cfg = DriftConfig(advantage=float(rng.uniform(-2.0, 2.0)),
                          beta=float(rng.uniform(0.0, 1.0)),
                          gamma=float(rng.uniform(0.0, 0.1)),
                          pi_ref=random_interior_simplex(m, rng))
        if regularized_drift(pi, a, cfg).pressure_term < 0.0:
            n_negative += 1
    _report("regularized-decomposition", n_fail == 0 and n_negative == 0,
            f"500 fd trials ({n_fail} failures, tol rel 1e-4), "
            f"pressure term negative in {n_negative}/500 trials")


def test_parametrized_drift_matches_theta_gradients():
    """Shared-parameter drift equals the theta-space inner product; V matches the gradient norm."""
    rng = np.random.default_rng(404)
    reports = verify_drift_fd("parametrized", 200, rng, fd_step=1e-6, tol_rel=1e-4)
    n_fail = sum(1 for r in reports if not r.ok)

    worst_v = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 11))
        d = int(rng.integers(2, m + 1))
        policy = ParamPolicy(features=rng.normal(size=(m, d)), theta=0.5 * rng.normal(size=d))
        cfg = DriftConfig(advantage=float(rng.uniform(-2.0, 2.0)),
                          beta=float(rng.uniform(0.0, 1.0)),
                          gamma=float(rng.uniform(0.0, 0.1)),
                          pi_ref=random_interior_simplex(m, rng))
        drift = parametrized_drift(policy, int(rng.integers(m)), cfg)
        grad_h = param_entropy_gradient(policy)
        worst_v = max(worst_v, abs(drift.v_theta - float(grad_h @ grad_h)))
    _report("parametrized-drift", n_fail == 0 and worst_v < 1e-10,
            f"200 fd trials ({n_fail} failures, tol rel 1e-4), "
            f"max |V - ||grad H||^2| {worst_v:.3e} (tol 1e-10)")


def _span(i: int, h: float) -> ResponseSpan:
    return ResponseSpan(rollout_index=i, turn_index=0, state_key="s",
                        response=Response(tokens=[0], logprobs=[-1.0], entropies=[h]))


def _reference_pipeline(h_bars: list[float], lam: float, eps: float):
    """Straight-line transcription of the coefficient pipeline, pure floats."""
    mn = min(h_bars)
    mx = max(h_bars)
    if mx - mn < 0.1:
        return [None] * len(h_bars), [1.0] * len(h_bars), True
    h_tilde = [(h - mn) / (mx - mn + eps) for h in h_bars]
    raw = [math.exp(-lam * h) for h in h_tilde]
    mean_raw = sum(raw) / len(raw)
    return h_tilde, [r / (mean_raw + eps) for r in raw], False


def test_modulation_pipeline_matches_straight_line_reference():
    """Bit-for-bit conformance on 1000 random groups, plus guard/calibration/monotonicity."""
    rng = np.random.default_rng(505)
    eps = 1e-8
    n_degenerate = 0
    n_live = 0
    worst_mean = 0.0
    mismatches = 0
    monotone_breaks = 0
    for g in range(1000):
        n = int(rng.integers(2, 17))
        if rng.uniform() < 0.3:
            h_bars = [float(h) for h in rng.uniform(0.0, 0.09, size=n)]
        else:
            h_bars = [float(h) for h in rng.uniform(0.0, 2.0, size=n)]
        lam = 1.0 if g % 2 == 0 else float(rng.uniform(0.25, 4.0))
        group = Group(prompt_id=0, trajectories=[], spans=[_span(i, h) for i, h in enumerate(h_bars)])
        got = modulate_batch([group], "aem", lam=lam, eps=eps)[0]

        ref_tilde, ref_alpha, degenerate = _reference_pipeline(h_bars, lam, eps)
        for i in range(n):
            if got.alpha[(i, 0)] != ref_alpha[i] or got.h_tilde[(i, 0)] != ref_tilde[i]:
                mismatches += 1
        if degenerate != got.degenerate:
            mismatches += 1

        if degenerate:
            n_degenerate += 1
            continue
        n_live += 1
        worst_mean = max(worst_mean, abs(sum(ref_alpha) / n - 1.0))
        if lam == 1.0:
            pairs = sorted(zip(ref_tilde, ref_alpha))
            monotone_breaks += sum(1 for j in range(1, n) if pairs[j][1] >= pairs[j - 1][1])
    ok = (mismatches == 0 and worst_mean < 1e-6 and monotone_breaks == 0
          and n_degenerate > 100 and n_live > 100)
    _report("pipeline-conformance", ok,
            f"1000 groups bit-for-bit ({mismatches} mismatches), "
            f"{n_degenerate} hit the range guard, max |mean alpha - 1| {worst_mean:.2e} "
            f"(tol 1e-6), {monotone_breaks} monotonicity breaks at lambda=1")


def test_worked_coefficient_values():
    """Known proxies {0.2, 0.5, 0.8} at lambda=1 give the frozen coefficients."""
    h_tilde, degenerate = group_minmax_normalize([0.2, 0.5, 0.8])
    assert not degenerate
    alphas = modulation_coeffs(h_tilde, lam=1.0)
    expect = [1.5194, 0.9216, 0.5590]
    worst = max(abs(a - e) for a, e in zip(alphas, expect))
    _report("worked-values", worst < 1e-3,
            f"alphas {[round(a, 4) for a in alphas]} vs {expect}, max dev {worst:.2e} (tol 1e-3)")


def test_surprisal_martingale_residuals():
    """Surprisal minus summed conditional entropies has mean zero, exactly and empirically."""
    rng = np.random.default_rng(606)
    worst_exact = 0.0
    n_ok = 0
    for _ in range(10):
        vocab_size = int(rng.integers(3, 5))
        policy = random_policy(vocab_size, 3, rng)
        worst_exact = max(worst_exact, max(abs(v) for v in doob_exact_residuals(policy, "s").values()))
        report = doob_probe(policy, "s", n_samples=100000, rng=rng)
        n_ok += 1 if report.ok else 0
    _report("martingale-residuals", worst_exact <= 1e-12 and n_ok == 10,
            f"max exact residual {worst_exact:.2e} (tol 1e-12), "
            f"empirical |mean| within 4 stderr for {n_ok}/10 policies at 100k samples")


def test_modulated_drift_sign_shift():
    """Scaling the advantage by a counter-aligned coefficient shifts the drift against A."""
    rng = np.random.default_rng(707)
    n_hold = 0
    trials = 0
    while trials < 1000:
        m = int(rng.integers(3, 11))
        pi = random_interior_simplex(m, rng)
        a = int(rng.integers(m))
        gap = float(surprisal(pi)[a]) - entropy(pi)
        advantage = float(rng.uniform(-2.0, 2.0))
        if abs(gap) < 1e-12 or abs(advantage) < 0.05:
            continue
        trials += 1
        delta = float(rng.uniform(0.05, 0.9))
        alpha = 1.0 - delta if gap > 0.0 else 1.0 + delta
        shift = resp_entropy_drift(pi, a, alpha * advantage) - resp_entropy_drift(pi, a, advantage)
        if math.copysign(1.0, shift) == -math.copysign(1.0, advantage):
            n_hold += 1
    _report("sign-shift", n_hold == 1000, f"direction held in {n_hold}/1000 cases (need 1000)")


def test_quadrant_masking_entropy_direction():
    """Masking the concentrating quadrants leaves the spreading pressure in charge.

    Spans with sgn(A * (alpha - 1)) = +1 are the entropy-reducing ones
    (confident successes amplified, uncertain failures suppressed), so the
    run that drops them keeps its entropy above the run dropping the others.
    """
    t0 = time.perf_counter()
    base = dict(env_overrides={"chain_len": 1, "task_count": 4}, reward_scheme="binary",
                aem_mode="aem", lr=2.0, group_size=16, steps=50)
    wins = 0
    gaps = []
    for seed in range(10):
        config = TrainConfig(seed=seed, **base)
        drop_pos = train(config, mask_sign=1)
        drop_neg = train(config, mask_sign=-1)
        high = np.mean([m.policy_entropy_estimate for m in drop_pos.metrics[10:50]])
        low = np.mean([m.policy_entropy_estimate for m in drop_neg.metrics[10:50]])
        gaps.append(high - low)
        wins += 1 if low < high else 0
    elapsed = time.perf_counter() - t0
    _report("masking-direction", wins >= 8 and elapsed < 300.0,
            f"entropy lower under the negative-quadrant mask in {wins}/10 seeds "
            f"(need 8), mean gap {np.mean(gaps):.3f} nats, {elapsed:.1f}s")


def test_coefficients_track_entropy_changes():
    """On a mid-training policy, alpha - 1 correlates with the sampled entropy-change proxy."""
    config = TrainConfig(steps=300, lr=2.0, aem_mode="aem", reward_scheme="binary",
                         prompts_per_step=8,
                         env_overrides={"chain_len": 1, "task_count": 64, "n_content": 3})
    result = train(config)
    env = make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    states = reachable_states(env)
    assert len(states) == 64
    report = consistency_probe(result.policy, states, k_samples=64,
                               rng=np.random.default_rng(0))
    ok = report.pearson_r > 0.0 and report.ci_low > 0.0
    _report("consistency", ok,
            f"r {report.pearson_r:.3f}, 95% CI [{report.ci_low:.3f}, {report.ci_high:.3f}] "
            f"over {report.n_states} states x {report.k_samples} samples")


def test_entropy_phase_transition_across_paired_runs():
    """Modulated runs should spread early, concentrate late, and match final success.

    The late-phase clause asks the modulated run's last-quartile entropy to
    drop below the baseline's.  In this tabular setting self-calibration
    pins the modulated entropy velocity at baseline + Cov(alpha, drift),
    and that covariance stays positive while entropy spread survives (rare
    high-surprisal failures carry both the largest drift and the smallest
    alpha), then the range guard drives it to zero from above.  The clause
    is asserted as stated and is expected to fail here; the early-phase and
    final-success clauses hold.
    """
    base = dict(env_overrides={"chain_len": 1}, reward_scheme="binary", lr=2.0, steps=400)
    early_off, early_aem, late_off, late_aem, final_off, final_aem = [], [], [], [], [], []
    for seed in range(10):
        off = train(TrainConfig(aem_mode="off", seed=seed, **base))
        aem = train(TrainConfig(aem_mode="aem", seed=seed, **base))
        q = len(off.metrics) // 4
        for result, early, late, final in ((off, early_off, late_off, final_off),
                                           (aem, early_aem, late_aem, final_aem)):
            series = [m.policy_entropy_estimate for m in result.metrics]
            early.append(float(np.mean(series[:q])))
            late.append(float(np.mean(series[-q:])))
            final.append(result.metrics[-1].success_rate)

    spreads_early = float(np.mean(early_aem)) > float(np.mean(early_off))
    concentrates_late = float(np.mean(late_aem)) < float(np.mean(late_off))
    success_parity = (float(np.mean(final_aem))
                      >= float(np.mean(final_off)) - float(np.std(final_off, ddof=1)))
    _report("transition", spreads_early and concentrates_late and success_parity,
            f"early entropy {np.mean(early_aem):.4f} vs {np.mean(early_off):.4f} "
            f"(need higher: {spreads_early}), late {np.mean(late_aem):.4f} vs "
            f"{np.mean(late_off):.4f} (need lower: {concentrates_late}), final success "
            f"{np.mean(final_aem):.3f} vs {np.mean(final_off):.3f} - "
            f"{np.std(final_off, ddof=1):.3f} (parity: {success_parity}); 10 paired seeds")


def test_loss_gradients_match_finite_differences():
    """Analytic logit gradients of every loss variant agree with central differences."""
    env = make_env("key-chain", seed=0, task_count=2, chain_len=1, horizon=2)
    scheme = REWARD_SCHEMES["binary"]
    h = 1e-6
    worst = 0.0
    for c in range(100):
        rng = np.random.default_rng(1000 + c)
        config = TrainConfig(loss=LOSSES[c % 3],
                             entropy_coef=0.02 if (c // 3) % 2 else 0.0,
                             kl_coef=0.05 if (c // 6) % 2 else 0.0,
                             group_size=4, steps=1, lr=0.1)
        policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
        ref_policy = policy.copy()
        group = collect_group(policy, env, c % 2, scheme, child_rngs(rng, 4))
        table = AdvantageTable(values={
            (s.rollout_index, s.turn_index): float(rng.normal()) for s in group.spans})
        if c % 2 == 1:
            for span in group.spans:
                for k in range(len(span.response.tokens)):
                    vec = policy.logit_vector(span.state_key, tuple(span.response.tokens[:k]))
                    vec += rng.normal(scale=0.3, size=vec.shape)

        _, grad = surrogate_loss(policy, [group], [table], config, ref_policy)
        assert grad
        analytic, fd = [], []
        for (state, prefix), gvec in grad_rows(policy, grad).items():
            vec = policy.logit_vector(state, prefix)
            for tok in range(len(gvec)):
                vec[tok] += h
                up, _ = surrogate_loss(policy, [group], [table], config, ref_policy)
                vec[tok] -= 2 * h
                down, _ = surrogate_loss(policy, [group], [table], config, ref_policy)
                vec[tok] += h
                analytic.append(gvec[tok])
                fd.append((up - down) / (2 * h))
        analytic = np.array(analytic)
        fd = np.array(fd)
        norm = float(np.linalg.norm(analytic))
        assert norm > 0.0
        worst = max(worst, float(np.linalg.norm(fd - analytic)) / norm)
    _report("loss-gradients", worst < 1e-5,
            f"100 configurations over {LOSSES} with/without regularizers, "
            f"max rel grad error {worst:.3e} (tol 1e-5)")


def test_reruns_log_byte_identical_metrics(tmp_path):
    """The same config and seed must reproduce every log byte for byte."""
    overrides = ["--set", "steps=6", "--set", "group_size=4", "--set", "prompts_per_step=2",
                 "--set", "lr=0.5", "--set", "reward_scheme=binary",
                 "--set", "env_overrides.task_count=2", "--set", "env_overrides.chain_len=1"]
    assert cli_main(["train", "--out", str(tmp_path / "a"), *overrides]) == 0
    assert cli_main(["train", "--out", str(tmp_path / "b"), *overrides]) == 0
    train_same = ((tmp_path / "a/metrics.jsonl").read_bytes()
                  == (tmp_path / "b/metrics.jsonl").read_bytes())

    assert cli_main(["verify", "--kind", "resp", "--trials", "3",
                     "--out", str(tmp_path / "v1")]) == 0
    assert cli_main(["verify", "--kind", "resp", "--trials", "3",
                     "--out", str(tmp_path / "v2")]) == 0
    verify_same = ((tmp_path / "v1/reports.jsonl").read_bytes()
                   == (tmp_path / "v2/reports.jsonl").read_bytes())
    _report("log-determinism", train_same and verify_same,
            f"train metrics identical: {train_same}, verify reports identical: {verify_same}")


def test_modulation_wall_time_fraction():
    """The coefficient phase stays a small slice of the default training step: the median aem/total fraction of
    5 default runs in one process, so that one slow phase in one run does not decide it."""
    fracs = []
    for _ in range(5):
        result = train(TrainConfig())
        fracs.append(result.timings["aem"] / result.timings["total"])
    frac = statistics.median(fracs)
    _report("overhead", frac < 0.05,
            f"modulation phase median {100 * frac:.2f}% of wall time over 5 runs of "
            f"{TrainConfig().steps} default-config steps (bound 5%; runs {', '.join(f'{100 * f:.2f}%' for f in fracs)})")
