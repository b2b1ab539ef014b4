"""Diagnostic probes: coefficient/entropy-change consistency, martingale
residuals of the surprisal decomposition, and baseline-vs-modulated run
comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envs import Env, reachable
from .modulation import DEFAULT_EPS, DEFAULT_LAMBDA, population_coeffs, response_entropy_proxy
from .policy import BATCH_ENTRIES, PolicySnapshot, TablePolicy, _log_and_entropy, path_entropy_sums, sample_response
from .trainer import StepMetrics

#: A doob_probe residual mean this small is float roundoff and passes, whatever its stderr.
DOOB_ROUNDOFF = 1e-12


@dataclass
class ConsistencyReport:
    """Per-response pairs (alpha - 1, MC entropy-change proxy) and their statistics.

    The proxy for the entropy change of reinforcing response a is
    -(S_a - H_mc): reinforcing a response likelier than average should raise
    concentration, and its coefficient should sit above 1.
    """

    n_states: int
    k_samples: int
    pearson_r: float
    ci_low: float
    ci_high: float
    sign_agreement: float
    n_pairs: int
    n_sign_pairs: int
    pairs: list[tuple[float, float]] = field(default_factory=list)


def consistency_probe(
    policy: TablePolicy | PolicySnapshot,
    states: list[str],
    k_samples: int,
    rng: np.random.Generator,
    lam: float = DEFAULT_LAMBDA,
    eps: float = DEFAULT_EPS,
    n_bootstrap: int = 1000,
) -> ConsistencyReport:
    """Check that the modulation coefficients anticipate Monte-Carlo entropy changes.

    For each state, K sampled responses form a synthetic group: coefficients
    come from the standard pipeline over their entropy proxies, the entropy
    change proxy from their surprisals around the MC mean.  One pair per
    sampled response; sign agreement counts only pairs where both sides are
    nonzero.  The bootstrap draws its n_bootstrap resamples in chunks of at most BATCH_ENTRIES coordinates
    (at least one resample), one rng.integers call per chunk: the draws of one call per resample.
    """
    if k_samples < 2:  # one sample per state has alpha 1.0: its coefficients are constant
        raise ValueError(f"k_samples must be at least 2, got {k_samples}")
    if n_bootstrap < 1:
        raise ValueError(f"n_bootstrap must be at least 1, got {n_bootstrap}")
    snapshot = PolicySnapshot.of(policy)
    snapshot.samplers(states)  # every state's sampler in one batched pass
    pairs: list[tuple[float, float]] = []
    for state in states:
        responses = [sample_response(snapshot, state, rng) for _ in range(k_samples)]
        h_bars = [response_entropy_proxy(r) for r in responses]
        surprisals = [r.surprisal for r in responses]
        h_mc = sum(surprisals) / len(surprisals)
        _, alphas = population_coeffs(h_bars, lam, eps)
        for alpha, s in zip(alphas, surprisals):
            pairs.append((alpha - 1.0, -(s - h_mc)))

    if len(pairs) < 2:
        raise ValueError("consistency statistics need at least two pairs")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    r = _correlation(xs, ys)
    if r is None:
        raise ValueError("consistency statistics undefined: a pair coordinate is constant")

    n, per = len(pairs), max(1, BATCH_ENTRIES // (2 * len(pairs)))
    block, chunks = np.empty((per, 2, n)), []  # one buffer: a fresh 0.5 MB block per chunk cost more than it saved
    for lo in range(0, n_bootstrap, per):
        idx = rng.integers(0, n, size=(min(per, n_bootstrap - lo), n))
        np.take(xs, idx, out=block[:len(idx), 0], mode="clip")  # idx is in range; "raise" would copy through a buffer
        np.take(ys, idx, out=block[:len(idx), 1], mode="clip")
        chunks.append(_correlations(block[:len(idx)]))
    boot = np.concatenate(chunks)
    boot[np.isnan(boot)] = 0.0  # a constant resample counts as no correlation
    ci_low, ci_high = (float(q) for q in np.percentile(boot, [2.5, 97.5]))

    nonzero = [(x, y) for x, y in pairs if x != 0.0 and y != 0.0]
    agree = sum(1 for x, y in nonzero if (x > 0.0) == (y > 0.0))
    return ConsistencyReport(
        n_states=len(states),
        k_samples=k_samples,
        pearson_r=r,
        ci_low=ci_low,
        ci_high=ci_high,
        sign_agreement=agree / len(nonzero) if nonzero else float("nan"),
        n_pairs=len(pairs),
        n_sign_pairs=len(nonzero),
        pairs=pairs,
    )


def _correlations(block: np.ndarray) -> np.ndarray:
    """np.corrcoef(x, y)[0, 1] of each (x, y) pair of a (k, 2, n) block, by numpy's own steps in its order, so with
    its bits: the centring, np.corrcoef's one np.dot(X, X.T.conj()) per pair, std's zero check (from the squares of
    the centred rows, as np.std takes it), then the scaling, the divisions and the clip over the block.  NaN for a
    pair with a constant row.  The block is overwritten."""
    block -= block.mean(axis=2, keepdims=True)
    c = np.array([np.dot(X, X.T.conj()) for X in block])
    constant = (np.square(block, out=block).sum(axis=2) / block.shape[2] == 0.0).any(axis=1)
    c = c[~constant] * np.true_divide(1, block.shape[2] - 1)
    r = np.full(len(block), math.nan)
    r[~constant] = np.clip(c[:, 0, 1] / np.sqrt(c[:, 0, 0]) / np.sqrt(c[:, 1, 1]), -1, 1)
    return r


def _correlation(x: np.ndarray, y: np.ndarray) -> float | None:
    """np.corrcoef(x, y)[0, 1] bit for bit, the one-pair case of _correlations; None when x or y is constant."""
    r = float(_correlations(np.stack((x, y))[None])[0])
    return None if math.isnan(r) else r


@dataclass
class DoobReport:
    """Martingale residual statistics of the surprisal decomposition at one state.

    For a sampled response, residual = total surprisal minus the summed
    per-position conditional entropies; its expectation is exactly zero.
    """

    state: str
    n_samples: int
    residual_mean: float
    residual_stderr: float
    per_length: dict[int, dict[str, float]]
    ok: bool


def doob_probe(policy: TablePolicy | PolicySnapshot, state: str, n_samples: int,
               rng: np.random.Generator) -> DoobReport:
    """Monte-Carlo check that mean(surprisal - summed conditional entropies) ~ 0.

    Sampling a full response token by token is distributionally identical to
    sampling a leaf of the enumerated response tree, so the residual of each
    complete path is precomputed once and paths are drawn categorically;
    this keeps large n_samples cheap without changing the estimand.  ok means
    |mean| <= max(4 * stderr, DOOB_ROUNDOFF); a stderr needs n_samples >= 2.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    snapshot = PolicySnapshot.of(policy)
    paths, probs = snapshot._shape.leaves, snapshot.leaf_probs(state)
    residuals = np.array([-log - entropy_sum
                          for log, entropy_sum in zip(snapshot.leaf_logs(state), path_entropy_sums(snapshot, state))])
    lengths = np.array([len(tokens) for tokens in paths], dtype=int)

    idx = rng.choice(len(paths), size=n_samples, p=np.divide(probs, np.sum(probs)))
    sample = residuals[idx]
    mean = float(sample.mean())
    stderr = float(sample.std(ddof=1) / math.sqrt(n_samples))

    per_length: dict[int, dict[str, float]] = {}
    for length in sorted(set(lengths[idx])):
        sel = sample[lengths[idx] == length]
        per_length[int(length)] = {"mean": float(sel.mean()), "count": int(sel.size)}

    ok = abs(mean) <= max(4.0 * stderr, DOOB_ROUNDOFF)
    return DoobReport(state=state, n_samples=n_samples, residual_mean=mean,
                      residual_stderr=stderr, per_length=per_length, ok=ok)


def doob_exact_residuals(policy: TablePolicy | PolicySnapshot, state: str) -> dict[tuple[int, ...], float]:
    """Conditional residual mean at every reachable prefix, by exact enumeration.

    Each value is sum_y p(y|prefix) * (-log p(y|prefix) - H(prefix)), which is
    identically zero; the numbers returned measure only float roundoff.  One pass
    over the state's table, from _log_and_entropy's rows; a p of 0.0 adds 0.
    """
    snapshot = PolicySnapshot.of(policy)
    table = snapshot.table(state)
    logp, h = _log_and_entropy(table)
    residuals = (table * (np.where(table > 0.0, -logp, 0.0) - h[:, None])).sum(axis=1)
    return dict(zip(snapshot._shape.prefixes, residuals.tolist()))


@dataclass
class TransitionSummary:
    """Early/late entropy and final success comparison of two aligned runs."""

    n_steps: int
    quartile: int
    baseline_early_entropy: float
    modulated_early_entropy: float
    baseline_late_entropy: float
    modulated_late_entropy: float
    baseline_final_success: float
    modulated_final_success: float
    baseline_early_frac_positive: float
    modulated_early_frac_positive: float


def _series(metrics: list[StepMetrics], name: str) -> list[float]:
    return [getattr(m, name) for m in metrics]


def _quartile(n: int) -> int:
    """Steps in the first or last quartile of a run of n steps: n // 4, at least one."""
    return max(1, n // 4)


def last_quartile_mean(xs: list[float]) -> float:
    """Mean of the last quartile of a nonempty per-step series, summed left to right."""
    q = _quartile(len(xs))
    return sum(xs[len(xs) - q:]) / q


def transition_tracker(baseline: list[StepMetrics], modulated: list[StepMetrics]) -> TransitionSummary:
    """Align a baseline run with a modulated run and summarize the entropy transition.

    Early/late values are means over the first/last quartile of steps; final
    success is the last-quartile mean success rate.  Both runs must cover the
    same, nonzero number of steps.
    """
    if len(baseline) != len(modulated) or not baseline:
        raise ValueError("runs must have the same, nonzero number of steps to compare")
    n = len(baseline)
    q = _quartile(n)

    def early(xs: list[float]) -> float:
        return sum(xs[:q]) / q

    b_ent = _series(baseline, "policy_entropy_estimate")
    m_ent = _series(modulated, "policy_entropy_estimate")
    b_succ = _series(baseline, "success_rate")
    m_succ = _series(modulated, "success_rate")
    b_pos = _series(baseline, "frac_positive_advantage")
    m_pos = _series(modulated, "frac_positive_advantage")
    return TransitionSummary(
        n_steps=n,
        quartile=q,
        baseline_early_entropy=early(b_ent),
        modulated_early_entropy=early(m_ent),
        baseline_late_entropy=last_quartile_mean(b_ent),
        modulated_late_entropy=last_quartile_mean(m_ent),
        baseline_final_success=last_quartile_mean(b_succ),
        modulated_final_success=last_quartile_mean(m_succ),
        baseline_early_frac_positive=early(b_pos),
        modulated_early_frac_positive=early(m_pos),
    )


def reachable_states(env: Env, limit: int = 10000) -> list[str]:
    """Policy keys of all non-terminal states reachable within the horizon, BFS order;
    more than ``limit`` reachable states raise."""
    keys: list[str] = []
    for count, state in enumerate(reachable(env, [env.reset(task_id) for task_id in range(env.task_count)]), 1):
        if count > limit:
            raise ValueError(f"more than {limit} reachable states")
        keys.append(state.policy_key)
    # Distinct policy keys in first-seen order (different raw states can share a key).
    return list(dict.fromkeys(keys))
