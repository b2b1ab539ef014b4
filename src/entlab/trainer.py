"""Tabular group-based policy-gradient trainer with optional advantage modulation.

One training step collects N rollouts per prompt, turns group rewards into
span advantages, optionally modulates them by the entropy coefficients, and
applies one (or more) analytic-gradient updates of a clipped surrogate with
exact enumeration-based entropy/KL regularizers.  Every step is a pure
function of (config, seed): rerunning a config reproduces the metrics log
byte for byte.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from . import modulation as mod
from .advantage import ESTIMATORS, AdvantageTable, compute_advantages
from .envs import REWARD_SCHEMES, env_class, make_env
from .policy import PolicySnapshot, TablePolicy, _check_budget, save_checkpoint
from .rollout import FILTER_MODES, Group, collect_group, filter_degenerate_groups, generator_from, seed_states

LOSSES = ("grpo_clip", "dapo_token", "gspo_seq")
#: Rollout generators are derived for whole steps at a time, about this many rollouts per block.
_ROLLOUTS_PER_BLOCK = 1024
#: Accepted value types per TrainConfig annotation (as written, a string); bool is refused everywhere.
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "dict": dict}
#: Range rule per numeric TrainConfig field, checked after its type; every float field must also be finite.
_FIELD_RANGES = {
    "env_seed": (">= 0", lambda v: v >= 0),
    "seed": (">= 0", lambda v: v >= 0),
    "aem_eps": (">= 0", lambda v: v >= 0.0),
    "clip_low": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "clip_high": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "lr": ("> 0", lambda v: v > 0.0),
    "group_size": (">= 2", lambda v: v >= 2),
    "prompts_per_step": (">= 1", lambda v: v >= 1),
    "steps": (">= 1", lambda v: v >= 1),
    "epochs": (">= 1", lambda v: v >= 1),
    "ckpt_every": (">= 0", lambda v: v >= 0),
}


@dataclass
class TrainConfig:
    """Everything a run needs; serializes to the experiment config file."""

    env_kind: str = "key-chain"
    env_seed: int = 0
    env_overrides: dict = field(default_factory=dict)
    reward_scheme: str = "sparse"
    estimator: str = "grpo"
    aem_mode: str = "aem"
    aem_lambda: float = 1.0
    aem_eps: float = 1e-8
    loss: str = "grpo_clip"
    clip_low: float = 0.2
    clip_high: float = 0.2
    kl_coef: float = 0.01
    entropy_coef: float = 0.0
    lr: float = 0.05
    group_size: int = 8
    prompts_per_step: int = 4
    steps: int = 60
    epochs: int = 1
    filter_mode: str = "off"
    ckpt_every: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in _FIELD_RANGES and not _FIELD_RANGES[f.name][1](value):
                raise ValueError(f"{f.name} must be {_FIELD_RANGES[f.name][0]}, got {value!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if self.aem_mode not in mod.MODES:
            raise ValueError(f"aem_mode must be one of {mod.MODES}, got {self.aem_mode!r}")
        if self.reward_scheme not in REWARD_SCHEMES:
            raise ValueError(f"reward_scheme must be one of {sorted(REWARD_SCHEMES)}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.filter_mode not in FILTER_MODES:
            raise ValueError(f"filter_mode must be one of {FILTER_MODES}, got {self.filter_mode!r}")
        # Build the env so that bad sizes fail before any file is written.  Every run enumerates
        # response_space (make_env's solvability check), so an over-budget one is refused up front too.
        env = env_class(self.env_kind, self.env_overrides)(seed=self.env_seed, **self.env_overrides)
        _check_budget(env.vocab, env.max_len)


@dataclass
class StepMetrics:
    """Scalar summaries of one step plus the per-span modulation diagnostics."""

    step: int
    mean_reward: float
    success_rate: float
    policy_entropy_estimate: float
    mean_alpha: float
    frac_positive_advantage: float
    loss_value: float
    spans: list = field(default_factory=list)

    def to_doc(self) -> dict:
        """The fields as a plain dict; spans is the record's own list, not a copy, so readers must not mutate it."""
        return dict(vars(self))


@dataclass
class TrainResult:
    policy: TablePolicy
    ref_policy: TablePolicy
    metrics: list[StepMetrics]
    timings: dict[str, float]


def _clip_active(ratio: float, advantage: float, clip_low: float, clip_high: float) -> bool:
    """True when the unclipped branch of min(ratio*A, clip(ratio)*A) is selected."""
    if advantage > 0.0:
        return ratio <= 1.0 + clip_high
    if advantage < 0.0:
        return ratio >= 1.0 - clip_low
    return True


def _clipped_term(ratio: float, advantage: float, clip_low: float, clip_high: float) -> float:
    clipped = min(max(ratio, 1.0 - clip_low), 1.0 + clip_high)
    return min(ratio * advantage, clipped * advantage)


def _grad_add(grad: dict, key: tuple[str, tuple[int, ...]], vec: np.ndarray) -> None:
    """Add vec into the logit-table gradient at key, copying it on first touch."""
    acc = grad.get(key)
    if acc is None:
        grad[key] = vec.copy()
    else:
        acc += vec


def _one_hot_minus_p(p: np.ndarray, tok: int) -> np.ndarray:
    """d log softmax(z)[tok] / d z."""
    g = -p.copy()
    g[tok] += 1.0
    return g


def surrogate_loss(
    policy: TablePolicy | PolicySnapshot,
    groups: list[Group],
    tables: list[AdvantageTable],
    config: TrainConfig,
    ref_policy: TablePolicy | PolicySnapshot | None = None,
    masked_keys: set[tuple[int, int, int]] | None = None,
) -> tuple[float, dict[tuple[str, tuple[int, ...]], np.ndarray]]:
    """Negated clipped objective plus regularizers, with its analytic logit gradient.

    tables[g] carries the (possibly modulated) advantage of each span of
    groups[g]; each span's recorded logprobs are the behavior policy's, so the
    importance ratio per token is exp(logprob_now - logprob_behavior).
    masked_keys are (group_idx, rollout, turn) triples excluded entirely.
    At the behavior policy all ratios are 1 and the per-token gradient of the
    unclipped surrogate reduces to -A * dlogpi.  ``policy`` and ``ref_policy`` are read
    as PolicySnapshots (see PolicySnapshot.of); train() passes one ref snapshot per run.
    """
    masked_keys = masked_keys or set()
    snapshot = PolicySnapshot.of(policy)

    # (advantage, state_key, tokens, behavior logprobs) per surviving span.
    span_rows = []
    for g_idx, (group, table) in enumerate(zip(groups, tables)):
        for span in group.spans:
            key = (span.rollout_index, span.turn_index)
            if (g_idx, *key) in masked_keys:
                continue
            span_rows.append((table.values[key], span.state_key, span.response.tokens, span.response.logprobs))

    grad: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
    j_clip = 0.0
    n_spans = len(span_rows)
    total_tokens = sum(len(row[2]) for row in span_rows)

    for adv, state, tokens, behavior_lp in span_rows:
        length = len(tokens)
        if config.loss == "gspo_seq":
            # Sequence-level ratio: geometric mean of the per-token ratios.
            log_ratios = []
            for k, tok in enumerate(tokens):
                logp = snapshot.entry(state, tuple(tokens[:k]))[2]
                log_ratios.append(logp[tok] - behavior_lp[k])
            seq_ratio = math.exp(sum(log_ratios) / length)
            j_clip += _clipped_term(seq_ratio, adv, config.clip_low, config.clip_high) / n_spans
            if adv != 0.0 and _clip_active(seq_ratio, adv, config.clip_low, config.clip_high):
                coeff = adv * seq_ratio / (n_spans * length)
                for k, tok in enumerate(tokens):
                    p = snapshot.entry(state, tuple(tokens[:k]))[0]
                    _grad_add(grad, (state, tuple(tokens[:k])), coeff * _one_hot_minus_p(p, tok))
            continue

        if config.loss == "grpo_clip":
            token_weight = 1.0 / (n_spans * length)
        else:  # dapo_token
            token_weight = 1.0 / total_tokens
        for k, tok in enumerate(tokens):
            p, _, logp, _ = snapshot.entry(state, tuple(tokens[:k]))
            ratio = math.exp(logp[tok] - behavior_lp[k])
            j_clip += token_weight * _clipped_term(ratio, adv, config.clip_low, config.clip_high)
            if adv != 0.0 and _clip_active(ratio, adv, config.clip_low, config.clip_high):
                _grad_add(grad, (state, tuple(tokens[:k])), (token_weight * adv * ratio) * _one_hot_minus_p(p, tok))

    j_reg = 0.0
    if (config.entropy_coef != 0.0 or config.kl_coef != 0.0) and n_spans > 0:
        if config.kl_coef != 0.0 and ref_policy is None:
            raise ValueError("kl_coef > 0 needs a reference policy")
        state_counts: dict[str, int] = {}
        for _, state, _, _ in span_rows:
            state_counts[state] = state_counts.get(state, 0) + 1
        for state, count in state_counts.items():
            weight = count / n_spans
            j_reg += weight * _regularizer_state(snapshot, ref_policy, state, config, grad, weight)

    # Loss is the negated objective; the accumulator holds dJ/dz, so flip it.
    loss = -(j_clip + j_reg)
    return loss, {key: -vec for key, vec in grad.items()}


def _regularizer_state(
    snapshot: PolicySnapshot,
    ref_policy: TablePolicy | PolicySnapshot | None,
    state: str,
    config: TrainConfig,
    grad: dict[tuple[str, tuple[int, ...]], np.ndarray],
    weight: float,
) -> float:
    """Exact entropy bonus and KL penalty at one state, accumulating dJ/dz in place.

    Reads the leaves, leaf logs and table of ``snapshot`` (and the leaf logs of ref_policy when
    kl_coef != 0): the entropy gradient weights each path's score by (surprisal - H), the KL gradient by
    (ref surprisal - surprisal); both use sum-over-positions score decompositions.  The
    value and every gradient entry are bit-identical to calling _grad_add with
    (weight * coeff) * (onehot - p) at each position of each path in order.
    """
    leaves, (logs, h) = snapshot.tree(state)[1], snapshot.leaf_logs(state)
    ref_logs = PolicySnapshot.of(ref_policy).leaf_logs(state)[0] if config.kl_coef != 0.0 else logs
    kl = 0.0
    coeffs = []
    for (_, prob), logprob, ref_logprob in zip(leaves, logs, ref_logs, strict=True):
        coeff = 0.0
        if prob > 0.0:
            coeff = config.entropy_coef * prob * (-logprob - h)
            if config.kl_coef != 0.0:
                log_ratio = logprob - ref_logprob
                kl += prob * log_ratio
                coeff -= config.kl_coef * prob * log_ratio
        coeffs.append(coeff)
    value = config.entropy_coef * h - config.kl_coef * kl

    coeffs = np.array(coeffs)
    prefixes, row_path, row_prefix, row_row, row_tok = snapshot._shape[3:8]
    rows = coeffs[row_path] != 0.0
    pre = row_prefix[rows]
    vecs = -snapshot.table(state)[row_row[rows]]
    vecs[np.arange(len(pre)), row_tok[rows]] += 1.0
    vecs *= (weight * coeffs[row_path[rows]])[:, None]
    # An absent key takes its first row, the rest add in path order; prefix order is insertion order.
    used, first = np.unique(pre, return_index=True)
    block = np.empty((len(prefixes), snapshot.policy.vocab.size))
    rest = np.ones(len(pre), dtype=bool)
    for i, r in zip(used.tolist(), first.tolist()):
        acc = grad.get((state, prefixes[i]))
        rest[r] = acc is not None
        block[i] = vecs[r] if acc is None else acc
    cells = pre[rest][:, None] * block.shape[1] + np.arange(block.shape[1])  # flat, for ufunc.at's fast path
    np.add.at(block.ravel(), cells.ravel(), vecs[rest].ravel())
    grad.update(((state, prefixes[i]), block[i]) for i in used.tolist())
    return value


def _rng_for(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def _group_rngs(config: TrainConfig) -> Iterator[list[np.random.Generator]]:
    """The per-rollout generators of each group of a run, in (step, prompt) order.

    Group (step, p) draws group_size child seeds with integers(0, 2**63 - 1) from
    _rng_for(seed, 1, step, p), and its rollout i runs on default_rng(child seed i).
    seed_states hashes the prompt entropies, then the child seeds, of a block of
    steps at once, so every generator, and every sampled byte, is the same.
    """
    n_prompts, size = config.prompts_per_step, config.group_size
    block = max(1, _ROLLOUTS_PER_BLOCK // (n_prompts * size))
    for start in range(0, config.steps, block):
        prompts = seed_states([[config.seed, 1, step, p]
                               for step in range(start, min(start + block, config.steps)) for p in range(n_prompts)])
        children = np.concatenate([generator_from(row).integers(0, 2**63 - 1, size=size) for row in prompts])
        rows = seed_states(children)
        for first in range(0, len(rows), size):
            yield [generator_from(row) for row in rows[first:first + size]]


def train(
    config: TrainConfig,
    metrics_path: str | None = None,
    checkpoint_dir: str | None = None,
    mask_sign: int | None = None,
) -> TrainResult:
    """Run the full training loop described by the config.

    mask_sign (+1 or -1), when given, drops every span whose sgn(A * (alpha - 1))
    equals it from the update (the masked-quadrant experiment); modulation
    coefficients are computed for the mask even when aem_mode is "off".
    """
    if mask_sign not in (None, 1, -1):
        raise ValueError(f"mask_sign must be None, +1 or -1, got {mask_sign!r}")
    env = make_env(config.env_kind, seed=config.env_seed, **config.env_overrides)
    scheme = REWARD_SCHEMES[config.reward_scheme]
    policy = TablePolicy(vocab=env.vocab, max_len=env.max_len)
    ref_policy = policy.copy()
    ref = PolicySnapshot(ref_policy)  # never written, so one snapshot serves the whole run

    timings = {"rollout": 0.0, "advantage": 0.0, "aem": 0.0, "update": 0.0, "record": 0.0, "total": 0.0}
    metrics: list[StepMetrics] = []
    metrics_fh = open(metrics_path, "w") if metrics_path else None
    if checkpoint_dir:
        save_checkpoint(policy, f"{checkpoint_dir}/policy_init.json")

    t_run = time.perf_counter()
    group_rngs = _group_rngs(config)
    try:
        for step in range(config.steps):
            t0 = time.perf_counter()
            # Rollout, advantages and epoch 0 of the update read the policy as it was at the start of the step.
            snapshot = PolicySnapshot(policy)
            groups: list[Group] = []
            for p_idx in range(config.prompts_per_step):
                task = (step * config.prompts_per_step + p_idx) % env.task_count
                groups.append(collect_group(snapshot, env, task, scheme, next(group_rngs)))
            timings["rollout"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            trained = filter_degenerate_groups(groups, config.filter_mode)
            tables = [compute_advantages(g, config.estimator, env=env, policy=snapshot, scheme=scheme) for g in trained]
            timings["advantage"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            sets = None
            if config.aem_mode != "off" or mask_sign is not None:
                sets = mod.modulate_batch(
                    trained,
                    mode=config.aem_mode if config.aem_mode != "off" else "aem",
                    lam=config.aem_lambda,
                    eps=config.aem_eps,
                    rng=_rng_for(config.seed, 2, step) if config.aem_mode == "shuffle" else None,
                )
            applied = tables
            if config.aem_mode != "off":
                applied = [mod.apply_modulation(t, s) for t, s in zip(tables, sets)]
            masked = set()
            if mask_sign is not None:
                # A span is masked when sgn(A * (alpha - 1)) == mask_sign; a table holds one value per span.
                for g_idx, (table, mset) in enumerate(zip(tables, sets)):
                    alpha = mset.alpha
                    masked.update((g_idx, *key) for key, adv in table.values.items()
                                  if mask_sign * (adv * (alpha[key] - 1.0)) > 0.0)
            timings["aem"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            loss_value = 0.0
            if trained:
                for epoch in range(config.epochs):
                    # The first write below ends the snapshot, so later epochs read a new one.
                    loss, grad = surrogate_loss(snapshot if epoch == 0 else policy, trained, applied, config,
                                                ref, masked)
                    if epoch == 0:
                        loss_value = loss
                    for key, gvec in grad.items():
                        vec = policy.logit_vector(key[0], key[1])
                        vec -= config.lr * gvec
            timings["update"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            record = _step_metrics(step, groups, trained, applied, sets, loss_value)
            metrics.append(record)
            if metrics_fh:
                metrics_fh.write(json.dumps(record.to_doc(), sort_keys=True))
                metrics_fh.write("\n")
            if checkpoint_dir and config.ckpt_every and (step + 1) % config.ckpt_every == 0:
                save_checkpoint(policy, f"{checkpoint_dir}/policy_step_{step + 1:04d}.json")
            timings["record"] += time.perf_counter() - t0
    finally:
        if metrics_fh:
            metrics_fh.close()
    timings["total"] = time.perf_counter() - t_run

    if checkpoint_dir:
        save_checkpoint(policy, f"{checkpoint_dir}/policy_final.json")
    return TrainResult(policy=policy, ref_policy=ref_policy, metrics=metrics, timings=timings)


def load_metrics(path: str) -> list[StepMetrics]:
    """Read a metrics JSONL file back into StepMetrics records, refusing the first line that is not one:
    exactly the StepMetrics fields, an int step, six finite numbers and spans rows of 7 values."""
    names = [f.name for f in fields(StepMetrics)]
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                doc = None
            if not (isinstance(doc, dict) and doc.keys() == set(names) and type(doc["step"]) is int
                    and all(type(doc[n]) in (int, float) and math.isfinite(doc[n]) for n in names[1:-1])
                    and isinstance(doc["spans"], list)
                    and all(isinstance(row, list) and len(row) == 7 for row in doc["spans"])):
                raise ValueError(f"metrics file {path} line {number} is not a step record: exactly the fields "
                                 f"{', '.join(names)}, an int step, finite numbers and spans rows of 7 values")
            records.append(StepMetrics(**doc))
    return records


def _step_metrics(step: int, collected: list[Group], trained: list[Group],
                  applied: list[AdvantageTable], sets: list[mod.ModulationSet] | None,
                  loss_value: float) -> StepMetrics:
    """Step summaries; with no modulation sets (aem off, no mask) every alpha is 1 and h_tilde None."""
    rewards = [traj.reward for g in collected for traj in g.trajectories]
    successes = [traj.success for g in collected for traj in g.trajectories]
    # Trained groups are collected groups, so each span's proxy is computed once, here.
    h_bar = {id(span): mod.response_entropy_proxy(span.response) for g in collected for span in g.spans}
    h_bars = list(h_bar.values())

    span_docs = []
    alphas: list[float] = []
    n_pos = 0
    n_spans = 0
    for g_idx, (group, table) in enumerate(zip(trained, applied)):
        for span in group.spans:
            key = (span.rollout_index, span.turn_index)
            adv = table.values[key]
            alpha = sets[g_idx].alpha[key] if sets else 1.0
            alphas.append(alpha)
            n_spans += 1
            n_pos += 1 if adv > 0.0 else 0
            span_docs.append([
                g_idx, key[0], key[1],
                h_bar[id(span)],
                sets[g_idx].h_tilde[key] if sets else None,
                alpha,
                adv,
            ])

    return StepMetrics(
        step=step,
        mean_reward=sum(rewards) / len(rewards) if rewards else 0.0,
        success_rate=sum(successes) / len(successes) if successes else 0.0,
        policy_entropy_estimate=sum(h_bars) / len(h_bars) if h_bars else 0.0,
        mean_alpha=sum(alphas) / len(alphas) if alphas else 1.0,
        frac_positive_advantage=n_pos / n_spans if n_spans else 0.0,
        loss_value=loss_value,
        spans=span_docs,
    )
