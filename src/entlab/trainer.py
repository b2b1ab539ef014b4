"""Tabular group-based policy-gradient trainer with optional advantage modulation.

One training step collects N rollouts per prompt, turns group rewards into
span advantages (a list per group, in its spans order), optionally modulates
them by the entropy coefficients, and applies one (or more) analytic-gradient
updates of a clipped surrogate with exact enumeration-based entropy/KL
regularizers.  Every step is a pure
function of (config, seed): rerunning a config reproduces the metrics log
byte for byte.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import modulation as mod
from .advantage import ESTIMATORS, compute_advantages
from .envs import REWARD_SCHEMES, Env, env_class, make_env
from .policy import PolicySnapshot, TablePolicy, _check_budget, _leaf_logs, _leaf_probs, save_checkpoint
from .rollout import FILTER_MODES, Group, collect_groups, filter_degenerate_groups, generator_from, seed_states

LOSSES = ("grpo_clip", "dapo_token", "gspo_seq")
#: Rollout generators are derived for whole steps at a time, about this many rollouts per block.
_ROLLOUTS_PER_BLOCK = 1024
#: Accepted value types per TrainConfig annotation (as written, a string); bool is refused everywhere.
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real, "dict": dict}
#: Range rule per numeric TrainConfig field, checked after its type; every float field must also be finite.
_FIELD_RANGES = {
    "env_seed": (">= 0", lambda v: v >= 0),
    "seed": (">= 0", lambda v: v >= 0),
    "aem_lambda": ("in [-700, 700]", lambda v: abs(v) <= 700.0),  # math.exp(700) is finite, math.exp(710) raises
    "aem_eps": (">= 0", lambda v: v >= 0.0),
    "clip_low": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "clip_high": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "lr": ("> 0", lambda v: v > 0.0),
    "kl_coef": (">= 0", lambda v: v >= 0.0),  # the pressure (kl_coef + entropy_coef) * Var(S) is then never negative
    "entropy_coef": (">= 0", lambda v: v >= 0.0),
    "group_size": (">= 2", lambda v: v >= 2),
    "prompts_per_step": (">= 1", lambda v: v >= 1),
    "steps": (">= 1", lambda v: v >= 1),
    "epochs": (">= 1", lambda v: v >= 1),
    "ckpt_every": (">= 0", lambda v: v >= 0),
}
#: Accepted values per named-choice TrainConfig field, checked after its type.
_FIELD_CHOICES = {"reward_scheme": tuple(sorted(REWARD_SCHEMES)), "estimator": ESTIMATORS, "aem_mode": mod.MODES,
                  "loss": LOSSES, "filter_mode": FILTER_MODES}


@dataclass
class TrainConfig:
    """Everything a run needs; serializes to the experiment config file."""

    env_kind: str = "key-chain"
    env_seed: int = 0
    env_overrides: dict = field(default_factory=dict)
    reward_scheme: str = "sparse"
    estimator: str = "grpo"
    aem_mode: str = "aem"
    aem_lambda: float = mod.DEFAULT_LAMBDA
    aem_eps: float = mod.DEFAULT_EPS
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
            if f.name in _FIELD_CHOICES and value not in _FIELD_CHOICES[f.name]:
                raise ValueError(f"{f.name} must be one of {_FIELD_CHOICES[f.name]}, got {value!r}")
        # Build the env so bad sizes fail before any file is written; make_env enumerates its tree, so check the budget.
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
    checkpoints: list[str]  # the names of the checkpoint files written, in order


#: One gradient term: coeff * (onehot(tok) - p) at one row of the table of the step's state at index ``state``.
_TERM = np.dtype([("state", np.intp), ("row", np.intp), ("tok", np.intp), ("coeff", float)])


def surrogate_loss(
    policy: TablePolicy | PolicySnapshot,
    groups: list[Group],
    advantages: list[list[float]],
    config: TrainConfig,
    ref_policy: TablePolicy | PolicySnapshot | None = None,
    masked_keys: set[tuple[int, int]] | None = None,
) -> tuple[float, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Negated clipped objective plus regularizers, with its analytic logit gradient as one
    (G, mask) per state: G is the gradient over the state's logit block, +0.0 outside the rows of mask.

    advantages[g] lists the (possibly modulated) advantage of each span of
    groups[g], in groups[g].spans order; each span's recorded logprobs are the behavior policy's, so the
    importance ratio per token is exp(logprob_now - logprob_behavior).
    masked_keys are (group index, span position) pairs excluded entirely.
    At the behavior policy all ratios are 1 and the per-token gradient of the
    unclipped surrogate reduces to -A * dlogpi.  ``policy`` and ``ref_policy`` are read
    as PolicySnapshots (see PolicySnapshot.of); train() passes one ref snapshot per run.

    The clip terms are one array pass over the step's tokens, spans in order, then tokens, and each number takes
    the operations of a per-token loop in its order: math.exp of each nonzero log ratio, (tw * A) * ratio per token
    (A * ratio / (n_spans * len) for gspo_seq) and J added left to right from 0.0 (tests/test_trainer.py holds the
    loss and the gradient to that loop bit for bit).
    """
    masked_keys = masked_keys or set()
    snapshot = PolicySnapshot.of(policy)

    # (advantage, policy key, tokens, behavior logprobs) per surviving span.
    span_rows = [(adv, s.state.policy_key, s.response.tokens, s.response.logprobs)
                 for g_idx, (group, advs) in enumerate(zip(groups, advantages, strict=True))
                 for pos, (s, adv) in enumerate(zip(group.spans, advs, strict=True)) if (g_idx, pos) not in masked_keys]

    counts = Counter(row[1] for row in span_rows)
    states, shape, size = list(counts), snapshot._shape, snapshot.policy.vocab.size  # states in order of first span
    index, leaf = {state: i for i, state in enumerate(states)}, len(shape.prefixes)
    # Each span's index among the complete responses, which gives its (row, tok) per position.
    at_leaf = [shape.leaf_at.get(tuple(row[2])) for row in span_rows]
    if None in at_leaf:
        _, state, tokens, _ = span_rows[at_leaf.index(None)]
        raise ValueError(f"span tokens {list(tokens)} at {state!r} are not one complete response")
    n_spans, lengths = len(span_rows), np.array([len(row[2]) for row in span_rows], dtype=np.intp)
    total_tokens = int(lengths.sum())
    position = np.arange(total_tokens) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # each token's in its span
    entry = np.repeat(shape.starts[at_leaf], lengths) + position  # and its (leaf, position) entry of the shape
    at_state = np.repeat(np.array([index[row[1]] for row in span_rows], dtype=np.intp), lengths)
    step_tables = np.array(snapshot.tables(states)).reshape(len(states), leaf, size)
    with np.errstate(divide="ignore"):  # a token whose probability underflowed to 0.0 has log -inf and ratio 0.0
        logp = np.log(step_tables.reshape(len(states), leaf * size)[at_state, shape.edges[entry]])
    log_ratios = logp - np.array([lp for row in span_rows for lp in row[3]], dtype=float)
    advs = np.array([row[0] for row in span_rows], dtype=float)

    if config.loss == "gspo_seq":  # one sequence-level ratio: geometric mean of the per-token ratios
        padded = np.zeros((n_spans, snapshot.policy.max_len + 1))  # a leading 0.0, then each span's log ratios
        padded[np.repeat(np.arange(n_spans), lengths), 1 + position] = log_ratios
        ratio = _exp(np.add.accumulate(padded, axis=1)[np.arange(n_spans), lengths] / lengths)
        clipped, active = _clip(ratio, advs, config)
        j_terms, coeffs = clipped / n_spans, np.repeat(advs * ratio / (n_spans * lengths), lengths)
        active = np.repeat(active, lengths)
    else:
        token_weight = 1.0 / (n_spans * lengths) if config.loss == "grpo_clip" else np.ones(n_spans) / total_tokens
        token_weight, adv, ratio = np.repeat(token_weight, lengths), np.repeat(advs, lengths), _exp(log_ratios)
        clipped, active = _clip(ratio, adv, config)
        j_terms, coeffs = token_weight * clipped, token_weight * adv * ratio
    j_clip = np.add.accumulate(np.concatenate(((0.0,), j_terms)))[-1].item()
    # A _TERM per clip term that adds to the gradient (A is nonzero and the unclipped branch is selected).
    terms = np.empty(int(active.sum()), dtype=_TERM)
    terms["state"], terms["coeff"] = at_state[active], coeffs[active]
    terms["row"], terms["tok"] = shape.row_row[entry[active]], shape.row_tok[entry[active]]

    j_reg = 0.0
    if (config.entropy_coef != 0.0 or config.kl_coef != 0.0) and n_spans > 0:
        if config.kl_coef != 0.0 and ref_policy is None:
            raise ValueError("kl_coef > 0 needs a reference policy")
        weights = [count / n_spans for count in counts.values()]
        values, reg = _regularizer(snapshot, ref_policy, states, step_tables, weights, config)
        for weight, value in zip(weights, values.tolist()):
            j_reg += weight * value
        terms = np.concatenate((terms, reg))
    return -(j_clip + j_reg), _gradient_blocks(states, step_tables, terms)


def _exp(log_ratios: np.ndarray) -> np.ndarray:
    """math.exp of each entry: np.exp can differ from it in the last bit, so it runs only where an entry is nonzero
    (exp(0.0) is exactly 1.0, and at the behavior policy every log ratio is 0.0)."""
    ratios, nonzero = np.ones_like(log_ratios), np.flatnonzero(log_ratios)
    ratios[nonzero] = [math.exp(x) for x in log_ratios[nonzero].tolist()]
    return ratios


def _clip(ratio: np.ndarray, adv: np.ndarray, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """min(ratio * A, clip(ratio) * A), and where its unclipped branch is selected with A nonzero: the only places
    where the term has a gradient."""
    low, high = 1.0 - config.clip_low, 1.0 + config.clip_high
    clipped = np.minimum(ratio * adv, np.minimum(np.maximum(ratio, low), high) * adv)
    return clipped, np.where(adv > 0.0, ratio <= high, np.where(adv < 0.0, ratio >= low, adv != 0.0))


def _regularizer(snapshot: PolicySnapshot, ref_policy: TablePolicy | PolicySnapshot | None, states: list[str],
                 tables: np.ndarray, weights: list[float], config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact entropy bonus and KL penalty at each of ``states``, and the _TERMs of their dJ/dz times its weight.

    Leaf probabilities, logs and H are _leaf_probs and _leaf_logs of each state's table, the rows of tables,
    and ref_policy's leaf logs are read when kl_coef != 0.  The entropy gradient weights each path's score, a sum
    over positions of (onehot - p), by (surprisal - H), the KL gradient by (ref surprisal - surprisal): one term per
    position of each path with a nonzero coefficient, states in order, then paths.  H and KL are added from 0.0
    left to right, and each number takes a per-leaf walk's operations in order, so it is the walk's bit for bit."""
    shape = snapshot._shape
    probs = _leaf_probs(tables.reshape(len(states), -1), shape)
    live, zero = probs > 0.0, np.zeros((len(states), 1))
    logs = np.where(live, np.reshape(_leaf_logs(probs.ravel().tolist()), probs.shape), 0.0)  # no 0 * -inf
    ref = PolicySnapshot.of(ref_policy) if config.kl_coef != 0.0 else None  # log ratios are 0 without one
    if ref:
        ref.tables(states)  # the states the run-long snapshot has not derived yet, in one pass
    log_ratios = logs - (np.where(live, [ref.leaf_logs(state) for state in states], 0.0) if ref else logs)
    # A leaf of prob 0.0 adds a 0.0 term, and a sum from 0.0 is never -0.0, so h - 0.0 is h and kl + 0.0 is kl.
    h = np.subtract.accumulate(np.hstack((zero, probs * logs)), axis=1)[:, -1]
    kl = np.add.accumulate(np.hstack((zero, probs * log_ratios)), axis=1)[:, -1]
    coeffs = config.entropy_coef * probs * (-logs - h[:, None]) - config.kl_coef * probs * log_ratios
    at_state, at_row = np.nonzero(coeffs[:, shape.row_path] != 0.0)
    coeff = np.array(weights)[at_state] * coeffs[at_state, shape.row_path[at_row]]
    return config.entropy_coef * h - config.kl_coef * kl, np.rec.fromarrays(
        (at_state, shape.row_row[at_row], shape.row_tok[at_row], coeff), dtype=_TERM)


def _gradient_blocks(states: list[str], tables: np.ndarray,
                     terms: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """-dJ/dz from its _TERMs as one (G, mask) per state that a term reaches, in order of its first term; G is
    +0.0 outside the rows of mask.  One scatter adds each term's coeff * (onehot(tok) - p), p a row of tables, in
    term order into one (states x rows x |V|) accumulator of -0.0 (-0.0 + x is x: a first add copies bit for bit)."""
    _, n_rows, size = tables.shape
    at = terms["state"] * n_rows + terms["row"]
    vecs = np.negative(tables.reshape(-1, size).take(at, axis=0))
    vecs.reshape(-1)[np.arange(0, vecs.size, size) + terms["tok"]] += 1.0
    vecs *= terms["coeff"][:, None]
    acc = np.full(len(states) * n_rows * size, -0.0)  # flat, for ufunc.at's fast path
    np.add.at(acc, (at[:, None] * size + np.arange(size)).ravel(), vecs.ravel())
    acc = np.negative(acc, out=acc).reshape(len(states), n_rows, size)  # the loss is -J; -(-0.0) is +0.0
    mask = np.bincount(at, minlength=n_rows * len(states)).reshape(len(states), n_rows) > 0
    _, first = np.unique(terms["state"], return_index=True)
    return {states[i]: (acc[i], mask[i]) for i in terms["state"][np.sort(first)].tolist()}


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


class StepUpdate(NamedTuple):
    """What a step trains on: the trained groups, their applied advantages, their ModulationSets, the masked
    (group index, span position) pairs, and every collected span's proxy, in collection order.  Every per-span value
    of a trained group is a list in its group's spans order."""

    groups: list[Group]
    advantages: list[list[float]]
    sets: list[mod.ModulationSet]
    masked: set[tuple[int, int]]
    h_bar: list[float]


def prepare_update(snapshot: PolicySnapshot, groups: list[Group], config: TrainConfig, env: Env, step: int,
                   mask_sign: int | None, timings: dict[str, float]) -> StepUpdate:
    """The rules that make a step AEM, between rollout and the loss: the group filter and the advantages (timed as
    timings["advantage"]), then each collected span's entropy proxy, the modulation ("aem" populations when only
    mask_sign asks for coefficients) and the masked quadrant (timed as timings["aem"])."""
    t0 = time.perf_counter()
    trained = filter_degenerate_groups(groups, config.filter_mode)
    scheme = REWARD_SCHEMES[config.reward_scheme]
    advantages = [compute_advantages(g, config.estimator, env=env, policy=snapshot, scheme=scheme) for g in trained]
    timings["advantage"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    off = config.aem_mode == "off"
    sets = mod.modulate_batch(trained, "aem" if off and mask_sign is not None else config.aem_mode, config.aem_lambda,
                              config.aem_eps, _rng_for(config.seed, 2, step) if config.aem_mode == "shuffle" else None)
    # Each trained span's proxy is read from its set; a group the filter dropped has none, so its proxies are here.
    kept = {id(g): s.h_bar for g, s in zip(trained, sets)}
    h_bar = [h for g in groups for h in kept.get(id(g)) or [mod.response_entropy_proxy(s.response) for s in g.spans]]
    applied = advantages if off else [mod.apply_modulation(advs, s) for advs, s in zip(advantages, sets)]
    masked = set()
    if mask_sign is not None:  # a span is masked when sgn(A * (alpha - 1)) == mask_sign
        for g_idx, (advs, mset) in enumerate(zip(advantages, sets)):
            masked.update((g_idx, pos) for pos, (adv, alpha) in enumerate(zip(advs, mset.alpha, strict=True))
                          if mask_sign * (adv * (alpha - 1.0)) > 0.0)
    timings["aem"] += time.perf_counter() - t0
    return StepUpdate(trained, applied, sets, masked, h_bar)


def train(
    config: TrainConfig,
    metrics_path: str | None = None,
    checkpoint_dir: str | None = None,
    mask_sign: int | None = None,
) -> TrainResult:
    """Run the full training loop described by the config.

    mask_sign (+1 or -1), when given, drops every span whose sgn(A * (alpha - 1))
    equals it from the update (the masked-quadrant experiment); modulation
    coefficients are computed for the mask even when aem_mode is "off".  A step
    record holding an inf or nan stops the run with a ValueError, after the
    lines of the steps before it.
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
    checkpoints: list[str] = []

    def checkpoint(name: str) -> None:
        save_checkpoint(policy, f"{checkpoint_dir}/{name}")
        checkpoints.append(name)

    if checkpoint_dir:
        checkpoint("policy_init.json")

    t_run = time.perf_counter()
    group_rngs = _group_rngs(config)
    try:
        for step in range(config.steps):
            t0 = time.perf_counter()
            # Rollout, advantages and epoch 0 of the update read the policy as it was at the start of the step.
            snapshot = PolicySnapshot(policy)
            tasks = [(step * config.prompts_per_step + p) % env.task_count for p in range(config.prompts_per_step)]
            groups = collect_groups(snapshot, env, tasks, scheme, [next(group_rngs) for _ in tasks])
            timings["rollout"] += time.perf_counter() - t0

            update = prepare_update(snapshot, groups, config, env, step, mask_sign, timings)

            t0 = time.perf_counter()
            loss_value = 0.0
            if update.groups:
                for epoch in range(config.epochs):
                    # The first write below ends the snapshot, so later epochs read a new one.
                    loss, grad = surrogate_loss(snapshot if epoch == 0 else policy, update.groups, update.advantages,
                                                config, ref, update.masked)
                    if epoch == 0:
                        loss_value = loss
                    for state, (gvec, rows) in grad.items():
                        block, written = policy._block(state)
                        block -= config.lr * gvec
                        written |= rows
            timings["update"] += time.perf_counter() - t0

            t0 = time.perf_counter()
            record = _step_metrics(step, groups, update, loss_value)
            metrics.append(record)
            if metrics_fh:
                metrics_fh.write(_metrics_line(record))
            if checkpoint_dir and config.ckpt_every and (step + 1) % config.ckpt_every == 0:
                checkpoint(f"policy_step_{step + 1:04d}.json")
            timings["record"] += time.perf_counter() - t0
    finally:
        if metrics_fh:
            metrics_fh.close()
    timings["total"] = time.perf_counter() - t_run

    if checkpoint_dir:
        checkpoint("policy_final.json")
    return TrainResult(policy=policy, ref_policy=ref_policy, metrics=metrics, timings=timings, checkpoints=checkpoints)


def _metrics_line(record: StepMetrics) -> str:
    """The record as one sorted JSON line.  JSON holds no inf or nan, so a record with one is refused, by step and
    field, before anything of it is written."""
    doc = record.to_doc()
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        name = next(name for name, value in doc.items() if not _finite(value))
        raise ValueError(f"step {record.step}: {name} is not finite, and a metrics file holds no inf or nan") from None


def _finite(value: object) -> bool:
    """Whether a metrics value (a number, None, or a list of them, nested) holds no inf or nan."""
    return all(map(_finite, value)) if isinstance(value, list) else value is None or math.isfinite(value)


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


def _step_metrics(step: int, collected: list[Group], update: StepUpdate, loss_value: float) -> StepMetrics:
    """Summaries of the collected groups and the update; a trained span's h_bar, h_tilde and alpha are its set's."""
    rewards = [traj.reward for g in collected for traj in g.trajectories]
    successes = [traj.success for g in collected for traj in g.trajectories]

    span_docs = []
    alphas: list[float] = []
    n_pos = 0
    for g_idx, (group, mset, advs) in enumerate(zip(update.groups, update.sets, update.advantages)):
        for span, proxy, h_tilde, alpha, adv in zip(group.spans, mset.h_bar, mset.h_tilde, mset.alpha, advs,
                                                    strict=True):
            alphas.append(alpha)
            n_pos += 1 if adv > 0.0 else 0
            span_docs.append([g_idx, span.rollout_index, span.turn_index, proxy, h_tilde, alpha, adv])

    return StepMetrics(
        step=step,
        mean_reward=sum(rewards) / len(rewards) if rewards else 0.0,
        success_rate=sum(successes) / len(successes) if successes else 0.0,
        policy_entropy_estimate=sum(update.h_bar) / len(update.h_bar) if update.h_bar else 0.0,
        mean_alpha=sum(alphas) / len(alphas) if alphas else 1.0,
        frac_positive_advantage=n_pos / len(alphas) if alphas else 0.0,
        loss_value=loss_value,
        spans=span_docs,
    )
