"""Self-calibrated entropy modulation of group advantages.

Each environment-reactive span gets a coefficient alpha derived from its
length-normalized entropy proxy: proxies are min-max normalized over a
population (the group, by default), passed through exp(-lambda * h), and
rescaled by the population mean so that alpha averages to ~1.  Advantages
are then multiplied by alpha, span-uniformly.

Deliberately plain Python floats throughout: the arithmetic is tiny and the
exact operation order is part of the contract (tests hold a straight-line
reimplementation to bit-for-bit equality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .advantage import AdvantageTable
from .policy import Response
from .rollout import Group, ResponseSpan

#: Population range below which modulation is a no-op (alpha identically 1).
#: Guards the min-max normalization against noise amplification.
DEGENERATE_RANGE = 0.1

DEFAULT_LAMBDA = 1.0
DEFAULT_EPS = 1e-8

#: Modulation modes understood by the trainer.  "off" skips modulation,
#: "aem" is the standard per-group pipeline, the rest are ablation variants.
MODES = ("off", "aem", "reverse", "shuffle", "traj_norm", "batch_norm")


@dataclass
class ModulationSet:
    """Per-span modulation results for one group.

    h_tilde entries are None when the span's normalization population hit the
    degenerate-range guard (in which case its alpha is exactly 1).
    """

    lam: float
    eps: float
    h_bar: dict[tuple[int, int], float] = field(default_factory=dict)
    h_tilde: dict[tuple[int, int], float | None] = field(default_factory=dict)
    alpha: dict[tuple[int, int], float] = field(default_factory=dict)
    degenerate: bool = False


def response_entropy_proxy(span: ResponseSpan | Response) -> float:
    """Length-normalized entropy of a span or sampled response: mean recorded per-token entropy."""
    return sum(span.entropies) / len(span.entropies)


def group_minmax_normalize(h_bars: list[float], eps: float = DEFAULT_EPS) -> tuple[list[float] | None, bool]:
    """Min-max normalize proxies over their population.

    Returns (normalized, degenerate).  When max - min < DEGENERATE_RANGE the
    population is degenerate and normalization is skipped entirely.
    """
    mn = min(h_bars)
    mx = max(h_bars)
    if mx - mn < DEGENERATE_RANGE:
        return None, True
    return [(h - mn) / (mx - mn + eps) for h in h_bars], False


def modulation_coeffs(h_tilde: list[float], lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPS) -> list[float]:
    """Self-calibrated coefficients exp(-lam * h) / (mean + eps) over the population."""
    raw = [math.exp(-lam * h) for h in h_tilde]
    mean_raw = sum(raw) / len(raw)
    return [r / (mean_raw + eps) for r in raw]


def _population_alphas(h_bars: list[float], lam: float, eps: float) -> tuple[list[float | None], list[float], bool]:
    """Normalize and calibrate one population; degenerate populations get alpha 1."""
    h_tilde, degenerate = group_minmax_normalize(h_bars, eps)
    if degenerate:
        return [None] * len(h_bars), [1.0] * len(h_bars), True
    return list(h_tilde), modulation_coeffs(h_tilde, lam, eps), False


def compute_modulation(
    group: Group,
    lam: float = DEFAULT_LAMBDA,
    eps: float = DEFAULT_EPS,
    mode: str = "aem",
    rng: np.random.Generator | None = None,
) -> ModulationSet:
    """Modulation coefficients for one group under a per-group population mode.

    Modes here: "aem" (standard), "reverse" (sign-flipped exponent),
    "shuffle" (standard coefficients permuted within the group, needs rng),
    "traj_norm" (population per trajectory instead of per group).
    Use modulate_batch for "batch_norm", whose population spans groups.
    """
    keys = [(s.rollout_index, s.turn_index) for s in group.spans]
    h_bars = [response_entropy_proxy(s) for s in group.spans]
    out = ModulationSet(lam=lam, eps=eps, h_bar=dict(zip(keys, h_bars)))

    if mode in ("aem", "reverse", "shuffle"):
        eff_lam = -lam if mode == "reverse" else lam
        h_tilde, alphas, degenerate = _population_alphas(h_bars, eff_lam, eps)
        if mode == "shuffle" and not degenerate:
            if rng is None:
                raise ValueError("shuffle mode needs an rng for the permutation")
            perm = rng.permutation(len(alphas))
            alphas = [alphas[int(j)] for j in perm]
        out.h_tilde = dict(zip(keys, h_tilde))
        out.alpha = dict(zip(keys, alphas))
        out.degenerate = degenerate
        return out

    if mode == "traj_norm":
        rollout_ids: list[int] = []
        for key in keys:
            if key[0] not in rollout_ids:
                rollout_ids.append(key[0])
        all_degenerate = True
        for rid in rollout_ids:
            idx = [k for k, key in enumerate(keys) if key[0] == rid]
            h_tilde, alphas, degenerate = _population_alphas([h_bars[k] for k in idx], lam, eps)
            all_degenerate = all_degenerate and degenerate
            for pos, k in enumerate(idx):
                out.h_tilde[keys[k]] = h_tilde[pos]
                out.alpha[keys[k]] = alphas[pos]
        out.degenerate = all_degenerate
        return out

    raise ValueError(f"unknown per-group modulation mode {mode!r}")


def modulate_batch(
    groups: list[Group],
    mode: str,
    lam: float = DEFAULT_LAMBDA,
    eps: float = DEFAULT_EPS,
    rng: np.random.Generator | None = None,
) -> list[ModulationSet]:
    """Modulation for a whole training batch, one ModulationSet per group.

    "batch_norm" pools every span of every group into a single normalization
    population; all other modes defer to compute_modulation per group.
    """
    if mode != "batch_norm":
        return [compute_modulation(g, lam=lam, eps=eps, mode=mode, rng=rng) for g in groups]

    flat_keys: list[tuple[int, tuple[int, int]]] = []
    flat_h: list[float] = []
    for g_idx, group in enumerate(groups):
        for span in group.spans:
            flat_keys.append((g_idx, (span.rollout_index, span.turn_index)))
            flat_h.append(response_entropy_proxy(span))
    h_tilde, alphas, degenerate = _population_alphas(flat_h, lam, eps)
    sets = [ModulationSet(lam=lam, eps=eps, degenerate=degenerate) for _ in groups]
    for (g_idx, key), h, ht, a in zip(flat_keys, flat_h, h_tilde, alphas):
        sets[g_idx].h_bar[key] = h
        sets[g_idx].h_tilde[key] = ht
        sets[g_idx].alpha[key] = a
    return sets


def apply_modulation(table: AdvantageTable, mod: ModulationSet) -> AdvantageTable:
    """Multiply every span advantage by its coefficient, span-uniformly."""
    values = {key: mod.alpha[key] * val for key, val in table.values.items()}
    return AdvantageTable(estimator=table.estimator, values=values)
