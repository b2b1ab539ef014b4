"""Self-calibrated entropy modulation of group advantages.

Each environment-reactive span gets a coefficient alpha derived from its
length-normalized entropy proxy: proxies are min-max normalized over a
population, passed through exp(-lambda * h), and rescaled by the population
mean so that alpha averages to ~1.  Advantages are then multiplied by alpha,
span-uniformly.

The modes differ only in the population: "aem" normalizes over the group,
"reverse" does the same with lambda negated, "shuffle" permutes the group's
coefficients, "traj_norm" normalizes over one trajectory and "batch_norm"
over the whole batch.

Deliberately plain Python floats throughout: the arithmetic is tiny and the
exact operation order is part of the contract (tests hold a straight-line
reimplementation to bit-for-bit equality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from .advantage import AdvantageTable
from .policy import Response
from .rollout import Group

#: Population range below which modulation is a no-op (alpha identically 1).
#: Guards the min-max normalization against noise amplification.
DEGENERATE_RANGE = 0.1

DEFAULT_LAMBDA = 1.0
DEFAULT_EPS = 1e-8


def _rollout_runs(g_idx: int, keys: list, h_bars: list) -> list:
    """(population, span keys, proxies) of each run of consecutive spans of one rollout of group g_idx."""
    runs, lo = [], 0
    for rollout, run in groupby(keys, itemgetter(0)):  # a span key is (rollout_index, turn_index)
        run_keys = list(run)
        runs.append(((g_idx, rollout), run_keys, h_bars[lo:lo + len(run_keys)]))
        lo += len(run_keys)
    return runs


#: Each mode's normalization populations over the spans of group g_idx, as (population key, span keys, proxies)
#: per run of consecutive spans in one population: the group, the rollout (g_idx, rollout_index) or the batch (None).
_POPULATION = {
    "aem": lambda g_idx, keys, h_bars: ((g_idx, keys, h_bars),),
    "reverse": lambda g_idx, keys, h_bars: ((g_idx, keys, h_bars),),
    "shuffle": lambda g_idx, keys, h_bars: ((g_idx, keys, h_bars),),
    "traj_norm": _rollout_runs,
    "batch_norm": lambda g_idx, keys, h_bars: ((None, keys, h_bars),),
}

#: Modulation modes understood by the trainer: "off" skips modulation.
MODES = ("off", *_POPULATION)


@dataclass
class ModulationSet:
    """Per-span modulation results for one group.

    h_tilde entries are None when the span's population hit the degenerate-range
    guard (its alpha is then exactly 1).  degenerate is True when every population
    holding one of the group's spans is degenerate.
    """

    h_tilde: dict[tuple[int, int], float | None] = field(default_factory=dict)
    alpha: dict[tuple[int, int], float] = field(default_factory=dict)
    degenerate: bool = False


def response_entropy_proxy(response: Response) -> float:
    """Length-normalized entropy of a sampled response: mean recorded per-token entropy."""
    return sum(response.entropies) / len(response.entropies)


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


def population_coeffs(h_bars: list[float], lam: float = DEFAULT_LAMBDA,
                      eps: float = DEFAULT_EPS) -> tuple[list[float] | None, list[float]]:
    """(h_tilde, alpha) of one population: group_minmax_normalize, then alpha 1.0 for each span of a degenerate
    population (whose h_tilde is None), else modulation_coeffs of h_tilde."""
    h_tilde, degenerate = group_minmax_normalize(h_bars, eps)
    return (None, [1.0] * len(h_bars)) if degenerate else (h_tilde, modulation_coeffs(h_tilde, lam, eps))


def modulate_batch(
    groups: list[Group],
    mode: str,
    lam: float = DEFAULT_LAMBDA,
    eps: float = DEFAULT_EPS,
    rng: np.random.Generator | None = None,
    proxies: list[list[float]] | None = None,
) -> list[ModulationSet]:
    """Modulation for a whole training batch, one ModulationSet per group.

    Splits the batch's spans into the populations of ``mode`` (see _POPULATION)
    and normalizes and calibrates each population once, in order of first span.
    "reverse" negates lambda; "shuffle" permutes each non-degenerate
    population's coefficients with ``rng``.  ``proxies[g]``, when the caller
    has computed them, lists the response_entropy_proxy of each span of groups[g].
    """
    if mode not in _POPULATION:
        raise ValueError(f"unknown modulation mode {mode!r}; choose from {tuple(_POPULATION)}")
    if mode == "shuffle" and rng is None:
        raise ValueError("shuffle mode needs an rng for the permutation")
    runs_of, sets = _POPULATION[mode], []
    populations: dict = {}  # population -> its runs: (set, span keys, proxies) per run, in order of first span
    for g_idx, group in enumerate(groups):
        sets.append(out := ModulationSet({}, {}, True))
        if not group.spans:
            continue
        h_bars = proxies[g_idx] if proxies is not None else [response_entropy_proxy(s.response) for s in group.spans]
        keys = [(span.rollout_index, span.turn_index) for span in group.spans]
        for population, run_keys, run_h in runs_of(g_idx, keys, h_bars):
            populations.setdefault(population, []).append((out, run_keys, run_h))
    for runs in populations.values():
        h_bars = runs[0][2] if len(runs) == 1 else [h for _, _, run_h in runs for h in run_h]
        h_tilde, alphas = population_coeffs(h_bars, -lam if mode == "reverse" else lam, eps)
        if h_tilde is None:
            for out, keys, _ in runs:
                h_tilde_out, alpha_out = out.h_tilde, out.alpha
                for key in keys:
                    h_tilde_out[key] = None
                    alpha_out[key] = 1.0
            continue
        if mode == "shuffle":
            alphas = [alphas[int(j)] for j in rng.permutation(len(alphas))]
        lo = 0
        for out, keys, _ in runs:
            out.h_tilde.update(zip(keys, h_tilde[lo:lo + len(keys)]))
            out.alpha.update(zip(keys, alphas[lo:lo + len(keys)]))
            out.degenerate = False
            lo += len(keys)
    return sets


def apply_modulation(table: AdvantageTable, mod: ModulationSet) -> AdvantageTable:
    """Multiply every span advantage by its coefficient, span-uniformly.  A degenerate set returns table itself:
    its every alpha is exactly 1.0, and 1.0 * x is x."""
    if mod.degenerate:
        return table
    alpha = mod.alpha
    return AdvantageTable({key: alpha[key] * val for key, val in table.values.items()})
