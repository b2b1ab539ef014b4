"""Self-calibrated entropy modulation of group advantages.

Each environment-reactive span gets a coefficient alpha derived from its
length-normalized entropy proxy: proxies are min-max normalized over a
population, passed through exp(-lambda * h), and rescaled by the population
mean so that alpha averages to ~1.  Advantages are then multiplied by alpha,
span-uniformly.  Proxies, coefficients and advantages are lists with one entry
per span, in group.spans order.

The modes differ only in the population: "aem" normalizes over the group,
"reverse" does the same with lambda negated, "shuffle" permutes the group's
coefficients, "traj_norm" normalizes over one trajectory, "batch_norm"
over the whole batch, and "off" has no population, so every alpha is 1.

Deliberately plain Python floats throughout: the arithmetic is tiny and the
exact operation order is part of the contract (tests hold a straight-line
reimplementation to bit-for-bit equality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

import numpy as np

from .policy import Response
from .rollout import Group

#: Population range below which modulation is a no-op (alpha identically 1).
#: Guards the min-max normalization against noise amplification.
DEGENERATE_RANGE = 0.1

DEFAULT_LAMBDA = 1.0
DEFAULT_EPS = 1e-8


def _rollout_runs(g_idx: int, spans: list) -> list:
    """(population, lo, hi) of each run spans[lo:hi] of consecutive spans of one rollout of group g_idx."""
    runs, lo = [], 0
    for rollout, run in groupby(spans, attrgetter("rollout_index")):
        hi = lo + sum(1 for _ in run)
        runs.append(((g_idx, rollout), lo, hi))
        lo = hi
    return runs


#: Each mode's normalization populations over the spans of group g_idx, as (population key, lo, hi) per run spans[lo:hi]
#: of consecutive spans in one population: the group, the rollout (g_idx, rollout_index), the batch (None) or none.
_POPULATION = {
    "off": lambda g_idx, spans: (),
    "aem": lambda g_idx, spans: ((g_idx, 0, len(spans)),),
    "reverse": lambda g_idx, spans: ((g_idx, 0, len(spans)),),
    "shuffle": lambda g_idx, spans: ((g_idx, 0, len(spans)),),
    "traj_norm": _rollout_runs,
    "batch_norm": lambda g_idx, spans: ((None, 0, len(spans)),),
}

#: Modulation modes understood by the trainer.
MODES = tuple(_POPULATION)


@dataclass
class ModulationSet:
    """Per-span modulation results for one group, one entry per span in group.spans order.

    h_bar holds each span's response_entropy_proxy.  h_tilde entries are None when the span's population hit the
    degenerate-range guard or the span has none (its alpha is then exactly 1).  degenerate is True when every
    population holding one of the group's spans is degenerate, as in mode "off", where no span has one.
    """

    h_bar: list[float] = field(default_factory=list)
    h_tilde: list[float | None] = field(default_factory=list)
    alpha: list[float] = field(default_factory=list)
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
) -> list[ModulationSet]:
    """Modulation for a whole training batch, one ModulationSet per group.

    Splits the batch's spans into the populations of ``mode`` (see _POPULATION)
    and normalizes and calibrates each population once, in order of first span.
    "reverse" negates lambda; "shuffle" permutes each non-degenerate
    population's coefficients with ``rng``.  Each span's response_entropy_proxy
    is computed once and kept as its set's h_bar.
    """
    if mode not in _POPULATION:
        raise ValueError(f"unknown modulation mode {mode!r}; choose from {tuple(_POPULATION)}")
    if mode == "shuffle" and rng is None:
        raise ValueError("shuffle mode needs an rng for the permutation")
    runs_of, sets = _POPULATION[mode], []
    populations: dict = {}  # population -> its runs: (set, first position, proxies) per run, in order of first span
    for g_idx, group in enumerate(groups):
        n = len(group.spans)
        h_bars = [response_entropy_proxy(s.response) for s in group.spans]
        sets.append(out := ModulationSet(h_bars, [None] * n, [1.0] * n, True))  # what a degenerate population leaves
        if not n:
            continue
        for population, lo, hi in runs_of(g_idx, group.spans):
            populations.setdefault(population, []).append((out, lo, h_bars[lo:hi]))
    for runs in populations.values():
        h_bars = runs[0][2] if len(runs) == 1 else [h for *_, run_h in runs for h in run_h]
        h_tilde, alphas = population_coeffs(h_bars, -lam if mode == "reverse" else lam, eps)
        if h_tilde is None:
            continue
        if mode == "shuffle":
            alphas = [alphas[int(j)] for j in rng.permutation(len(alphas))]
        at = 0
        for out, lo, run_h in runs:
            size = len(run_h)
            out.h_tilde[lo:lo + size], out.alpha[lo:lo + size] = h_tilde[at:at + size], alphas[at:at + size]
            out.degenerate = False
            at += size
    return sets


def apply_modulation(advantages: list[float], mod: ModulationSet) -> list[float]:
    """Multiply every span advantage by its coefficient, span-uniformly.  A degenerate set returns advantages itself:
    its every alpha is exactly 1.0, and 1.0 * x is x.  A list of another length than the set's is refused."""
    if len(advantages) != len(mod.alpha):
        raise ValueError(f"{len(advantages)} advantages for a set of {len(mod.alpha)} spans")
    if mod.degenerate:
        return advantages
    return [alpha * val for alpha, val in zip(mod.alpha, advantages)]
