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

import numpy as np

from .advantage import AdvantageTable
from .policy import Response
from .rollout import Group

#: Population range below which modulation is a no-op (alpha identically 1).
#: Guards the min-max normalization against noise amplification.
DEGENERATE_RANGE = 0.1

DEFAULT_LAMBDA = 1.0
DEFAULT_EPS = 1e-8

#: Each mode's normalization population, as a key of (group index, span).
_POPULATION = {
    "aem": lambda g_idx, span: g_idx,
    "reverse": lambda g_idx, span: g_idx,
    "shuffle": lambda g_idx, span: g_idx,
    "traj_norm": lambda g_idx, span: (g_idx, span.rollout_index),
    "batch_norm": lambda g_idx, span: None,
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
    population_of = _POPULATION[mode]
    sets = [ModulationSet({}, {}, True) for _ in groups]
    populations: dict = {}  # population -> ((set, span key) per member, proxy per member)
    for g_idx, (group, out) in enumerate(zip(groups, sets)):
        h_bars = proxies[g_idx] if proxies is not None else [response_entropy_proxy(s.response) for s in group.spans]
        for span, h in zip(group.spans, h_bars):
            members = populations.get(population := population_of(g_idx, span))
            if members is None:
                members = populations[population] = ([], [])
            members[0].append((out, (span.rollout_index, span.turn_index)))
            members[1].append(h)
    for members, h_bars in populations.values():
        h_tilde, degenerate = group_minmax_normalize(h_bars, eps)
        if degenerate:
            for out, key in members:
                out.h_tilde[key] = None
                out.alpha[key] = 1.0
            continue
        alphas = modulation_coeffs(h_tilde, -lam if mode == "reverse" else lam, eps)
        if mode == "shuffle":
            alphas = [alphas[int(j)] for j in rng.permutation(len(alphas))]
        for (out, key), ht, a in zip(members, h_tilde, alphas):
            out.h_tilde[key] = ht
            out.alpha[key] = a
            out.degenerate = False
    return sets


def apply_modulation(table: AdvantageTable, mod: ModulationSet) -> AdvantageTable:
    """Multiply every span advantage by its coefficient, span-uniformly.  Every coefficient of a degenerate set is
    exactly 1.0, and 1.0 * x is x bit for bit, so such a table is copied as it is."""
    if mod.degenerate:
        return AdvantageTable(dict(table.values))
    alpha = mod.alpha
    return AdvantageTable({key: alpha[key] * val for key, val in table.values.items()})
