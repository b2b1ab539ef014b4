"""Step through the advantage-modulation pipeline on one worked group.

Every environment-reactive span of a group carries a length-normalized
entropy proxy (its mean per-token entropy).  The pipeline min-max
normalizes the proxies over the group, maps them through exp(-lambda * h),
and rescales by the population mean so the coefficients average to ~1:
low-relative-entropy spans get alpha > 1, high ones get alpha < 1, and a
group whose proxy range is below 0.1 is left untouched.  The ablation
variants rearrange exactly one ingredient each.
"""

from __future__ import annotations

import argparse

import numpy as np

from entlab.envs import EnvState
from entlab.modulation import (
    DEGENERATE_RANGE,
    group_minmax_normalize,
    modulate_batch,
    modulation_coeffs,
)
from entlab.policy import Response
from entlab.rollout import Group, Trajectory, Turn


def span(i: int, turn: int, entropies: list[float]) -> Turn:
    """Turn `turn` of rollout i as a span: only its response's entropies matter to the modulation."""
    n = len(entropies)
    return Turn(rollout_index=i, turn_index=turn, state=EnvState("demo", 0, turn, ()),
                response=Response(tokens=[0] * n, logprobs=[-1.0] * n, entropies=entropies), valid=True)


def worked_example() -> None:
    h_bars = [0.2, 0.5, 0.8]
    print(f"worked example: proxies {h_bars}, lambda=1")
    h_tilde, degenerate = group_minmax_normalize(h_bars)
    print(f"  min-max normalized {[round(h, 4) for h in h_tilde]} (degenerate={degenerate})")
    alphas = modulation_coeffs(h_tilde, lam=1.0)
    print(f"  coefficients       {[round(a, 4) for a in alphas]}")
    print(f"  mean coefficient   {sum(alphas) / len(alphas):.8f}  (self-calibrated)")

    flat = [0.50, 0.52, 0.55]
    _, degenerate = group_minmax_normalize(flat)
    print(f"\nrange guard: proxies {flat} span {max(flat) - min(flat):.2f} "
          f"< {DEGENERATE_RANGE}, degenerate={degenerate}, coefficients stay 1")


def ablation_modes(seed: int) -> None:
    rollouts = [[span(0, 0, [0.1, 0.3]), span(0, 1, [1.2, 1.6])],
                [span(1, 0, [0.8, 0.8]), span(1, 1, [0.3, 0.5])]]
    group = Group(prompt_id=0, trajectories=[Trajectory(0, turns, EnvState("demo", 0, 2, (), done=True))
                                             for turns in rollouts])
    print("\nablation variants on one two-rollout group (keys are rollout, turn):")
    rng = np.random.default_rng(seed)
    for mode in ("aem", "reverse", "shuffle", "traj_norm"):
        out = modulate_batch([group], mode, rng=rng)[0]
        rendered = {(s.rollout_index, s.turn_index): round(val, 4)
                    for s, val in zip(group.spans, out.alpha, strict=True)}
        print(f"  {mode:<9} alpha={rendered}")
    print("  (reverse flips the ordering; shuffle permutes the standard alphas;")
    print("   traj_norm normalizes within each rollout, so a flat rollout degenerates)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    worked_example()
    ablation_modes(args.seed)


if __name__ == "__main__":
    main()
