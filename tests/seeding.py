"""Per-rollout generators for tests that call collect_group directly."""

from __future__ import annotations

import numpy as np


def child_rngs(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """n rollout generators from one upfront draw of rng: default_rng of each child seed.

    This is the derivation train() reproduces with seed_states, so these groups are
    the ones the trainer would sample from the same prompt generator.
    """
    return [np.random.default_rng(int(s)) for s in rng.integers(0, 2**63 - 1, size=n)]
