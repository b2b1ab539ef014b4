"""The nesting check one trial at a time: the reference of cli._nesting_reports, which evaluates the trials of
one size in one stacked pass.  This is the per-trial loop it replaced, kept as it was: each trial reads a fresh
one-state snapshot through exact_response_entropy and pathwise_entropy."""

from __future__ import annotations

import numpy as np

from entlab.cli import NESTING_TOL_ABS
from entlab.policy import PolicySnapshot, exact_response_entropy, pathwise_entropy, random_policy


def nesting_reports(trials: int, rng: np.random.Generator) -> list[dict]:
    reports = []
    for _ in range(trials):
        vocab_size = int(rng.integers(2, 5))
        max_len = int(rng.integers(2, 5))
        policy = PolicySnapshot(random_policy(vocab_size, max_len, rng))  # both routes read one tree
        route_a = exact_response_entropy(policy, "s")
        route_b = pathwise_entropy(policy, "s")
        err = abs(route_a - route_b)
        reports.append({
            "kind": "nesting",
            "analytic": route_a,
            "finite_difference": route_b,
            "abs_error": err,
            "rel_error": err / abs(route_a) if route_a != 0.0 else float("inf"),
            "ok": err <= NESTING_TOL_ABS,
        })
    return reports
