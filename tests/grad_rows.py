"""The rows of surrogate_loss's per-state gradient blocks, for tests that check a gradient row by row, and the
stacked step tables that its regularizer and gradient scatter read."""

from __future__ import annotations

import numpy as np

from entlab.policy import _tree_shape


def grad_rows(policy, grad) -> dict:
    """{(state, prefix): row} over each state's (block, mask) of grad: the rows in its mask only,
    state by state in row order."""
    prefixes = _tree_shape(policy.vocab, policy.max_len).prefixes
    return {(state, prefixes[row]): block[row]
            for state, (block, mask) in grad.items() for row in np.flatnonzero(mask).tolist()}


def step_tables(snapshot, states) -> np.ndarray:
    """The table of each of ``states`` in ``snapshot``, stacked (states x rows x |V|) as surrogate_loss does."""
    return np.array([snapshot.table(state) for state in states])
