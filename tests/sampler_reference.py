"""The nested sampler rows and their walk, the reference that the flat sampler lists are held to.

Before the sampler lists were flat, PolicySnapshot.samplers gave one list per table row and sample_response
searched each row's own list.  nested_samplers and nested_walk are that derivation and that walk.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from entlab.policy import PolicySnapshot, Response, _log_and_entropy


def nested_samplers(snapshot: PolicySnapshot, states: list[str]) -> list[tuple[list, list, list]]:
    """(cdf, logp, H) at each state, cdf and logp a list per row of its table: one pass over the stacked tables."""
    table = np.concatenate(snapshot.tables(states))
    cdf = table.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    logp, h = _log_and_entropy(table)
    n, (cdf, logp, h) = len(snapshot._shape.prefixes), (cdf.tolist(), logp.tolist(), h.tolist())
    return [(cdf[i:i + n], logp[i:i + n], h[i:i + n]) for i in range(0, len(h), n)]


def nested_walk(snapshot: PolicySnapshot, nested: tuple[list, list, list], rng) -> Response:
    """From row 0 to a leaf: bisect_right on each row's own cdf list, the child row read as child[row][tok]."""
    cdf, logp, h = nested
    size, leaf = snapshot.policy.vocab.size, len(snapshot._shape.prefixes)
    child = [snapshot._shape.child[i:i + size] for i in range(0, len(snapshot._shape.child), size)]
    tokens, logprobs, entropies, row = [], [], [], 0
    while row != leaf:
        tok = bisect_right(cdf[row], rng.random())
        tokens.append(tok)
        logprobs.append(logp[row][tok])
        entropies.append(h[row])
        row = child[row][tok]
    return Response(tokens=tokens, logprobs=logprobs, entropies=entropies)


def sampler_row(sampler: tuple[list, list, list], row: int) -> tuple[list, list, float]:
    """(cdf, logp, H) of one table row of a state's flat sampler lists: slices r * |V| .. r * |V| + |V| - 1."""
    cdf, logp, h = sampler
    size = len(cdf) // len(h)
    return cdf[row * size:row * size + size], logp[row * size:row * size + size], h[row]
