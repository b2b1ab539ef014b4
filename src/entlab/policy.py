"""Tabular autoregressive token policy over small vocabularies.

A policy owns one block of logit rows per state, a row per prefix, and emits
variable-length token responses that end with a terminator token or get
truncated at ``max_len``.  Everything is small enough to enumerate, which is
what makes exact response-level entropies and exact gradient checks possible
downstream.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from types import MappingProxyType
from typing import NamedTuple

import numpy as np


# Hard ceiling on the number of complete responses an exact enumeration is
# allowed to touch.  More than this means the caller asked for an exact
# quantity on a policy that is not desk-scale any more.
ENUMERATION_BUDGET = 10**6


#: A batched snapshot pass derives at most this many table entries (512 KB of float64), so passes stay in cache.
BATCH_ENTRIES = 2**16


class EnumerationBudgetError(RuntimeError):
    """Raised when an exact enumeration would exceed ENUMERATION_BUDGET paths."""


@dataclass(frozen=True)
class Vocabulary:
    """Token alphabet shared by a policy and an environment."""

    size: int
    terminator_id: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("vocabulary needs at least one content token plus terminator")
        if not 0 <= self.terminator_id < self.size:
            raise ValueError(f"terminator_id {self.terminator_id} outside vocabulary of size {self.size}")


@dataclass
class Response:
    """One sampled response: tokens plus the per-token stats recorded at sampling time.

    ``logprobs[k]`` is log pi(tokens[k] | state, tokens[:k]) and ``entropies[k]``
    is the Shannon entropy of that same conditional distribution, both under the
    policy that generated the sample.
    """

    tokens: list[int]
    logprobs: list[float]
    entropies: list[float]

    def __post_init__(self) -> None:
        if not (len(self.tokens) == len(self.logprobs) == len(self.entropies)):
            raise ValueError("tokens, logprobs and entropies must have equal length")
        if not self.tokens:
            raise ValueError("a response has at least one token (the terminator)")

    @property
    def surprisal(self) -> float:
        """Negative log probability of the whole response under the sampling policy."""
        return -sum(self.logprobs)


@dataclass(eq=False)
class TablePolicy:
    """Logit table keyed by (state, prefix).

    States are opaque hashable keys (strings in practice); prefixes are the token tuples emitted so far
    within the current response.  A written state holds one (internal prefixes x |V|) block, rows in
    _tree_shape's walk order, and a mask of its written rows; other rows read as zero logits (uniform).
    Only logit_vector and _block write, and ``writes`` counts them, so a PolicySnapshot can tell it is stale.
    """

    vocab: Vocabulary
    max_len: int
    writes: int = field(default=0, repr=False)
    _blocks: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")

    def _row(self, prefix: tuple[int, ...]) -> int | None:
        """Block row of prefix, None if it has none; a prefix of max_len tokens has no successor to score."""
        if len(prefix) >= self.max_len:
            raise ValueError(f"prefix of length {len(prefix)} has no successor under max_len={self.max_len}")
        return _tree_shape(self.vocab, self.max_len).rows.get(tuple(prefix))

    @property
    def logits(self) -> Mapping[tuple[str, tuple[int, ...]], np.ndarray]:
        """The written rows, read-only, as a mapping (state, prefix) -> row in state order, then row order."""
        prefixes, rows = _tree_shape(self.vocab, self.max_len).prefixes if self._blocks else [], {}
        for state, (block, written) in self._blocks.items():
            view = block.view()
            view.flags.writeable = False
            rows.update(((state, prefixes[i]), view[i]) for i in np.flatnonzero(written).tolist())
        return MappingProxyType(rows)

    def _block(self, state: str) -> tuple[np.ndarray, np.ndarray]:
        """The live (block, written mask) of ``state``, zeros and no rows on first touch; counts a write."""
        self.writes += 1
        if state not in self._blocks:
            rows = len(_tree_shape(self.vocab, self.max_len).prefixes)
            self._blocks[state] = (np.zeros((rows, self.vocab.size)), np.zeros(rows, dtype=bool))
        return self._blocks[state]

    def logit_vector(self, state: str, prefix: tuple[int, ...]) -> np.ndarray:
        """Return the live logit row of (state, prefix), marked written (the write path)."""
        row = self._row(prefix)
        if row is None:
            raise ValueError(f"{(state, tuple(prefix))!r} has no logit row: a prefix holds tokens in "
                             f"range({self.vocab.size}) but {self.vocab.terminator_id}, the terminator")
        block, written = self._block(state)
        written[row] = True
        return block[row]

    def copy(self) -> TablePolicy:
        new = TablePolicy(vocab=self.vocab, max_len=self.max_len)
        new._blocks = {state: (block.copy(), written.copy()) for state, (block, written) in self._blocks.items()}
        return new


def token_distribution(policy: TablePolicy, state: str, prefix: tuple[int, ...]) -> np.ndarray:
    """Conditional next-token distribution softmax(logits) at (state, prefix).

    Returns a probability vector of length |V| with all entries positive and
    summing to 1 up to float roundoff.  Reading leaves the policy unchanged.
    """
    row, found = policy._row(prefix), policy._blocks.get(state)
    if row is None or found is None:  # zero logits, as in an unwritten row: their softmax is exactly 1/|V|
        return np.full(policy.vocab.size, 1.0 / policy.vocab.size)
    p = np.exp(found[0][row] - found[0][row].max())
    return p / p.sum()


def _per_state(derive):
    """A PolicySnapshot read of one state: derive(snapshot, state), memoized per snapshot by its name.
    The one staleness check: every read after a write to the snapshot's policy raises."""
    @wraps(derive)
    def read(self: PolicySnapshot, state: str):
        if self.policy.writes != self._writes:
            raise RuntimeError("policy snapshot read after a logit_vector write to its policy")
        memo = self._memos[derive.__name__]
        found = memo.get(state)
        if found is None:
            found = memo[state] = derive(self, state)
        return found
    return read


def _batched(derive):
    """A read of many states into the memo of derive's name: derive(snapshot, chunk) derives the distinct states its
    memo misses, one pass per chunk of at most BATCH_ENTRIES table entries; _one(read) reads one state through it."""
    @wraps(derive)
    def read(self: PolicySnapshot, states):
        if self.policy.writes != self._writes:
            raise RuntimeError("policy snapshot read after a logit_vector write to its policy")
        memo = self._memos[derive.__name__]
        missing = [state for state in dict.fromkeys(states) if state not in memo]
        per = max(1, BATCH_ENTRIES // (len(self._shape.prefixes) * self.policy.vocab.size))
        for lo in range(0, len(missing), per):
            memo.update(zip(missing[lo:lo + per], derive(self, missing[lo:lo + per])))
        return [memo[state] for state in states]
    return read


def _one(batch):
    """The read of one state through a _batched read's memo: a memo hit is one lookup, a miss a chunk of one."""
    derive = batch.__wrapped__
    one = lambda self, state: derive(self, (state,))[0]  # noqa: E731
    one.__name__ = batch.__name__
    return _per_state(one)


class PolicySnapshot:
    """Read-only view of one policy version, the one reader of its softmaxes; every read is memoized per state, and
    raises once the policy has been written since.  tables(states) holds one softmax per row of _tree_shape at each
    state, refused unless each is a distribution, as Generator.choice refuses p, and samplers(states) the flat lists
    _walk samples; table(state) and sampler(state) are batches of one.  leaf_probs(state) is each complete response's
    probability and leaf_logs(state) their logs.  Every exact route reads the tables or the leaf probabilities."""

    def __init__(self, policy: TablePolicy) -> None:
        self.policy = policy
        self._writes = policy.writes
        self._shape = _tree_shape(policy.vocab, policy.max_len)
        self._memos: dict[str, dict] = {"tables": {}, "samplers": {}, "leaf_probs": {}, "leaf_logs": {}}

    @classmethod
    def of(cls, policy: TablePolicy | PolicySnapshot) -> PolicySnapshot:
        """The snapshot itself, or a new snapshot of a TablePolicy."""
        return policy if isinstance(policy, PolicySnapshot) else cls(policy)

    @_batched
    def tables(self, states: list[str]) -> list[np.ndarray]:
        """The softmaxes at each state, one pass over a stacked copy of their blocks (zeros where there is none): less
        each row's max, exponentiated, over each row's sum, token_distribution bit for bit.  Do not mutate them."""
        prefixes, blocks, size = self._shape.prefixes, self.policy._blocks, self.policy.vocab.size
        if len(states) == 1:  # one state's table is its block's copy: no concatenate or reshape of a list of one
            found = blocks.get(states[0])
            z = np.zeros((len(prefixes), size)) if found is None else found[0].copy()
        else:
            z = np.concatenate([blocks[state][0] if state in blocks else np.zeros((len(prefixes), size))
                                for state in states])
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        sums = z.sum(axis=1)
        z /= sums[:, None]
        if not math.isfinite(sums.sum()):  # an exp row lies in [0, 1] and holds a 1: its sum is in [1, |V|] or NaN
            i = int(np.argmin(np.isfinite(sums)))
            at = (states[i // len(prefixes)], prefixes[i % len(prefixes)])
            raise ValueError(f"next-token probabilities at {at!r} are not a distribution: {z[i]}")
        return (z,) if len(states) == 1 else z.reshape(len(states), len(prefixes), size)

    @_batched
    def samplers(self, states: list[str]) -> list[tuple[list[float], list[float], list[float]]]:
        """(cdf, logp, H) at each state as flat lists, row r of its table at r * |V| .. r * |V| + |V| - 1 of cdf and
        logp and at r of H: cdf is cumsum(p) / cumsum(p)[-1] (what choice searches), logp and H the rows of
        _log_and_entropy.  One pass over the stacked tables, and one tolist of each, a flat list per state."""
        table = np.concatenate(self.tables(states))
        cdf = table.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        logp, h = _log_and_entropy(table)
        return list(zip(*(column.reshape(len(states), -1).tolist() for column in (cdf, logp, h))))

    table, sampler = _one(tables), _one(samplers)

    @_per_state
    def leaf_probs(self, state: str) -> list[float]:
        """Each complete response's probability at ``state``, leaves in order: _leaf_probs of table(state)."""
        return _leaf_probs(self.table(state).ravel(), self._shape).tolist()

    @_per_state
    def leaf_logs(self, state: str) -> list[float]:
        """Each complete response's log probability at ``state``, leaves in order: _leaf_logs of leaf_probs(state)."""
        return _leaf_logs(self.leaf_probs(state))


def _leaf_probs(tables: np.ndarray, shape: _Shape) -> np.ndarray:
    """Each leaf's probability under a flat table (or each of a stack): its path's entries multiplied root to leaf."""
    return np.multiply.reduceat(tables.take(shape.edges, axis=-1), shape.starts, axis=-1)


def _leaf_logs(probs: list[float]) -> list[float]:
    """math.log of each leaf probability, -inf at 0.0; np.log's vector path can differ from it in the last bit."""
    return [math.log(prob) if prob > 0.0 else -math.inf for prob in probs]


def sample_response(policy: TablePolicy | PolicySnapshot, state: str, rng: np.random.Generator) -> Response:
    """Sample one response token by token, recording logprob and conditional entropy per token: _walk of
    snapshot.sampler(state), so a seed gives the tokens and generator state of rng.choice(|V|, p=p) per token.
    A TablePolicy is read through a new snapshot."""
    snapshot = PolicySnapshot.of(policy)
    return _walk(snapshot, snapshot.sampler(state), rng)


def _walk(snapshot: PolicySnapshot, sampler: tuple[list[float], list[float], list[float]],
          rng: np.random.Generator) -> Response:
    """The one sampling walk, over the flat sampler lists of one of snapshot's states: from row 0 along _tree_shape's
    flat child rows to a leaf, so only the tree says where a response ends.  Each token is one rng.random() draw
    searched right-sided in its row's cdf, bisect_right over base .. base + |V| at base = row * |V|: the draw and
    the search of rng.choice(|V|, p=p)."""
    (cdf, logp, h), child, size = sampler, snapshot._shape.child, snapshot.policy.vocab.size
    tokens, logprobs, entropies, row, leaf = [], [], [], 0, len(h)
    while row != leaf:
        base = row * size
        at = bisect_right(cdf, rng.random(), base, base + size)
        tokens.append(at - base)
        logprobs.append(logp[at])
        entropies.append(h[row])
        row = child[at]
    return Response(tokens=tokens, logprobs=logprobs, entropies=entropies)


def _check_budget(vocab: Vocabulary, max_len: int) -> None:
    """Refuse an exact enumeration of more than ENUMERATION_BUDGET complete responses:
    (V-1)^(k-1) end with the terminator at each length k < max_len, V (V-1)^(max_len-1) at max_len."""
    ended, open_ = 0, 1  # responses shorter than k tokens, terminator-free prefixes of k - 1 tokens
    for _ in range(max_len - 1):
        if ended + open_ > ENUMERATION_BUDGET:
            break
        ended, open_ = ended + open_, open_ * (vocab.size - 1)
    if ended + vocab.size * open_ > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"|V|={vocab.size}, max_len={max_len} gives more than the "
                                     f"enumeration budget of {ENUMERATION_BUDGET} complete responses")


class _Shape(NamedTuple):
    """The response tree of a (vocabulary, max_len), indexed for a snapshot's table and a policy's blocks."""
    leaves: tuple[tuple[int, ...], ...]  # the complete responses, sorted
    prefixes: list[tuple[int, ...]]  # the internal prefixes in depth-first walk order: the table's and block's rows
    rows: dict[tuple[int, ...], int]  # each internal prefix's row
    child: tuple[int, ...]  # child[row * |V| + tok]: the row of prefix + (tok,), len(prefixes) at a leaf
    row_path: np.ndarray  # then one entry per (leaf, position), leaves in order: the leaf's index,
    row_row: np.ndarray  # the row of the position's prefix,
    row_tok: np.ndarray  # the token there,
    edges: np.ndarray  # row_row * |V| + row_tok, an index of the flat table,
    starts: np.ndarray  # and the first entry of each leaf
    leaf_at: dict[tuple[int, ...], int]  # each complete response's index in leaves
    path_rows: np.ndarray  # (leaves, max_len): each leaf's rows root to leaf, padded with the zero row len(prefixes)


@lru_cache(maxsize=16)
def _tree_shape(vocab: Vocabulary, max_len: int) -> _Shape:
    """The one definition of when a response ends: at the terminator or at max_len tokens.  A walk from row 0
    along child rows reaches len(prefixes), the zero row a table may be padded with (never -1, which wraps round),
    exactly at a complete response's last token.  An over-budget shape is refused before anything is built."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    _check_budget(vocab, max_len)
    prefixes, leaves, stack = [], [], [()]
    while stack:
        prefixes.append(stack.pop())
        for tok in range(vocab.size):
            path = prefixes[-1] + (tok,)
            (leaves if tok == vocab.terminator_id or len(path) == max_len else stack).append(path)
    leaves.sort()
    rows = {u: i for i, u in enumerate(prefixes)}
    child = tuple(rows.get(u + (tok,), len(prefixes)) for u in prefixes for tok in range(vocab.size))
    cols = [np.array(col) for col in zip(*[(j, rows[path[:k]], tok)
                                           for j, path in enumerate(leaves) for k, tok in enumerate(path)])]
    starts = np.flatnonzero(np.diff(cols[0], prepend=-1))
    path_rows = np.full((len(leaves), max_len), len(prefixes))
    path_rows[cols[0], np.arange(len(cols[0])) - starts[cols[0]]] = cols[1]
    return _Shape(tuple(leaves), prefixes, rows, child, *cols, cols[1] * vocab.size + cols[2], starts,
                  {path: j for j, path in enumerate(leaves)}, path_rows)


def response_space(vocab: Vocabulary, max_len: int) -> tuple[tuple[int, ...], ...]:
    """Every complete response (terminator-ended or max_len-truncated) over a vocabulary, sorted."""
    return _tree_shape(vocab, max_len).leaves


def enumerate_responses(policy: TablePolicy | PolicySnapshot, state: str) -> list[tuple[tuple[int, ...], float]]:
    """All complete responses at ``state`` with their probabilities.

    A path is complete when it ends with the terminator or reaches max_len.
    The returned probabilities sum to 1 exactly up to roundoff because the
    two stopping rules partition the outcome space.  They are PolicySnapshot.leaf_probs,
    bit for bit the same as every other exact route sees, paired with response_space.
    """
    snapshot = PolicySnapshot.of(policy)
    return list(zip(snapshot._shape.leaves, snapshot.leaf_probs(state)))


def exact_response_entropy(policy: TablePolicy | PolicySnapshot, state: str) -> float:
    """Exact Shannon entropy of the full response distribution at ``state``.

    Computed as sum_a pi(a) * (-log pi(a)) over the enumerated response space: -prob * log subtracted left
    to right from 0.0 over the leaves with prob > 0.  Raises EnumerationBudgetError when the response count
    exceeds the path budget.
    """
    snapshot, h = PolicySnapshot.of(policy), 0.0
    for prob, log in zip(snapshot.leaf_probs(state), snapshot.leaf_logs(state)):
        h -= prob * log if prob > 0.0 else 0.0  # h - 0.0 is h
    return h


def pathwise_entropy(policy: TablePolicy | PolicySnapshot, state: str) -> float:
    """Response entropy via the chain rule: E over responses of the summed
    per-position conditional entropies along the sampled path.

    Agrees with exact_response_entropy (the -sum p log p route) up to float
    roundoff; the two routes share only the leaf probabilities (_leaf_probs), not the formula.
    """
    snapshot = PolicySnapshot.of(policy)
    total = 0.0
    for prob, path_sum in zip(snapshot.leaf_probs(state), path_entropy_sums(snapshot, state)):
        if prob != 0.0:
            total += prob * path_sum
    return total


def entropy_routes(snapshot: PolicySnapshot, states: list[str]) -> tuple[list[float], list[float]]:
    """(exact_response_entropy, pathwise_entropy) at each state, bit for bit, in one stacked pass over
    tables(states): _leaf_probs, math.log per leaf, and each left-to-right sum of the one-state reads as
    _sum_rows.  A leaf of probability 0.0 adds 0.0 and a pad of path_rows the zero row's 0.0, which leave
    the sums as the reads' skips leave them: no sum here is ever -0.0.  The one-state reads keep their
    per-leaf loops: as this pass at one state, they made keychain-paired's checks_per_s 0.37x
    (BENCH_referee_batches2.json one_state_routes)."""
    shape, n = snapshot._shape, len(states)
    tables = np.stack(snapshot.tables(states))
    probs = _leaf_probs(tables.reshape(n, -1), shape)
    logs = np.array(_leaf_logs(probs.ravel().tolist())).reshape(probs.shape)
    exact = _sum_rows(-(probs * np.where(probs > 0.0, logs, 0.0)))  # h + -(p log p) is h - p log p
    h = np.zeros((n, len(shape.prefixes) + 1))
    h[:, :-1] = _log_and_entropy(tables.reshape(-1, tables.shape[-1]))[1].reshape(n, -1)
    return exact.tolist(), _sum_rows(probs * _sum_rows(h[:, shape.path_rows])).tolist()


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Each row of terms (along the last axis) added left to right from 0.0, as a Python loop adds them."""
    zero = np.zeros(terms.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((zero, terms), axis=-1), axis=-1)[..., -1]


def _log_and_entropy(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log p, H) of each row of a softmax table: np.log, -inf where p is 0.0, and the Shannon entropy,
    -(p * log p) summed along the row, where a p of 0.0 adds 0 (not 0 * -inf, which is NaN)."""
    if table.all():  # no p of 0.0: skip errstate and the mask (measured: BENCH_step_scatter.json fast_path_pairs)
        logp = np.log(table)
        return logp, -(table * logp).sum(axis=1)
    with np.errstate(divide="ignore"):
        logp = np.log(table)
    return logp, -(table * np.where(table > 0.0, logp, 0.0)).sum(axis=1)


def path_entropy_sums(snapshot: PolicySnapshot, state: str) -> list[float]:
    """sum_k H(tokens[:k]) for each complete response, added left to right, leaves in order: each prefix's H
    is one row of _log_and_entropy(table(state)), read through the (leaf, position) rows of _tree_shape."""
    h = iter(_log_and_entropy(snapshot.table(state))[1][snapshot._shape.row_row].tolist())
    sums = []
    for tokens in snapshot._shape.leaves:
        path_sum = 0.0
        for _ in tokens:
            path_sum += next(h)
        sums.append(path_sum)
    return sums


def mc_response_entropy(policy: TablePolicy | PolicySnapshot, state: str, n_samples: int,
                        rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the response entropy: mean surprisal of sampled responses."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    snapshot = PolicySnapshot.of(policy)
    acc = 0.0
    for _ in range(n_samples):
        acc += sample_response(snapshot, state, rng).surprisal
    return acc / n_samples


def random_policy(vocab_size: int, max_len: int, rng: np.random.Generator,
                  scale: float = 1.5, state: str = "s") -> TablePolicy:
    """Policy with normal(0, scale) logits on every reachable prefix of one state."""
    policy = TablePolicy(vocab=Vocabulary(size=vocab_size, terminator_id=vocab_size - 1), max_len=max_len)
    draw_logits(policy, state, rng, scale)
    return policy


def draw_logits(policy: TablePolicy, state: str, rng: np.random.Generator, scale: float = 1.5) -> None:
    """Write normal(0, scale) logits on every row of ``state``'s block: one rng.normal call, a row of draws per
    prefix in the block's walk order, so a seed always gives the same logits."""
    block, written = policy._block(state)
    block[:], written[:] = scale * rng.normal(size=block.shape), True


CHECKPOINT_VERSION = 1


def save_checkpoint(policy: TablePolicy, path: str) -> None:
    """Write the policy to a versioned JSON checkpoint with a stable entry order."""
    entries = [
        [state, list(prefix), [float(x) for x in vec]]
        for (state, prefix), vec in sorted(policy.logits.items())
    ]
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "vocab_size": policy.vocab.size,
        "terminator_id": policy.vocab.terminator_id,
        "max_len": policy.max_len,
        "entries": entries,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path: str) -> TablePolicy:
    """Load a policy checkpoint, refusing an unknown format version and the first malformed field or entry."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    for name, kind in (("vocab_size", int), ("terminator_id", int), ("max_len", int), ("entries", list)):
        if name not in doc:
            raise ValueError(f"checkpoint {path} has no {name!r} field")
        if type(doc[name]) is not kind:
            raise ValueError(f"checkpoint {path} field {name!r} must be a {kind.__name__}, got {doc[name]!r}")
    policy = TablePolicy(
        vocab=Vocabulary(size=doc["vocab_size"], terminator_id=doc["terminator_id"]),
        max_len=doc["max_len"],
    )
    size, term = policy.vocab.size, policy.vocab.terminator_id
    for i, entry in enumerate(doc["entries"]):
        state, prefix, vec = entry if isinstance(entry, list) and len(entry) == 3 else (None, None, None)
        if not (isinstance(state, str) and isinstance(prefix, list) and len(prefix) < policy.max_len
                and all(type(t) is int and 0 <= t < size and t != term for t in prefix) and isinstance(vec, list)
                and len(vec) == size and all(type(x) in (int, float) and math.isfinite(x) for x in vec)):
            raise ValueError(f"checkpoint {path} entry {i} {entry!r} is not [state, prefix of fewer than "
                             f"{policy.max_len} tokens in range({size}) but {term}, {size} finite logits]")
        policy.logit_vector(state, tuple(prefix))[:] = vec
    return policy
