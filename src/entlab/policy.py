"""Tabular autoregressive token policy over small vocabularies.

A policy owns one logit vector per (state, prefix) pair and emits
variable-length token responses that end with a terminator token or get
truncated at ``max_len``.  Everything is small enough to enumerate, which is
what makes exact response-level entropies and exact gradient checks possible
downstream.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


# Hard ceiling on the number of complete responses an exact enumeration is
# allowed to touch.  More than this means the caller asked for an exact
# quantity on a policy that is not desk-scale any more.
ENUMERATION_BUDGET = 10**6


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


@dataclass
class TablePolicy:
    """Logit table keyed by (state, prefix).

    States are opaque hashable keys (strings in practice); prefixes are the
    exact token tuples emitted so far within the current response.  Missing
    entries read as zero logits, i.e. a uniform conditional distribution;
    reads never store them, only the write path logit_vector does.  ``writes``
    counts logit_vector calls, so that a PolicySnapshot can tell it is stale.
    """

    vocab: Vocabulary
    max_len: int
    logits: dict[tuple[str, tuple[int, ...]], np.ndarray] = field(default_factory=dict)
    writes: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")

    def _key(self, state: str, prefix: tuple[int, ...]) -> tuple[str, tuple[int, ...]]:
        """Table key of (state, prefix); a prefix of max_len tokens has no successor to score."""
        if len(prefix) >= self.max_len:
            raise ValueError(f"prefix of length {len(prefix)} has no successor under max_len={self.max_len}")
        return state, tuple(prefix)

    def logit_vector(self, state: str, prefix: tuple[int, ...]) -> np.ndarray:
        """Return the live logit array for (state, prefix), storing zeros on first touch (the write path)."""
        key = self._key(state, prefix)
        self.writes += 1
        if key not in self.logits:
            self.logits[key] = np.zeros(self.vocab.size)
        return self.logits[key]

    def copy(self) -> TablePolicy:
        return TablePolicy(
            vocab=self.vocab,
            max_len=self.max_len,
            logits={k: v.copy() for k, v in self.logits.items()},
        )


def token_distribution(policy: TablePolicy, state: str, prefix: tuple[int, ...]) -> np.ndarray:
    """Conditional next-token distribution softmax(logits) at (state, prefix).

    Returns a probability vector of length |V| with all entries positive and
    summing to 1 up to float roundoff.  Reading leaves the policy unchanged.
    """
    z = policy.logits.get(policy._key(state, prefix))
    if z is None:  # zero logits: their softmax is exactly 1/|V| per token
        return np.full(policy.vocab.size, 1.0 / policy.vocab.size)
    z = z - z.max()
    p = np.exp(z)
    return p / p.sum()


class PolicySnapshot:
    """Read-only view of one policy version, the one reader of its softmaxes; valid until its next write.

    table(state) is one softmax per internal prefix of _tree_shape, rows in walk order, taken on the
    state's first read in one pass (stacked logits, zeros where there are none, less each row's max,
    exponentiated, over each row's sum: token_distribution bit for bit) and refused unless every row is a
    distribution, as Generator.choice refuses p.  entry(state, prefix) is the sampler's (p, cdf, logp, H),
    derived for every prefix of a state from its table on its first miss: cdf is cumsum(p) / cumsum(p)[-1]
    as a list (what choice searches), logp is np.log(p) as a list and H is p's row of _row_entropies.
    tree(state) is (dists, leaves): the table's rows, and the sorted complete responses with probabilities
    multiplied root to leaf.  Every exact route reads it.  Reading after a write raises.
    """

    def __init__(self, policy: TablePolicy) -> None:
        self.policy = policy
        self._writes = policy.writes
        self._shape = _tree_shape(policy.vocab, policy.max_len)
        self._tables: dict[str, np.ndarray] = {}
        self._entries: dict[tuple[str, tuple[int, ...]], tuple[np.ndarray, list[float], list[float], float]] = {}
        self._trees: dict[str, tuple[dict[tuple[int, ...], np.ndarray], list[tuple[tuple[int, ...], float]]]] = {}
        self._leaf_logs: dict[str, tuple[list[float], float]] = {}

    @classmethod
    def of(cls, policy: TablePolicy | PolicySnapshot) -> PolicySnapshot:
        """The snapshot itself, or a new snapshot of a TablePolicy."""
        return policy if isinstance(policy, PolicySnapshot) else cls(policy)

    def entry(self, state: str, prefix: tuple[int, ...]) -> tuple[np.ndarray, list[float], list[float], float]:
        found = self._entries.get((state, prefix)) if self.policy.writes == self._writes else None  # table() raises
        if found is None:
            table = self.table(state)
            cdf = table.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            logp = np.log(table)
            rows = zip(table, cdf.tolist(), logp.tolist(), _row_entropies(table, logp).tolist())
            self._entries.update(zip([(state, u) for u in self._shape[2]], rows))
            found = self._entries[(state, prefix)]
        return found

    def table(self, state: str) -> np.ndarray:
        """The softmaxes at ``state`` as one array, memoized; callers must not mutate it."""
        if self.policy.writes != self._writes:
            raise RuntimeError("policy snapshot read after a logit_vector write to its policy")
        found = self._tables.get(state)
        if found is None:
            prefixes, zero = self._shape[2], np.zeros(self.policy.vocab.size)
            z = np.array([self.policy.logits.get((state, u), zero) for u in prefixes], dtype=float)
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            sums = z.sum(axis=1)
            z /= sums[:, None]
            if not np.isfinite(sums).all():  # an exp row lies in [0, 1] and holds a 1, so only NaN fails
                i = int(np.argmin(np.isfinite(sums)))
                raise ValueError(f"next-token probabilities at {(state, prefixes[i])!r} are not a distribution: {z[i]}")
            found = self._tables[state] = z
        return found

    def tree(self, state: str) -> tuple[dict[tuple[int, ...], np.ndarray], list[tuple[tuple[int, ...], float]]]:
        """(dists, leaves) at ``state`` from table(state), memoized; callers must not mutate them."""
        found = self._trees.get(state) if self.policy.writes == self._writes else None  # table() raises
        if found is None:
            table, (_, leaves, prefixes, *_, edges, starts) = self.table(state), self._shape
            probs = np.multiply.reduceat(table.ravel()[edges], starts)  # multiplied root to leaf
            found = self._trees[state] = (dict(zip(prefixes, table)), list(zip(leaves, probs.tolist())))
        return found

    def leaf_logs(self, state: str) -> tuple[list[float], float]:
        """(logs, H) at ``state``, memoized: math.log of each leaf probability of tree(state), -inf where it
        is 0.0, and the response entropy H, -prob * log added left to right over the leaves with prob > 0."""
        found = self._leaf_logs.get(state) if self.policy.writes == self._writes else None  # tree() raises
        if found is None:
            logs, h = [], 0.0
            for _, prob in self.tree(state)[1]:
                logs.append(math.log(prob) if prob > 0.0 else -math.inf)
                h -= prob * logs[-1] if prob > 0.0 else 0.0  # h - 0.0 is h
            found = self._leaf_logs[state] = (logs, h)
        return found


def sample_response(policy: TablePolicy | PolicySnapshot, state: str, rng: np.random.Generator) -> Response:
    """Sample one response token by token, recording logprob and conditional entropy per token.

    Sampling stops after the terminator token or once the response reaches
    max_len tokens, whichever comes first.  Each token is one rng.random()
    draw searched right-sided in the snapshot's cdf: the draw and the search of
    rng.choice(|V|, p=p), so a seed gives the same tokens and generator state.
    A TablePolicy is read through a new snapshot.
    """
    snapshot = PolicySnapshot.of(policy)
    max_len = snapshot.policy.max_len
    terminator = snapshot.policy.vocab.terminator_id
    tokens: list[int] = []
    logprobs: list[float] = []
    entropies: list[float] = []
    prefix: tuple[int, ...] = ()
    while len(tokens) < max_len:
        _, cdf, logp, h = snapshot.entry(state, prefix)
        tok = bisect_right(cdf, rng.random())
        tokens.append(tok)
        logprobs.append(logp[tok])
        entropies.append(h)
        if tok == terminator:
            break
        prefix += (tok,)
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


@lru_cache(maxsize=16)
def _tree_shape(vocab: Vocabulary, max_len: int) -> tuple:
    """The one definition of when a response ends, indexed for a snapshot's table: (internal, leaves,
    prefixes, ranked, row_path, row_rank, row_row, row_tok, edges, starts).  internal is each internal
    (prefix, children) in depth-first walk order, prefixes lists them (the table's rows), leaves the sorted
    complete responses (terminator or max_len).  Then one row per (leaf, position), leaves in order: ranked
    lists the prefixes in order of first appearance, edges = row_row * |V| + row_tok indexes the flat table,
    starts each leaf's first row.  Every enumeration starts here, so an over-budget shape is refused first."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    _check_budget(vocab, max_len)
    internal: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]] = []
    leaves: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        children = tuple(prefix + (tok,) for tok in range(vocab.size))
        internal.append((prefix, children))
        for path in children:
            if path[-1] == vocab.terminator_id or len(path) == max_len:
                leaves.append(path)
            else:
                stack.append(path)
    leaves.sort()
    row, ranks = {u: i for i, (u, _) in enumerate(internal)}, {}
    cols = [np.array(col) for col in zip(*[(j, ranks.setdefault(path[:k], len(ranks)), row[path[:k]], tok)
                                           for j, path in enumerate(leaves) for k, tok in enumerate(path)])]
    return (tuple(internal), tuple(leaves), list(row), list(ranks), *cols, cols[2] * vocab.size + cols[3],
            np.flatnonzero(np.diff(cols[0], prepend=-1)))


def response_space(vocab: Vocabulary, max_len: int) -> tuple[tuple[int, ...], ...]:
    """Every complete response (terminator-ended or max_len-truncated) over a vocabulary, sorted."""
    return _tree_shape(vocab, max_len)[1]


def enumerate_responses(policy: TablePolicy | PolicySnapshot, state: str) -> list[tuple[tuple[int, ...], float]]:
    """All complete responses at ``state`` with their probabilities.

    A path is complete when it ends with the terminator or reaches max_len.
    The returned probabilities sum to 1 exactly up to roundoff because the
    two stopping rules partition the outcome space.  They are the leaves of
    PolicySnapshot.tree, bit for bit the same as every other exact route sees.
    """
    return PolicySnapshot.of(policy).tree(state)[1]


def exact_response_entropy(policy: TablePolicy | PolicySnapshot, state: str) -> float:
    """Exact Shannon entropy of the full response distribution at ``state``.

    Computed as sum_a pi(a) * (-log pi(a)) over the enumerated response space (PolicySnapshot.leaf_logs).
    Raises EnumerationBudgetError when the response count exceeds the path budget.
    """
    return PolicySnapshot.of(policy).leaf_logs(state)[1]


def pathwise_entropy(policy: TablePolicy | PolicySnapshot, state: str) -> float:
    """Response entropy via the chain rule: E over responses of the summed
    per-position conditional entropies along the sampled path.

    Agrees with exact_response_entropy (the -sum p log p route) up to float
    roundoff; the two routes share only the tree enumeration, not the formula.
    """
    snapshot = PolicySnapshot.of(policy)
    total = 0.0
    for (_, prob), path_sum in zip(snapshot.tree(state)[1], path_entropy_sums(snapshot, state)):
        if prob != 0.0:
            total += prob * path_sum
    return total


def _row_entropies(table: np.ndarray, logp: np.ndarray) -> np.ndarray:
    """The Shannon entropy H of each row of a softmax table, given its log: -(p * log p) summed along the row."""
    return -(table * logp).sum(axis=1)


def path_entropy_sums(snapshot: PolicySnapshot, state: str) -> list[float]:
    """sum_k H(tokens[:k]) for each path of tree(state), added left to right, in path order: each prefix's H
    is one row of _row_entropies(table(state)), read through the (leaf, position) rows of _tree_shape."""
    table, (_, leaves, *_, row_row) = snapshot.table(state), snapshot._shape[:7]
    h = iter(_row_entropies(table, np.log(table))[row_row].tolist())
    sums = []
    for tokens in leaves:
        path_sum = 0.0
        for _ in tokens:
            path_sum += next(h)
        sums.append(path_sum)
    return sums


def mc_response_entropy(policy: TablePolicy, state: str, n_samples: int, rng: np.random.Generator) -> float:
    """Monte-Carlo estimate of the response entropy: mean surprisal of sampled responses."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    snapshot = PolicySnapshot(policy)
    acc = 0.0
    for _ in range(n_samples):
        acc += sample_response(snapshot, state, rng).surprisal
    return acc / n_samples


def random_policy(vocab_size: int, max_len: int, rng: np.random.Generator,
                  scale: float = 1.5, state: str = "s") -> TablePolicy:
    """Policy with normal(0, scale) logits on every reachable prefix of one state."""
    policy = TablePolicy(vocab=Vocabulary(size=vocab_size, terminator_id=vocab_size - 1), max_len=max_len)
    # Draws follow the walk's fixed prefix order, so a seed always gives the same policy.
    for prefix, _ in _tree_shape(policy.vocab, max_len)[0]:
        policy.logits[(state, prefix)] = scale * rng.normal(size=vocab_size)
    return policy


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
    size = policy.vocab.size
    for i, entry in enumerate(doc["entries"]):
        state, prefix, vec = entry if isinstance(entry, list) and len(entry) == 3 else (None, None, None)
        if not (isinstance(state, str) and isinstance(prefix, list) and len(prefix) < policy.max_len
                and all(type(t) is int and 0 <= t < size for t in prefix) and isinstance(vec, list)
                and len(vec) == size and all(type(x) in (int, float) and math.isfinite(x) for x in vec)):
            raise ValueError(f"checkpoint {path} entry {i} {entry!r} is not [state, prefix of fewer than "
                             f"{policy.max_len} tokens in range({size}), {size} finite logits]")
        policy.logits[(state, tuple(prefix))] = np.asarray(vec, dtype=float)
    return policy
