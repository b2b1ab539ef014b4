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
# allowed to touch.  |V|^max_len beyond this means the caller asked for an
# exact quantity on a policy that is not desk-scale any more.
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

    @property
    def content_ids(self) -> list[int]:
        return [t for t in range(self.size) if t != self.terminator_id]


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
    def length(self) -> int:
        return len(self.tokens)

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


def _entropy(p: np.ndarray) -> float:
    return float(-(p * np.log(p)).sum())


#: Generator.choice's tolerance on |sum(p) - 1|, which a snapshot checks once per entry.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


class PolicySnapshot:
    """Read-only view of a policy, valid until its next logit_vector write.

    entry(state, prefix) is (p, cdf, logp, H), built on first read from
    token_distribution: cdf is cumsum(p) / cumsum(p)[-1] as a list, the array
    Generator.choice searches, logp is np.log(p) as a list and H is _entropy(p).
    Each entry is checked as choice checks p (non-negative, finite, summing to
    1 within its tolerance) once, when it is built.  Reading a snapshot after
    a write to its policy raises.
    """

    def __init__(self, policy: TablePolicy) -> None:
        self.policy = policy
        self._writes = policy.writes
        self._entries: dict[tuple[str, tuple[int, ...]], tuple[np.ndarray, list[float], list[float], float]] = {}

    @classmethod
    def of(cls, policy: TablePolicy | PolicySnapshot) -> PolicySnapshot:
        """The snapshot itself, or a new snapshot of a TablePolicy."""
        return policy if isinstance(policy, PolicySnapshot) else cls(policy)

    def entry(self, state: str, prefix: tuple[int, ...]) -> tuple[np.ndarray, list[float], list[float], float]:
        if self.policy.writes != self._writes:
            raise RuntimeError("policy snapshot read after a logit_vector write to its policy")
        found = self._entries.get((state, prefix))
        if found is None:
            p = token_distribution(self.policy, state, prefix)
            if not ((p >= 0.0).all() and abs(math.fsum(p) - 1.0) <= _SUM_ATOL):
                raise ValueError(f"next-token probabilities at {(state, prefix)!r} are not a distribution: {p}")
            cdf = p.cumsum()
            cdf /= cdf[-1]
            found = self._entries[(state, prefix)] = (p, cdf.tolist(), np.log(p).tolist(), _entropy(p))
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
    """Refuse an exact enumeration of more than ENUMERATION_BUDGET (|V|^max_len) paths."""
    if vocab.size**max_len > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"|V|^max_len = {vocab.size}^{max_len} exceeds the "
            f"enumeration budget of {ENUMERATION_BUDGET} paths"
        )


@lru_cache(maxsize=16)
def _tree_shape(vocab: Vocabulary, max_len: int) -> tuple:
    """The one definition of when a response ends: each internal (prefix, children) in
    depth-first walk order, and the sorted complete responses (terminator or max_len)."""
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
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
    return tuple(internal), tuple(sorted(leaves))


def response_space(vocab: Vocabulary, max_len: int) -> tuple[tuple[int, ...], ...]:
    """Every complete response (terminator-ended or max_len-truncated) over a vocabulary, sorted."""
    return _tree_shape(vocab, max_len)[1]


@lru_cache(maxsize=16)
def _tree_rows(vocab: Vocabulary, max_len: int) -> tuple:
    """(prefixes, row_path, row_prefix, row_tok) of a tree shape: one row per (path, position),
    paths sorted; row_prefix indexes the internal prefixes, listed in order of first appearance."""
    prefixes: dict[tuple[int, ...], int] = {}
    rows = [(j, prefixes.setdefault(path[:k], len(prefixes)), tok)
            for j, path in enumerate(response_space(vocab, max_len)) for k, tok in enumerate(path)]
    return (list(prefixes), *(np.array(col) for col in zip(*rows)))


def _response_tree(policy: TablePolicy, state: str, with_entropy: bool = False):
    """Walk the response tree at ``state`` once; every exact route reads this walk.

    Returns each internal prefix's softmax, the complete responses sorted by
    tokens with probabilities multiplied root to leaf in walk order, and each
    internal prefix's entropy if ``with_entropy`` (else None).
    """
    _check_budget(policy.vocab, policy.max_len)
    internal, leaves = _tree_shape(policy.vocab, policy.max_len)
    dists: dict[tuple[int, ...], np.ndarray] = {}
    probs: dict[tuple[int, ...], float] = {(): 1.0}
    for prefix, children in internal:
        p = dists[prefix] = token_distribution(policy, state, prefix)
        prob = probs[prefix]
        for path, p_tok in zip(children, p.tolist()):
            probs[path] = prob * p_tok
    out = [(path, probs[path]) for path in leaves]
    entropies = {u: _entropy(p) for u, p in dists.items()} if with_entropy else None
    return dists, out, entropies


def enumerate_responses(policy: TablePolicy, state: str) -> list[tuple[tuple[int, ...], float]]:
    """All complete responses at ``state`` with their probabilities.

    A path is complete when it ends with the terminator or reaches max_len.
    The returned probabilities sum to 1 exactly up to roundoff because the
    two stopping rules partition the outcome space.  The probabilities are
    _response_tree's, bit for bit the same as every other exact route sees.
    """
    return _response_tree(policy, state)[1]


def exact_response_entropy(policy: TablePolicy, state: str) -> float:
    """Exact Shannon entropy of the full response distribution at ``state``.

    Computed as sum_a pi(a) * (-log pi(a)) over the enumerated response space.
    Raises EnumerationBudgetError when |V|^max_len exceeds the path budget.
    """
    total = 0.0
    for _, prob in enumerate_responses(policy, state):
        if prob > 0.0:
            total -= prob * math.log(prob)
    return total


def pathwise_entropy(policy: TablePolicy, state: str) -> float:
    """Response entropy via the chain rule: E over responses of the summed
    per-position conditional entropies along the sampled path.

    Agrees with exact_response_entropy (the -sum p log p route) up to float
    roundoff; the two routes share only the tree enumeration, not the formula.
    """
    _, paths, entropies = _response_tree(policy, state, with_entropy=True)
    total = 0.0
    for tokens, prob in paths:
        if prob == 0.0:
            continue
        path_sum = 0.0
        for k in range(len(tokens)):
            path_sum += entropies[tokens[:k]]
        total += prob * path_sum
    return total


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
    for prefix in _response_tree(policy, state)[0]:
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
    """Load a policy checkpoint, refusing unknown format versions."""
    with open(path) as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    policy = TablePolicy(
        vocab=Vocabulary(size=doc["vocab_size"], terminator_id=doc["terminator_id"]),
        max_len=doc["max_len"],
    )
    for state, prefix, vec in doc["entries"]:
        policy.logits[(state, tuple(prefix))] = np.asarray(vec, dtype=float)
    return policy
