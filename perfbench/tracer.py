"""In-memory span tracer that wraps entlab's public functions from outside.

A span is (name, start, end, parent).  Spans live in four flat arrays so a
traced run of a few hundred thousand calls costs a few megabytes; they are
summarized with numpy and written out once, when the benchmark ends.

Wrappers are installed by rebinding every reference to an original function
in every loaded ``entlab`` module and in the classes those modules define.
Modules that import a function by name (``from .policy import
token_distribution``) hold their own binding, so patching only the defining
module would miss their calls; ``install`` returns whatever it could not
replace so the caller can fail the run.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _entlab_namespaces():
    """Yield (owner, namespace dict) for every entlab module and every class it defines."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "entlab" or mod_name.startswith("entlab.")):
            continue
        yield module, vars(module)
        for value in list(vars(module).values()):
            if isinstance(value, type) and getattr(value, "__module__", "").startswith("entlab"):
                yield value, vars(value)


class Tracer:
    """Wraps functions, records spans and per-unit counters.

    ``counts`` and ``distinct`` are reset by ``unit()``; ``version`` names
    the policy snapshot so that distinct-key counts measure recomputation
    under unchanged logits rather than across updates.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._targets: list[tuple[object, object]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.counts: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self._alive: dict[int, object] = {}
        self.version = 0
        self.unit_ranges: list[tuple[int, int]] = []
        self.unit_counts: list[dict[str, int]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def ident(self, obj) -> int:
        """id() of obj, kept alive until the unit ends so that the id is not reused."""
        self._alive.setdefault(id(obj), obj)
        return id(obj)

    def see(self, key: str, item) -> None:
        self.distinct.setdefault(key, set()).add(item)

    def add(self, owner, attr: str, name: str, on_call=None, on_return=None, name_of=None) -> None:
        """Register owner.attr for wrapping; absent attributes are noted, not fatal."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._targets.append((original, self._wrap(original, name, on_call, on_return, name_of)))

    def _wrap(self, fn, name, on_call, on_return, name_of):
        fixed_id = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(starts)
            names.append(name_id(name_of(args, kwargs)) if name_of is not None else fixed_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> list[str]:
        """Rebind every reference to a registered original; return references left unpatched."""
        swap = {id(orig): (orig, wrapper) for orig, wrapper in self._targets}
        for owner, namespace in _entlab_namespaces():
            for attr, value in list(namespace.items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patched.append((owner, attr, value))
        leftovers = []
        for owner, namespace in _entlab_namespaces():
            for attr, value in namespace.items():
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    leftovers.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}")
        return leftovers

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def unit(self, leftovers: list[str]):
        """Trace one unit of work: install, reset counters, record the span range, uninstall."""
        self.counts = {}
        self.distinct = {}
        first = len(self.start)
        leftovers.extend(self.install())
        try:
            yield
        finally:
            self.uninstall()
            self.unit_ranges.append((first, len(self.start)))
            counts = dict(self.counts)
            counts.update({f"{key}.distinct": len(items) for key, items in self.distinct.items()})
            self.unit_counts.append(counts)
            self._alive = {}

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self.start) if hi is None else hi
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
        }

    def save(self, path: str) -> None:
        """Write every span plus the name table and unit ranges as one .npz file."""
        np.savez(path, names=np.array(self.names), units=np.array(self.unit_ranges, dtype=np.int64).reshape(-1, 2),
                 **self.arrays())


class SpanStats:
    """Per-name calls, self time and inclusive time for the spans of one unit."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        arr = tracer.arrays(lo, hi)
        self._ids = tracer._ids
        self.name = arr["name"]
        self.parent = np.where(arr["parent"] >= 0, arr["parent"] - lo, -1)
        self.start = arr["start"]
        self.end = arr["end"]
        self.dur = self.end - self.start
        n_names = len(tracer.names)
        n = self.dur.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self_time = self.dur - child[:n]
        parent_name = np.full(n, -1)
        parent_name[has_parent] = self.name[self.parent[has_parent]]
        # Inclusive time counts a recursive call once, at its outermost span.
        outer = parent_name != self.name
        self.calls = np.bincount(self.name, minlength=n_names)
        self.self_s = np.bincount(self.name, weights=self_time, minlength=n_names)
        self.incl_s = np.bincount(self.name[outer], weights=self.dur[outer], minlength=n_names)
        self.parent_name = parent_name
        self.spans = n

    def _id(self, name: str) -> int:
        return self._ids.get(name, -1)

    def get(self, name: str, field: str) -> float:
        nid = self._id(name)
        if nid < 0:
            return 0
        return getattr(self, field)[nid].item()

    def child_time(self, names: tuple[str, ...], parent: str) -> float:
        """Inclusive time of spans named in ``names`` whose direct parent is ``parent``."""
        pid = self._id(parent)
        ids = [self._id(n) for n in names]
        mask = np.isin(self.name, ids) & (self.parent_name == pid) & (pid >= 0)
        return float(self.dur[mask].sum())

    def step_durations(self, train: str, first_call: str, calls_per_step: int) -> list[float]:
        """Per-step wall times: a step starts at every calls_per_step-th ``first_call`` child of ``train``."""
        tid, cid = self._id(train), self._id(first_call)
        out: list[float] = []
        if tid < 0 or cid < 0:
            return out
        for j in np.flatnonzero(self.name == tid):
            starts = np.sort(self.start[(self.name == cid) & (self.parent == j)])[::calls_per_step]
            if starts.size:
                bounds = np.append(starts, self.end[j])
                out.extend(np.diff(bounds).tolist())
        return out
