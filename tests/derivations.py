"""Records every softmax table a PolicySnapshot derives, for tests that count derivations.

Every derivation lands in the snapshot's "tables" memo: a batched pass with one update, a read of one
state with one item set.  Recording there counts each pass whichever read asked for it.
"""

from __future__ import annotations

from entlab.policy import PolicySnapshot


class _Recorded(dict):
    def __init__(self, snapshot: PolicySnapshot, passes: list) -> None:
        super().__init__()
        self.key, self.passes = (id(snapshot.policy), snapshot._writes), passes

    def __setitem__(self, state, table) -> None:
        self.passes.append([(*self.key, state)])
        super().__setitem__(state, table)

    def update(self, items) -> None:
        items = list(items)
        self.passes.append([(*self.key, state) for state, _ in items])
        super().update(items)


def record_softmax_passes(monkeypatch) -> list[list[tuple]]:
    """Every snapshot made from now on records its derivations: one list per pass, of (id(policy), policy
    version, state) per state it derives, in the returned list."""
    passes: list[list[tuple]] = []
    init = PolicySnapshot.__init__

    def recording(self, policy) -> None:
        init(self, policy)
        self._memos["tables"] = _Recorded(self, passes)

    monkeypatch.setattr(PolicySnapshot, "__init__", recording)
    return passes
