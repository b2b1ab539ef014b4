"""The benchmark's per-layer tracer still finds every entlab function it wraps.

perfbench/ is read, never changed: a renamed or deleted entlab function
would otherwise only zero its per-layer counts, with no error.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("layers", "tracer"):
        sys.modules.pop(name, None)


def test_every_traced_function_exists(perfbench_modules):
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.register(tracer)
    assert tracer.missing == []
    # Installing rebinds every reference to a wrapped function; none may be left unpatched.
    leftovers: list[str] = []
    with tracer.unit(leftovers):
        pass
    assert leftovers == []
