"""The benchmark's tracing hooks and call sites still fit the library.

``perfbench/tracing.py`` wraps named methods in their class body and named
functions in every ``cubetest`` module that binds them, and
``perfbench/workloads.py`` calls the library with fixed signatures.  A
refactor that moves, renames or re-signs one of them breaks the benchmark
run; these tests catch that without running the benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(stem: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{stem}", PERFBENCH / f"{stem}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = _load("workloads").WORKLOADS


def _bindings() -> dict:
    """Every name bound in a ``cubetest`` module or in a class body of one."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "cubetest":
            continue
        for attr, val in vars(mod).items():
            out[mod, attr] = val
            if isinstance(val, type) and val.__module__ == name:
                for cattr, cval in vars(val).items():
                    out[val, cattr] = cval
    return out


def test_install_finds_every_hook_and_undo_restores_it():
    tracing = _load("tracing")
    hooks = [(owner, attr) for _, owner, attr in tracing.SPANS]
    hooks += [(owner, attr) for _, owner, attr in tracing.COUNTERS]
    for owner, attr in hooks:
        if isinstance(owner, type):
            assert attr in vars(owner), f"{owner.__name__}.{attr} is not in its class body"
        else:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr} is missing"
    before = _bindings()
    undo = tracing.install(tracing.Tracer())
    try:
        for owner, attr in hooks:
            now = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert now is not before[owner, attr], f"{attr} of {owner.__name__} was not wrapped"
    finally:
        undo()
    after = _bindings()
    changed = [key for key, val in before.items() if after.get(key) is not val]
    assert not changed


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_check(name):
    # op 0 of bench seed 1: every library call the op and its check make
    wl = WORKLOADS[name]
    op = wl.make_op(1, 0)
    assert wl.check(op, wl.run(op)) == []
