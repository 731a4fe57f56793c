"""The benchmark's tracing hooks still fit the library.

``perfbench/tracing.py`` wraps named methods in their class body and named
functions in every ``cubetest`` module that binds them.  A refactor that
moves or renames one of them breaks the traced benchmark run; this test
catches that without running the benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
    tracing = _load_tracing()
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
