"""Every name a ``cubetest`` module lists in ``__all__`` exists.

A definition deleted without its ``__all__`` entry breaks
``from cubetest.<module> import *``; these tests catch the stale entry.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import cubetest


def _exporting_modules() -> list[str]:
    names = ["cubetest"] + [
        f"cubetest.{info.name}"
        for info in pkgutil.iter_modules(cubetest.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _exporting_modules())
def test_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
