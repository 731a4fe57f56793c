"""Definitional value twins of the five families.

Each twin evaluates one query from the family's definition alone: the
truncation band, the ``Term`` / ``Clause`` / ``Dictator`` views, the flip
set, the orientation and the four quadrants.  A twin shares no scan with
the library, so checking it against ``value`` and ``truth_table`` checks
the fast paths.  Seeded two-level instances derive their rows on first
use; hand-built ones hold every row pinned; both are covered.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cubetest.core import BitString
from cubetest.families import (
    FlippedDnfInstance,
    MonoInstance,
    OneLevelInstance,
    QuadrantInstance,
    UnateInstance,
    sample_instance,
)

from conftest import handbuilt_instance


def _band(weight: int, centre: float, n: int) -> str:
    """``low`` / ``middle`` / ``high`` for the band ``centre ± sqrt(n)``."""
    if weight < centre - math.sqrt(n):
        return "low"
    if weight > centre + math.sqrt(n):
        return "high"
    return "middle"


def _satisfied(inst, x: BitString) -> list[int]:
    return [i for i in range(inst.N) if inst.term(i).satisfied_by(x)]


def mono_twin(inst: MonoInstance, x: BitString) -> int:
    """Band on ``|x|`` around ``n/2``; no satisfied term gives 0, two give
    1; under the unique term ``i``, no falsified clause gives 1, two give 0,
    and the unique falsified clause ``j`` reads dictator ``(i, j)``."""
    band = _band(sum(x[k] for k in range(x.n)), inst.n / 2, inst.n)
    if band != "middle":
        return int(band == "high")
    sat = _satisfied(inst, x)
    if len(sat) != 1:
        return int(len(sat) > 1)
    (i,) = sat
    fals = [j for j in range(inst.N) if inst.clause(i, j).falsified_by(x)]
    if len(fals) != 1:
        return int(not fals)
    return inst.dictator(i, fals[0]).value_at(x)


def flipdnf_twin(inst: FlippedDnfInstance, x: BitString) -> int:
    """Band on ``|x|`` around ``n/2``; in the band, the DNF at ``x`` with
    every coordinate of the flip set flipped."""
    band = _band(sum(x[k] for k in range(x.n)), inst.n / 2, inst.n)
    if band != "middle":
        return int(band == "high")
    flipped = [1 - x[k] if k in inst.flip_coords else x[k] for k in range(x.n)]
    y = BitString.from_indices(x.n, [k for k, b in enumerate(flipped) if b])
    return int(bool(_satisfied(inst, y)))


def onelevel_twin(inst: OneLevelInstance, x: BitString) -> int:
    """Band on ``|x|`` around ``n/2``; no satisfied term gives 0, two give
    1, the unique term ``i`` reads its dictator."""
    band = _band(sum(x[k] for k in range(x.n)), inst.n / 2, inst.n)
    if band != "middle":
        return int(band == "high")
    sat = _satisfied(inst, x)
    if len(sat) != 1:
        return int(len(sat) > 1)
    return inst.dictator(sat[0]).value_at(x)


def unate_twin(inst: UnateInstance, x: BitString) -> int:
    """XOR the orientation into ``x``; band on the weight inside ``M``
    around ``n/4``; then the one-level multiplexer on the result."""
    y = BitString.from_indices(
        x.n, [k for k in range(x.n) if x[k] != inst.orientation[k]]
    )
    band = _band(sum(y[k] for k in inst.M), inst.n / 4, inst.n)
    if band != "middle":
        return int(band == "high")
    sat = _satisfied(inst, y)
    if len(sat) != 1:
        return int(len(sat) > 1)
    return inst.dictator(sat[0]).value_at(y)


def quadrant_twin(inst: QuadrantInstance, z: BitString) -> int:
    """``z = (a, b, x)``: quadrant (0,0) is 0, (1,1) is 1, (1,0) is the
    dictator ``x_i`` and (0,1) its negation."""
    xi = z[2 + inst.i]
    return {(0, 0): 0, (1, 1): 1, (1, 0): xi, (0, 1): 1 - xi}[z[0], z[1]]


TWINS = {
    MonoInstance: mono_twin,
    FlippedDnfInstance: flipdnf_twin,
    OneLevelInstance: onelevel_twin,
    UnateInstance: unate_twin,
    QuadrantInstance: quadrant_twin,
}


def _check(inst, picks: list[int]) -> None:
    """Twin, ``value`` and ``truth_table`` agree on every point of a cube of
    at most 2**12 points, else on ``picks``.  ``value`` runs first, so a
    seeded two-level instance derives its rows in query order."""
    dim = getattr(inst, "dimension", inst.n)
    twin = TWINS[type(inst)]
    points = range(1 << dim) if dim <= 12 else [p % (1 << dim) for p in picks]
    values = [inst.value(BitString(dim, p)) for p in points]
    assert values == [twin(inst, BitString(dim, p)) for p in points]
    table = inst.truth_table()
    assert values == [int(table[p]) for p in points]


# (family, n): every sampled size up to n = 16
_SEEDED = [
    ("mono", 9), ("mono", 16), ("flipdnf", 9), ("flipdnf", 16),
    ("onelevel", 9), ("onelevel", 16), ("unate", 16),
    ("quadrant", 8), ("quadrant", 14),
]


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_SEEDED),
    world=st.sampled_from(["yes", "no"]),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=40),
)
def test_seeded_instances_match_their_twins(case, world, seed, picks):
    family, n = case
    _check(sample_instance(family, n, world, seed), picks)


def test_nonsquare_two_level_matches_its_twin():
    for world in ("yes", "no"):
        inst = MonoInstance.sample(14, world, seed=3, term_len=4)
        _check(inst, list(range(0, 1 << 14, 37)))


_QUADRANTS = st.integers(1, 10).flatmap(
    lambda n: st.builds(QuadrantInstance, st.just(n), st.integers(0, n - 1))
)


@settings(max_examples=80, deadline=None)
@given(inst=st.one_of(handbuilt_instance(), _QUADRANTS))
def test_handbuilt_instances_match_their_twins(inst):
    _check(inst, [])
