from __future__ import annotations

import math

import pytest
from hypothesis import strategies as st

from cubetest.core import BitString, RngStream
from cubetest.families import (
    FlippedDnfInstance,
    MonoInstance,
    OneLevelInstance,
    UnateInstance,
)

# (n, lo, hi) weight bands at the edge of what both band samplers refuse:
# empty ones, ones with a NaN edge (which hold no weight) and ones with an
# infinite edge (which hold some)
BANDS = [
    (16, 3.2, 3.8), (16, 17, 20), (16, -3, -0.5), (16, 5, 4), (4, 3, 2),
    (16, -math.inf, 8), (16, 8, math.inf), (16, math.nan, 8), (16, 8, math.nan),
]


def make_handbuilt_mono(world: str = "no") -> MonoInstance:
    """Small explicit two-level instance used by several hand-trace tests.

    n=16, two meaningful terms {0,1,2,3} and {4,5,6,7}; the clause row of
    term 0 is {8,9,10,11} at cell (0,0) and the single variable 12
    elsewhere; dictators all read coordinate 13.  The remaining terms
    require coordinate 13, so queries with x_13 = 0 never satisfy them.
    """
    n, N, m = 16, 4, 4
    terms = [
        [0, 1, 2, 3],
        [4, 5, 6, 7],
        [13, 13, 13, 13],
        [13, 13, 13, 13],
    ]
    clauses = []
    for i in range(N):
        row = []
        for j in range(N):
            if i == 0 and j == 0:
                row.append([8, 9, 10, 11])
            else:
                row.append([12, 12, 12, 12])
        clauses.append(row)
    dictators = [[13] * N for _ in range(N)]
    return MonoInstance.from_parts(n, world, terms, clauses, dictators)


@st.composite
def handbuilt_instance(draw):
    """A hand-built instance at n <= 12 of one of four families, with
    duplicate members and (single-level) empty terms allowed."""
    n = draw(st.integers(4, 12))
    world = draw(st.sampled_from(["yes", "no"]))
    var = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["mono", "flipdnf", "onelevel", "unate"]))
    N = draw(st.integers(1, 5))
    if kind == "mono":
        m = draw(st.integers(1, 4))
        vec = st.lists(var, min_size=m, max_size=m)
        row = st.lists(vec, min_size=N, max_size=N)
        return MonoInstance.from_parts(
            n, world,
            draw(row),
            draw(st.lists(row, min_size=N, max_size=N)),
            draw(st.lists(st.lists(var, min_size=N, max_size=N), min_size=N, max_size=N)),
        )
    if kind == "flipdnf":
        m = draw(st.integers(1, 4))
        terms = draw(st.lists(st.lists(var, min_size=m, max_size=m), min_size=N, max_size=N))
        flip = draw(st.lists(var, max_size=3)) if world == "no" else []
        return FlippedDnfInstance.from_parts(n, world, terms, flip)
    if kind == "onelevel":
        terms = draw(st.lists(st.lists(var, max_size=4), min_size=N, max_size=N))
        dicts = draw(st.lists(var, min_size=N, max_size=N))
        return OneLevelInstance.from_parts(n, world, terms, dicts)
    members = draw(st.lists(var, min_size=1, max_size=n - 1, unique=True))
    inside = st.sampled_from(sorted(members))
    outside = st.sampled_from(sorted(set(range(n)) - set(members)))
    terms = draw(st.lists(st.lists(inside, max_size=4), min_size=N, max_size=N))
    polarity = st.booleans() if world == "no" else st.just(False)
    dicts = draw(st.lists(st.tuples(outside, polarity), min_size=N, max_size=N))
    bits = st.integers(0, 1)
    r = draw(st.lists(bits, min_size=len(members), max_size=len(members)))
    s = draw(st.lists(bits, min_size=n - len(members), max_size=n - len(members)))
    return UnateInstance.from_parts(n, world, members, terms, dicts, r, s)


def random_middle(inst, rng: RngStream) -> BitString:
    while True:
        x = BitString.random(inst.n, rng)
        if inst.weight_class(x) == "middle":
            return x


@pytest.fixture
def rng() -> RngStream:
    return RngStream(20260809, "tests")
