"""Definitional value twins of the five families.

Each twin evaluates one query from the family's definition alone: the
truncation band, the ``Term`` / ``Clause`` / ``Dictator`` views, the flip
set, the orientation and the four quadrants.  A twin shares no scan with
the library, so checking it against ``value`` and ``truth_table`` checks
the fast paths.  Seeded two-level instances derive their rows on first
use; hand-built ones hold every row pinned; both are covered.  The
per-query kernel and the block term level each have their own twin, a
plain loop over the rows, checked at the hex-digit, byte and 64-bit
boundaries.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from cubetest.core import BitString, RngStream
from cubetest.families import (
    Clause,
    FlippedDnfInstance,
    MonoInstance,
    OneLevelInstance,
    QuadrantInstance,
    Term,
    UnateInstance,
    _block_rows,
    _columns,
    _cube_columns,
    BYTE_TABLE_BOUND,
    _hits,
    _pack,
    _pack_members,
    _sole,
    _table_bytes,
    _term_masks,
    _term_width,
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


# ---------------------------------------------------------------------------
# The per-query kernel at hex-digit and word boundaries
# ---------------------------------------------------------------------------

_WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 128, 129]


def _first_two_rows(rows: list[list[int]], hit) -> list[int]:
    return [t for t, row in enumerate(rows) if hit(row)][:2]


@st.composite
def _rows_and_point(draw):
    """Rows of variable indices, some empty, biased to the variables next
    to a hex-digit, byte or word boundary, and a point of density about one
    half or three quarters."""
    n = draw(st.sampled_from(_WIDTHS))
    edge = sorted({v for v in (0, 3, 4, 7, 8, 15, 16, 62, 63, 64, 65, 127, 128, n - 1) if v < n})
    var = st.one_of(st.sampled_from(edge), st.integers(0, n - 1))
    rows = draw(st.lists(st.lists(var, max_size=5), min_size=1, max_size=12))
    full = (1 << n) - 1
    bits = draw(st.integers(0, full))
    if draw(st.booleans()):
        bits |= draw(st.integers(0, full))
    return n, rows, bits


@settings(max_examples=300, deadline=None)
@given(case=_rows_and_point())
def test_hits_matches_the_plain_loop(case):
    n, rows, bits = case
    x = BitString(n, bits)
    satisfied = _first_two_rows(rows, lambda row: all(x[v] for v in row))
    falsified = _first_two_rows(rows, lambda row: not any(x[v] for v in row))
    assert satisfied == _first_two_rows(rows, lambda row: Term(n, tuple(row)).satisfied_by(x))
    assert falsified == _first_two_rows(rows, lambda row: Clause(n, tuple(row)).falsified_by(x))
    for width in (4, 8):  # hex and byte-wide tables
        tables = _pack(_term_masks(n, rows), width)
        assert len(tables.chunks) == -(-n // width)
        assert _hits(bits, tables) == satisfied
        assert _hits(bits ^ ((1 << n) - 1), tables) == falsified


@settings(max_examples=150, deadline=None)
@given(case=_rows_and_point())
def test_term_and_clause_masks_match_their_definitions(case):
    # the mask tests of the views against the definitions, on rows with
    # duplicates and empty rows (an empty term holds at every point, an
    # empty clause is falsified by every point)
    n, rows, bits = case
    x = BitString(n, bits)
    for row in rows + [[], [n - 1] * 3]:
        assert Term(n, tuple(row)).satisfied_by(x) == all(x[v] for v in row)
        assert Clause(n, tuple(row)).falsified_by(x) == (not any(x[v] for v in row))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_WIDTHS).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, n - 1), min_size=3, max_size=3), min_size=1, max_size=8),
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))))
def test_index_rows_pack_like_boolean_rows(case):
    # duplicates allowed, as in the sampled term and clause rows
    n, rows, points = case
    for width in (4, 8):
        got = _pack_members(n, np.asarray(rows, dtype=np.int32), width)
        want = _pack(_term_masks(n, rows), width)
        for bits in points:
            assert _hits(bits, got) == _hits(bits, want)


def test_term_tables_are_byte_wide_while_they_fit():
    # the size formula decides; no n=256 instance (67 MB of byte tables)
    # is built
    assert _table_bytes(100, 1024, 8) == 13 * 256 * 128 <= BYTE_TABLE_BOUND
    assert _table_bytes(256, 2**16, 8) == 32 * 256 * 8192 > BYTE_TABLE_BOUND
    assert _term_width(100, 1024) == 8 and _term_width(256, 2**16) == 4
    assert _table_bytes(256, 2**16, 4) == 64 * 16 * 8192  # the hex set, an eighth of it
    inst = MonoInstance.sample(100, "no", 3)
    assert len(inst._term_tables.chunks) == 13  # a byte per table
    inst.value(BitString(100, 0))
    inst.falsified_clauses(0, BitString(100, 0))
    assert len(inst._rows["clause_tables", 0].chunks) == 25  # clause tables stay hex
    # so do the term tables of the families whose attacks ask few queries
    assert len(sample_instance("flipdnf", 100, "no", 3, term_len=10)._term_tables.chunks) == 25
    assert len(sample_instance("unate", 100, "no", 3)._term_tables.chunks) == 25


@pytest.mark.parametrize("family", ["mono", "flipdnf", "unate"])
def test_term_and_clause_views_hold_python_ints(family):
    # the views are read back as Python ints (masks, JSON, set algebra);
    # each must equal its row, element by element
    inst = sample_instance(family, 16, "no", 5)
    for i in range(inst.N):
        if family == "unate":
            row = [v for v in range(16) if inst._masks[i, v]]
        else:
            row = list(inst._terms[i])
        views = [(inst.term(i), row)]
        if family == "mono":
            views += [(inst.clause(i, j), list(inst.clause_block(i)[j])) for j in range(inst.N)]
        for view, want in views:
            assert all(type(v) is int for v in view.vars)
            assert view.vars == tuple(want)


def _route_value(inst: MonoInstance, x: BitString) -> int:
    """The value read from the band class and the ``Route`` of ``x``."""
    band = inst.weight_class(x)
    if band != "middle":
        return int(band == "high")
    r = inst.route(x)
    if r.kind != "cell":
        return int(r.kind == "one")
    return inst.dictator(r.i, r.j).value_at(x)


# n=10 with 8-term rows has a band [1.84, 8.16] with fractional edges
@pytest.mark.parametrize("n, term_len", [(10, 3), (16, None), (100, None)])
@pytest.mark.parametrize("world", ["yes", "no"])
def test_lean_value_matches_the_route_reading_at_the_band_edges(n, term_len, world):
    inst = MonoInstance.sample(n, world, 11, term_len=term_len)
    lo, hi = math.ceil(inst.band_low), math.floor(inst.band_high)
    rng = RngStream(11, "band-edges")
    kinds = set()
    for w in (lo - 1, lo, (lo + hi) // 2, hi, hi + 1):
        for _ in range(150):
            x = BitString.from_indices(n, rng.sample_without_replacement(range(n), w))
            assert inst.value(x) == _route_value(inst, x), (w, x)
            kinds.add(inst.weight_class(x) if inst.weight_class(x) != "middle" else inst.route(x).kind)
    assert kinds == {"low", "high", "zero", "one", "cell"}


# ---------------------------------------------------------------------------
# The block term level at byte and word boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_cube_columns_are_the_columns_of_the_cube(n):
    rows = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    assert _cube_columns(n) == _columns(rows)


# the estimator's block is 4000 x 16; _pack hands over F-ordered rows, whose
# transpose is contiguous already
@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (9, 8), (65, 16), (4000, 16)])
def test_columns_read_c_and_f_ordered_rows_alike(shape):
    rows = np.random.default_rng(shape[0]).integers(0, 2, size=shape, dtype=np.uint8)
    plain = [sum(int(b) << r for r, b in enumerate(rows[:, v])) for v in range(shape[1])]
    assert _columns(rows) == _columns(np.asfortranarray(rows)) == plain
    assert _columns(rows.astype(bool)) == plain


# blocks of 7, 8 and 9 points end around a byte of the packed columns, and
# 63, 64 and 65 points around a 64-bit word
@pytest.mark.parametrize("count", [1, 7, 8, 9, 63, 64, 65])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sole_matches_the_plain_loop(count, data):
    n, rows, _ = data.draw(_rows_and_point())
    points = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=count, max_size=count))
    among = data.draw(st.integers(0, (1 << count) - 1))
    words = -(-n // 64)
    block = np.array([[p >> 64 * w & (2**64 - 1) for w in range(words)] for p in points],
                     dtype=np.uint64)
    two, sole = _sole(_columns(_block_rows(block, n)), rows, among)
    sole = list(sole)
    for p, bits in enumerate(points):
        hit = [r for r, row in enumerate(rows) if all(bits >> v & 1 for v in row)]
        if not among >> p & 1:
            hit = []
        assert two >> p & 1 == (len(hit) >= 2)
        assert [r for r, s in enumerate(sole) if s >> p & 1] == (hit if len(hit) == 1 else [])


def test_hits_at_the_word_boundary():
    rows = [[63], [64], [63, 64], [], [0, 128]]
    tables = _pack(_term_masks(129, rows))
    assert _hits(1 << 63, tables) == [0, 3]
    assert _hits(1 << 64, tables) == [1, 3]
    assert _hits((1 << 63) | (1 << 64), tables) == [0, 1]
    assert _hits(1 | (1 << 128), tables) == [3, 4]
    assert _hits(0, _pack(_term_masks(129, [[64], [128]]))) == []


# sampled families past one word, on middle-layer queries; 81 and 82 end
# in a partial hex digit (the unateness family needs an even n)
_WIDE = [("mono", 64), ("mono", 81), ("mono", 100), ("flipdnf", 64), ("flipdnf", 81),
         ("flipdnf", 100), ("unate", 64), ("unate", 82), ("unate", 100)]


def _middle_layer_point(inst, rng: RngStream) -> BitString:
    """A uniform query whose de-oriented weight lies in the band, by rejection."""
    if isinstance(inst, UnateInstance):
        centre, coords, orient = inst.n / 4, inst.M, inst.orientation
    else:
        centre, coords, orient = inst.n / 2, range(inst.n), BitString.zeros(inst.n)
    while True:
        x = BitString.random(inst.n, rng)
        y = x.xor(orient)
        if _band(sum(y[k] for k in coords), centre, inst.n) == "middle":
            return x


@settings(max_examples=12, deadline=None)
@given(
    case=st.sampled_from(_WIDE),
    world=st.sampled_from(["yes", "no"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_instances_match_their_twins(case, world, seed):
    family, n = case
    inst = sample_instance(family, n, world, seed)
    twin = TWINS[type(inst)]
    rng = RngStream(seed, "wide-twins")
    for _ in range(16):
        x = _middle_layer_point(inst, rng)
        assert inst.value(x) == twin(inst, x)
