"""Random Boolean function families and their standard value oracles.

Five families are implemented, all reproducible from a 64-bit seed:

* :class:`MonoInstance` -- the two-level family: a DNF of ``N`` random
  terms, each gated by a CNF of ``N`` random clauses, each cell holding a
  dictator (yes world) or anti-dictator (no world), with weight truncation
  outside the middle layers.
* :class:`FlippedDnfInstance` -- a truncated random DNF of monotone terms; the
  no world evaluates it after flipping a sparse random coordinate set.
* :class:`UnateInstance` -- the single-level multiplexer core: subset terms
  over a weight mask ``M``, one dictator per term with its own polarity,
  truncation on the weight inside ``M`` around a band centre, and an
  orientation XORed into every query.  As the unateness family it uses a
  hidden half ``M``, band centre ``n/4``, a random orientation ``r || s``
  and random polarities in the no world.
* :class:`OneLevelInstance` -- the same core with ``M = [n]``, band centre
  ``n/2``, zero orientation and one polarity for every term; used for
  non-adaptive monotonicity experiments.
* :class:`QuadrantInstance` -- the four-quadrant function on ``n+2`` coordinates
  used for one-sided non-adaptive unateness experiments.

Instances are immutable after sampling (the two-level row store is
internal memoization only); evaluation is a pure function of the query, so
parallel query evaluation is safe.

Two-level rows: a sampled :class:`MonoInstance` derives each clause block
and dictator row from ``(seed, role, index)`` via counter-based generators
(one ``Philox`` per thread, re-keyed for each row) the first time it is
asked for, which is what makes dimensions with ``N**2`` clause cells
feasible; a miss derives only the row asked for, so the order of queries
never changes a row.  A hand-built one
(``from_parts``, the ``explicit`` JSON form) starts with every row pinned.

Per-query scans: a query is answered from its ``BitString.bits`` integer,
one chunk (a byte or a hex digit) at a time, against per-chunk tables of
Python-int bitsets over the rows (see :func:`_hits`), one kernel for the
terms and clauses of every family.  The tables of ``N`` rows at dimension
``n`` are ``ceil(n/w) * 2**w`` bitsets of ``N`` bits for a chunk of ``w``
bits.  Term tables are built when an instance is: byte-wide for a
two-level instance while they fit under ``BYTE_TABLE_BOUND``, hex for the
other families; the hex tables of a two-level term's clause block join
the row store the first time a query reaches that term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import and_, getitem, methodcaller, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core import (
    BitString,
    IndexSet,
    ResourceLimitError,
    _rekeyed_generator,
)

__all__ = [
    "Term",
    "Clause",
    "Dictator",
    "Route",
    "MonoInstance",
    "FlippedDnfInstance",
    "OneLevelInstance",
    "UnateInstance",
    "QuadrantInstance",
    "instance_from_json",
    "sample_instance",
]

TABLE_CAP = 20  # largest dimension for explicit truth tables (2**20 entries)
BYTE_TABLE_BOUND = 1 << 22  # largest byte-wide term table set, in bitset bytes (4 MiB)

_WORLDS = ("yes", "no")


def _check_world(world: str) -> str:
    if world not in _WORLDS:
        raise ValueError(f"world must be 'yes' or 'no', got {world!r}")
    return world


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def _check_indices(n: int, *parts) -> None:
    """Raise ``ValueError`` unless every variable index in ``parts`` (arrays
    or index lists) lies in ``[0, n)``; a 0 or an ``n + 1`` in a 1-based
    instance file lands outside it."""
    for part in parts:
        a = np.asarray(part, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= n):
            bad = a[(a < 0) | (a >= n)].flat[0]
            raise ValueError(f"variable index {bad} out of range [0, {n}) (1..{n} in files)")


def _json_field(name: str, value, depth: int = 0, leaf: type = int):
    """``value``, once it is lists nested ``depth`` deep of ``leaf`` values:
    JSON integers (an ``int`` and not a ``bool``: a float would be cut to
    another instance's index) or, with ``leaf=dict``, objects."""
    level = [value]
    for kind in (list,) * depth + (leaf,):
        for v in level:
            if not isinstance(v, kind) or isinstance(v, bool):
                raise ValueError(f"{name}: expected {kind.__name__}, got {v!r:.40}")
        if kind is list:
            level = [w for v in level for w in v]
    return value


def _require_table_cap(n: int) -> None:
    if n > TABLE_CAP:
        raise ResourceLimitError(
            f"a whole-cube scan needs 2**{n} entries; cap is 2**{TABLE_CAP}"
        )


def _band_class(w: float, lo: float, hi: float) -> str:
    """Truncation class of weight ``w`` for the band ``[lo, hi]``."""
    if w < lo:
        return "low"
    if w > hi:
        return "high"
    return "middle"


# Block scans (the whole cube, its middle layer, or a sample) see a set of
# the block's points as a Python-int bitset, point ``p`` of the block at bit
# ``p``, and the block itself as its columns: ``cols[v]`` is the bitset of
# the points with coordinate ``v`` set.  A sample's columns come from its
# 0/1 rows (``_columns(_block_rows(points, n))``); the cube's, where point
# ``p`` is the cube index ``p``, from ``_cube_columns``.  The two cube
# builders refuse ``n > TABLE_CAP`` before they allocate, so every
# whole-cube scan keeps the cap.


def _cube_weights(n: int, mask: int = -1, flip: int = 0) -> np.ndarray:
    """Weight inside ``mask`` of the point ``x ^ flip``, for every point
    ``x`` of ``{0,1}^n``, indexed by ``x``."""
    _require_table_cap(n)
    w = np.zeros(1 << n, dtype=np.uint8)
    w[0] = (flip & mask).bit_count()
    for i in range(n):
        low = w[: 1 << i]  # setting bit i of x sets bit i of x ^ flip, or clears it
        if mask >> i & 1:
            low = low - 1 if flip >> i & 1 else low + 1
        w[1 << i : 2 << i] = low
    return w


def _cube_columns(n: int, flip: int = 0) -> list[int]:
    """The columns of the points ``x ^ flip`` of the whole cube, indexed by
    ``x``: column ``v`` is runs of ``2**v`` zeros and ``2**v`` ones,
    repeated from one byte pattern, and its complement where ``flip`` has
    bit ``v``."""
    _require_table_cap(n)
    size, full = max(1 << n >> 3, 1), (1 << (1 << n)) - 1  # full trims the byte of n < 3
    cols = []
    for v in range(n):
        run = 1 << v >> 3  # bytes of a run
        pattern = bytes(run) + b"\xff" * run if run else (b"\xaa", b"\xcc", b"\xf0")[v]
        col = int.from_bytes(pattern * (size // len(pattern)), "little") & full
        cols.append(col ^ full if flip >> v & 1 else col)
    return cols


def _columns(rows: np.ndarray) -> list[int]:
    """Per column of a 0/1 ``(rows, n)`` matrix, the Python-int bitset of
    the rows where it is set (row ``r`` at bit ``r``)."""
    # packbits reads a contiguous transpose 3-4 times faster than a strided one
    packed = np.packbits(np.ascontiguousarray(rows.T), axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[v * w : (v + 1) * w], "little") for v in range(rows.shape[1])]


def _block_rows(points: np.ndarray, n: int) -> np.ndarray:
    """The 0/1 ``(count, n)`` matrix of a :meth:`RngStream.band_points` block."""
    raw = points.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def _unpack(bits: int, size: int) -> np.ndarray:
    """The first ``size`` bits of a bitset as a 0/1 ``uint8`` array."""
    raw = bits.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=size, bitorder="little")


def _band_bits(weights: np.ndarray, lo: float, hi: float) -> list[int]:
    """The bitsets of the points of a block whose ``weights`` lie above the
    band ``[lo, hi]`` and inside it."""
    return _columns(np.stack((weights > hi, (weights >= lo) & (weights <= hi))).T)


def _sole(cols: list[int], members: list[list[int]], among: int) -> tuple[int, Iterator[int]]:
    """Term level of the multiplexer over a block: the bitset of the points
    of ``among`` that satisfy two or more rows of variable indices
    ``members``, and an iterator over the rows that gives, per row, the
    bitset of the points of ``among`` that satisfy it alone.  An empty row
    is satisfied by every point."""
    one = two = 0
    for row in members:
        sat = reduce(and_, map(cols.__getitem__, row), among)
        two |= one & sat
        one |= sat
    once = one & ~two  # a lazy second pass holds one row's bitset at a time
    return two, (reduce(and_, map(cols.__getitem__, row), once) for row in members)


def _falsified(clauses: np.ndarray, points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clause level over the points of a block, given as ``band_points``
    words: per point, the number of the clauses (rows of variable indices)
    it falsifies, and the first one (0 when none).  The points'
    0-coordinates, packed 8 points to a byte, are ANDed over the variables
    of each clause; the ``(points, clauses)`` matrix this gives does not
    outlive the call."""
    # the complemented words unpack to the 0-coordinates; zeros[b, v] packs
    # points 8b .. 8b + 7 at coordinate v
    zeros = np.packbits(_block_rows(~points, n), axis=0)
    fals = np.unpackbits(np.bitwise_and.reduce(zeros[:, clauses], axis=2), axis=0, count=len(points))
    return fals.sum(axis=1), fals.argmax(axis=1)


# Per-query scans see a point as its ``BitString.bits`` integer and the rows
# (terms or clauses) as Python-int bitsets over the rows, one table per
# chunk of the point: a hex digit (coordinates ``4k .. 4k + 3``) or a byte
# (``8k .. 8k + 7``).  The entry of a chunk value is the bitset of rows
# whose variables inside the chunk all read 1 in it, so the rows hit by a
# point are those in every entry it reads.  A table set is ``ceil(n/w)``
# chunks of ``2**w`` bitsets of ``N`` bits (:func:`_table_bytes`).  The
# term tables of a two-level instance, built once and read by each of the
# attack's ~1 100 queries, are byte-wide while the set stays under
# ``BYTE_TABLE_BOUND`` (:func:`_term_width`).  The rest stay hex: the
# clause tables of a two-level term, built on a query's first visit and
# read by the few queries that reach that term, and the term tables of the
# flipped DNF (~8 queries per attack) and the single-level families.


def _table_bytes(n: int, rows: int, width: int) -> int:
    """Bitset bytes of a table set of ``rows`` rows over ``n`` coordinates,
    ``width`` coordinates to a table (Python-int headers left out)."""
    return -(-n // width) * (1 << width) * -(-rows // 8)


def _term_width(n: int, rows: int) -> int:
    """Chunk width of a term table set: a byte while the set fits under
    ``BYTE_TABLE_BOUND`` (426 KB at n=100, N=1024; 67 MB at n=256,
    N=2**16), else a hex digit."""
    return 8 if _table_bytes(n, rows, 8) <= BYTE_TABLE_BOUND else 4


class _Tables(NamedTuple):
    """Per-chunk row tables; ``chunks`` runs from the highest chunk down,
    in the order ``split(bits)`` yields a point's chunk values."""

    split: Callable[[int], Iterable]
    chunks: tuple[Sequence[int] | dict[str, int], ...]


def _nibble(a: int, b: int, c: int, d: int, full: int) -> dict[str, int]:
    """The table of one hex digit, keyed by the digit ``format`` writes,
    from the bitsets ``a..d`` of the rows with no variable at each of its
    four coordinates, lowest first: entry ``v`` is the AND of those at the
    0-bits of ``v`` (``full``, every row, for ``v = 15``), in 11 ANDs."""
    ab, cd = a & b, c & d
    return {"0": ab & cd, "1": b & cd, "2": a & cd, "3": cd, "4": ab & d, "5": b & d,
            "6": a & d, "7": d, "8": ab & c, "9": b & c, "a": a & c, "b": c,
            "c": ab, "d": b, "e": a, "f": full}


def _pack(rows: np.ndarray, width: int = 4) -> _Tables:
    """Tables of a boolean ``(rows, n)`` matrix, one per hex digit
    (``width=4``, keyed by the digit ``format`` writes) or per byte
    (``width=8``, indexed by the byte ``int.to_bytes`` writes)."""
    n, full = rows.shape[1], (1 << len(rows)) - 1
    free = [full ^ col for col in _columns(rows)]  # per coordinate, the rows without it
    free += [full] * (-n % width)  # coordinates past n are never set in a point
    chunks = [_nibble(*free[k : k + 4], full) for k in range(0, len(free), 4)]
    if width == 4:
        split = f"{{:0{len(chunks)}x}}".format
    else:  # entry v of a byte is entry v >> 4 of its high digit & entry v & 15 of its low one
        chunks = [[h & lo for h in high.values() for lo in low.values()]
                  for low, high in zip(chunks[::2], chunks[1::2])]
        split = methodcaller("to_bytes", len(chunks), "big")
    chunks.reverse()
    return _Tables(split, tuple(chunks))


def _pack_members(n: int, members: np.ndarray, width: int = 4) -> _Tables:
    """Tables of rows of variable indices (duplicates allowed)."""
    rows = np.zeros((len(members), n), dtype=bool, order="F")  # rows.T is contiguous
    rows[np.arange(len(members))[:, None], members] = True
    return _pack(rows, width)


def _hits(bits: int, tables: _Tables) -> list[int]:
    """Per-query scan: the first two rows of ``tables`` whose variables are
    all set in the point ``bits``, ascending; the multiplexer tells apart
    only none, one and several.  Clauses falsified by ``x`` are the rows hit
    by the complement of ``x``.  An empty row is hit by every point."""
    split, chunks = tables
    hit = reduce(and_, map(getitem, chunks, split(bits)))
    if not hit:
        return []
    low = hit & -hit
    hit ^= low
    if not hit:
        return [low.bit_length() - 1]
    return [low.bit_length() - 1, (hit & -hit).bit_length() - 1]


# ---------------------------------------------------------------------------
# Views over the sampled pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """A monotone conjunction of ``vars``: the sampled positions of a
    two-level or flipped-DNF term (duplicates allowed), or the distinct
    members of a single-level term.  An empty term is the empty
    conjunction and is satisfied by every point.
    """

    n: int
    vars: tuple[int, ...]

    @cached_property
    def mask(self) -> int:
        """Bit mask of ``vars``, built from them and not from the scan
        tables, so that these views stay a twin of the oracles."""
        return reduce(or_, (1 << v for v in self.vars), 0)

    def satisfied_by(self, x: BitString) -> bool:
        return x.bits & self.mask == self.mask


@dataclass(frozen=True)
class Clause:
    """A monotone disjunction of sampled positions (duplicates allowed)."""

    n: int
    vars: tuple[int, ...]

    mask = Term.mask

    def falsified_by(self, x: BitString) -> bool:
        return not x.bits & self.mask


@dataclass(frozen=True)
class Dictator:
    """A single-variable function: ``x_k`` or its negation."""

    index: int
    negated: bool = False

    def value_at(self, x: BitString) -> int:
        v = x[self.index]
        return 1 - v if self.negated else v


class Route(NamedTuple):
    """Outcome of a multiplexer: a forced constant, a term, or a cell.

    ``kind`` is one of ``zero`` (forced 0), ``one`` (forced 1), ``term``
    (single-level index ``i``), or ``cell`` (two-level pair ``(i, j)``).
    """

    kind: str
    i: int | None = None
    j: int | None = None

    @classmethod
    def zero(cls) -> "Route":
        return _ROUTE_ZERO

    @classmethod
    def one(cls) -> "Route":
        return _ROUTE_ONE

    @classmethod
    def term(cls, i: int) -> "Route":
        return cls("term", i)

    @classmethod
    def cell(cls, i: int, j: int) -> "Route":
        return cls("cell", i, j)

    def __repr__(self) -> str:
        args = ", ".join(str(v) for v in (self.i, self.j) if v is not None)
        return f"Route.{self.kind}({args})"


_ROUTE_ZERO = Route("zero")
_ROUTE_ONE = Route("one")


# ---------------------------------------------------------------------------
# Two-level family
# ---------------------------------------------------------------------------


class MonoInstance:
    """Two-level multiplexer family over ``{0,1}^n``.

    ``n`` must normally be a perfect square; ``term_len`` may be passed
    explicitly to run the family at other dimensions (the truncation band
    still uses the real square root).  There are ``N = 2**term_len`` terms
    and ``N**2`` clauses.

    Term ``i`` owns two rows, its ``N x m`` clause block and its ``N``
    dictator variables, held in one store keyed by ``(role, i)``.  A
    sampled instance derives a row from ``(seed, role, i)`` the first time
    it is asked for; a hand-built instance starts with every row pinned.
    A third role holds the scan tables of a clause block, built from the
    block on the first query that needs them.
    """

    family = "mono"

    def __init__(
        self,
        n: int,
        world: str,
        *,
        terms: np.ndarray,
        seed: int | None = None,
        clauses: np.ndarray | None = None,
        dictators: np.ndarray | None = None,
    ):
        self.n = n
        self.world = _check_world(world)
        self.seed = seed
        self._terms = np.ascontiguousarray(terms, dtype=np.int32)
        self.N = self._terms.shape[0]
        self.m = self._terms.shape[1]
        self._term_tables = _pack_members(n, self._terms, _term_width(n, self.N))
        self._pinned = clauses is not None
        self._rows: dict[tuple[str, int], np.ndarray] = {}
        if self._pinned:
            for i in range(self.N):
                self._rows["clauses", i] = clauses[i]
                self._rows["dict", i] = dictators[i]
        sq = math.sqrt(n)
        self.band_low = n / 2 - sq
        self.band_high = n / 2 + sq
        self.negated = world == "no"
        self._ones = (1 << n) - 1  # the clause scan reads the complement of a query

    # -- sampling ---------------------------------------------------------

    @classmethod
    def sample(
        cls, n: int, world: str, seed: int, term_len: int | None = None
    ) -> "MonoInstance":
        if n < 9:
            raise ValueError(f"n must be at least 9, got {n}")
        if term_len is None:
            if not _is_square(n):
                raise ValueError("n must be a perfect square")
            term_len = math.isqrt(n)
        terms = _rekeyed_generator(seed, "mono", "terms").integers(
            0, n, size=(1 << term_len, term_len), dtype=np.int32
        )
        return cls(n, world, terms=terms, seed=seed)

    @classmethod
    def from_parts(
        cls,
        n: int,
        world: str,
        terms: Sequence[Sequence[int]],
        clauses: Sequence[Sequence[Sequence[int]]],
        dictators: Sequence[Sequence[int]],
        seed: int | None = None,
    ) -> "MonoInstance":
        """Hand-built instance from explicit 0-based pieces.

        ``clauses[i][j]`` and ``dictators[i][j]`` describe cell (i, j);
        ``N`` is taken from ``len(terms)`` and need not be a power of two.
        """
        t = np.asarray(terms, dtype=np.int32)
        c = np.asarray(clauses, dtype=np.int32)
        d = np.asarray(dictators, dtype=np.int32)
        if c.shape[:2] != (t.shape[0], t.shape[0]) or d.shape != c.shape[:2]:
            raise ValueError("clauses must be N x N x m and dictators N x N")
        _check_indices(n, t, c, d)
        return cls(n, world, terms=t, seed=seed, clauses=c, dictators=d)

    # -- per-term rows ------------------------------------------------------

    def _derive(self, role: str, i: int, size) -> np.ndarray:
        # only a miss reaches this check, so a stored row pays nothing for it
        if not 0 <= i < self.N:
            raise IndexError(f"term {i} out of range for N={self.N}")
        row = _rekeyed_generator(self.seed, "mono", role, i).integers(
            0, self.n, size=size, dtype=np.int32
        )
        self._rows[role, i] = row
        return row

    def clause_block(self, i: int) -> np.ndarray:
        """The ``N x m`` variable indices of clauses gated by term ``i``."""
        blk = self._rows.get(("clauses", i))
        return self._derive("clauses", i, (self.N, self.m)) if blk is None else blk

    def dict_row(self, i: int) -> np.ndarray:
        """The ``N`` dictator variables of the cells of term ``i``."""
        row = self._rows.get(("dict", i))
        return self._derive("dict", i, self.N) if row is None else row

    def term(self, i: int) -> Term:
        return Term(self.n, tuple(self._terms[i].tolist()))

    def clause(self, i: int, j: int) -> Clause:
        return Clause(self.n, tuple(self.clause_block(i)[j].tolist()))

    def dictator(self, i: int, j: int) -> Dictator:
        return Dictator(int(self.dict_row(i)[j]), negated=self.negated)

    # -- evaluation ---------------------------------------------------------

    def weight_class(self, x: BitString) -> str:
        return _band_class(x.weight, self.band_low, self.band_high)

    def satisfied_terms(self, x: BitString) -> list[int]:
        """Indices of the first two satisfied terms, ascending."""
        return _hits(x.bits, self._term_tables)

    def falsified_clauses(self, i: int, x: BitString) -> list[int]:
        """Indices of the first two clauses of row ``i`` falsified by x."""
        return _hits(x.bits ^ self._ones, self._clause_tables(i))

    def _clause_tables(self, i: int) -> _Tables:
        """The scan tables of term ``i``'s clause block, built on first use."""
        tables = self._rows.get(("clause_tables", i))
        if tables is None:
            tables = self._rows["clause_tables", i] = _pack_members(self.n, self.clause_block(i))
        return tables

    def _step(self, bits: int) -> int | tuple[int, int]:
        """The two-level multiplexer at the point ``bits``, the one copy of
        its logic: the forced value, 0 or 1, or the unique cell ``(i, j)``."""
        sat = _hits(bits, self._term_tables)
        if len(sat) != 1:
            return len(sat) >> 1  # none forces 0, two or more force 1
        i = sat[0]
        fals = _hits(bits ^ self._ones, self._clause_tables(i))
        if len(fals) != 1:
            return 1 - (len(fals) >> 1)  # none forces 1, two or more force 0
        return i, fals[0]

    def route(self, x: BitString) -> Route:
        """Two-level multiplexer: forced constant or the unique cell."""
        step = self._step(x.bits)
        if isinstance(step, tuple):
            return Route.cell(*step)
        return Route.one() if step else Route.zero()

    def value(self, x: BitString) -> int:
        if x.n != self.n:
            raise ValueError(f"query has n={x.n}, instance has n={self.n}")
        bits = x.bits
        w = bits.bit_count()
        if w < self.band_low:
            return 0
        if w > self.band_high:
            return 1
        step = self._step(bits)
        if isinstance(step, int):
            return step
        i, j = step
        return bits >> int(self.dict_row(i)[j]) & 1 ^ self.negated

    def _route_block(self, among: int, block: np.ndarray | None = None):
        """The multiplexer over the points ``among`` of a ``band_points``
        block, or of the whole cube (point ``p`` is the cube index ``p``)
        when ``block`` is ``None``.

        Returns the bitset of the points that satisfy two or more terms,
        and four flat arrays over the points that satisfy exactly one, in
        term order and ascending position within a term: that term, the
        point's position in the block, and the number of the term's clauses
        it falsifies and the first of them.  :func:`_falsified` is the one
        step that runs per term, on that term's points alone.
        """
        n, N = self.n, self.N
        cols = _cube_columns(n) if block is None else _columns(_block_rows(block, n))
        two, sole = _sole(cols, self._terms.tolist(), among)
        del cols  # the term level below holds the last reference; it dies with that pass
        once, terms, sizes = 0, [], []
        label = [0] * (N - 1).bit_length()  # bit b: the points whose term has bit b set
        for i, mine in enumerate(sole):
            if mine:
                once |= mine
                terms.append(i)
                sizes.append(mine.bit_count())
                for b, _ in enumerate(label):
                    if i >> b & 1:
                        label[b] |= mine
        size = once.bit_length()
        at = np.flatnonzero(_unpack(once, size))
        term = np.zeros(len(at), np.min_scalar_type(N - 1))
        for b, bits in enumerate(label):
            term |= _unpack(bits, size)[at].astype(term.dtype) << b
        # a stable sort keeps the points of a term ascending; the index arrays
        # are freed as soon as they are read (at n=20 each is 2.5 MiB)
        order = np.argsort(term, kind="stable")
        term, at = term[order], at[order]
        del order
        words = at.view(np.uint64)[:, None] if block is None else block[at]
        count, first = np.empty(len(at), np.min_scalar_type(N)), np.empty_like(term)
        for i, s, e in zip(terms, accumulate(sizes, initial=0), accumulate(sizes)):
            count[s:e], first[s:e] = _falsified(self.clause_block(i), words[s:e], n)
        return two, (term, at, count, first)

    def _cells(self, term: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The anti-dictator variable and the clause row of each cell
        ``(term[p], j[p])``, ``term`` ascending.  Only the rows asked for
        are copied, one gather per distinct term: at n=100 a stack of the
        whole rows of the terms present would be 40 KB a term on top of the
        row store."""
        k, clauses = np.empty(len(j), np.int32), np.empty((len(j), self.m), np.int32)
        starts = np.flatnonzero(np.diff(term, prepend=-1)).tolist()
        for i, s, e in zip(term[starts].tolist(), starts, starts[1:] + [len(j)]):
            k[s:e], clauses[s:e] = self.dict_row(i)[j[s:e]], self.clause_block(i)[j[s:e]]
        return k, clauses

    def truth_table(self) -> np.ndarray:
        """Vectorized full table; entry ``t`` is the value at bits ``t``."""
        high, mid = _band_bits(_cube_weights(self.n), self.band_low, self.band_high)
        two, (term, at, count, first) = self._route_block(mid)
        table = _unpack(high | two, 1 << self.n)
        table[at[count == 0]] = 1
        cell = count == 1
        k, _ = self._cells(term[cell], first[cell])
        table[at[cell]] = at[cell] >> k & 1 ^ self.negated
        return table

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        obj = {
            "family": self.family,
            "n": self.n,
            "N": self.N,
            "term_len": self.m,
            "world": self.world,
            "seed": self.seed,
            "storage": "explicit" if self._pinned else "lazy",  # the format marker
        }
        if self._pinned:
            obj["terms"] = (self._terms + 1).tolist()
            obj["clauses"] = np.stack(
                [self.clause_block(i) + 1 for i in range(self.N)]
            ).tolist()
            obj["dictators"] = np.stack(
                [self.dict_row(i) + 1 for i in range(self.N)]
            ).tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "MonoInstance":
        n = _json_field("n", obj["n"])
        if obj["storage"] == "lazy":
            term_len = obj.get("term_len")  # absent from older files
            if term_len is not None:
                _json_field("term_len", term_len)
            return cls.sample(n, obj["world"], _json_field("seed", obj["seed"]), term_len=term_len)
        parts = (np.asarray(_json_field(k, obj[k], depth), dtype=np.int32) - 1
                 for k, depth in (("terms", 2), ("clauses", 3), ("dictators", 2)))
        return cls.from_parts(n, obj["world"], *parts, seed=obj.get("seed"))


# ---------------------------------------------------------------------------
# Flipped random DNF
# ---------------------------------------------------------------------------


class FlippedDnfInstance:
    """Truncated random DNF; the no world is evaluated after a sparse flip.

    Truncation is applied to the weight of the query itself (before the
    flip).
    """

    family = "flipdnf"

    def __init__(
        self,
        n: int,
        world: str,
        *,
        terms: np.ndarray,
        flip_set: IndexSet,
        seed: int | None = None,
    ):
        self.n = n
        self.world = _check_world(world)
        self.seed = seed
        self._terms = np.ascontiguousarray(terms, dtype=np.int32)
        self.N = self._terms.shape[0]
        self.m = self._terms.shape[1]
        self._term_tables = _pack_members(n, self._terms)
        self.flip_coords = flip_set
        if world == "yes" and len(flip_set) != 0:
            raise ValueError("yes world must have an empty flip set")
        sq = math.sqrt(n)
        self.band_low = n / 2 - sq
        self.band_high = n / 2 + sq

    @classmethod
    def sample(cls, n: int, world: str, seed: int) -> "FlippedDnfInstance":
        if not _is_square(n):
            raise ValueError("n must be a perfect square")
        m = math.isqrt(n)
        N = 1 << m
        terms = _rekeyed_generator(seed, "flipdnf", "terms").integers(
            0, n, size=(N, m), dtype=np.int32
        )
        if world == "no":
            mask = _rekeyed_generator(seed, "flipdnf", "sflip").random(n) < 1.0 / m
            s = IndexSet(n, np.flatnonzero(mask))
        else:
            s = IndexSet(n, ())
        return cls(n, world, terms=terms, flip_set=s, seed=seed)

    @classmethod
    def from_parts(
        cls,
        n: int,
        world: str,
        terms: Sequence[Sequence[int]],
        flip: Iterable[int],
        seed: int | None = None,
    ) -> "FlippedDnfInstance":
        t = np.asarray(terms, dtype=np.int32)
        _check_indices(n, t)  # IndexSet checks the flip set
        return cls(n, world, terms=t, flip_set=IndexSet(n, flip), seed=seed)

    def term(self, i: int) -> Term:
        return Term(self.n, tuple(self._terms[i].tolist()))

    def dnf_value(self, x: BitString) -> int:
        return int(bool(_hits(x.bits, self._term_tables)))

    def value(self, x: BitString) -> int:
        if x.n != self.n:
            raise ValueError(f"query has n={x.n}, instance has n={self.n}")
        wc = _band_class(x.weight, self.band_low, self.band_high)
        if wc == "middle":
            return self.dnf_value(x.flip(self.flip_coords) if len(self.flip_coords) else x)
        return int(wc == "high")

    def truth_table(self) -> np.ndarray:
        cols = _cube_columns(self.n, self.flip_coords.mask)  # of the flipped points x ^ s
        high, mid = _band_bits(_cube_weights(self.n), self.band_low, self.band_high)
        two, sole = _sole(cols, self._terms.tolist(), mid)
        return _unpack(reduce(or_, sole, high | two), 1 << self.n)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "N": self.N,
            "world": self.world,
            "seed": self.seed,
            "storage": "explicit",
            "terms": (self._terms + 1).tolist(),
            "flip_set": self.flip_coords.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FlippedDnfInstance":
        # older files carry this key; only its default (false) is implemented
        if obj.get("truncate_after_flip", False):
            raise ValueError("truncate_after_flip is no longer supported")
        flip = _json_field("flip_set", obj["flip_set"], leaf=dict)
        _json_field("flip_set", flip["n"])
        _json_field("flip_set", flip["members"], 1)
        return cls.from_parts(
            _json_field("n", obj["n"]),
            obj["world"],
            np.asarray(_json_field("terms", obj["terms"], 2), dtype=np.int32) - 1,
            IndexSet.from_json(flip),
            seed=obj.get("seed"),
        )


# ---------------------------------------------------------------------------
# Single-level multiplexer core and its two families
# ---------------------------------------------------------------------------


def _complement(n: int, members: np.ndarray) -> np.ndarray:
    """The coordinates of ``[n]`` outside ``members``, ascending."""
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    return np.flatnonzero(~inside)


def _check_bits(name: str, bits: Sequence[int] | None, size: int) -> np.ndarray:
    """``bits`` as ``size`` values of 0 or 1 (all 0 when ``None``); a value
    that numpy would broadcast over the size or cast to a bit is refused."""
    a = np.zeros(size, np.uint8) if bits is None else np.asarray(bits)
    if a.shape != (size,) or not np.isin(a, (0, 1)).all():
        raise ValueError(f"{name} must be {size} values of 0 or 1, got {bits!r}")
    return a


def _term_masks(n: int, terms: Sequence[Iterable[int]]) -> np.ndarray:
    masks = np.zeros((len(terms), n), dtype=bool)
    for i, t in enumerate(terms):
        for v in t:
            masks[i, v] = True
    return masks


class UnateInstance:
    """Single-level multiplexer core, sampled as the unateness family.

    The core has four parameters: the weight mask ``M`` that carries the
    terms, the band centre of the weight inside ``M``, an orientation XORed
    into every query before evaluation (so truncation happens after the
    XOR), and a per-term dictator polarity.  The unateness family uses a
    hidden half ``M``, band centre ``n/4``, dictators on the complement of
    ``M``, a random orientation ``r || s`` and, in the no world, random
    polarities.
    """

    family = "unate"

    def __init__(
        self,
        n: int,
        world: str,
        *,
        m_sorted: np.ndarray,
        band_centre: float,
        orientation: BitString,
        term_masks: np.ndarray,
        dict_vars: np.ndarray,
        dict_negated: np.ndarray,
        seed: int | None = None,
    ):
        self.n = n
        self.world = _check_world(world)
        self.seed = seed
        self.M_sorted = np.ascontiguousarray(m_sorted, dtype=np.int32)
        self.M = frozenset(int(i) for i in m_sorted)
        self.Mbar_sorted = _complement(n, self.M_sorted).astype(np.int32)
        self._masks = np.ascontiguousarray(term_masks, dtype=bool)  # (N, n)
        self._term_tables = _pack(self._masks)
        self.N = self._masks.shape[0]
        self._dict_vars = np.ascontiguousarray(dict_vars, dtype=np.int32)
        self._dict_negated = np.ascontiguousarray(dict_negated, dtype=bool)
        self.orientation = orientation
        if self._masks[:, self.Mbar_sorted].any():
            raise ValueError("terms must be subsets of M")
        if world == "yes" and self._dict_negated.any():
            raise ValueError("yes world must have all-positive dictators")
        sq = math.sqrt(n)
        self.band_low = band_centre - sq
        self.band_high = band_centre + sq
        self._m_mask = BitString.from_indices(n, self.M).bits

    @staticmethod
    def size_for(n: int) -> int:
        """Number of terms: ceil((1 + 1/sqrt(n)) ** (n/4))."""
        return math.ceil((1.0 + 1.0 / math.sqrt(n)) ** (n / 4))

    @classmethod
    def _oriented(cls, n, world, m_sorted, masks, dict_vars, negated, r_bits, s_bits, seed):
        """Unateness instance with orientation ``r`` on ``M`` and ``s`` on
        its complement (both in ascending coordinate order)."""
        bits = np.zeros(n, dtype=np.uint8)
        bits[m_sorted] = r_bits
        bits[_complement(n, m_sorted)] = s_bits
        return cls(
            n,
            world,
            m_sorted=m_sorted,
            band_centre=n / 4,
            orientation=BitString.from_array(bits),
            term_masks=masks,
            dict_vars=dict_vars,
            dict_negated=negated,
            seed=seed,
        )

    @classmethod
    def sample(cls, n: int, world: str, seed: int) -> "UnateInstance":
        if n % 2:
            raise ValueError(f"n must be even, got {n}")
        if n < 16:
            raise ValueError(f"n must be at least 16, got {n}")
        half = n // 2
        N = cls.size_for(n)
        m_sorted = np.sort(
            _rekeyed_generator(seed, "unate", "M").permutation(n)[:half]
        ).astype(np.int32)
        inside = _rekeyed_generator(seed, "unate", "terms").random((N, half)) < (
            1.0 / math.sqrt(n)
        )
        masks = np.zeros((N, n), dtype=bool)
        masks[:, m_sorted] = inside
        mbar = _complement(n, m_sorted)
        dict_vars = mbar[
            _rekeyed_generator(seed, "unate", "dict").integers(0, half, size=N)
        ].astype(np.int32)
        if world == "no":
            negated = (
                _rekeyed_generator(seed, "unate", "polarity").integers(0, 2, size=N) == 1
            )
        else:
            negated = np.zeros(N, dtype=bool)
        r_bits = _rekeyed_generator(seed, "unate", "r").integers(0, 2, size=half)
        s_bits = _rekeyed_generator(seed, "unate", "s").integers(0, 2, size=half)
        return cls._oriented(
            n, world, m_sorted, masks, dict_vars, negated, r_bits, s_bits, seed
        )

    @classmethod
    def from_parts(
        cls,
        n: int,
        world: str,
        m_members: Iterable[int],
        terms: Sequence[Sequence[int]],
        dictators: Sequence[tuple[int, bool]],
        r_bits: Sequence[int] | None = None,
        s_bits: Sequence[int] | None = None,
        seed: int | None = None,
    ) -> "UnateInstance":
        m_sorted = np.asarray(sorted(m_members), dtype=np.int32)
        half = len(m_sorted)
        dv = np.asarray([d[0] for d in dictators], dtype=np.int32)
        _check_indices(n, m_sorted, dv, *terms)
        if np.isin(dv, m_sorted).any():
            raise ValueError("dictator variables must lie outside M")
        neg = np.asarray([bool(d[1]) for d in dictators], dtype=bool)
        rb = _check_bits("r_bits", r_bits, half)
        sb = _check_bits("s_bits", s_bits, n - half)
        return cls._oriented(
            n, world, m_sorted, _term_masks(n, terms), dv, neg, rb, sb, seed
        )

    def term(self, i: int) -> Term:
        return Term(self.n, tuple(np.flatnonzero(self._masks[i]).tolist()))

    def dictator(self, i: int) -> Dictator:
        return Dictator(int(self._dict_vars[i]), bool(self._dict_negated[i]))

    # -- base (de-oriented) evaluation -------------------------------------

    def m_weight(self, y: BitString) -> int:
        return (y.bits & self._m_mask).bit_count()

    def band_class_base(self, y: BitString) -> str:
        return _band_class(self.m_weight(y), self.band_low, self.band_high)

    def satisfied_terms_base(self, y: BitString) -> list[int]:
        """Indices of the first two terms satisfied by ``y``, ascending."""
        return _hits(y.bits, self._term_tables)

    def route_base(self, y: BitString) -> Route:
        sat = self.satisfied_terms_base(y)
        if not sat:
            return Route.zero()
        if len(sat) >= 2:
            return Route.one()
        return Route.term(sat[0])

    def base_value(self, y: BitString) -> int:
        wc = self.band_class_base(y)
        if wc == "low":
            return 0
        if wc == "high":
            return 1
        r = self.route_base(y)
        if r.kind == "zero":
            return 0
        if r.kind == "one":
            return 1
        return self.dictator(r.i).value_at(y)

    def value(self, x: BitString) -> int:
        if x.n != self.n:
            raise ValueError(f"query has n={x.n}, instance has n={self.n}")
        return self.base_value(x.xor(self.orientation))

    def _base_block(self, block: np.ndarray | None = None, flip: int = 0) -> tuple[int, list[int]]:
        """The de-oriented function over a ``band_points`` block, or over
        the whole cube when ``block`` is ``None``, where point ``x`` reads
        it at ``x ^ flip``: the bitset of the points where it reads 1 and,
        per term, the bitset of the in-band points routed to that term
        where it reads 0."""
        if block is None:
            cols, weights = _cube_columns(self.n, flip), _cube_weights(self.n, self._m_mask, flip)
        else:
            rows = _block_rows(block, self.n)
            cols, weights = _columns(rows), rows[:, self.M_sorted].sum(axis=1)
        high, mid = _band_bits(weights, self.band_low, self.band_high)
        two, sole = _sole(cols, [np.flatnonzero(t).tolist() for t in self._masks], mid)
        ones, zeros = high | two, []
        for mine, k, negated in zip(sole, self._dict_vars.tolist(), self._dict_negated.tolist()):
            read = mine & ~cols[k] if negated else mine & cols[k]  # where the dictator reads 1
            ones |= read
            zeros.append(mine ^ read)
        return ones, zeros

    def base_truth_table(self) -> np.ndarray:
        return _unpack(self._base_block()[0], 1 << self.n)

    def truth_table(self) -> np.ndarray:
        """Entry ``t`` is the base value at ``t ^ orientation``."""
        return _unpack(self._base_block(flip=self.orientation.bits)[0], 1 << self.n)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "N": self.N,
            "world": self.world,
            "seed": self.seed,
            "storage": "explicit",
            "M": [int(i) + 1 for i in self.M_sorted],
            "terms": [
                [int(v) + 1 for v in np.flatnonzero(self._masks[i])]
                for i in range(self.N)
            ],
            "dictators": [
                {"index": int(v) + 1, "negated": bool(g)}
                for v, g in zip(self._dict_vars, self._dict_negated)
            ],
            "r_bits": [self.orientation[int(i)] for i in self.M_sorted],
            "s_bits": [self.orientation[int(i)] for i in self.Mbar_sorted],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "UnateInstance":
        dictators = _json_field("dictators", obj["dictators"], 1, dict)
        for d in dictators:
            if not isinstance(d["negated"], bool):
                raise ValueError(f"dictator negated must be true or false, got {d['negated']!r}")
        _json_field("index", [d["index"] for d in dictators], 1)
        return cls.from_parts(
            _json_field("n", obj["n"]),
            obj["world"],
            [i - 1 for i in _json_field("M", obj["M"], 1)],
            [[v - 1 for v in t] for t in _json_field("terms", obj["terms"], 2)],
            [(d["index"] - 1, d["negated"]) for d in dictators],
            r_bits=obj["r_bits"],
            s_bits=obj["s_bits"],
            seed=obj.get("seed"),
        )


class OneLevelInstance(UnateInstance):
    """Single-level multiplexer: the core with ``M = [n]``, band centre
    ``n/2``, zero orientation and one polarity for every term (dictators in
    the yes world, anti-dictators in the no world)."""

    family = "onelevel"

    # with zero orientation every query is its own de-oriented point
    weight_class = UnateInstance.band_class_base
    satisfied_terms = UnateInstance.satisfied_terms_base
    route = UnateInstance.route_base

    def __init__(
        self,
        n: int,
        world: str,
        *,
        term_masks: np.ndarray,
        dict_vars: np.ndarray,
        seed: int | None = None,
    ):
        super().__init__(
            n,
            world,
            m_sorted=np.arange(n),
            band_centre=n / 2,
            orientation=BitString.zeros(n),
            term_masks=term_masks,
            dict_vars=dict_vars,
            dict_negated=np.full(len(dict_vars), world == "no"),
            seed=seed,
        )

    @classmethod
    def sample(cls, n: int, world: str, seed: int) -> "OneLevelInstance":
        if n < 9:
            raise ValueError(f"n must be at least 9, got {n}")
        if not _is_square(n):
            raise ValueError("n must be a perfect square")
        N = 1 << math.isqrt(n)
        masks = _rekeyed_generator(seed, "onelevel", "terms").random((N, n)) < 1.0 / math.sqrt(n)
        dict_vars = _rekeyed_generator(seed, "onelevel", "dict").integers(
            0, n, size=N, dtype=np.int32
        )
        return cls(n, world, term_masks=masks, dict_vars=dict_vars, seed=seed)

    @classmethod
    def from_parts(
        cls,
        n: int,
        world: str,
        terms: Sequence[Sequence[int]],
        dict_vars: Sequence[int],
        seed: int | None = None,
    ) -> "OneLevelInstance":
        _check_indices(n, dict_vars, *terms)
        return cls(
            n,
            world,
            term_masks=_term_masks(n, terms),
            dict_vars=np.asarray(dict_vars),
            seed=seed,
        )

    def to_json(self) -> dict:
        obj = super().to_json()
        for key in ("M", "r_bits", "s_bits"):  # fixed by the family
            del obj[key]
        obj["dictators"] = (self._dict_vars + 1).tolist()
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "OneLevelInstance":
        return cls.from_parts(
            _json_field("n", obj["n"]),
            obj["world"],
            [[v - 1 for v in t] for t in _json_field("terms", obj["terms"], 2)],
            [d - 1 for d in _json_field("dictators", obj["dictators"], 1)],
            seed=obj.get("seed"),
        )


# ---------------------------------------------------------------------------
# Four-quadrant family
# ---------------------------------------------------------------------------


class QuadrantInstance:
    """Function on ``(a, b, x) in {0,1}^{n+2}``: the quadrants are the
    constants 0 and 1 and the two opposite dictators of coordinate ``i``."""

    family = "quadrant"

    def __init__(self, n: int, i: int):
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for n={n}")
        self.n = n
        self.i = i
        self.dimension = n + 2

    @classmethod
    def sample(cls, n: int, seed: int) -> "QuadrantInstance":
        return cls(n, int(_rekeyed_generator(seed, "quadrant", "index").integers(0, n)))

    def value(self, z: BitString) -> int:
        if z.n != self.dimension:
            raise ValueError(
                f"query has n={z.n}, instance lives on n+2={self.dimension}"
            )
        a, b = z[0], z[1]
        if a == 0 and b == 0:
            return 0
        if a == 1 and b == 1:
            return 1
        xi = z[2 + self.i]
        return xi if a == 1 else 1 - xi

    def truth_table(self) -> np.ndarray:
        cols = _cube_columns(self.dimension)
        a, b, x = cols[0], cols[1], cols[2 + self.i]
        return _unpack(a & b | a & ~b & x | b & ~a & ~x, 1 << self.dimension)

    def to_json(self) -> dict:
        return {"family": self.family, "n": self.n, "i": self.i + 1}

    @classmethod
    def from_json(cls, obj: dict) -> "QuadrantInstance":
        return cls(_json_field("n", obj["n"]), _json_field("i", obj["i"]) - 1)


# ---------------------------------------------------------------------------
# Dispatch helpers
# ---------------------------------------------------------------------------

_FAMILIES = {
    "mono": MonoInstance,
    "flipdnf": FlippedDnfInstance,
    "onelevel": OneLevelInstance,
    "unate": UnateInstance,
    "quadrant": QuadrantInstance,
}


def sample_instance(family: str, n: int, world: str, seed: int, term_len: int | None = None):
    """Sample any family by name.  ``term_len`` reaches only
    :meth:`MonoInstance.sample`; the four-quadrant family has no worlds."""
    cls = _FAMILIES[family]
    if cls is QuadrantInstance:
        return cls.sample(n, seed)
    if cls is MonoInstance:
        return cls.sample(n, world, seed, term_len=term_len)
    return cls.sample(n, world, seed)


def instance_from_json(obj: dict):
    """Load any family instance from its JSON form."""
    fam = _json_field("instance file", obj, leaf=dict).get("family")
    if fam not in _FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    return _FAMILIES[fam].from_json(obj)

