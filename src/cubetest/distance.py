"""Exact and estimated distances to monotonicity and unateness.

Exact distance to monotone is the size of a maximum matching in the
violating-pair graph divided by ``2**n`` (computed with Hopcroft-Karp via
scipy on the bipartite split 1-side vs 0-side); exact distance to unate
minimizes that over all orientations.  scipy is imported on the first
exact-distance call, not with this module, so a run that computes no
matching never loads it.  The directional-edge lower bound selects
globally vertex-disjoint monotone/anti-monotone edge families greedily,
so it is always a certified lower bound, never an estimate of the
optimum.

The Monte-Carlo side estimates the density of the disjoint-violating-edge
witness set of no-world two-level instances and the per-direction
bi-chromatic edge families of no-world unateness instances, with plain
Bernoulli confidence intervals; exhaustive counterparts exist at desk
scale for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import BitString, ResourceLimitError, RngStream, check_band
from .families import (
    MonoInstance, UnateInstance, _band_bits, _cube_weights, _hits,
)

__all__ = [
    "FarnessEstimate",
    "UnateFamilyStats",
    "count_violating_edges",
    "exact_dist_mono",
    "exact_dist_unate",
    "directional_edge_counts",
    "unate_dist_lower_bound",
    "witness_edge_at",
    "witness_edge_family",
    "exhaustive_witness_density",
    "estimate_witness_density",
    "middle_layer_indices",
    "sample_middle_layer",
    "unate_no_family_stats",
]

MONO_EXACT_CAP = 14
UNATE_EXACT_CAP = 10
EDGE_ENUM_CAP = 24


@dataclass(frozen=True)
class FarnessEstimate:
    """Bernoulli point estimate with a normal-approximation 95% interval."""

    estimate: float
    samples: Optional[int]
    ci_halfwidth: float
    seed: Optional[int] = None

    @staticmethod
    def from_hits(hits: int, samples: int, seed: Optional[int] = None) -> "FarnessEstimate":
        if samples <= 0:
            raise ValueError("samples must be positive")
        p = hits / samples
        half = 1.96 * math.sqrt(p * (1.0 - p) / samples)
        return FarnessEstimate(p, samples, half, seed)

    @staticmethod
    def exact(value: float) -> "FarnessEstimate":
        return FarnessEstimate(value, None, 0.0, None)


def _dim_of(table: np.ndarray, n: Optional[int] = None) -> int:
    """The dimension of a truth table; an explicit ``n`` must match it."""
    dim = int(round(math.log2(len(table))))
    if 1 << dim != len(table):
        raise ValueError(f"table length {len(table)} is not a power of two")
    if n is not None and n != dim:
        raise ValueError(f"table length {len(table)} is not 2**{n}")
    return dim


def _edge_halves(table: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per direction ``i``, two ``(2**(n-i-1), 2**i)`` views of the table:
    the values at the points with bit ``i`` clear, and at their neighbours
    across ``i``."""
    halves = (table.reshape(-1, 2, 1 << i) for i in range(n))
    return [(h[:, 0], h[:, 1]) for h in halves]


def count_violating_edges(table: np.ndarray, n: Optional[int] = None) -> int:
    """Number of hypercube edges with value 1 below and 0 above."""
    n = _dim_of(table, n)
    return sum(int(np.count_nonzero(lo > up)) for lo, up in _edge_halves(table, n))


def _violating_pairs(table: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All comparable pairs (x below, y above) with f(x)=1, f(y)=0."""
    tb = bytes(bytearray(table))
    rows: list[int] = []
    cols: list[int] = []
    for y in range(1 << n):
        if tb[y]:
            continue
        s = (y - 1) & y
        while True:
            if tb[s]:
                rows.append(s)
                cols.append(y)
            if s == 0:
                break
            s = (s - 1) & y
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
    )


def maximum_bipartite_matching(graph, perm_type: str = "column") -> np.ndarray:
    """scipy's ``maximum_bipartite_matching``, imported on the first call."""
    from scipy.sparse.csgraph import maximum_bipartite_matching as matching

    return matching(graph, perm_type=perm_type)


def exact_dist_mono(
    table: np.ndarray, n: Optional[int] = None, cap: int = MONO_EXACT_CAP
) -> Fraction:
    """Distance to monotone: maximum disjoint violating pairs over 2**n."""
    from scipy.sparse import csr_matrix

    n = _dim_of(table, n)
    if n > cap:
        raise ResourceLimitError(f"exact distance capped at n={cap}, got {n}")
    rows, cols = _violating_pairs(table, n)
    if len(rows) == 0:
        return Fraction(0, 1)
    left, row_ids = np.unique(rows, return_inverse=True)
    right, col_ids = np.unique(cols, return_inverse=True)
    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (row_ids, col_ids)),
        shape=(len(left), len(right)),
    )
    match = maximum_bipartite_matching(graph, perm_type="column")
    return Fraction(int((match != -1).sum()), 1 << n)


def exact_dist_unate(
    table: np.ndarray, n: Optional[int] = None, cap: int = UNATE_EXACT_CAP
) -> Fraction:
    """Distance to unate: min over orientations of the distance to monotone.

    The scan stops at the first orientation whose distance meets
    ``unate_dist_lower_bound``: that bound is certified, so it is the
    minimum."""
    n = _dim_of(table, n)
    if n > cap:
        raise ResourceLimitError(f"exact unate distance capped at n={cap}, got {n}")
    bound = unate_dist_lower_bound(table, n)
    idx = np.arange(1 << n, dtype=np.int64)
    best: Optional[Fraction] = None
    for r in range(1 << n):
        d = exact_dist_mono(table[idx ^ r], n, cap=max(cap, MONO_EXACT_CAP))
        if best is None or d < best:
            best = d
            if best == bound:
                break
    return best


def directional_edge_counts(
    table: np.ndarray, n: Optional[int] = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per direction, the lower endpoints of monotone / anti-monotone
    bi-chromatic edges (lower endpoint = the one with bit i clear)."""
    n = _dim_of(table, n)
    out = []
    for i, (lo, up) in enumerate(_edge_halves(table, n)):
        # position f of a half is the point f + (f >> i << i) of the cube
        mono, anti = (np.flatnonzero(m) for m in ((lo == 0) & (up == 1), (lo == 1) & (up == 0)))
        out.append((mono + (mono >> i << i), anti + (anti >> i << i)))
    return out


def unate_dist_lower_bound(table: np.ndarray, n: Optional[int] = None) -> Fraction:
    """Certified lower bound on the distance to unate.

    Greedily selects, direction by direction (largest potential first), a
    globally vertex-disjoint family of monotone and anti-monotone
    bi-chromatic edges and sums the per-direction minima.  Greedy
    selection may be suboptimal, so the result is only ever used as a
    lower bound.
    """
    n = _dim_of(table, n)
    if n > EDGE_ENUM_CAP:
        raise ResourceLimitError(f"edge enumeration capped at n={EDGE_ENUM_CAP}")
    sets = directional_edge_counts(table, n)
    order = sorted(
        range(n), key=lambda i: min(len(sets[i][0]), len(sets[i][1])), reverse=True
    )
    used = np.zeros(1 << n, dtype=bool)
    total = 0
    for i in order:
        bit = 1 << i
        # the edges of one direction share no point, so taking some of them
        # blocks none of the others
        free = [e[~used[e] & ~used[e | bit]] for e in sets[i]]
        take = min(len(e) for e in free)
        for e in free:
            used[e[:take]] = used[e[:take] | bit] = True
        total += take
    return Fraction(total, 1 << n)


# ---------------------------------------------------------------------------
# Disjoint violating edges of no-world two-level instances
# ---------------------------------------------------------------------------


def _require_witness_instance(inst) -> None:
    """The witness set is defined for no-world two-level instances only."""
    if not isinstance(inst, MonoInstance):
        raise ValueError(
            f"the witness set is defined for two-level instances, got {type(inst).__name__}"
        )
    if inst.world != "no":
        raise ValueError("the witness set is defined for no-world instances")


def witness_edge_at(
    inst: MonoInstance, x: BitString
) -> Optional[tuple[BitString, BitString]]:
    """Witness edge at ``x``, when ``x`` belongs to the witness set.

    Membership requires: middle layers; the multiplexer routes to a cell;
    the function value is 1 (so the cell's anti-dictator variable ``k``
    has ``x_k = 0``); ``k`` avoids the cell's clause; ``x^(k)`` stays in
    the middle layers; and no other term is satisfied once ``k`` is
    flipped to 1.  The returned pair ``(x, x^(k))`` then re-verifies as a
    violating edge, and distinct members yield disjoint edges.
    """
    _require_witness_instance(inst)
    if inst.weight_class(x) != "middle":
        return None
    r = inst.route(x)
    if r.kind != "cell":
        return None
    k = int(inst.dict_row(r.i)[r.j])
    # where x_k = 1 the anti-dictator reads 0, so f(x) = 0; k must avoid the clause
    if x[k] != 0 or k in inst.clause_block(r.i)[r.j]:
        return None
    xstar = x.flip_one(k)
    # at the top weight of the band x^(k) leaves it and reads 1
    if inst.weight_class(xstar) != "middle" or inst.satisfied_terms(xstar) != [r.i]:
        return None
    return (x, xstar)


def middle_layer_indices(n: int, band_low: float, band_high: float) -> np.ndarray:
    """Indices of all points with weight inside the band (ascending)."""
    w = _cube_weights(n)
    return np.flatnonzero((w >= band_low) & (w <= band_high))


def _witness_scan(inst: MonoInstance) -> tuple[int, list[tuple[BitString, BitString]]]:
    """Exhaustive scan of the witness set over the middle layers."""
    _require_witness_instance(inst)
    n = inst.n
    _, mid = _band_bits(_cube_weights(n), inst.band_low, inst.band_high)
    members = _witness_members(inst, mid)
    return mid.bit_count(), [(BitString(n, b), BitString(n, b | 1 << k)) for b, k in members]


def witness_edge_family(inst: MonoInstance) -> list[tuple[BitString, BitString]]:
    """All witness edges, by exhaustive middle-layer scan (n <= 20)."""
    return _witness_scan(inst)[1]


def exhaustive_witness_density(inst: MonoInstance) -> float:
    """Exact Pr over uniform middle-layer points of witness membership."""
    total, members = _witness_scan(inst)
    return len(members) / total


def sample_middle_layer(n: int, band_low: float, band_high: float, rng: RngStream) -> BitString:
    """Uniform middle-layer point by rejection from the uniform cube.

    Raises ``ValueError`` when no weight of ``0..n`` lies in the band,
    where the rejection loop would never end.
    """
    check_band(n, band_low, band_high)
    while True:
        x = BitString.random(n, rng)
        if band_low <= x.weight <= band_high:
            return x


def _point_ints(points: np.ndarray) -> list[int]:
    """The ``BitString.bits`` integer of each row of a ``band_points`` block."""
    ints = points[:, 0].tolist()
    for w in range(1, points.shape[1]):
        ints = [b | word << 64 * w for b, word in zip(ints, points[:, w].tolist())]
    return ints


def _witness_members(
    inst: MonoInstance, among: int, block: np.ndarray | None = None
) -> list[tuple[int, int]]:
    """The witness set of the middle-layer points ``among`` of a block (see
    :meth:`MonoInstance._route_block`): in term order and ascending point
    within a term, the integer bits of each member and its anti-dictator
    ``k``, the edge being ``(bits, bits | 1 << k)``.  The cell checks of
    ``witness_edge_at`` run once, as masks over all the points that falsify
    exactly one clause; the few that pass them all go through the last
    check, that no other term holds after the flip, on ints."""
    _, (term, at, count, first) = inst._route_block(among, block)
    cell = np.flatnonzero(count == 1)
    term, at, j = term[cell], at[cell], first[cell]
    k, clause = inst._cells(term, j)
    words = at.view(np.uint64)[:, None] if block is None else block[at]
    # x_k reads 0, k avoids clause j, and x^(k) stays in the band: x is in
    # it, so only the top weight can be left
    x_k = words[np.arange(len(k)), k >> 6] >> (k & 63).astype(np.uint64) & np.uint64(1)
    keep = np.flatnonzero((x_k == 0) & (clause != k[:, None]).all(axis=1)
                          & (np.bitwise_count(words).sum(axis=1) + 1 <= inst.band_high))
    ints = at[keep].tolist() if block is None else _point_ints(words[keep])
    return [(b, k) for b, i, k in zip(ints, term[keep].tolist(), k[keep].tolist())
            if _hits(b | 1 << k, inst._term_tables) == [i]]


def estimate_witness_density(
    inst: MonoInstance, samples: int, rng: RngStream | None = None
) -> FarnessEstimate:
    """Monte-Carlo witness-membership probability over middle-layer points.

    Counts the ``samples`` points of ``sample_middle_layer`` that have a
    ``witness_edge_at``, and leaves ``rng`` where that loop leaves it.  The
    sample is drawn in one block by :meth:`RngStream.band_points` and goes
    through the same array pass as the exhaustive scans.
    """
    if samples <= 0:
        raise ValueError(f"samples must be positive, got {samples}")
    _require_witness_instance(inst)
    rng = rng or RngStream(0, "witness-estimate")
    block = rng.band_points(inst.n, inst.band_low, inst.band_high, samples)
    hits = len(_witness_members(inst, (1 << samples) - 1, block))
    return FarnessEstimate.from_hits(hits, samples, seed=rng.master_seed)


# ---------------------------------------------------------------------------
# Per-direction families of no-world unateness instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnateFamilyStats:
    """Per-special-variable densities of the monotone/anti-monotone halves.

    ``plus[k]`` estimates the density of points routed to a term with
    special variable ``k`` where the edge ``(x, x^(k))`` is monotone
    bi-chromatic, ``minus[k]`` the anti-monotone side; ``min_sum`` is the
    resulting farness lower-bound estimate.
    """

    plus: dict[int, FarnessEstimate]
    minus: dict[int, FarnessEstimate]
    min_sum: float
    samples: Optional[int]


def unate_no_family_stats(
    inst: UnateInstance,
    samples: int = 0,
    rng: RngStream | None = None,
    exhaustive: bool = False,
) -> UnateFamilyStats:
    """Densities of the per-direction witness families of the de-oriented
    function (orientation leaves the distance to unate unchanged), over the
    whole cube or ``samples`` uniform points of ``rng``: the points routed
    to a term where it reads 0, on the ``+`` side of its special variable
    ``k`` when ``y_k = 0`` (a positive dictator), else on the ``-`` side."""
    if exhaustive:
        size, block = 1 << inst.n, None
    else:
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        rng = rng or RngStream(0, "unate-family-stats")
        size, block = samples, rng.band_points(inst.n, 0, inst.n, samples)
    _, zeros = inst._base_block(block)
    mbar = sorted(int(k) for k in inst.Mbar_sorted)
    hits = {(k, negated): 0 for k in mbar for negated in (False, True)}
    for z, k, negated in zip(zeros, inst._dict_vars.tolist(), inst._dict_negated.tolist()):
        hits[k, negated] += z.bit_count()

    def density(h: int) -> FarnessEstimate:
        return FarnessEstimate.exact(h / size) if exhaustive else FarnessEstimate.from_hits(h, size)

    plus, minus = ({k: density(hits[k, negated]) for k in mbar} for negated in (False, True))
    total_min = sum(min(hits[k, False], hits[k, True]) / size for k in mbar)
    return UnateFamilyStats(plus, minus, total_min, None if exhaustive else samples)
