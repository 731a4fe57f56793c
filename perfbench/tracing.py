"""Spans and counters around the library's public callables.

Used only by the traced run.  :func:`install` replaces each callable in
:data:`SPANS` and :data:`COUNTERS` with a wrapper, on its class or on every
``cubetest`` module that binds it, and returns a function that puts the
originals back.  Nothing under ``src/`` changes.

A span records name, start, end and parent; spans are aggregated per op,
keyed by ``(name, parent)``, as they close, so the millions of
microsecond-scale ``RngStream.draw`` spans of a run take constant memory.
A span's self time is its duration minus the durations of its child
spans.  The op itself is the root span ``bench.op``; its self time is
the benchmark's own work inside the op.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from cubetest import core, distance, families, likelihood, sigoracle, testers, transcripts

ROOT = "bench.op"

# (span name, owner, attribute); the owner is a class or a module
SPANS = [
    ("core.rng_draw", core.RngStream, "draw"),
    ("core.bitstring_random", core.BitString, "random"),
    ("families.sample", families.MonoInstance, "sample"),
    ("families.sample", families.UnateInstance, "sample"),
    ("families.value", families.MonoInstance, "value"),
    ("families.value", families.UnateInstance, "value"),
    ("families.satisfied_terms", families.MonoInstance, "satisfied_terms"),
    ("families.falsified_clauses", families.MonoInstance, "falsified_clauses"),
    ("families.truth_table", families.MonoInstance, "truth_table"),
    ("families.satisfied_terms_base", families.UnateInstance, "satisfied_terms_base"),
    ("sigoracle.mono_full_signature", sigoracle, "mono_full_signature"),
    ("sigoracle.unate_signature", sigoracle, "unate_signature"),
    ("transcripts.extend", transcripts.MonoTranscript, "extend"),
    ("transcripts.classify_mono_edge", transcripts, "classify_mono_edge"),
    ("transcripts.check_axioms", transcripts.MonoTranscript, "check_axioms"),
    ("transcripts.cross_check_instance", transcripts.MonoTranscript, "cross_check_instance"),
    ("transcripts.unate_oracle_query", transcripts.UnateSignatureOracle, "query"),
    ("likelihood.unate_closed", likelihood, "unate_transcript_likelihood"),
    ("testers.attack", testers, "two_level_attack"),
    ("distance.estimate_witness_density", distance, "estimate_witness_density"),
    ("distance.sample_middle_layer", distance, "sample_middle_layer"),
    ("distance.witness_edge_at", distance, "witness_edge_at"),
    ("distance.witness_edge_family", distance, "witness_edge_family"),
    ("distance.count_violating_edges", distance, "count_violating_edges"),
    ("distance.exact_dist_mono", distance, "exact_dist_mono"),
    ("distance.matching", distance, "maximum_bipartite_matching"),
    ("distance.unate_dist_lower_bound", distance, "unate_dist_lower_bound"),
]

SPAN_NAMES = tuple(dict.fromkeys([ROOT] + [name for name, _, _ in SPANS]))


class Tracer:
    """Span stack and per-op aggregates of one traced run."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []
        self.ops: list[dict] = []
        self._agg: dict = {}
        self._counts: dict = {}
        self._blocks: set = set()
        self._op_start = 0

    def begin_op(self) -> None:
        self._agg = {}
        self._counts = defaultdict(int)
        self._blocks = set()
        self.stack = [[ROOT, 0]]
        self.active = True
        self._op_start = time.perf_counter_ns()

    def end_op(self) -> None:
        end = time.perf_counter_ns()
        self.active = False
        (root,) = self.stack
        dur = end - self._op_start
        self._agg[(ROOT, None)] = [1, dur, dur - root[1], self._op_start, end]
        self.ops.append({"spans": self._agg, "counts": dict(self._counts)})

    def close(self, name: str, start: int, end: int, frame: list) -> None:
        self.stack.pop()
        dur = end - start
        parent = self.stack[-1]
        parent[1] += dur
        rec = self._agg.get((name, parent[0]))
        if rec is None:
            self._agg[(name, parent[0])] = [1, dur, dur - frame[1], start, end]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            rec[4] = end

    def count(self, key: str) -> None:
        self._counts[key] += 1

    def block_seen(self, key) -> bool:
        if key in self._blocks:
            return True
        self._blocks.add(key)
        return False

    def to_json(self) -> list[dict]:
        """Per-op spans: name, parent, calls, total/self ns, first start
        and last end (ns from the op's start)."""
        out = []
        for op_id, op in enumerate(self.ops):
            t0 = op["spans"][(ROOT, None)][3]
            spans = [
                {"name": n, "parent": p, "calls": c, "total_ns": tot, "self_ns": own,
                 "start_ns": s - t0, "end_ns": e - t0}
                for (n, p), (c, tot, own, s, e) in op["spans"].items()
            ]
            out.append({"op": op_id, "spans": spans, "counts": op["counts"]})
        return out


def _span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = [name, 0]
        tracer.stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(name, start, time.perf_counter_ns(), frame)

    return wrapper


def _count_to_array(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self):
        if tracer.active:
            tracer.count("core.to_array")
        return fn(self)

    return wrapper


def _count_clause_block(tracer: Tracer, fn):
    """Calls, and distinct ``(instance, i)`` blocks, of ``clause_block``."""

    @functools.wraps(fn)
    def wrapper(self, i):
        if tracer.active:
            tracer.count("families.clause_block")
            if not tracer.block_seen((id(self), int(i))):
                tracer.count("families.clause_block.distinct")
        return fn(self, i)

    return wrapper


def _count_oracle(tracer: Tracer, fn):
    """Calls of ``CountingOracle`` and how many its cache answered."""

    @functools.wraps(fn)
    def wrapper(self, x):
        if tracer.active:
            tracer.count("testers.oracle")
            if x in self.cache:
                tracer.count("testers.oracle.hit")
        return fn(self, x)

    return wrapper


COUNTERS = [
    (_count_to_array, core.BitString, "to_array"),
    (_count_clause_block, families.MonoInstance, "clause_block"),
    (_count_oracle, testers.CountingOracle, "__call__"),
]


def install(tracer: Tracer):
    """Wrap every callable in SPANS and COUNTERS; returns the undo function."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cubetest"]

    def patch(owner, attr, wrap):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(wrap(raw.__func__))
            else:
                new = wrap(raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        # a module function: rebind it in every module that imported it
        raw = getattr(owner, attr)
        new = wrap(raw)
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if val is raw:
                    undo.append((mod, name, raw))
                    setattr(mod, name, new)

    for name, owner, attr in SPANS:
        patch(owner, attr, functools.partial(_span, tracer, name))
    for factory, owner, attr in COUNTERS:
        patch(owner, attr, functools.partial(factory, tracer))

    def uninstall():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# span names whose call counts are reported; every span reports self time
CALLS = (
    "core.rng_draw", "core.bitstring_random", "families.value", "families.satisfied_terms",
    "families.falsified_clauses", "families.truth_table", "families.satisfied_terms_base",
    "sigoracle.mono_full_signature", "sigoracle.unate_signature", "transcripts.extend",
    "transcripts.unate_oracle_query", "distance.witness_edge_at", "distance.exact_dist_mono",
)
STAGES = ("seed", "stage1", "stage4", "outer")


def per_layer_metrics(tracer: Tracer, verdicts: list, plain_s: float) -> dict:
    """Totals over the traced ops.  ``verdicts`` are the attack verdicts
    (empty on other workloads); ``plain_s`` is the untraced time of the
    same ops, the base of ``trace.overhead_frac``."""
    calls, self_ns, edges, counts = Counter(), Counter(), Counter(), Counter()
    for op in tracer.ops:
        for (name, parent), (c, _, own, _, _) in op["spans"].items():
            calls[name] += c
            self_ns[name] += own
            edges[name, parent] += c
        counts.update(op["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{name}.calls": (calls[name], "count") for name in CALLS}
    for name in SPAN_NAMES:
        m["bench.self_ms" if name == ROOT else f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
    m["core.to_array.calls"] = (counts["core.to_array"], "count")
    m["families.clause_block.calls"] = (counts["families.clause_block"], "count")
    m["families.clause_block.miss_ratio"] = (
        ratio(counts["families.clause_block.distinct"], counts["families.clause_block"]), "ratio")
    m["testers.oracle.cache_hit_ratio"] = (
        ratio(counts["testers.oracle.hit"], counts["testers.oracle"]), "ratio")
    m["testers.oracle.fresh"] = (sum(v.queries_used for v in verdicts), "count")
    for stage in STAGES:
        m[f"testers.stage_queries.{stage}"] = (
            sum(v.stage_queries.get(stage, 0) for v in verdicts), "count")
    m["distance.sample_middle_layer.accept_ratio"] = (
        ratio(calls["distance.sample_middle_layer"],
              edges["core.bitstring_random", "distance.sample_middle_layer"]), "ratio")
    wall_ms = sum(op["spans"][(ROOT, None)][1] for op in tracer.ops) / 1e6
    m["trace.wall_ms"] = (wall_ms, "ms")
    m["trace.overhead_frac"] = (ratio(wall_ms / 1e3 - plain_s, plain_s), "frac")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
