"""Named experiments with deterministic CSV persistence.

Every acceptance criterion is a named experiment run from a JSON config
in ``configs/``; the acceptance suite and ``scripts/calibrate.py`` read
their rows from ``run_experiment`` on those configs.  A config holds only
what determines its rows and is hashed whole; the thread count and the
output directory are run settings, arguments of ``run_experiment`` and
``write_results``.  Results land in ``<out>/<experiment>/<config-hash>/``
as ``rows.csv`` plus ``meta.json`` (schema 2).  Reruns with an identical
config produce identical metric columns (wall-time is the only volatile
field), which is what the ``verify`` command enforces.

Parallelism is by seed only (a worker owns whole seeds, never parts of a
run), so per-run determinism is independent of the thread count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

from .core import BitString, RngStream
from .distance import (
    count_violating_edges,
    estimate_witness_density,
    exact_dist_mono,
    exact_dist_unate,
    exhaustive_witness_density,
    sample_middle_layer,
    unate_dist_lower_bound,
    witness_edge_family,
)
from .families import _FAMILIES, QuadrantInstance, MonoInstance, UnateInstance, sample_instance
from .likelihood import (
    mono_leaf_likelihood,
    mono_leaf_likelihood_bruteforce,
    unate_likelihood_bruteforce,
    unate_transcript_likelihood,
)
from .sigoracle import (
    OutOfBandError,
    mono_full_signature,
    unate_signature,
    value_from_mono_signature,
    value_from_unate_signature,
)
from .testers import (
    TesterConfig,
    flipped_dnf_attack,
    check_orientation,
    edge_tester,
    find_good_orientation,
    two_level_attack,
    OrientationNotFoundError,
)
from .transcripts import (
    ClassifierConfig,
    MonoTranscript,
    UnateSignatureOracle,
    classify_mono_edge,
    consistency_status,
    induced_mono_tuple,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "write_results",
    "verify_results",
    "EXPERIMENTS",
]

SCHEMA_VERSION = 2


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def _is_count(value, least: int) -> bool:
    return type(value) is int and value >= least


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    family: Optional[str] = None
    n: list[int] = field(default_factory=list)
    worlds: list[str] = field(default_factory=lambda: ["yes"])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    samples: int = 0
    budget: int = 1000
    alpha: float = 4.0
    tester: Optional[str] = None
    queries_per_transcript: int = 30

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Parse a config; a malformed grid, a count or ``alpha`` that is
        not a number in range, or a missing or unknown experiment, family or
        tester raises ``ValueError`` naming the field."""
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        seeds = obj.get("seeds", list(range(10)))
        if (isinstance(seeds, dict) and seeds.keys() == {"start", "count"}
                and _is_int_list(list(seeds.values()))):
            seeds = list(range(seeds["start"], seeds["start"] + seeds["count"]))
        worlds = obj.get("worlds", [])
        # a farness estimate or a soundness check needs a sample; elsewhere
        # 0 samples means none
        sampled = obj.get("experiment") in ("farness-estimate", "signature-soundness")
        least = {"samples": int(sampled),
                 "budget": 1, "queries_per_transcript": 1}
        alpha = obj.get("alpha", 4.0)
        for name, ok, expected in (
            ("experiment", obj.get("experiment") in tuple(EXPERIMENTS),
             f"one of {sorted(EXPERIMENTS)}"),
            ("family", obj.get("family") in (None, *_FAMILIES), f"one of {sorted(_FAMILIES)}"),
            ("tester", obj.get("tester") in (None, *_ATTACKS), f"one of {sorted(_ATTACKS)}"),
            ("n", _is_int_list(obj.get("n", [])), "a list of ints"),
            ("seeds", _is_int_list(seeds), "a list of ints or a {start, count} dict"),
            ("worlds", isinstance(worlds, list) and all(w in ("yes", "no") for w in worlds),
             'a list drawn from "yes"/"no"'),
            *((key, _is_count(obj.get(key, cls.__dataclass_fields__[key].default), low),
               f"an int >= {low}")
              for key, low in least.items()),
            ("alpha", type(alpha) in (int, float) and alpha >= 1, "an int or a float >= 1"),
        ):
            if not ok:
                raise ValueError(
                    f"config field {name!r}: expected {expected}, got {obj.get(name)!r}")
        return cls(**{**obj, "seeds": seeds})

    def to_json(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ResultRow:
    experiment: str
    seed: int
    n: int
    world: str
    metric: str
    value: float
    ci: float = 0.0
    queries: int = 0
    wall_time_s: float = 0.0

    def key(self) -> tuple:
        return (self.n, self.world, self.seed, self.metric)


def _term_len(n: int) -> int:
    """Two-level term length: ``sqrt(n)`` at square ``n``, rounded elsewhere."""
    return round(math.sqrt(n))


def _pmap(threads: int, fn: Callable, tasks: list) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * threads))))


# ---------------------------------------------------------------------------
# Experiment bodies (one call = one seed)
#
# A body takes (cfg, n, world, seed) and returns its metrics as tuples
# (metric, value[, ci[, queries]]); _run_task turns them into rows.
# ---------------------------------------------------------------------------


def _monotone_check_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = sample_instance(cfg.family or "mono", n, world, seed, term_len=_term_len(n))
    return [("violating_edges", count_violating_edges(inst.truth_table(), n))]


def _unate_check_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = UnateInstance.sample(n, world, seed)
    table = inst.base_truth_table()
    return [("deoriented_violating_edges", count_violating_edges(table, n))]


def _signature_soundness_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    family = cfg.family or "mono"
    inst = sample_instance(family, n, world, seed, term_len=_term_len(n))
    rng = RngStream(seed, f"soundness-{family}")
    mismatches = 0
    checked = 0
    while checked < cfg.samples:
        x = BitString.random(n, rng)
        if family == "mono":
            if inst.weight_class(x) != "middle":
                continue
            got = value_from_mono_signature("middle", mono_full_signature(inst, x))
        else:  # onelevel or unate: the single-level core
            if inst.band_class_base(x.xor(inst.orientation)) != "middle":
                continue
            got = value_from_unate_signature("middle", unate_signature(inst, x))
        checked += 1
        if got != inst.value(x):
            mismatches += 1
    return [("mismatches", mismatches, 0, checked)]


def _tuple_axioms_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = MonoInstance.sample(n, world, seed)
    rng = RngStream(seed, "axioms")
    t = MonoTranscript(n)
    for _ in range(cfg.queries_per_transcript):
        x = sample_middle_layer(inst.n, inst.band_low, inst.band_high, rng)
        t.extend(x, mono_full_signature(inst, x))
    violations = len(t.check_axioms()) + len(t.cross_check_instance(inst))
    return [("axiom_violations", violations, 0, len(t.queries))]


def _toy_mono_instance(n: int, world: str, seed: int, n_terms: int = 4) -> MonoInstance:
    g = RngStream(seed, "toy-mono")
    m = math.isqrt(n)
    terms = [[g.randint0(n) for _ in range(m)] for _ in range(n_terms)]
    clauses = [
        [[g.randint0(n) for _ in range(m)] for _ in range(n_terms)]
        for _ in range(n_terms)
    ]
    dicts = [[g.randint0(n) for _ in range(n_terms)] for _ in range(n_terms)]
    return MonoInstance.from_parts(n, world, terms, clauses, dicts)


def _likelihood_equivalence_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    rng = RngStream(seed, "likelihood")
    worst = 0.0

    inst = _toy_mono_instance(n, world, seed)
    t = MonoTranscript(n)
    for _ in range(cfg.queries_per_transcript):
        x = sample_middle_layer(inst.n, inst.band_low, inst.band_high, rng)
        t.extend(x, mono_full_signature(inst, x))
    # the closed form covers consistent transcripts only
    mono_compared = all(consistency_status(t, i, j) != "inconsistent" for (i, j) in t.rho)
    if mono_compared:
        closed = mono_leaf_likelihood(inst, t)
        brute = mono_leaf_likelihood_bruteforce(inst, t)
        for a, b in ((closed.p_yes, brute.p_yes), (closed.p_no, brute.p_no)):
            if a != 0 or b != 0:
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))

    u = UnateInstance.sample(n, world, seed)
    oracle = UnateSignatureOracle(u)
    added, tries = 0, 0
    rng2 = RngStream(seed, "likelihood-unate")
    while added < cfg.queries_per_transcript and tries < 100 * cfg.queries_per_transcript:
        tries += 1
        x = BitString.random(n, rng2)
        try:
            oracle.query(x)
            added += 1
        except OutOfBandError:
            continue
    closed = unate_transcript_likelihood(u, oracle.transcript, mode="exhaustive")
    brute = unate_likelihood_bruteforce(u, oracle.transcript)
    for a, b in ((closed.p_yes, brute.p_yes), (closed.p_no, brute.p_no)):
        if a != 0 or b != 0:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return [("max_rel_err", worst), ("mono_compared", float(mono_compared))]


def _witness_density_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = MonoInstance.sample(n, "no", seed)
    exact = exhaustive_witness_density(inst)
    est = estimate_witness_density(inst, cfg.samples, RngStream(seed, "witness-mc"))
    return [
        ("exhaustive_pr", exact),
        ("mc_pr", est.estimate, est.ci_halfwidth, cfg.samples),
    ]


def _farness_consistency_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = sample_instance("mono", n, "no", seed, term_len=_term_len(n))
    fam = witness_edge_family(inst)
    used = set()
    for x, y in fam:
        assert x.bits not in used and y.bits not in used, "family edges overlap"
        used.add(x.bits)
        used.add(y.bits)
    density = Fraction(len(fam), 1 << n)
    dist = exact_dist_mono(inst.truth_table(), n, cap=max(n, 14))
    return [
        ("family_density", float(density)),
        ("exact_dist", float(dist)),
        ("lower_bound_ok", float(density <= dist)),
    ]


def _quadrant_farness_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = QuadrantInstance(n, seed)  # seed doubles as the special index
    table = inst.truth_table()
    return [
        ("lower_bound", float(unate_dist_lower_bound(table))),
        ("exact_dist_unate", float(exact_dist_unate(table, cap=n + 2))),
    ]


_ATTACKS = {
    "edge": edge_tester,
    "flipdnf": flipped_dnf_attack,
    "two-level": two_level_attack,
}
_ATTACK_FAMILY = {"edge": "mono", "flipdnf": "flipdnf", "two-level": "mono"}


def _attack_rates_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    tester = cfg.tester or "edge"
    family = cfg.family or _ATTACK_FAMILY[tester]
    inst = sample_instance(family, n, world, seed, term_len=_term_len(n))
    verdict = _ATTACKS[tester](inst.value, n, TesterConfig(q=cfg.budget, seed=seed))
    witness_ok = 1.0
    if verdict.decision == "reject":
        witness_ok = float(verdict.witness.verify(inst.value))
    return [
        ("reject", float(verdict.decision == "reject"), 0, verdict.queries_used),
        ("witness_ok", witness_ok, 0, verdict.queries_used),
    ]


def _orientation_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    rng = RngStream(seed, "orientation")
    log2n = math.log2(n)
    size = max(1, math.floor(n / (log2n * log2n)))
    if cfg.samples:
        size = cfg.samples
    points = [BitString.random(n, rng) for _ in range(size)]
    try:
        r, tries = find_good_orientation(points, rng, max_tries=cfg.budget)
        found, ok = 1.0, float(check_orientation(points, r, n))
    except OrientationNotFoundError as e:
        tries, found, ok = e.tries, 0.0, 0.0
    return [("tries", tries), ("found", found), ("found_and_valid", ok)]


def _classifier_sanity_task(cfg: ExperimentConfig, n: int, world: str, seed: int) -> list:
    inst = MonoInstance.sample(n, "yes", seed)
    rng = RngStream(seed, "classifier")
    ccfg = ClassifierConfig(n, alpha=cfg.alpha)
    t = MonoTranscript(n)
    false_e3 = 0
    for _ in range(cfg.queries_per_transcript):
        x = sample_middle_layer(inst.n, inst.band_low, inst.band_high, rng)
        sig = mono_full_signature(inst, x)
        edge = classify_mono_edge(t, x, sig, ccfg)
        if edge.kind == "E3":
            # ground truth: did a zero-consistent cell actually flip?
            i, j = edge.i, edge.j
            actual = (
                consistency_status(t, i, j) == "zero_consistent"
                and sig.value_for(j) == 1
            )
            if not actual:
                false_e3 += 1
        if edge.kind is not None and t.bad_edge is None:
            t.bad_edge = edge
        t.extend(x, sig)
    ref = induced_mono_tuple(t.queries)
    drift = 0 if (ref.rho == t.rho and ref.I == t.I) else 1
    return [("false_e3", false_e3, 0, len(t.queries)), ("tuple_drift", drift)]


EXPERIMENTS: dict[str, Callable] = {
    "monotone-check": _monotone_check_task,
    "unate-check": _unate_check_task,
    "signature-soundness": _signature_soundness_task,
    "tuple-axioms": _tuple_axioms_task,
    "likelihood-equivalence": _likelihood_equivalence_task,
    "farness-estimate": _witness_density_task,
    "farness-consistency": _farness_consistency_task,
    "quadrant-farness": _quadrant_farness_task,
    "attack-rates": _attack_rates_task,
    "orientation-search": _orientation_task,
    "classifier-sanity": _classifier_sanity_task,
}

# these sample a no-world instance whatever the grid says, so each seed runs
# once, on world "no"
_NO_WORLD_ONLY = {"farness-estimate", "farness-consistency", "quadrant-farness"}


def _run_task(args) -> list[ResultRow]:
    """Run one seed of an experiment and stamp its metrics as rows.

    Each row gets the experiment, seed, n, world and the body's wall
    time.  An exception becomes one ``error:<Type>`` row with the grid
    world, its message goes to stderr, and the rest of the grid keeps
    running (per-seed failure isolation; module-level so process pools
    can pickle it).
    """
    cfg, n, world, seed = args
    t0 = time.perf_counter()
    try:
        metrics = EXPERIMENTS[cfg.experiment](cfg, n, world, seed)
    except Exception as e:  # noqa: BLE001 - recorded, not swallowed silently
        metric = f"error:{type(e).__name__}"
        line = f"failed: {cfg.experiment} n={n} world={world} seed={seed} {metric}: {e}\n"
        sys.stderr.write(line)  # one write, so lines of concurrent workers do not interleave
        return [ResultRow(cfg.experiment, seed, n, world, metric, 1.0)]
    dt = time.perf_counter() - t0
    return [ResultRow(cfg.experiment, seed, n, world, *m, wall_time_s=dt) for m in metrics]


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[ResultRow]:
    """Run the named experiment over its (n, world, seed) grid.

    ``threads`` worker processes share the seeds; the rows do not depend
    on it.  The experiments of ``_NO_WORLD_ONLY`` run on world ``"no"`` alone,
    whatever ``cfg.worlds`` holds.  Per-seed failures are recorded as
    ``error:*`` metric rows; the run continues.
    """
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {cfg.experiment!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        )
    worlds = ["no"] if cfg.experiment in _NO_WORLD_ONLY else cfg.worlds
    tasks = [
        (cfg, n, world, seed)
        for n in cfg.n
        for world in worlds
        for seed in cfg.seeds
    ]
    results: list[ResultRow] = []
    for rows in _pmap(threads, _run_task, tasks):
        results.extend(rows)
    results.sort(key=ResultRow.key)
    return results


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_CSV_FIELDS = [
    "experiment", "seed", "n", "world", "metric", "value", "ci",
    "queries", "wall_time_s",
]


def rows_to_csv(rows: Iterable[ResultRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_FIELDS)
    for r in rows:
        w.writerow(
            [
                r.experiment, r.seed, r.n, r.world, r.metric,
                repr(float(r.value)), repr(float(r.ci)), r.queries,
                f"{r.wall_time_s:.6f}",
            ]
        )
    return buf.getvalue()


def write_results(cfg: ExperimentConfig, rows: list[ResultRow], out_dir: str | Path) -> Path:
    """Write ``rows.csv`` + ``meta.json`` under <out>/<experiment>/<hash>/."""
    target = Path(out_dir) / cfg.experiment / cfg.config_hash()
    target.mkdir(parents=True, exist_ok=True)
    (target / "rows.csv").write_text(rows_to_csv(rows))
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.to_json(),
        "config_hash": cfg.config_hash(),
        "row_count": len(rows),
    }
    (target / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    return target


def _stable_columns(csv_text: str) -> list[tuple]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = rows[0]
    drop = header.index("wall_time_s")
    return [tuple(v for k, v in enumerate(r) if k != drop) for r in rows[1:]]


def _error_rows(csv_text: str) -> list[str]:
    """``n/world/seed/metric`` of each ``error:*`` row (a failed seed)."""
    return [
        f"{r['n']}/{r['world']}/{r['seed']}/{r['metric']}"
        for r in csv.DictReader(io.StringIO(csv_text))
        if r["metric"].startswith("error:")
    ]


def verify_results(results_dir: str | Path, threads: int = 1) -> tuple[bool, str]:
    """Re-run the config stored next to a results file and compare rows.

    Returns (ok, message); metric columns must match exactly, wall time is
    ignored, and an ``error:*`` row in the stored or the fresh rows fails
    the check (a seed that fails the same way twice is still a failure).
    Results of another schema version fail without a rerun.
    """
    target = Path(results_dir)
    meta = json.loads((target / "meta.json").read_text())
    if (version := meta.get("schema_version")) != SCHEMA_VERSION:
        return False, (f"meta.json has schema version {version}, not {SCHEMA_VERSION}; "
                       "re-run the experiment to regenerate the results")
    cfg = ExperimentConfig.from_json(meta["config"])
    if meta.get("config_hash") != cfg.config_hash():
        return False, "config hash mismatch between meta.json and recomputed hash"
    old = (target / "rows.csv").read_text()
    if failed := _error_rows(old):
        return False, f"stored rows hold failed seeds: {', '.join(failed)}"
    fresh = rows_to_csv(run_experiment(cfg, threads))
    if failed := _error_rows(fresh):
        return False, f"the rerun has failed seeds: {', '.join(failed)}"
    if _stable_columns(fresh) != _stable_columns(old):
        return False, "metric columns differ from the stored rows"
    return True, f"verified {meta['row_count']} rows for {cfg.experiment}"
