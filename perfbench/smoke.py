"""Smoke check of the benchmark itself, at a tiny size (under a minute).

    python3 perfbench/smoke.py

For every workload of ``workloads.py``, including ``exhaustive-n14``, which
``BENCHMARK.json`` leaves out while the library fails it (see README.md),
it checks that:

* the untraced run prints every end-to-end metric of ``BENCHMARK.json`` and
  the traced run every per-layer metric, with no failed op;
* the same seed gives the same digest twice, and the traced run gives the
  untraced run's digest, so tracing cannot change results;
* the per-layer self times plus the benchmark's own self time add up to
  the traced wall time;
* the layers the workload exists for report work, and the bypass workload
  ``exhaustive-n14`` makes no RNG draws and no scalar oracle calls.

Exits 1 and lists the problems when a check fails.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEED = 1
SECONDS = 0.5
MIN_OPS = 12

# per-layer metrics that must be non-zero on each workload
EXPECTED = {
    "attack-n100": [
        "core.rng_draw.calls", "core.bitstring_random.calls", "core.to_array.calls",
        "families.value.calls", "families.satisfied_terms.calls", "families.sample.self_ms",
        "families.clause_block.calls", "testers.attack.self_ms", "testers.oracle.fresh",
        "testers.stage_queries.seed",
    ],
    "mc-n16": [
        "core.rng_draw.calls", "core.bitstring_random.calls", "families.satisfied_terms.calls",
        "families.falsified_clauses.calls", "families.sample.self_ms",
        "distance.estimate_witness_density.self_ms", "distance.witness_edge_at.calls",
        "distance.sample_middle_layer.accept_ratio",
    ],
    "exhaustive-n14": [
        "families.truth_table.calls", "distance.exact_dist_mono.calls",
        "distance.matching.self_ms", "distance.witness_edge_family.self_ms",
        "distance.count_violating_edges.self_ms", "distance.unate_dist_lower_bound.self_ms",
    ],
    "transcript-n16": [
        "families.satisfied_terms_base.calls", "sigoracle.mono_full_signature.calls",
        "sigoracle.unate_signature.calls", "transcripts.extend.calls",
        "transcripts.classify_mono_edge.self_ms", "transcripts.check_axioms.self_ms",
        "transcripts.cross_check_instance.self_ms", "transcripts.unate_oracle_query.calls",
        "likelihood.unate_closed.self_ms",
    ],
}
# must stay zero: the bypass workload for oracle and RNG changes
ABSENT = {"exhaustive-n14": ["core.rng_draw.calls", "families.value.calls"]}


def _run(workload: str, trace: int) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(["--workload", workload, "--seed", str(SEED),
                  "--seconds", str(SECONDS), "--trace", str(trace)])
    *_, summary, result = buf.getvalue().strip().splitlines()
    return summary.split("digest=")[1].split()[0], json.loads(result)


def check_workload(workload: str, spec: dict) -> list[str]:
    bad = []
    digests = []
    for trace in (0, 0, 1):
        digest, res = _run(workload, trace)
        digests.append(digest)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"] for m in spec[kind]}
        if set(res["metrics"]) != want:
            bad.append(f"trace={trace}: metrics {sorted(set(res['metrics']) ^ want)} "
                       f"differ from the {kind} list")
        if res["failed"] or not res["correct"]:
            bad.append(f"trace={trace}: {res['failed']} of {res['attempted']} ops failed")
    if len(set(digests)) != 1:
        bad.append(f"digests differ: untraced {digests[0]}, {digests[1]}; traced {digests[2]}")

    m = {k: v["value"] for k, v in res["metrics"].items()}
    own = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    if abs(own - m["trace.wall_ms"]) > 1e-6 * m["trace.wall_ms"]:
        bad.append(f"self times sum to {own} ms, traced wall is {m['trace.wall_ms']} ms")
    bad += [f"{k} is 0" for k in EXPECTED[workload] if not m.get(k)]
    bad += [f"{k} is {m[k]}, expected 0" for k in ABSENT.get(workload, []) if m[k]]
    return bad


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run.MIN_OPS = MIN_OPS
    problems = []
    for name in run._load_library().WORKLOADS:
        bad = check_workload(name, spec)
        print(f"{'ok  ' if not bad else 'FAIL'} {name}")
        problems += [f"{name}: {b}" for b in bad]
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
