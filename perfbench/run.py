"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attack-n100 --seed 1 --seconds 20 --trace 0

Runs in a single process and thread: a closed loop with one op in flight.
Each op's inputs come from ``--seed`` and the op index.  Only the op is
timed; its check against an independent reference runs between ops.

``--trace 0`` loops until ``--seconds`` of wall time (ops plus checks) have
passed, and at least ``MIN_OPS`` ops, and reports the end-to-end metrics;
its op timings are divided by the host's speed factor (see ``speed.py``).
``--trace 1`` runs the first ``seconds * traced_ops_per_s`` ops twice,
untraced and then traced, and reports the per-layer metrics; the per-op
spans go to ``.perfbench/``.  Both modes print the digest of the records
of those first ops, so equal code and seed print equal digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the script's first statement

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

# p90 needs at least ten ops beyond it
MIN_OPS = 110
# stop a run that outgrows this wall time, so the process ends in time
MAX_WALL_S = 140.0
SETUP_PROBES = 5
WARMUP_INDICES = (-1, -2)


def _load_library():
    """Import the library from this checkout's ``src``, and only from there."""
    if not (SRC / "cubetest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    import cubetest

    if Path(cubetest.__file__).resolve().parent != SRC / "cubetest":
        sys.exit(f"perfbench: imported cubetest from {cubetest.__file__}, not {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


def _run_op(wl, op):
    """Run one op; returns (output or None, error text or None)."""
    try:
        return wl.run(op), None
    except Exception:  # a raising op is a failed op, not a crashed run
        return None, traceback.format_exc(limit=3)


def _check(wl, op, out, err) -> list[str]:
    if err is not None:
        return [f"op raised: {err.strip().splitlines()[-1]}"]
    try:
        return wl.check(op, out)
    except Exception:
        return [f"check raised: {traceback.format_exc(limit=3).strip().splitlines()[-1]}"]


def _record(wl, out, err) -> str:
    return f"error:{err.strip().splitlines()[-1]}" if err is not None else wl.record(out)


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter on the same workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    """Failures, digest and a few failure messages of a run."""

    def __init__(self, digest_ops: int, keep: bool = False):
        self.digest_ops = digest_ops
        self.keep = keep
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._hash = hashlib.sha256()
        # with ``keep``, every op's problems and record, for a second pass
        self.problems: list[list[str]] = []
        self.records: list[str] = []

    def add(self, op, problems: list[str], record: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {op.index}: {'; '.join(problems[:3])}")
        if op.index < self.digest_ops:
            self._hash.update(record.encode() + b"\n")
        if self.keep:
            self.problems.append(problems)
            self.records.append(record)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:32]


def run_untraced(wl, args, digest_ops: int):
    import speed

    probe = speed.SpeedProbe()
    tally = Tally(digest_ops)
    durations = []
    start = time.perf_counter()
    index = 0
    while True:
        wall = time.perf_counter() - start
        if wall >= MAX_WALL_S or (wall >= args.seconds and index >= max(MIN_OPS, digest_ops)):
            break
        op = wl.make_op(args.seed, index)
        t0 = time.perf_counter()
        out, err = _run_op(wl, op)
        durations.append(time.perf_counter() - t0)
        tally.add(op, _check(wl, op, out, err), _record(wl, out, err))
        probe.maybe_sample()
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return tally, durations, peak_rss_mb, probe.factor()


def run_traced(wl, args, count: int):
    import tracing

    ops = [wl.make_op(args.seed, i) for i in range(count)]
    plain = Tally(count, keep=True)
    plain_s = 0.0
    for op in ops:
        t0 = time.perf_counter()
        out, err = _run_op(wl, op)
        plain_s += time.perf_counter() - t0
        plain.add(op, _check(wl, op, out, err), _record(wl, out, err))

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    traced = Tally(count)
    verdicts = []
    try:
        for op in ops:
            tracer.begin_op()
            out, err = _run_op(wl, op)
            tracer.end_op()
            problems = plain.problems[op.index] + _check(wl, op, out, err)
            rec = _record(wl, out, err)
            if rec != plain.records[op.index]:
                problems.append("traced output differs from the untraced output")
            traced.add(op, problems, rec)
            if out is not None and "verdict" in out:
                verdicts.append(out["verdict"])
    finally:
        uninstall()
    return traced, tracer, tracing.per_layer_metrics(tracer, verdicts, plain_s)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = _load_library()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    wl = workloads.WORKLOADS[args.workload]
    for index in WARMUP_INDICES:  # fixed inputs, so set-up cost does not vary by seed
        _, err = _run_op(wl, wl.make_op(0, index))
        if err is not None:
            print(f"perfbench: warm-up op {index} raised:\n{err}", file=sys.stderr)
    setup_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    digest_ops = max(2, round(args.seconds * wl.traced_ops_per_s))
    if args.trace:
        tally, tracer, metrics = run_traced(wl, args, digest_ops)
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "ops": tracer.to_json()}))
    else:
        tally, durations, peak_rss_mb, factor = run_untraced(wl, args, digest_ops)
        setups = [setup_s] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
        ms = sorted(d * 1e3 for d in durations)
        raw = {"ops_per_s": len(durations) / sum(durations), "op_ms_p50": statistics.median(ms),
               "op_ms_p90": statistics.quantiles(ms, n=10)[8], "setup_s": statistics.median(setups)}
        print(f"speed_factor={factor:.6g} unscaled " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        metrics = {
            "ops_per_s": {"value": raw["ops_per_s"] * factor, "unit": "1/s"},
            "op_ms_p50": {"value": raw["op_ms_p50"] / factor, "unit": "ms"},
            "op_ms_p90": {"value": raw["op_ms_p90"] / factor, "unit": "ms"},
            "setup_s": {"value": raw["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for msg in tally.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.6g} "
          f"digest={tally.digest} digest_ops={min(digest_ops, tally.attempted)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
