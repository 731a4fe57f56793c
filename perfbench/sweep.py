"""Run workloads over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload attack-n100 ...] [--out FILE]

Runs ``run.py`` once per workload and seed, one process at a time, with the
run length of ``BENCHMARK.json``.  For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound, and the spreads of the values before speed scaling.
``--out`` writes the same summary as JSON, the form of ``baseline.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    *_, speed, summary, result = done.stdout.strip().splitlines()
    res = json.loads(result)
    res["digest"] = summary.split("digest=")[1].split()[0]
    # "speed_factor=F unscaled ops_per_s=V op_ms_p50=V op_ms_p90=V"
    fields = dict(f.split("=") for f in speed.split() if "=" in f)
    res["speed_factor"] = float(fields.pop("speed_factor"))
    res["unscaled"] = {k: float(v) for k, v in fields.items()}
    res["wall_s"] = wall
    return res


def _spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"facts": machine_facts(), "run_seconds": spec["run_seconds"], "workloads": {}}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for workload in args.workload or list(whys):
        runs = []
        for seed in _seeds(args.seeds):
            r = run_once(workload, seed, spec["run_seconds"])
            runs.append(r)
            print(f"{workload} seed={seed} wall={r['wall_s']:.1f}s ops={r['attempted']} "
                  f"failed={r['failed']} digest={r['digest']} speed={r['speed_factor']:.4f} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        summary = summarise(runs, bounds)
        for name, s in summary.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name}: median {s['median']:.5g} {s['unit']}, quartiles "
                  f"{s['q1']:.5g}..{s['q3']:.5g}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']}){flag}", flush=True)
        unscaled = {name: _spread([r["unscaled"][name] for r in runs]) for name in runs[0]["unscaled"]}
        print("  unscaled spreads: " + ", ".join(f"{k} {v:.4f}" for k, v in unscaled.items()))
        report["workloads"][workload] = {
            "why": whys.get(workload),
            "seeds": _seeds(args.seeds),
            "metrics": summary,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "digests": [r["digest"] for r in runs],
            "speed_factors": [r["speed_factor"] for r in runs],
            "unscaled_spreads": unscaled,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
