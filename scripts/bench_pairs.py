#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write ``BENCH_<label>.json``.

    python3 scripts/bench_pairs.py --label mc_clauses --what "..." --seeds 11-20 \\
        [--parent HEAD] [--change COMMIT] [--workload mc-n16 ...]

The parent side runs from the committed files of ``--parent``, exported
with ``git archive`` into a temporary directory that is removed at the end;
the change side runs from those of ``--change`` in the same way, or from
this checkout's working tree when it is not given.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on
each side, one run at a time, with ``T`` the ``run_seconds`` of
``BENCHMARK.json``.  Odd seeds run the parent first, even seeds the change
first.  A pair whose two runs print different digests stops the script
with exit 1 before anything is written.

The report holds the machine facts, every run's summary line, speed-factor
line (the unscaled timings) and last-line JSON, and per workload and
end-to-end metric the median and quartiles of each side and the number of
pairs the change won (ties count for neither).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def parse_run(stdout: str) -> dict:
    """The summary line, the speed-factor line when the run printed one
    (``speed_factor=… unscaled …``, the op timings before scaling) and the
    last-line JSON of one ``perfbench/run.py`` run."""
    lines = stdout.strip().splitlines()
    summary = [line for line in lines if line.startswith("workload=")]
    if not lines or len(summary) != 1:
        raise ValueError(f"no single summary line in the run's output:\n{stdout}")
    run = {"summary_line": summary[0]}
    run.update(("speed_factor_line", line) for line in lines if line.startswith("speed_factor="))
    run["result"] = json.loads(lines[-1])
    return run


def digest_of(run: dict) -> str:
    fields = dict(f.split("=", 1) for f in run["summary_line"].split())
    return fields["digest"]


def seed_range(text: str) -> list[int]:
    """``"11-20"`` or ``"3"`` as a list of seeds."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def check_pair(workload: str, seed: int, parent: dict, change: dict) -> None:
    if digest_of(parent) != digest_of(change):
        raise SystemExit(
            f"{workload} seed {seed}: digests differ\n"
            f"  parent: {parent['summary_line']}\n  change: {change['summary_line']}"
        )


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: each end-to-end metric's spread on both sides and the
    pairs the change won, the digest of each seed and the failed ops."""
    out: dict = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        pairs: dict[int, dict[str, dict]] = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
        entry: dict = {}
        for m in metrics:
            def value(side: str, seed: int) -> float:
                return pairs[seed][side]["result"]["metrics"][m["name"]]["value"]

            sign = 1 if m["better"] == "higher" else -1
            entry[m["name"]] = {
                "parent": _spread([value("parent", s) for s in pairs]),
                "change": _spread([value("change", s) for s in pairs]),
                "change_better_pairs": sum(
                    sign * (value("change", s) - value("parent", s)) > 0 for s in pairs
                ),
                "pairs": len(pairs),
            }
        entry["digests"] = {str(s): digest_of(p["change"]) for s, p in pairs.items()}
        entry["digests_equal_every_pair"] = all(
            digest_of(p["parent"]) == digest_of(p["change"]) for p in pairs.values()
        )
        entry["failed_ops"] = {
            side: sum(r["result"]["failed"] for r in mine if r["side"] == side)
            for side in ("parent", "change")
        }
        out[name] = entry
    return out


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    facts = {"cpu": cpu, "cores": os.cpu_count()}
    if hasattr(os, "sysconf") and "SC_PHYS_PAGES" in os.sysconf_names:
        facts["memory_mb"] = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") >> 20
    facts["python"] = platform.python_version()
    for package in ("numpy", "scipy"):
        facts[package] = metadata.version(package)
    facts["os"] = f"{platform.system()} {platform.machine()}"
    facts["settings"] = "one run at a time"
    return facts


def run_one(root: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {root} exited {done.returncode}:\n{done.stderr}")
    return parse_run(done.stdout)


def export(rev: str, into: Path, repo: Path = ROOT) -> str:
    """Write the committed files of ``rev`` into ``into``; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=repo, capture_output=True,
                             check=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def sides(parent: str, change: str | None, tmp: Path, repo: Path = ROOT) -> tuple[dict, dict]:
    """The directory each side runs from, and the commit of each side
    (``None`` for the working tree of ``repo``)."""
    roots, commits = {"parent": tmp / "parent", "change": repo}, {"change": None}
    commits["parent"] = export(parent, roots["parent"], repo)
    if change is not None:
        roots["change"] = tmp / "change"
        commits["change"] = export(change, roots["change"], repo)
    return roots, commits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="the report is BENCH_<label>.json")
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--seeds", type=seed_range, required=True, help="a range such as 11-20")
    ap.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    ap.add_argument("--change", help="the change commit (default: this checkout's working tree)")
    ap.add_argument("--workload", action="append",
                    help="a workload of BENCHMARK.json (default every one); repeatable")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or listed
    if unknown := sorted(set(workloads) - set(listed)):
        ap.error(f"not in BENCHMARK.json: {', '.join(unknown)}")
    seconds = bench["run_seconds"]

    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        roots, commits = sides(args.parent, args.change, tmp)
        runs = []
        for workload in workloads:
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_one(roots[side], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "ran_first": side == order[0], **pair[side]})
                    print(f"{side:6s} {pair[side]['summary_line']}", flush=True)
                check_pair(workload, seed, pair["parent"], pair["change"])
    finally:
        shutil.rmtree(tmp)

    report = {
        "label": args.label,
        "what": args.what,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": machine(),
        "command": f"python3 {' '.join(RUN)} --workload <w> --seed <s> --seconds {seconds} "
                   "--trace 0",
        "pairing": f"seeds {args.seeds[0]}-{args.seeds[-1]} per workload; odd seeds run the "
                   "parent first, even seeds the change first",
        "summary": summarise(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
