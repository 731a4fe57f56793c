"""``scripts/bench_pairs.py`` builds its report from run output alone.

The report must keep the shape of the checked-in ``BENCH_transcript.json``,
and a pair whose digests differ must stop the script.  Both are checked on
canned ``perfbench/run.py`` output, without starting a benchmark.  Every
checked-in ``BENCH_*.json`` must recompute, from its own runs, to the
summary it stores.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("_bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_pairs = _load()
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _stdout(workload: str, seed: int, ops_per_s: float, digest: str, failed: int = 0) -> str:
    metrics = {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_ms_p50": {"value": 1e3 / ops_per_s, "unit": "ms"},
        "op_ms_p90": {"value": 2e3 / ops_per_s, "unit": "ms"},
        "setup_s": {"value": 0.2, "unit": "s"},
        "peak_rss_mb": {"value": 40.0 + seed, "unit": "MB"},
    }
    return "\n".join([
        "speed_factor=1.02 unscaled ops_per_s=100 op_ms_p50=10 op_ms_p90=20 setup_s=0.2",
        f"workload={workload} seed={seed} trace=0 ops=300 failed={failed} "
        f"failed_frac={failed / 300:.6g} digest={digest} digest_ops=72",
        json.dumps({"correct": failed == 0, "attempted": 300, "failed": failed,
                    "metrics": metrics}),
    ]) + "\n"


def _runs() -> list[dict]:
    runs = []
    for workload in ("mc-n16", "attack-n100"):
        for seed in (1, 2, 3, 4):
            digest = f"{workload}-{seed}"
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                # the change is faster on seeds 1-3 and as fast on seed 4
                rate = 100.0 + seed + (20.0 if side == "change" and seed < 4 else 0.0)
                out = bench_pairs.parse_run(_stdout(workload, seed, rate, digest))
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first": side == order[0], **out})
    return runs


def _shape(obj):
    """Keys of nested dicts, with per-seed digest keys and list items left out."""
    if isinstance(obj, dict):
        return {k: (None if k == "digests" else _shape(v)) for k, v in obj.items()}
    return type(obj).__name__ if not isinstance(obj, list) else "list"


def test_report_keeps_the_shape_of_the_checked_in_reports():
    runs = _runs()
    summary = bench_pairs.summarise(runs, METRICS)
    old = json.loads((ROOT / "BENCH_transcript.json").read_text())
    assert _shape(summary["mc-n16"]) == _shape(old["summary"]["mc-n16"])
    # older reports keep no speed-factor line
    first = dict(runs[0])
    assert first.pop("speed_factor_line") == (
        "speed_factor=1.02 unscaled ops_per_s=100 op_ms_p50=10 op_ms_p90=20 setup_s=0.2")
    assert _shape(first) == _shape(old["runs"][0])
    assert _shape(bench_pairs.machine()).keys() == old["machine"].keys()

    rate = summary["mc-n16"]["ops_per_s"]
    assert rate["pairs"] == 4 and rate["change_better_pairs"] == 3
    assert rate["parent"]["median"] == 102.5
    # lower is better for latency: the faster change wins the same pairs
    assert summary["attack-n100"]["op_ms_p50"]["change_better_pairs"] == 3
    assert summary["mc-n16"]["peak_rss_mb"]["change_better_pairs"] == 0
    assert summary["mc-n16"]["digests"] == {str(s): f"mc-n16-{s}" for s in (1, 2, 3, 4)}
    assert summary["mc-n16"]["digests_equal_every_pair"] is True
    assert summary["mc-n16"]["failed_ops"] == {"parent": 0, "change": 0}
    assert [(r["seed"], r["side"]) for r in runs[:4]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent")]


def test_differing_digests_stop_the_script():
    parent = bench_pairs.parse_run(_stdout("mc-n16", 5, 100.0, "aaaa"))
    change = bench_pairs.parse_run(_stdout("mc-n16", 5, 120.0, "bbbb"))
    bench_pairs.check_pair("mc-n16", 5, parent, parent)
    with pytest.raises(SystemExit, match="mc-n16 seed 5: digests differ"):
        bench_pairs.check_pair("mc-n16", 5, parent, change)


def test_sides_export_each_commit_or_keep_the_working_tree(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args: str) -> str:
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=repo, capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    for text in ("old", "new"):
        (repo / "f.txt").write_text(text)
        git("add", "f.txt")
        git("commit", "-q", "-m", text)
    (repo / "f.txt").write_text("edited")
    old, new = git("rev-parse", "HEAD~1"), git("rev-parse", "HEAD")

    roots, commits = bench_pairs.sides("HEAD~1", "HEAD", tmp_path / "a", repo)
    assert commits == {"parent": old, "change": new}
    assert [(roots[s] / "f.txt").read_text() for s in ("parent", "change")] == ["old", "new"]
    # without --change the change side is the working tree, edits included
    roots, commits = bench_pairs.sides("HEAD", None, tmp_path / "b", repo)
    assert commits == {"parent": new, "change": None}
    assert roots["change"] == repo and (repo / "f.txt").read_text() == "edited"
    assert (roots["parent"] / "f.txt").read_text() == "new"
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.sides("HEAD", "no-such-commit", tmp_path / "c", repo)


def test_output_without_a_summary_line_is_refused():
    with pytest.raises(ValueError, match="no single summary line"):
        bench_pairs.parse_run('{"correct": true}\n')


@pytest.mark.parametrize("text, seeds", [("11-20", list(range(11, 21))), ("3", [3])])
def test_seed_range(text, seeds):
    assert bench_pairs.seed_range(text) == seeds


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_checked_in_reports_match_their_own_runs(path):
    # a hand-edited summary must not pass for evidence; the medians are
    # compared, not the quartiles, which older reports computed another way
    report = json.loads(path.read_text())
    summary = bench_pairs.summarise(report["runs"], METRICS)
    for run in report["runs"]:  # the speed-factor line is absent from older reports
        line = run.get("speed_factor_line", "speed_factor=1 unscaled")
        assert line.startswith("speed_factor=") and " unscaled" in line, line
    assert summary.keys() == report["summary"].keys()
    for workload, got in summary.items():
        stored = report["summary"][workload]
        for m in METRICS:
            name = m["name"]
            for side in ("parent", "change"):
                assert stored[name][side]["median"] == got[name][side]["median"], (workload, name)
            for key in ("change_better_pairs", "pairs"):
                assert stored[name][key] == got[name][key], (workload, name, key)
        assert got["digests_equal_every_pair"], workload
        assert got["failed_ops"] == {"parent": 0, "change": 0}, workload
        for key in ("digests_equal_every_pair", "failed_ops"):  # absent from older reports
            assert stored.get(key, got[key]) == got[key], (workload, key)
