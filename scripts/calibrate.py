#!/usr/bin/env python3
"""Regenerate tests/fixtures/calibration.json from the pinned configs.

The fixture pins three empirically measured quantities that have no
closed-form target: the mean exhaustive witness-set density of no-world
two-level instances at n=16 (``configs/criterion_06_farness_estimate.json``)
and the no-world reject rates of both staged attacks at n=100 (the two
``configs/criterion_09_10_attack_rates_*_no.json``).  Each is computed from
the rows ``run_experiment`` returns for its config, the same rows the
acceptance suite gates and ``cubetest verify`` replays; the suite treats
them as regression anchors (20% / 50% relative bands).  The configs own the
seeds, runs and budgets.

    PYTHONPATH=src python scripts/calibrate.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from cubetest.experiments import ExperimentConfig, _error_rows, rows_to_csv, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def metric_values(config: str, metric: str) -> list[float]:
    """Values of ``metric`` in the rows of ``configs/<config>.json``."""
    cfg = ExperimentConfig.from_json(json.loads((ROOT / "configs" / f"{config}.json").read_text()))
    rows = run_experiment(cfg, threads=os.cpu_count() or 1)
    if failed := _error_rows(rows_to_csv(rows)):
        raise SystemExit(f"{config}: failed seeds {', '.join(failed)}")
    return [r.value for r in rows if r.metric == metric]


def main() -> None:
    densities = metric_values("criterion_06_farness_estimate", "exhaustive_pr")
    fixture = {"witness_density_mean_n16": float(np.mean(densities))}
    for name in ("flipdnf", "two_level"):
        rejects = metric_values(f"criterion_09_10_attack_rates_{name}_no", "reject")
        fixture[f"{name}_no_reject_rate_n100"] = sum(rejects) / len(rejects)
        print(f"{name}: {int(sum(rejects))}/{len(rejects)}")
    target = ROOT / "tests" / "fixtures" / "calibration.json"
    target.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
