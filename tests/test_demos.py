"""The demo scripts run to completion against the current library."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 04_attacks.py is left out: it runs full attacks at n=100 and takes about
# 70 s, while these four take about 5 s together
DEMOS = [
    "01_families_tour.py",
    "02_signature_oracles.py",
    "03_transcript_likelihoods.py",
    "05_distance_and_farness.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
