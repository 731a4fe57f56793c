"""Pinned rows of every named experiment, the process-pool error path and
the shipped configs.

The digests cover the stable columns of ``rows.csv`` (every column but
wall time) and the config hash, for a tiny grid of each experiment with
both worlds in it (the no-world-only experiments run world "no" alone).
They change only when an experiment's rows or the config hash change.
The ``likelihood-equivalence`` pin moved when that body began to emit
``mono_compared`` and the ``orientation-search`` pin when it began to emit
``found``; with those rows dropped, each gives its earlier digest
(89cc49f2... and d0d91cee...).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from cubetest import families
from cubetest.experiments import (
    _ATTACKS,
    EXPERIMENTS,
    ExperimentConfig,
    _stable_columns,
    rows_to_csv,
    run_experiment,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_BOTH = {"worlds": ["yes", "no"], "seeds": [0, 1, 2]}

# (id, config, blake2b digest of the config hash and the stable columns)
PINNED = [
    ("monotone-check",
     {"experiment": "monotone-check", "family": "mono", "n": [9, 16]},
     "7fd7599794a60e2f450a152ddea61b39"),
    ("unate-check",
     {"experiment": "unate-check", "family": "unate", "n": [16]},
     "5531b76b157b3171261637fe6a239f4d"),
    ("signature-soundness-mono",
     {"experiment": "signature-soundness", "family": "mono", "n": [16], "samples": 30},
     "f179b4588e65dfd7e49aceefbeddfcbc"),
    ("signature-soundness-onelevel",
     {"experiment": "signature-soundness", "family": "onelevel", "n": [16], "samples": 30},
     "7b933c4f338ffdd1ebc2eb976f0aae41"),
    ("signature-soundness-unate",
     {"experiment": "signature-soundness", "family": "unate", "n": [16], "samples": 30},
     "6a6bbde692507bf294224beaffb4a0ed"),
    ("tuple-axioms",
     {"experiment": "tuple-axioms", "family": "mono", "n": [16],
      "queries_per_transcript": 10},
     "fd08ddd9c607ed81a7337755a68974d4"),
    ("likelihood-equivalence",
     {"experiment": "likelihood-equivalence", "n": [16], "queries_per_transcript": 6},
     "cb6aa31597373212adef460677b79111"),
    ("farness-estimate",
     {"experiment": "farness-estimate", "family": "mono", "n": [16], "samples": 500},
     "25b19571e3b998ba490fbec761301959"),
    ("farness-consistency",
     {"experiment": "farness-consistency", "family": "mono", "n": [9]},
     "6f07c26cc6e835878c4771346196fb44"),
    ("quadrant-farness",
     {"experiment": "quadrant-farness", "family": "quadrant", "n": [4]},
     "f49bff0de902afc6055c62f6a6319978"),
    ("attack-rates-edge",
     {"experiment": "attack-rates", "tester": "edge", "n": [16], "budget": 400},
     "e65cc3ed211f173b7515976dbeec8e94"),
    ("attack-rates-flipdnf",
     {"experiment": "attack-rates", "tester": "flipdnf", "n": [16, 100], "budget": 1500},
     "bce5156f8c88e8992471c5afb0496701"),
    ("attack-rates-two-level",
     {"experiment": "attack-rates", "tester": "two-level", "n": [16, 100], "budget": 1500},
     "d675980c9f490fab38877fbcbbd6dfdb"),
    ("orientation-search",
     {"experiment": "orientation-search", "n": [16], "budget": 20},
     "c09e8ba44a9350e289abc280afe55f8e"),
    ("classifier-sanity",
     {"experiment": "classifier-sanity", "family": "mono", "n": [16],
      "queries_per_transcript": 10},
     "b18fd40c26dab82c86d3005677f727bc"),
]


def _digest(cfg: ExperimentConfig) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(cfg.config_hash().encode())
    h.update(repr(_stable_columns(rows_to_csv(run_experiment(cfg)))).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "obj, digest", [(obj, d) for _, obj, d in PINNED], ids=[i for i, _, _ in PINNED]
)
def test_rows_pinned(obj, digest):
    assert _digest(ExperimentConfig.from_json({**_BOTH, **obj})) == digest


def test_pins_cover_every_experiment():
    assert {obj["experiment"] for _, obj, _ in PINNED} == set(EXPERIMENTS)
    testers = {obj["tester"] for _, obj, _ in PINNED if obj["experiment"] == "attack-rates"}
    assert testers == set(_ATTACKS)


@pytest.mark.parametrize("worlds", [["yes"], ["yes", "no"]])
def test_no_world_only_runs_each_seed_once(worlds):
    cfg = ExperimentConfig.from_json({"experiment": "quadrant-farness", "n": [4],
                                      "worlds": worlds, "seeds": [0, 1]})
    rows = run_experiment(cfg)
    assert {r.world for r in rows} == {"no"}
    assert len({r.key() for r in rows}) == len(rows) == 4


class TestErrorRowsInPool:
    def test_pool_records_the_same_rows_as_serial(self, capfd):
        # odd n makes the unateness sampler raise for those seeds only
        obj = {"experiment": "unate-check", "family": "unate", "n": [15, 16],
               "worlds": ["yes"], "seeds": [0, 1]}
        # each failed seed is named on stderr with its exception message
        named = [f"failed: unate-check n=15 world=yes seed={seed} error:ValueError: "
                 "n must be even, got 15" for seed in (0, 1)]
        serial = run_experiment(ExperimentConfig.from_json(obj))
        assert capfd.readouterr().err.splitlines() == named
        pooled = run_experiment(ExperimentConfig.from_json({**obj, "threads": 2}))
        assert sorted(capfd.readouterr().err.splitlines()) == named
        errors = [r for r in pooled if r.metric.startswith("error:")]
        assert [(r.n, r.world, r.seed, r.metric) for r in errors] == [
            (15, "yes", 0, "error:ValueError"), (15, "yes", 1, "error:ValueError"),
        ]
        assert _stable_columns(rows_to_csv(pooled)) == _stable_columns(rows_to_csv(serial))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_loads(path):
    cfg = ExperimentConfig.from_json(json.loads(path.read_text()))
    assert cfg.experiment in EXPERIMENTS
    assert cfg.tester is None or cfg.tester in _ATTACKS
    assert cfg.family is None or cfg.family in families._FAMILIES
