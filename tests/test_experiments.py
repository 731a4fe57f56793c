"""Pinned rows of every named experiment, the process-pool error path and
the shipped configs.

Each pin is two halves.  The rows digest covers the stable columns of
``rows.csv`` (every column but wall time) for a tiny grid of each
experiment with both worlds in it (the no-world-only experiments run world
"no" alone); it changes only when an experiment's rows change.  The config
hash names the results directory; it changes only when what a config holds
changes, so a hash move touches the hashes and leaves the rows digests be.
The ``likelihood-equivalence`` rows moved when that body began to emit
``mono_compared``, and the ``orientation-search`` rows when it began to
emit ``found``."""

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

# (id, config, blake2b digest of the stable columns, config hash)
PINNED = [
    ("monotone-check",
     {"experiment": "monotone-check", "family": "mono", "n": [9, 16]},
     "3bbbfcabcb58775cae824e0f1c304de0", "1ae49286cf2a2a50"),
    ("unate-check",
     {"experiment": "unate-check", "family": "unate", "n": [16]},
     "9e16f426af8d20c69db7a7fd71de5116", "a0286dd824bad5ba"),
    ("signature-soundness-mono",
     {"experiment": "signature-soundness", "family": "mono", "n": [16], "samples": 30},
     "ddcc382a9a851d2f3cdb2414bdfd961b", "7ee4d6bd7d6d898c"),
    ("signature-soundness-onelevel",
     {"experiment": "signature-soundness", "family": "onelevel", "n": [16], "samples": 30},
     "ddcc382a9a851d2f3cdb2414bdfd961b", "78cc43697499cec5"),
    ("signature-soundness-unate",
     {"experiment": "signature-soundness", "family": "unate", "n": [16], "samples": 30},
     "ddcc382a9a851d2f3cdb2414bdfd961b", "9220794ca5e03ebf"),
    ("tuple-axioms",
     {"experiment": "tuple-axioms", "family": "mono", "n": [16],
      "queries_per_transcript": 10},
     "ad3564ed05bf2977ff1cc7c15a3d8a54", "b225428174f8c7a0"),
    ("likelihood-equivalence",
     {"experiment": "likelihood-equivalence", "n": [16], "queries_per_transcript": 6},
     "86463304c65bb8caa118f06d567b5e9b", "8ce8f29577f2f70e"),
    ("farness-estimate",
     {"experiment": "farness-estimate", "family": "mono", "n": [16], "samples": 500},
     "3229206865086b3839dbc20c5222f017", "8a2b017a4da7dd12"),
    ("farness-consistency",
     {"experiment": "farness-consistency", "family": "mono", "n": [9]},
     "ce203f27337ac1aaf7fccaeb00e10310", "ef1f8ee15ad2e878"),
    ("quadrant-farness",
     {"experiment": "quadrant-farness", "family": "quadrant", "n": [4]},
     "723829697393f8c6f0ff0e3905dd7725", "baffbb3b21dec484"),
    ("attack-rates-edge",
     {"experiment": "attack-rates", "tester": "edge", "n": [16], "budget": 400},
     "5dacab82c34e268be8f2d8dbceeb09e2", "a577ff9e981eb585"),
    ("attack-rates-flipdnf",
     {"experiment": "attack-rates", "tester": "flipdnf", "n": [16, 100], "budget": 1500},
     "5f872a33a1da5b7ef0ce6079ace69430", "691610cdfa39f42b"),
    ("attack-rates-two-level",
     {"experiment": "attack-rates", "tester": "two-level", "n": [16, 100], "budget": 1500},
     "2bafaf2ff18e22733c60c1beee3eb3e7", "fb0d090d3f02fa76"),
    ("orientation-search",
     {"experiment": "orientation-search", "n": [16], "budget": 20},
     "2b789249baa5ebc70689c392bee2cdcb", "48ec18b7a95eabec"),
    ("classifier-sanity",
     {"experiment": "classifier-sanity", "family": "mono", "n": [16],
      "queries_per_transcript": 10},
     "9eb9cf4c54f3a5bcb4a3dc9b58d75340", "a65890ee4183f892"),
]


def _rows_digest(cfg: ExperimentConfig) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(_stable_columns(rows_to_csv(run_experiment(cfg)))).encode())
    return h.hexdigest()


def _pinned_cfg(obj: dict) -> ExperimentConfig:
    return ExperimentConfig.from_json({**_BOTH, **obj})


@pytest.mark.parametrize(
    "obj, digest", [(obj, d) for _, obj, d, _ in PINNED], ids=[i for i, *_ in PINNED]
)
def test_rows_pinned(obj, digest):
    assert _rows_digest(_pinned_cfg(obj)) == digest


@pytest.mark.parametrize(
    "obj, config_hash", [(obj, h) for _, obj, _, h in PINNED], ids=[i for i, *_ in PINNED]
)
def test_config_hash_pinned(obj, config_hash):
    assert _pinned_cfg(obj).config_hash() == config_hash


def test_pins_cover_every_experiment():
    assert {obj["experiment"] for _, obj, *_ in PINNED} == set(EXPERIMENTS)
    testers = {obj["tester"] for _, obj, *_ in PINNED if obj["experiment"] == "attack-rates"}
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
        pooled = run_experiment(ExperimentConfig.from_json(obj), threads=2)
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


# the results directory name of each shipped config (``configs/<stem>.json``)
SHIPPED_CONFIG_HASHES = {
    "criterion_01_monotone_check": "e18bc3afe2ca5593",
    "criterion_02_unate_check": "c4c9b0ab86b5204a",
    "criterion_03_signature_soundness_mono": "d9918ff61d7ace1d",
    "criterion_03_signature_soundness_onelevel": "35ac059f200842ad",
    "criterion_03_signature_soundness_unate": "61722508bf54e05a",
    "criterion_04_tuple_axioms": "ab0efcaeff487fcb",
    "criterion_05_likelihood_equivalence": "dc3f0beca3697f12",
    "criterion_06_farness_estimate": "0c7210462fd926fe",
    "criterion_07_farness_consistency": "44ed0937954a441f",
    "criterion_08_quadrant_farness": "39154dc8abc74bc1",
    "criterion_09_10_attack_rates_flipdnf_no": "bf1106d577c305a8",
    "criterion_09_10_attack_rates_flipdnf_yes": "9c4c361bbfcdb7cd",
    "criterion_09_10_attack_rates_two_level_no": "a5353336b3bbd675",
    "criterion_09_10_attack_rates_two_level_yes": "45859a8fb82a15a8",
    "criterion_11_orientation_search": "f85e6e44fe8082be",
    "criterion_11_orientation_search_size8": "10fde2c794b610d8",
    "criterion_12_classifier_sanity": "5083c193a58d50d8",
}


def test_shipped_config_hashes_pinned():
    hashes = {
        path.stem: ExperimentConfig.from_json(json.loads(path.read_text())).config_hash()
        for path in CONFIG_DIR.glob("*.json")
    }
    assert hashes == SHIPPED_CONFIG_HASHES
