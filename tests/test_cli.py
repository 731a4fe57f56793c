from __future__ import annotations

import json
import shlex
import shutil
from pathlib import Path

import pytest

from cubetest import cli, transcripts
from cubetest.cli import main
from cubetest.core import BitString, RngStream
from cubetest.families import instance_from_json
from cubetest.experiments import (
    ExperimentConfig,
    run_experiment,
    verify_results,
    write_results,
)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestSample:
    def test_writes_loadable_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert run_cli(
            "sample", "--family", "mono", "--n", "16", "--world", "yes",
            "--seed", "7", "--out", str(out),
        ) == 0
        obj = json.loads(out.read_text())
        assert obj["family"] == "mono" and obj["N"] == 16

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["sample", "--family", "unate", "--n", "16", "--world", "no",
                "--seed", "3"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_non_square_usage_error(self, capsys):
        code = run_cli("sample", "--family", "mono", "--n", "15",
                       "--world", "yes", "--seed", "1")
        assert code == 2
        assert "perfect square" in capsys.readouterr().err


class TestEval:
    @pytest.fixture
    def inst_file(self, tmp_path) -> Path:
        out = tmp_path / "inst.json"
        run_cli("sample", "--family", "mono", "--n", "16", "--world", "no",
                "--seed", "5", "--out", str(out))
        return out

    def test_all_ones_truncates_to_one(self, inst_file, capsys):
        assert run_cli("eval", "--instance", str(inst_file), "--x", "ffff") == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 1

    def test_signature_value_agrees(self, inst_file, capsys):
        # a random draw outside the band gets a null signature, not an error
        assert run_cli(
            "eval", "--instance", str(inst_file), "--random", "40",
            "--rng-seed", "2", "--signature",
        ) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(recs) == 40
        signed = [rec for rec in recs if rec["signature"] is not None]
        assert 0 < len(signed) < 40
        for rec in signed:
            assert rec["signature"]["value_from_signature"] == rec["value"]

    # the unate band holds every point at n=16, so it has no draw to leave out
    @pytest.mark.parametrize("family", ["mono", "onelevel"])
    def test_random_out_of_band_left_out_of_transcript(self, family, tmp_path, capsys):
        inst_file = tmp_path / "inst.json"
        run_cli("sample", "--family", family, "--n", "16", "--world", "no",
                "--seed", "5", "--out", str(inst_file))
        dump = tmp_path / "t.jsonl"
        assert run_cli("eval", "--instance", str(inst_file), "--random", "40",
                       "--rng-seed", "2", "--transcript-out", str(dump)) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        signed = [rec for rec in recs if rec["signature"] is not None]
        assert len(recs) == 40 and 0 < len(signed) < 40
        lines = [json.loads(line) for line in dump.read_text().splitlines()]
        assert [line["x"]["hex"] for line in lines] == [rec["x"] for rec in signed]

    def test_out_of_band_signature_errors(self, inst_file, capsys):
        code = run_cli(
            "eval", "--instance", str(inst_file), "--x", "0000", "--signature"
        )
        assert code == 2
        assert "middle layers" in capsys.readouterr().err

    def test_requires_some_query(self, inst_file, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("eval", "--instance", str(inst_file))
        assert e.value.code == 2

    @pytest.mark.parametrize("family", ["mono", "unate"])
    def test_transcript_out_signs_each_point_once(
        self, family, tmp_path, capsys, monkeypatch
    ):
        inst_file = tmp_path / "inst.json"
        run_cli("sample", "--family", family, "--n", "16", "--world", "no",
                "--seed", "5", "--out", str(inst_file))
        inst = instance_from_json(json.loads(inst_file.read_text()))
        rng = RngStream(11, "in-band")
        points = []
        while len(points) < 5:
            x = BitString.random(16, rng)
            if family == "mono":
                band = inst.weight_class(x)
            else:
                band = inst.band_class_base(x.xor(inst.orientation))
            if band == "middle":
                points.append(x)
        calls = []
        name = "mono_full_signature" if family == "mono" else "unate_signature"
        for module in (cli, transcripts):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(
                    module, name,
                    lambda inst, x, real=real: calls.append(x) or real(inst, x),
                )
        args = [a for x in points for a in ("--x", x.to_hex())]
        dump = tmp_path / "t.jsonl"
        assert run_cli("eval", "--instance", str(inst_file), *args,
                       "--transcript-out", str(dump)) == 0
        recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(calls) == len(points)
        assert len(dump.read_text().splitlines()) == len(points)
        for rec in recs:
            assert rec["signature"]["value_from_signature"] == rec["value"]


class TestAttack:
    def test_verdict_schema(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli("sample", "--family", "flipdnf", "--n", "100", "--world", "no",
                "--seed", "2", "--out", str(inst))
        assert run_cli(
            "attack", "--instance", str(inst), "--attack", "flipdnf",
            "--budget", "1500", "--seed", "4",
        ) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["decision"] in ("accept", "reject")
        assert rec["queries_used"] <= 1500
        assert "stage_queries" in rec
        if rec["decision"] == "reject":
            assert rec["witness"]["kind"] == "mono_pair"


class TestDistanceCommand:
    def test_exact_and_bound(self, tmp_path, capsys):
        inst = tmp_path / "fi.json"
        run_cli("sample", "--family", "quadrant", "--n", "6", "--seed", "3",
                "--out", str(inst))
        assert run_cli(
            "distance", "--instance", str(inst), "--mode", "lower-bound"
        ) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["lower_bound"] == "1/8"

    @pytest.mark.parametrize(
        "family, n, mode, cap",
        [("mono", "16", "exact-mono", 14), ("quadrant", "9", "exact-unate", 10)],
    )
    def test_over_cap_is_a_usage_error(self, tmp_path, capsys, family, n, mode, cap):
        # each mode defaults to its library cap; past it the command exits 2
        inst = tmp_path / "inst.json"
        run_cli("sample", "--family", family, "--n", n, "--seed", "1", "--out", str(inst))
        assert run_cli("distance", "--instance", str(inst), "--mode", mode) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"capped at n={cap}" in err

    @pytest.mark.parametrize("mode", ["witness-exhaustive", "witness-estimate"])
    @pytest.mark.parametrize(
        "family, world, reason",
        [("mono", "yes", "no-world"), ("unate", "no", "two-level")],
    )
    def test_witness_needs_a_no_world_mono_file(
        self, tmp_path, capsys, mode, family, world, reason
    ):
        inst = tmp_path / "inst.json"
        run_cli("sample", "--family", family, "--n", "16", "--world", world,
                "--seed", "1", "--out", str(inst))
        assert run_cli("distance", "--instance", str(inst), "--mode", mode) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err


class TestExperimentRoundtrip:
    def cfg(self) -> ExperimentConfig:
        return ExperimentConfig(
            experiment="monotone-check",
            family="mono",
            n=[9],
            worlds=["yes"],
            seeds=list(range(4)),
        )

    def test_run_write_verify(self, tmp_path):
        cfg = self.cfg()
        rows = run_experiment(cfg)
        assert len(rows) == 4
        assert all(r.value == 0 for r in rows)
        target = write_results(cfg, rows, tmp_path)
        ok, msg = verify_results(target)
        assert ok, msg

    def test_rerun_identical_metric_columns(self, tmp_path):
        from cubetest.experiments import rows_to_csv, _stable_columns

        cfg = self.cfg()
        a = rows_to_csv(run_experiment(cfg))
        b = rows_to_csv(run_experiment(cfg))
        assert _stable_columns(a) == _stable_columns(b)

    def test_tampered_rows_fail_verification(self, tmp_path):
        cfg = self.cfg()
        target = write_results(cfg, run_experiment(cfg), tmp_path)
        rows = (target / "rows.csv").read_text()
        (target / "rows.csv").write_text(rows.replace(",0.0,", ",1.0,", 1))
        ok, msg = verify_results(target)
        assert not ok

    def test_cli_experiment_and_verify(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(self.cfg().to_json()))
        assert run_cli(
            "experiment", "--config", str(cfg_file), "--out", str(tmp_path / "res")
        ) == 0
        out = capsys.readouterr().out
        target = out.strip().split()[-1]
        assert run_cli("verify", "--results", target) == 0

    def test_parallel_matches_serial(self, tmp_path):
        from cubetest.experiments import rows_to_csv, _stable_columns

        cfg = self.cfg()
        serial = rows_to_csv(run_experiment(cfg))
        parallel = rows_to_csv(run_experiment(cfg, threads=2))
        assert _stable_columns(serial) == _stable_columns(parallel)

    def test_unknown_experiment_rejected(self):
        cfg = self.cfg()
        cfg.experiment = "nope"
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment(cfg)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            ExperimentConfig.from_json({"experiment": "monotone-check", "zzz": 1})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 16),
            ("n", [16.0]),
            ("seeds", 3),
            ("seeds", {"start": 0}),
            ("seeds", {"start": 0, "count": "3"}),
            ("worlds", "yes"),
            ("worlds", ["maybe"]),
            ("experiment", None),  # None: the field is left out
            ("samples", "many"),
            ("budget", True),
            ("queries_per_transcript", 1.5),
            ("alpha", "x"),
            ("alpha", 0.5),
            ("budget", 0),
            ("queries_per_transcript", 0),
            ("samples", -1),
            ("samples", 0),  # on farness-estimate, one of the two experiments that need a sample
        ],
    )
    def test_malformed_grid_exits_2(self, tmp_path, capsys, field, value):
        experiment = "farness-estimate" if (field, value) == ("samples", 0) else "monotone-check"
        cfg = {"experiment": experiment, "n": [4], field: value}
        if value is None:
            del cfg[field]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert run_cli("experiment", "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err

    def test_signature_soundness_without_samples_exits_2(self, tmp_path, capsys):
        # with the default of 0 samples it would check nothing and pass
        cfg = {"experiment": "signature-soundness", "n": [16], "seeds": [0, 1]}
        with pytest.raises(ValueError, match="'samples'"):
            ExperimentConfig.from_json(cfg)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert run_cli("experiment", "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'samples'" in err
        assert "failed:" not in err  # no seed ran

    @pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--budget", "0"), ("--alpha", "0.5")])
    def test_out_of_range_override_exits_2(self, tmp_path, capsys, flag, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"experiment": "farness-estimate", "n": [16], "seeds": [0], "samples": 10}))
        assert run_cli("experiment", "--config", str(cfg_file), flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{flag[2:]}'" in err

    @pytest.mark.parametrize("field, known", [("family", "'mono'"), ("tester", "'two-level'")])
    def test_unknown_name_exits_2_before_any_seed(self, tmp_path, capsys, field, known):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"experiment": "attack-rates", "n": [16], "seeds": [0, 1], field: "nope"}))
        assert run_cli("experiment", "--config", str(cfg_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{field}'" in err and known in err
        assert "failed:" not in err  # no seed ran

    def test_verify_rejects_schema_1_results(self, tmp_path, capsys):
        cfg = self.cfg()
        target = write_results(cfg, run_experiment(cfg), tmp_path)
        meta = json.loads((target / "meta.json").read_text())
        # a schema-1 meta.json: the run settings and stage overrides were config fields
        meta["schema_version"] = 1
        meta["config"].update(stage_overrides={}, threads=1, out=None, format="csv")
        (target / "meta.json").write_text(json.dumps(meta))
        assert run_cli("verify", "--results", str(target)) == 1
        out = capsys.readouterr().out
        assert "schema version 1" in out and "re-run" in out


class TestTranscriptOut:
    def test_eval_writes_jsonl(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli("sample", "--family", "unate", "--n", "16", "--world", "no",
                "--seed", "2", "--out", str(inst))
        dump = tmp_path / "t.jsonl"
        assert run_cli(
            "eval", "--instance", str(inst), "--random", "12",
            "--rng-seed", "7", "--transcript-out", str(dump),
        ) == 0
        capsys.readouterr()
        # at n=16 the unate band holds every point, so each draw is recorded
        lines = dump.read_text().splitlines()
        assert len(lines) == 12
        rec = json.loads(lines[0])
        assert {"x", "signature", "sizes"} <= set(rec)

    def test_eval_writes_onelevel_jsonl(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        run_cli("sample", "--family", "onelevel", "--n", "16", "--world", "no",
                "--seed", "2", "--out", str(inst))
        dump = tmp_path / "t.jsonl"
        # all-ones on the low half: weight 8, the band centre
        assert run_cli(
            "eval", "--instance", str(inst), "--x", "00ff", "--x", "0ff0",
            "--transcript-out", str(dump),
        ) == 0
        capsys.readouterr()
        recs = [json.loads(line) for line in dump.read_text().splitlines()]
        assert [r["sizes"]["queries"] for r in recs] == [1, 2]
        assert set(recs[0]["sizes"]) == {"queries", "I"}


class TestErrorRows:
    def test_partial_failures_recorded(self):
        # odd n makes the unateness sampler raise for those seeds only
        cfg = ExperimentConfig(
            experiment="unate-check", family="unate", n=[15, 16],
            worlds=["yes"], seeds=[0, 1],
        )
        rows = run_experiment(cfg)
        errors = [r for r in rows if r.metric.startswith("error:")]
        good = [r for r in rows if not r.metric.startswith("error:")]
        assert len(errors) == 2 and all(r.n == 15 for r in errors)
        assert len(good) == 2 and all(r.n == 16 for r in good)

    def cfg_json(self) -> dict:
        return ExperimentConfig(
            experiment="unate-check", family="unate", n=[15, 16],
            worlds=["yes"], seeds=[0, 1],
        ).to_json()

    def test_experiment_exits_1_and_names_failed_seeds(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(self.cfg_json()))
        code = run_cli(
            "experiment", "--config", str(cfg_file), "--out", str(tmp_path / "res")
        )
        captured = capsys.readouterr()
        assert code == 1
        target = Path(captured.out.strip().split()[-1])
        assert len((target / "rows.csv").read_text().splitlines()) == 5
        failed = captured.err.splitlines()
        assert len(failed) == 2
        assert all("n=15 world=yes" in line and "error:" in line for line in failed)

    def test_verify_rejects_error_rows(self, tmp_path, capsys):
        cfg = ExperimentConfig.from_json(self.cfg_json())
        target = write_results(cfg, run_experiment(cfg), tmp_path)
        ok, msg = verify_results(target)
        assert not ok and "failed seeds" in msg
        assert run_cli("verify", "--results", str(target)) == 1


ROOT = Path(__file__).resolve().parent.parent


def _readme_commands() -> list[list[str]]:
    """The commands of README's "Command line" block, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 6
    for argv in commands:
        assert argv[0] == "cubetest"
        args = []
        for a in argv[1:]:
            if "<config-hash>" in a:
                (only,) = Path(a.split("<config-hash>")[0]).iterdir()
                a = str(only)
            args.append(a)
        code = main(args)
        assert code == 0, f"{shlex.join(argv)} exited {code}: {capsys.readouterr().err}"
