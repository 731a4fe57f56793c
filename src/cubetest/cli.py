"""Command-line front end.

Subcommands: ``sample`` (write an instance file), ``eval`` (query values
and signatures), ``attack`` (run a tester against an instance),
``distance`` (exact distances and farness estimates), ``experiment``
(run a named experiment from a JSON config), ``verify`` (re-run a stored
experiment and compare).

Exit codes: 0 ok, 1 verification failure or an experiment with failed
seeds (``error:*`` rows), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import BitString, ResourceLimitError, RngStream
from .distance import (
    estimate_witness_density,
    exact_dist_mono,
    exact_dist_unate,
    exhaustive_witness_density,
    unate_dist_lower_bound,
)
from .families import (
    _FAMILIES,
    MonoInstance,
    OneLevelInstance,
    UnateInstance,
    instance_from_json,
    sample_instance,
)
from .experiments import (
    _ATTACKS,
    ExperimentConfig,
    run_experiment,
    rows_to_csv,
    verify_results,
    write_results,
)
from .sigoracle import (
    FullSignature,
    OutOfBandError,
    mono_full_signature,
    unate_signature,
    value_from_mono_signature,
    value_from_unate_signature,
)
from .testers import TesterConfig

def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_instance(path: str):
    return instance_from_json(json.loads(Path(path).read_text()))


def _instance_dimension(inst) -> int:
    return getattr(inst, "dimension", inst.n)


def _cmd_sample(args, parser) -> int:
    inst = sample_instance(args.family, args.n, args.world, args.seed)
    text = _dump_json(inst.to_json())
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _signature(inst, x: BitString):
    if isinstance(inst, MonoInstance):
        return mono_full_signature(inst, x)
    if isinstance(inst, UnateInstance):  # both single-level families
        return unate_signature(inst, x)
    raise ValueError(f"{type(inst).__name__} has no signature oracle")


def _signature_record(sig) -> dict:
    rec = sig.to_json()
    if isinstance(sig, FullSignature):
        rec["value_from_signature"] = value_from_mono_signature("middle", sig)
    else:
        rec["value_from_signature"] = value_from_unate_signature("middle", sig)
    return rec


def _cmd_eval(args, parser) -> int:
    inst = _load_instance(args.instance)
    dim = _instance_dimension(inst)
    points = [BitString.from_hex(dim, h) for h in args.x or []]
    n_explicit = len(points)
    if args.random:
        rng = RngStream(args.rng_seed, "cli-eval")
        points.extend(BitString.random(dim, rng) for _ in range(args.random))
    if not points:
        parser.error("nothing to evaluate: pass --x or --random")
    transcript = oracle = None
    if args.transcript_out:
        from .transcripts import (
            MonoTranscript,
            SingleLevelTranscript,
            UnateSignatureOracle,
        )

        if isinstance(inst, MonoInstance):
            transcript = MonoTranscript(inst.n)
        elif isinstance(inst, OneLevelInstance):
            transcript = SingleLevelTranscript(inst.n)
        elif isinstance(inst, UnateInstance):
            oracle = UnateSignatureOracle(inst)  # reveals breached terms
            transcript = oracle.transcript
        else:
            parser.error(f"{type(inst).__name__} has no signature transcript")
    for k, x in enumerate(points):
        rec = {"x": x.to_hex(), "value": inst.value(x)}
        if args.signature or transcript is not None:
            try:
                sig = oracle.query(x)[0] if oracle is not None else _signature(inst, x)
            except OutOfBandError:
                if k < n_explicit:  # an explicit point outside the band is a usage error
                    raise
                rec["signature"] = None  # a random draw outside the band
            else:
                if oracle is None and transcript is not None:
                    transcript.extend(x, sig)
                rec["signature"] = _signature_record(sig)
        sys.stdout.write(json.dumps(rec, sort_keys=True) + "\n")
    if transcript is not None:
        Path(args.transcript_out).write_text(transcript.dump_jsonl())
    return 0


def _cmd_attack(args, parser) -> int:
    inst = _load_instance(args.instance)
    cfg = TesterConfig(q=args.budget, seed=args.seed)
    verdict = _ATTACKS[args.attack](inst.value, _instance_dimension(inst), cfg)
    text = _dump_json(verdict.to_json())
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_distance(args, parser) -> int:
    inst = _load_instance(args.instance)
    out: dict = {"mode": args.mode}
    if args.mode in ("exact-mono", "exact-unate"):
        exact = exact_dist_mono if args.mode == "exact-mono" else exact_dist_unate
        # without --cap, the function's own cap for its mode applies
        d = exact(inst.truth_table(), **({} if args.cap is None else {"cap": args.cap}))
        out["distance"] = str(d)
        out["distance_float"] = float(d)
    elif args.mode == "lower-bound":
        d = unate_dist_lower_bound(inst.truth_table())
        out["lower_bound"] = str(d)
        out["lower_bound_float"] = float(d)
    elif args.mode == "witness-exhaustive":
        out["witness_density"] = exhaustive_witness_density(inst)
    elif args.mode == "witness-estimate":
        est = estimate_witness_density(inst, args.samples, RngStream(args.seed, "cli-witness"))
        out.update(
            estimate=est.estimate, ci_halfwidth=est.ci_halfwidth, samples=est.samples
        )
    sys.stdout.write(_dump_json(out))
    return 0


def _cmd_experiment(args, parser) -> int:
    obj = json.loads(Path(args.config).read_text())
    for field in ("samples", "budget", "alpha"):
        value = getattr(args, field)
        if value is not None:
            obj[field] = value  # checked with the config's own fields
    cfg = ExperimentConfig.from_json(obj)
    rows = run_experiment(cfg, args.threads)
    if args.out:
        target = write_results(cfg, rows, args.out)
        sys.stdout.write(f"wrote {len(rows)} rows to {target}\n")
    else:
        sys.stdout.write(rows_to_csv(rows))
    # each failed seed was named on stderr, with its message, as it failed
    return 1 if any(r.metric.startswith("error:") for r in rows) else 0


def _cmd_verify(args, parser) -> int:
    ok, message = verify_results(args.results, threads=args.threads)
    sys.stdout.write(message + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubetest",
        description="Property-testing laboratory for monotonicity and unateness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample an instance and write it as JSON")
    p.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--world", choices=["yes", "no"], default="yes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("eval", help="evaluate queries against an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--x", action="append", help="query as hex (repeatable)")
    p.add_argument("--random", type=int, default=0, help="add m random queries")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--signature", action="store_true")
    p.add_argument(
        "--transcript-out",
        help="also build the signature transcript and dump it as JSON lines",
    )
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("attack", help="run a tester against an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--attack", required=True, choices=sorted(_ATTACKS))
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("distance", help="distances and farness estimates")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--mode",
        required=True,
        choices=[
            "exact-mono", "exact-unate", "lower-bound",
            "witness-exhaustive", "witness-estimate",
        ],
    )
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, help="largest n for an exact distance "
                   "(default: the library cap of the chosen mode)")
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("experiment", help="run a named experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--samples", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--alpha", type=float)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="re-run a stored experiment and compare")
    p.add_argument("--results", required=True, help="directory with rows.csv + meta.json")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (ValueError, OutOfBandError, ResourceLimitError, FileNotFoundError, KeyError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
