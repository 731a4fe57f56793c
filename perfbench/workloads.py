"""The four seeded workloads: inputs, the timed op, its check and its record.

Each workload turns ``(bench seed, op index)`` into the inputs of one op,
runs the op (the only timed part), checks its output against a reference
computed outside the timed window, and renders the output as a record
line for the run's digest.  Library functions are looked up through their
modules at call time (``distance.exact_dist_mono``), so the traced run's
wrappers, installed on those modules, see every call.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from cubetest import core, distance, families, likelihood, sigoracle, testers, transcripts

# The attack budget and sizes follow criteria 09/10, 06, 07, 04/05/12.
ATTACK_N = 100
ATTACK_Q = 4000
ATTACK_CHECK_POINTS = 4
MC_N = 16
MC_SAMPLES = 4000
# Per-op Monte-Carlo tolerance in sigmas of the exhaustive density.  3
# sigma (criterion 06) would fail ~0.3% of ops by chance at hundreds of
# ops per run; the hit count is checked exactly by replay instead.
MC_SIGMAS = 6.0
EXH_N = 14
EXH_TERM_LEN = 4
EXH_CHECK_POINTS = 16
TR_N = 16
TR_MONO_QUERIES = 30
TR_UNATE_QUERIES = 10
TR_UNATE_TRIES = 1000
LIKELIHOOD_RTOL = 1e-12


def op_seed(seed: int, workload: str, index: int) -> int:
    """64-bit seed of op ``index``; warm-up ops use negative indices."""
    msg = f"{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.blake2b(msg, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class Op:
    index: int
    seed: int
    world: str


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[int, int], Op]
    run: Callable[[Op], Any]
    check: Callable[[Op, Any], list[str]]
    record: Callable[[Any], str]
    # traced runs execute a fixed op count, ``seconds * traced_ops_per_s``,
    # so their counts repeat exactly for a seed and a run length
    traced_ops_per_s: float


def _maker(name: str, worlds: tuple[str, ...]) -> Callable[[int, int], Op]:
    """Op inputs with a fresh seed per op, cycling through ``worlds``."""

    def make(seed: int, index: int) -> Op:
        return Op(index, op_seed(seed, name, index), worlds[index % len(worlds)])

    return make


def _band(n: int) -> tuple[float, float]:
    return n / 2 - math.sqrt(n), n / 2 + math.sqrt(n)


def _middle_points(n: int, count: int, seed: int) -> list[core.BitString]:
    """Uniform middle-layer points from the benchmark's own generator."""
    g = random.Random(seed)
    lo, hi = _band(n)
    out = []
    while len(out) < count:
        bits = g.getrandbits(n)
        if lo <= bits.bit_count() <= hi:
            out.append(core.BitString(n, bits))
    return out


# ---------------------------------------------------------------------------
# attack-n100
# ---------------------------------------------------------------------------


class SlowMonoValue:
    """Slow twin of ``MonoInstance.value`` built from the public pieces:
    the weight band, ``term(i)``, ``clause(i, j)`` and ``dictator(i, j)``."""

    def __init__(self, inst: families.MonoInstance):
        self.inst = inst
        self.terms = [inst.term(i) for i in range(inst.N)]
        self.lo, self.hi = _band(inst.n)

    def __call__(self, x: core.BitString) -> int:
        w = bin(x.bits).count("1")
        if w < self.lo:
            return 0
        if w > self.hi:
            return 1
        sat = [i for i, term in enumerate(self.terms) if term.satisfied_by(x)]
        if not sat:
            return 0
        if len(sat) > 1:
            return 1
        i = sat[0]
        fals = []
        for j in range(self.inst.N):
            if self.inst.clause(i, j).falsified_by(x):
                fals.append(j)
                if len(fals) == 2:
                    return 0
        if not fals:
            return 1
        return self.inst.dictator(i, fals[0]).value_at(x)


def _attack_run(op: Op):
    inst = families.MonoInstance.sample(ATTACK_N, op.world, seed=op.seed)
    cfg = testers.TesterConfig(q=ATTACK_Q, seed=op.seed)
    return {"inst": inst, "verdict": testers.two_level_attack(inst.value, ATTACK_N, cfg)}


def _attack_check(op: Op, out) -> list[str]:
    inst, v = out["inst"], out["verdict"]
    twin = SlowMonoValue(inst)
    bad = []
    if v.decision not in ("accept", "reject"):
        bad.append(f"unknown decision {v.decision!r}")
    if v.decision == "reject" and op.world == "yes":
        bad.append("yes-world instance rejected")
    if v.queries_used > ATTACK_Q:
        bad.append(f"queries_used {v.queries_used} > q={ATTACK_Q}")
    if (v.witness is not None) != (v.decision == "reject"):
        bad.append("witness present iff reject fails")
    if v.witness is not None:
        lower, upper = v.witness.lower, v.witness.upper
        if not (lower.bits & ~upper.bits == 0 and lower.bits != upper.bits):
            bad.append("witness lower is not strictly below upper")
        if twin(lower) != 1 or twin(upper) != 0:
            bad.append("witness does not verify under the slow twin")
    for x in _middle_points(ATTACK_N, ATTACK_CHECK_POINTS, op.seed):
        if inst.value(x) != twin(x):
            bad.append(f"value differs from the slow twin at {x.to_hex()}")
    return bad


def _attack_record(out) -> str:
    v = out["verdict"]
    stages = ",".join(f"{k}={q}" for k, q in sorted(v.stage_queries.items()))
    wit = f"{v.witness.lower.to_hex()}<{v.witness.upper.to_hex()}" if v.witness else "-"
    return f"{v.decision}|{v.queries_used}|{stages}|{wit}"


# ---------------------------------------------------------------------------
# mc-n16
# ---------------------------------------------------------------------------


def _mc_run(op: Op):
    inst = families.MonoInstance.sample(MC_N, op.world, seed=op.seed)
    rng = core.RngStream(op.seed, "perfbench-mc")
    return {"inst": inst, "estimate": distance.estimate_witness_density(inst, MC_SAMPLES, rng)}


def _mc_hits(est) -> int:
    return round(est.estimate * est.samples)


def _mc_check(op: Op, out) -> list[str]:
    est = out["estimate"]
    # exhaustive witness set (lower endpoints) and its middle-layer density
    members = {x.bits for x, _ in distance.witness_edge_family(out["inst"])}
    lo, hi = _band(MC_N)
    exact = len(members) / sum(math.comb(MC_N, w) for w in range(MC_N + 1) if lo <= w <= hi)
    bad = []
    if est.samples != MC_SAMPLES:
        bad.append(f"estimate over {est.samples} samples, asked {MC_SAMPLES}")
    # replay the sampler's stream: one draw per rejection-sampled point
    rng = core.RngStream(op.seed, "perfbench-mc")
    hits = 0
    for _ in range(MC_SAMPLES):
        while True:
            bits = rng.draw(1 << MC_N) - 1
            if lo <= bits.bit_count() <= hi:
                break
        hits += bits in members
    if _mc_hits(est) != hits:
        bad.append(f"{_mc_hits(est)} hits, replay against the exhaustive set gives {hits}")
    sigma = max(math.sqrt(exact * (1 - exact) / MC_SAMPLES), 1e-6)
    if abs(est.estimate - exact) > MC_SIGMAS * sigma:
        bad.append(f"estimate {est.estimate} vs exhaustive {exact}: over {MC_SIGMAS} sigma")
    return bad


def _mc_record(out) -> str:
    return str(_mc_hits(out["estimate"]))


# ---------------------------------------------------------------------------
# exhaustive-n14
# ---------------------------------------------------------------------------


def _exh_run(op: Op):
    inst = families.MonoInstance.sample(EXH_N, op.world, seed=op.seed, term_len=EXH_TERM_LEN)
    table = inst.truth_table()
    return {
        "inst": inst,
        "table": table,
        "violating": distance.count_violating_edges(table, EXH_N),
        "family": distance.witness_edge_family(inst),
        "dist": distance.exact_dist_mono(table, EXH_N),
        "lower": distance.unate_dist_lower_bound(table, EXH_N),
    }


def _exh_check(op: Op, out) -> list[str]:
    table, fam, dist = out["table"], out["family"], out["dist"]
    bad = []
    used: set[int] = set()
    for x, y in fam:
        if x.bits in used or y.bits in used:
            bad.append("witness edges overlap")
            break
        used.update((x.bits, y.bits))
        diff = y.bits ^ x.bits
        if x.bits & diff or diff.bit_count() != 1:
            bad.append("witness pair is not an upward edge")
            break
        if table[x.bits] != 1 or table[y.bits] != 0:
            bad.append("witness edge is not violating in the truth table")
            break
    density = Fraction(len(fam), 1 << EXH_N)
    if density > dist:
        bad.append(f"witness density {density} exceeds exact distance {dist}")
    if dist <= 0:
        bad.append("exact distance is 0 on a no-world instance")
    if out["lower"] > dist:
        bad.append(f"unate lower bound {out['lower']} exceeds exact distance {dist}")
    if out["violating"] < len(fam):
        bad.append("fewer violating edges than disjoint witness edges")
    inst = out["inst"]
    for x in _middle_points(EXH_N, EXH_CHECK_POINTS, op.seed):
        if table[x.bits] != inst.value(x):
            bad.append(f"truth table differs from value at {x.to_hex()}")
    return bad


def _exh_record(out) -> str:
    table = hashlib.blake2b(out["table"].tobytes(), digest_size=8).hexdigest()
    return f"{out['violating']}|{len(out['family'])}|{out['dist']}|{out['lower']}|{table}"


# ---------------------------------------------------------------------------
# transcript-n16
# ---------------------------------------------------------------------------

_CLASSIFIER = transcripts.ClassifierConfig(TR_N, alpha=4.0)


def _tr_run(op: Op):
    inst = families.MonoInstance.sample(TR_N, op.world, seed=op.seed)
    rng = core.RngStream(op.seed, "perfbench-transcript")
    t = transcripts.MonoTranscript(TR_N)
    for _ in range(TR_MONO_QUERIES):
        while True:
            x = core.BitString.random(TR_N, rng)
            if inst.weight_class(x) == "middle":
                break
        sig = sigoracle.mono_full_signature(inst, x)
        edge = transcripts.classify_mono_edge(t, x, sig, _CLASSIFIER)
        if edge.kind is not None and t.bad_edge is None:
            t.bad_edge = edge
        t.extend(x, sig)
    axioms = t.check_axioms()
    cross = t.cross_check_instance(inst)

    uinst = families.UnateInstance.sample(TR_N, op.world, seed=op.seed)
    oracle = transcripts.UnateSignatureOracle(uinst)
    g = core.RngStream(op.seed, "perfbench-unate")
    added = tries = 0
    while added < TR_UNATE_QUERIES and tries < TR_UNATE_TRIES:
        tries += 1
        try:
            oracle.query(core.BitString.random(TR_N, g))
            added += 1
        except sigoracle.OutOfBandError:
            continue
    closed = likelihood.unate_transcript_likelihood(uinst, oracle.transcript, mode="exhaustive")
    return {"inst": inst, "t": t, "axioms": axioms, "cross": cross,
            "uinst": uinst, "ut": oracle.transcript, "closed": closed}


_TUPLE_FIELDS = ("I", "J", "P", "R", "Pij", "Rij", "A1", "A0", "Aij1", "Aij0", "rho")


def _rel_err(a: float, b: float) -> float:
    return 0.0 if a == b == 0 else abs(a - b) / max(abs(a), abs(b))


def _tr_check(op: Op, out) -> list[str]:
    t, inst = out["t"], out["inst"]
    bad = [f"axiom: {m}" for m in out["axioms"]] + [f"cross-check: {m}" for m in out["cross"]]
    ref = transcripts.induced_mono_tuple(t.queries)
    for name in _TUPLE_FIELDS:
        if getattr(t, name) != getattr(ref, name):
            bad.append(f"incremental {name} drifts from induced_mono_tuple")
    for x, sig in t.queries:
        if sigoracle.value_from_mono_signature("middle", sig) != inst.value(x):
            bad.append(f"mono signature value differs at {x.to_hex()}")
    ut, uinst = out["ut"], out["uinst"]
    for x, sig in ut.queries:
        if sigoracle.value_from_unate_signature("middle", sig) != uinst.value(x):
            bad.append(f"unate signature value differs at {x.to_hex()}")
    brute = likelihood.unate_likelihood_bruteforce(uinst, ut)
    closed = out["closed"]
    for side, a, b in (("p_yes", closed.p_yes, brute.p_yes), ("p_no", closed.p_no, brute.p_no)):
        if _rel_err(a, b) > LIKELIHOOD_RTOL:
            bad.append(f"closed {side} {a!r} vs brute force {b!r}")
    return bad


def _tr_record(out) -> str:
    t, ut, closed = out["t"], out["ut"], out["closed"]
    mono = (
        len(t.I), sum(map(len, t.P.values())), sum(map(len, t.R.values())),
        len(t.Pij), sum(map(len, t.Rij.values())),
        t.bad_edge.kind if t.bad_edge else "-", len(out["axioms"]), len(out["cross"]),
    )
    unate = (len(ut.queries), len(ut.I), len(ut.I_B), repr(closed.p_yes), repr(closed.p_no))
    return f"{mono}|{unate}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("attack-n100", _maker("attack-n100", ("yes", "no")), _attack_run,
                 _attack_check, _attack_record, traced_ops_per_s=2.5),
        Workload("mc-n16", _maker("mc-n16", ("no",)), _mc_run, _mc_check, _mc_record,
                 traced_ops_per_s=2.4),
        Workload("exhaustive-n14", _maker("exhaustive-n14", ("no",)), _exh_run,
                 _exh_check, _exh_record, traced_ops_per_s=4.5),
        Workload("transcript-n16", _maker("transcript-n16", ("yes", "no")), _tr_run,
                 _tr_check, _tr_record, traced_ops_per_s=25.0),
    )
}
