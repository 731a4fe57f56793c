#!/usr/bin/env python3
"""The stronger oracles: signatures, transcripts, and breach revelation.

A signature reveals which terms a query satisfies (up to the smallest
two), which clauses of the unique term it falsifies, and the touched
dictator values -- always enough to reconstruct the plain function value.
Transcripts accumulate the induced bookkeeping tuple; for the unateness
family the oracle additionally reveals the special variable of any term
whose evidence pins it down (a "breach").
"""

from cubetest import BitString, MonoInstance, UnateInstance
from cubetest.core import RngStream
from cubetest.sigoracle import (
    OutOfBandError,
    mono_full_signature,
    unate_signature,
    value_from_mono_signature,
)
from cubetest.transcripts import MonoTranscript, UnateSignatureOracle

inst = MonoInstance.sample(16, "no", seed=11)
rng = RngStream(0, "demo")

print("== Full signatures against the two-level family ==")
t = MonoTranscript(16)
shown = 0
while shown < 5:
    x = BitString.random(16, rng)
    if inst.weight_class(x) != "middle":
        continue
    sig = mono_full_signature(inst, x)
    assert value_from_mono_signature("middle", sig) == inst.value(x)
    print(f"x={x.to_hex()}  ->  {sig.to_json()}")
    t.extend(x, sig)
    shown += 1

print("\ninduced tuple after 5 queries:")
print("  tracked terms I =", sorted(t.I))
for i in sorted(t.I):
    print(f"  |P_{i}|={len(t.P[i])} |R_{i}|={len(t.R[i])} "
          f"|A_(i,1)|={t.A1[i].bit_count()} |A_(i,0)|={t.A0[i].bit_count()} "
          f"J_{i}={sorted(t.J[i])}")
print("  structural axioms violated:", t.check_axioms() or "none")

try:
    mono_full_signature(inst, BitString.zeros(16))
except OutOfBandError as e:
    print("\nout-of-band query refused:", e)

print("\n== Unateness oracle with breach revelation ==")
u = UnateInstance.sample(16, "no", seed=2)
oracle = UnateSignatureOracle(u)
queries = 0
while queries < 60 and not oracle.transcript.I_B:
    x = BitString.random(16, rng)
    try:
        sig, revealed = oracle.query(x)
        queries += 1
        if revealed:
            print(f"after query {queries}: term(s) breached, special "
                  f"variable(s) revealed: {revealed}")
    except OutOfBandError:
        continue
tr = oracle.transcript
print(f"transcript: {len(tr)} queries, tracked {sorted(tr.I)}, "
      f"breached {sorted(tr.I_B)}, safe {sorted(tr.I_S)}")
