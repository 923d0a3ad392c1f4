"""Sharing one key among three parties, and why the pad survives reuse.

The protocol runs twice with rotated roles: the first receiver relays the
key he recovered, so afterwards all three hold the same bits.  Both runs
publish a pad bit D = A xor K for every round; exhaustive enumeration shows
the pair (D1, D2) still carries zero information about K.  An eavesdropper
impersonating the third party learns nothing either, and one who touches
the particles in only one of the runs trips that run's detector alone.
"""

import math

from ghzkd import (
    EveStrategy,
    GhzSpec,
    Method,
    ProtocolConfig,
    bits_to_str,
    impersonation_view_joint,
    mutual_information,
    pad_reuse_information,
    run_three_party,
    spin_setting,
)


def zero_in_theory(x: float) -> str:
    """A value that exact arithmetic makes 0: below 1e-12 it prints as '< 1e-12', not as round-off."""
    return "< 1e-12" if abs(x) < 1e-12 else f"= {x:.3e}"


config = ProtocolConfig(method=Method.METHOD2, key_length=16, seed=97)
(run1, t1), (run2, t2) = run_three_party(config)

print("=== Two chained sessions, one key ===")
print(f"key generated by Alice : {bits_to_str(run1.key_sent)}")
print(f"recovered by Bob       : {bits_to_str(run1.key_recovered)}")
print(f"relayed on to Charlie  : {bits_to_str(run2.key_recovered)}")
print(f"all three agree: {run1.key_sent == run1.key_recovered == run2.key_recovered}")
d1 = [m.value for m in t1.public_log if m.kind == "d_bit"]
d2 = [m.value for m in t2.public_log if m.kind == "d_bit"]
print(f"public pad bits D1={bits_to_str(d1)} D2={bits_to_str(d2)}")

print()
print("=== Reusing K for two pads leaks nothing ===")
s1 = tuple(spin_setting(x) for x in (0.0, math.pi / 2, math.pi / 2))
s2 = tuple(spin_setting(x) for x in (0.9, 1.3, 0.4))
info = pad_reuse_information(GhzSpec("+++", -1), s1, GhzSpec("++-", -1), s2)
print(f"I(D1,D2 ; K) by exhaustive enumeration {zero_in_theory(info)} bits")

print()
print("=== An impersonator in Charlie's seat stays blind ===")
for preference in (1, -1):
    cfg = ProtocolConfig(
        method=Method.METHOD2,
        key_length=1,
        seed=1,
        bob_parity_preference=preference,
    )
    info = mutual_information(impersonation_view_joint(cfg))
    print(f"  parity preference {preference:+d}: I(view ; K) {zero_in_theory(info)} bits")

joint = impersonation_view_joint(
    ProtocolConfig(method=Method.METHOD2, key_length=1, seed=1),
    leak_alice_bit=True,
)
print(f"  sanity: leaking the sender's bit would hand over {mutual_information(joint):.6f} bits")

print()
print("=== Tampering with only the second run ===")
chained = ProtocolConfig(method=Method.METHOD2, key_length=96, seed=97)
attacked = ProtocolConfig(
    method=Method.METHOD2, key_length=96, seed=97,
    eve=EveStrategy.intercept_resend_a(math.pi / 2),
)
(run1, _), (run2, _) = run_three_party(chained, second_config=attacked)
print(f"run 1 verdict: {run1.detection.verdict.value} (rate {run1.detection.rate:.4f})")
print(f"run 2 verdict: {run2.detection.verdict.value} (rate {run2.detection.rate:.4f})")
