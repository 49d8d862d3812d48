"""Refuting putative covers: non-absorption failures cannot cover the space.

Input: finitely many zero-set expressions claimed to cover the whole space,
each with a verified absorption-failure certificate (the set, intersected
with finitely many low-ranked zero sets, is claimed to land inside finitely
many higher-ranked ones).  The replay always ends in exactly one of

* a counterexample point the cover misses, or
* a contradiction point at which one failure claim provably breaks.
"""

from zfilterlab import (
    AFailure,
    Atom,
    Certificate,
    Truncation,
    Whole,
    XI,
    check_certificate,
    check_certificate_text,
    exact_counterexample,
    make_registry,
    property_a_check,
    property_b_refute,
)

trunc = Truncation(6, 8)

# --- property (A) first: which sets absorb? -----------------------------------

reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
cert = property_a_check(Whole(), reg)
print("whole space has the non-absorption property:", cert.kind == "SeparatorWitness",
      f"({len(cert.payload['entries'])} witness points, one per entry)")

# a failure is certified as an absorption failure, its branches by label
cert = property_a_check(Atom(reg.entries[-1]), reg)
failure = cert.payload["afailure"]
print("the top-ranked zero set fails it:", cert.kind != "SeparatorWitness",
      "- violating pair: constraining =", failure["constraining"],
      "absorbing =", failure["absorbing"])

# --- a cover that misses a point ------------------------------------------------

reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
a, b, _ = reg.entries
failures = [
    AFailure(Atom(a), (), (a,)),   # N_a inside N_a: genuinely failing sets
    AFailure(Atom(b), (), (b,)),
]
cert = property_b_refute(failures, 50, reg, trunc).certificate
print("\ntwo zero sets alone:", cert.kind, "at", cert.payload["point"])
print("checker verdict:", check_certificate(cert).ok)

# --- a true cover whose failure claims cannot all be genuine --------------------

# the constraining branches cover every truncated position, so the whole
# space "fails" absorption on the truncation; the replay escapes beyond it
# and pinpoints where the claim breaks
reg = make_registry(
    [("", "1"), ("112", "1"), ("12", "1"), ("21", "1"), ("22", "1"), ("", "2", 9)]
)
constraining = tuple(e for e in reg if e.rank <= 4)
whole_failure = AFailure(Whole(), constraining, (reg.by_label("b9"),))
refuted = property_b_refute([whole_failure], 50, reg, trunc)
cert = refuted.certificate
print("\nwhole-space cover:", cert.kind)
print("  breaking point:", cert.payload["point"])
print("  chain steps:", len(refuted.chain))
print("checker verdict:", check_certificate(cert).ok)
# decided over the whole space, the claimed failure breaks at once
exact = exact_counterexample(whole_failure.lhs(), whole_failure.rhs(), XI)
print("  the claim decided exactly breaks at:", exact.literal())

# --- certificates survive the wire, tampering does not ---------------------------

blob = cert.to_json()
again = Certificate.from_json(blob)
print("\nround-trip kind:", again.kind, "digest match:", again.digest() in blob)

tampered = blob.replace(cert.payload["point"], "{1:1}").encode()
print("tampered certificate accepted?", check_certificate_text(tampered).ok)
