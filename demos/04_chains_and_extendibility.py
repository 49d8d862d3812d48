"""Extendibility certificates and strictly monotone filter-base chains.

Every engine output is a certificate the independent checker re-verifies
from the payload alone.  All of them are exact and take no truncation;
extendibility (b) decides each of its containments over the whole space.
"""

from zfilterlab import (
    Atom,
    Diff,
    Truncation,
    Whole,
    check_certificate,
    check_extendibility_a,
    check_extendibility_b,
    containment_decreasing,
    containment_full_product,
    decreasing_chain_engine,
    enumerate_truncated,
    eval_setexpr,
    increasing_chain_engine,
    inter_atoms,
    make_registry,
    multi_escape_sequence,
    union_atoms,
)

trunc = Truncation(4, 6)

# --- extendibility, condition (a) -------------------------------------------

reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
cert = check_extendibility_a(reg)
print("extendibility (a): one witness point per entry, against all the others")
# point j answers registry entry j
for alpha, point in zip(reg, cert.payload["entries"]):
    print(f"  alpha={alpha.label} point={point}")
print("checker verdict:", check_certificate(cert).ok)

# --- extendibility, condition (b) -------------------------------------------
reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
cert = check_extendibility_b(Atom(reg.entries[1]), reg.entries[0], reg)
print("\nextendibility (b) for N_b against entry a:")
print("  hypothesis group:", cert.payload["hypothesis_group"])
print("  separator:", cert.payload["separator"])
print("  exceptions:", cert.payload["exceptions"])
# the checker decides the pair inclusion of every other entry
print("  members certified:", [
    b.label for b in reg
    if b.label != cert.payload["alpha"] and b.label not in cert.payload["exceptions"]
])
print("checker verdict:", check_certificate(cert).ok)

# the whole space needs no exceptions at all
reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
cert = check_extendibility_b(Whole(), reg.entries[0], reg)
print("whole-space exceptions:", cert.payload["exceptions"])

# --- closure containment with a rank floor -----------------------------------

reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
cert = containment_decreasing([reg.entries[0]], [reg.entries[1]], 10, reg)
# the certificate names its branches by registry label, and lists separator j
# for subtracted branch j
separators = dict(zip(cert.payload["subtracted"], cert.payload["separators"]))
kept, subtracted, cover = (
    [reg.by_label(label) for label in cert.payload[key]]
    for key in ("kept", "subtracted", "cover")
)
print("\nclosure containment: subtract N_a from N_b, cover past rank 10")
print("  separators:", separators, "depth:", max(separators.values()), "cover:",
      [(c.literal(), c.rank) for c in cover])
print("  decided exactly: kept and cover branches own every position up to the")
print("  depth, so a support avoiding them lies past every separator")
# on the truncation: each point of the shrunken intersection escapes through
# the separators of the subtracted branches it misses, into the target
target = Diff(inter_atoms(kept), union_atoms(subtracted))
shrunken = inter_atoms([*kept, *cover])
count = 0
for p in enumerate_truncated(trunc):
    if eval_setexpr(p, shrunken):
        missed = [a for a in subtracted if eval_setexpr(p, Atom(a))]
        escapes = sorted({separators[a.label] for a in missed})
        terms = multi_escape_sequence(p, escapes, 3).terms() if escapes else [p]
        assert all(eval_setexpr(t, target) for t in terms)
        count += 1
print(f"  on the truncation: {count} points of the shrunken intersection, all witnessed")
print("checker verdict:", check_certificate(cert).ok)

# --- the full product needs no cover ------------------------------------------

reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
cert = containment_full_product([reg.entries[0]], [reg.entries[1]])
print("\nfull product: puncturing N_b out of N_a leaves a dense set")
print("  separators (escape positions):",
      dict(zip(cert.payload["subtracted"], cert.payload["separators"])))
print("checker verdict:", check_certificate(cert).ok)

# --- strictly monotone chains ---------------------------------------------------

reg = make_registry(
    [("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")]
)
inc = increasing_chain_engine(reg, 5)
print("\nincreasing chain: entry j outside the first j entries' intersection")
labels = [b.label for b in reg]
print("  strictness witnesses:", list(zip(labels, inc.payload["entries"])))
reg = make_registry(
    [("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")]
)
dec = decreasing_chain_engine(reg, 5)
print("decreasing chain: entry j outside the later entries' intersection")
print("  strictness witnesses:", list(zip(labels, dec.payload["entries"])))
print("checker verdicts:", check_certificate(inc).ok,
      check_certificate(dec).ok)
