"""Filter bases over zero sets: membership verdicts, shifts, pseudo-finiteness.

A finite generator list presents the filter of all supersets of finite
generator intersections.  Every query is decided exactly over the whole
space, with no truncation.
"""

from zfilterlab import (
    Atom,
    FilterBase,
    Union,
    combine_nonredundancy_witnesses,
    filter_member,
    make_registry,
    pairwise_union_base,
    pseudo_finite_exceptions,
    shifted_filter,
    union_atoms,
)

reg = make_registry([("", "1"), ("", "2"), ("1", "2")])
a, b, c = reg.entries

# --- the pairwise-union filter base ---------------------------------------

# generated by every two-branch union of zero sets; single zero sets are
# never members, which is the seed of the extendibility construction
base = pairwise_union_base([a, b, c])
print("generators:", len(base.generators), "pairwise unions")

v = filter_member(base, Union((Atom(a), Atom(b))))
print("union of N_a and N_b:", v.status, "(it is a generator)")

v = filter_member(base, Atom(a))
print("N_a alone:", v.status, "- witness point", v.witness.literal())
# the witness sits in every generator but escapes N_a

# --- intersection bases --------------------------------------------------

atoms_base = FilterBase.of([Atom(a), Atom(b)])
v = filter_member(atoms_base, Atom(a))
print("\nexact decision without any truncation:", v.status, "exact:", v.exact)
v = filter_member(atoms_base, Atom(c))
print("N_c against {N_a, N_b}:", v.status, "- exact witness", v.witness.literal())

# --- shifted filters ----------------------------------------------------------

# gluing one zero set onto every query realizes the per-index filters of the
# pseudo-finite family; shaving the generators implements it
shifted = shifted_filter(base, a)
print("\nafter shifting by a, N_b is a member:",
      filter_member(shifted, Atom(b)).status)
print("consistency: same verdict as querying the union directly:",
      filter_member(base, Union((Atom(b), Atom(a)))).status)

# --- pseudo-finite exceptions ---------------------------------------------------

family = [shifted_filter(base, x) for x in (a, b, c)]
zset = Union((Atom(b), Atom(c)))
exceptions, verdicts = pseudo_finite_exceptions(family, zset)
print("\nunion of N_b, N_c across the shifted family:")
for i, verdict in enumerate(verdicts):
    print(f"  index {i} ({reg.entries[i].label}): {verdict.status}")
print("exception indices:", exceptions)

# --- combining non-redundancy witnesses ------------------------------------------

# one witness per non-target member filter; the union stays in each of them
# by monotonicity and a concrete point refutes it at the target
tails = [FilterBase.of([Atom(x)]) for x in (a, b, c)]
report = combine_nonredundancy_witnesses(
    {1: union_atoms([b]), 2: union_atoms([c])}, 0, tails
)
print("\ncombined witness union proven in 1:", report.per_base[1].status,
      "and 2:", report.per_base[2].status)
print("refuted at target 0 by point:", report.target_verdict.witness.literal())
