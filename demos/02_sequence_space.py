"""Points of the compact sequence space and the symbolic zero-set algebra.

A point is a finite map position -> finite value, all other coordinates
infinite.  In the compact subspace a point is valid exactly when every finite
value reaches the largest support position; the full product drops that
constraint.  Each branch determines a zero set: the points whose support
avoids the branch's element set.
"""

from zfilterlab import (
    Atom,
    BranchIndex,
    Diff,
    Inter,
    Singleton,
    Truncation,
    Union,
    Whole,
    XiPoint,
    closure_member,
    enumerate_truncated,
    eval_setexpr,
    in_zero_set,
    inter_atoms,
    multi_escape_sequence,
    validate_point,
)

all1 = BranchIndex("", "1", rank=0, label="a")
all2 = BranchIndex("", "2", rank=1, label="b")

# --- validity ----------------------------------------------------------------

p_inf = XiPoint.of({})          # the all-infinite point
good = XiPoint.of({2: 3})       # value 3 at position 2, valid since 3 >= 2
bad = XiPoint.of({3: 2})        # value 2 below position 3: outside the space

for p in (p_inf, good, bad):
    print(f"{p.literal():>8} valid in the compact space: {validate_point(p)}")

# --- zero sets ---------------------------------------------------------------

print("\nzero-set membership (support must avoid the branch elements):")
for p in (p_inf, good, XiPoint.of({1: 1})):
    print(f"  {p.literal():>6} in N_a: {in_zero_set(p, all1)},  in N_b: {in_zero_set(p, all2)}")

# --- symbolic expressions ------------------------------------------------------

expr = Diff(inter_atoms([all2]), Atom(all1))   # N_b minus N_a
print("\npoints of N_b \\ N_a with one support coordinate:")
for n in (1, 2, 3):
    p = XiPoint.of({n: n})
    print(f"  {p.literal()}: {eval_setexpr(p, expr)}")

singleton = Singleton(XiPoint.of({2: 2}))
print("singleton test:", eval_setexpr(XiPoint.of({2: 2}), singleton),
      eval_setexpr(XiPoint.of({2: 3}), singleton))
print("empty set is (union):", eval_setexpr(p_inf, Union(())))
print("whole space:", eval_setexpr(p_inf, Whole()))

# --- truncated enumeration -----------------------------------------------------

trunc = Truncation(2, 2)
pts = enumerate_truncated(trunc)
print(f"\nall valid points with positions <= {trunc.T}, values <= {trunc.V}:")
print(" ", ", ".join(p.literal() for p in pts))

# --- approximating sequences ----------------------------------------------------

# pushing one off-support coordinate through ever larger finite values walks
# into the point coordinatewise
seq = multi_escape_sequence(p_inf, (1,), 4)
print("\napproximating the all-infinite point through position 1:")
print(" ", ", ".join(t.literal() for t in seq.terms()))

seq2 = multi_escape_sequence(XiPoint.of({2: 3}), (1,), 3)
print("approximating {2:3} through position 1 (start forced to 3):")
print(" ", ", ".join(t.literal() for t in seq2.terms()))

# --- closure verdicts ------------------------------------------------------------

# exact and two-valued: one support per reachable atom hit pattern decides
# membership, with no truncation
print("\nclosure membership of the all-infinite point in N_b \\ N_a:")
verdict = closure_member(p_inf, expr)
print("  status:", verdict.status)
print("  witness terms:", ", ".join(t.literal() for t in verdict.witness.terms()))

print("closure membership of {1:1} in N_a (support pins coordinate 1):")
verdict = closure_member(XiPoint.of({1: 1}), Atom(all1))
print("  status:", verdict.status, "- neighborhood (held, m, N):", verdict.neighborhood)

# a point of N_a outside N_b, N_12:1 and N_112:1 hits three branches that
# share no position outside a: no one or two varied positions get there,
# three do
hit = [all2, BranchIndex("12", "1", rank=2), BranchIndex("112", "1", rank=3)]
core = Inter((Atom(all1), *(Diff(Whole(), Atom(b)) for b in hit)))
print("closure membership of the all-infinite point of the full product in")
print("N_a minus N_b, N_12:1 and N_112:1:")
verdict = closure_member(XiPoint.of({}, "pi"), core)
print("  status:", verdict.status, "- varied positions:", verdict.witness.varied)
print("  witness terms:", ", ".join(t.literal() for t in verdict.witness.terms()))
