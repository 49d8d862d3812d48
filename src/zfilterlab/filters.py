"""Finitely generated zero-set filter bases with certified membership.

A filter base is a finite generator list; a set belongs to the generated
filter iff it contains the intersection of some finite generator subset.
Every query, properness included, is decided over the whole ambient by
`space.exact_counterexample`, so a verdict is proven or refuted; a claim
that needs more than `space.MAX_SPLITS` splits raises `space.SplitBoundError`.
Refutations always carry a concrete point in the intersection of all
generators that misses the queried set, which rules out every generator
subset at once.  A proof reports a minimal, not always smallest, working
generator subset, found by `space.minimal_sublist` in at most 2n - 1 calls.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Literal, Mapping, Sequence

from ._record import Frozen
from .branches import BranchIndex
from .space import (
    PI,
    XI,
    Atom,
    Diff,
    SetExpr,
    Union,
    Whole,
    XiPoint,
    empty_expr,
    exact_counterexample,
    inter_of,
    minimal_sublist,
)


class FilterError(ValueError):
    """Raised for malformed bases or unsatisfied membership preconditions."""


class FilterBase(Frozen):
    """Finite generator list; the filter is all supersets of finite intersections."""

    __slots__ = ("generators", "ambient")

    def __init__(self, generators: tuple[SetExpr, ...], ambient: str = "xi") -> None:
        if not generators:
            raise FilterError("a filter base needs at least one generator (Whole is fine)")
        if ambient not in (XI, PI):
            raise FilterError(f"unknown ambient {ambient!r}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "ambient", ambient)

    @classmethod
    def of(cls, generators: Iterable[SetExpr], ambient: str = "xi") -> "FilterBase":
        return cls(tuple(generators), ambient)

    @classmethod
    def trivial(cls, ambient: str = "xi") -> "FilterBase":
        return cls((Whole(),), ambient)

    def core(self) -> SetExpr:
        """Intersection of every generator: the smallest set in the filter."""
        return inter_of(self.generators)

    def is_proper(self) -> bool:
        """Properness: the core is nonempty."""
        return exact_counterexample(self.core(), empty_expr(), self.ambient) is not None


def pairwise_union_base(branches: Sequence[BranchIndex], ambient: str = "xi") -> FilterBase:
    """The base generated by all two-branch zero-set unions from the registry."""
    if len(branches) < 2:
        raise FilterError("need at least two branches for pairwise union generators")
    gens = [
        Union((Atom(a), Atom(b)))
        for a, b in itertools.combinations(sorted(branches, key=lambda x: x.rank), 2)
    ]
    return FilterBase.of(gens, ambient)


# ---------------------------------------------------------------------------
# Membership verdicts
# ---------------------------------------------------------------------------

class MemberVerdict(Frozen):
    __slots__ = ("status", "subset", "witness")
    exact = True  # every verdict is; perfbench/run.py reads the field

    def __init__(
        self,
        status: Literal["proven", "refuted"],
        subset: tuple[int, ...] | None = None,  # generator indices whose intersection works
        witness: XiPoint | None = None,  # point in every generator but outside the query
    ) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "witness", witness)

    @property
    def proven(self) -> bool:
        return self.status == "proven"

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


def filter_member(base: FilterBase, zset: SetExpr, trunc: object = None) -> MemberVerdict:
    """Decide membership of ``zset`` in the filter generated by ``base``
    over the whole ambient; ``trunc`` is accepted and ignored, as
    perfbench/run.py passes one.  A point in the core outside the query
    refutes every subset at once; otherwise a minimal working generator
    subset is reported (see `minimal_sublist`)."""
    gens = base.generators
    witness = exact_counterexample(base.core(), zset, base.ambient)
    if witness is not None:
        return MemberVerdict("refuted", witness=witness)
    subset = minimal_sublist(range(len(gens)), lambda c: exact_counterexample(
        inter_of(gens[i] for i in c), zset, base.ambient) is None)
    return MemberVerdict("proven", subset=tuple(subset))


def shifted_filter(base: FilterBase, alpha: BranchIndex) -> FilterBase:
    """The base whose members are the sets landing in ``base`` once the
    branch's zero set is glued on.

    Containing some intersection of the original generators after union with
    the zero set is the same as containing the intersection of the shaved
    generators, so shaving every generator realizes the shifted filter.
    """
    return FilterBase.of(
        (Diff(g, Atom(alpha)) for g in base.generators), base.ambient
    )


def pseudo_finite_exceptions(
    family: Sequence[FilterBase], zset: SetExpr
) -> tuple[list[int], list[MemberVerdict]]:
    """Indices of family members whose filter misses ``zset``.

    The pseudo-finiteness shape: once the set belongs anywhere it should
    belong to all but finitely many members; this reports exactly the
    exceptional indices together with every per-index verdict.
    """
    verdicts = [filter_member(b, zset) for b in family]
    if not any(v.proven for v in verdicts):
        raise FilterError("the set belongs to no family member; nothing to except")
    exceptions = [i for i, v in enumerate(verdicts) if not v.proven]
    return exceptions, verdicts


class CombineReport(Frozen):
    __slots__ = ("combined", "per_base", "target_verdict")

    def __init__(
        self, combined: SetExpr, per_base: dict[int, MemberVerdict], target_verdict: MemberVerdict
    ) -> None:
        object.__setattr__(self, "combined", combined)
        object.__setattr__(self, "per_base", per_base)
        object.__setattr__(self, "target_verdict", target_verdict)


def combine_nonredundancy_witnesses(
    witnesses: Mapping[int, SetExpr],
    target: int,
    family: Sequence[FilterBase],
) -> CombineReport:
    """Union the per-member witnesses into one set separating the target.

    Each witness lives in its own member filter, so the union does too by
    monotonicity (the same generator subset still works).  The target
    verdict is the union's own membership query at the target: refuted, by
    a point of the target's core avoiding every witness, when the union
    separates it, and proven when the witnesses together cover that core.
    """
    if not witnesses:
        raise FilterError("no witnesses to combine")
    if target in witnesses:
        raise FilterError("the target index cannot carry a witness")
    for idx, w in witnesses.items():
        own = filter_member(family[idx], w)
        if not own.proven:
            raise FilterError(f"witness for index {idx} is not in its own filter")
        against = filter_member(family[target], w)
        if not against.refuted:
            raise FilterError(f"witness for index {idx} is not refuted at the target")

    ordered = [witnesses[i] for i in sorted(witnesses)]
    combined: SetExpr = ordered[0] if len(ordered) == 1 else Union(tuple(ordered))

    per_base: dict[int, MemberVerdict] = {}
    for i, base in enumerate(family):
        if i == target:
            continue
        per_base[i] = filter_member(base, combined)

    target_verdict = filter_member(family[target], combined)
    return CombineReport(combined, per_base, target_verdict)
