"""Finitely generated zero-set filter bases with certified membership.

A filter base is a finite generator list; a set belongs to the generated
filter iff it contains the intersection of some finite generator subset.
Every query, properness included, is decided over the whole ambient by
`space.exact_counterexample`, so a verdict is proven or refuted; a claim
whose DNF grows past `space.MAX_DNF_TERMS` raises `space.TermBoundError`.
Refutations always carry a concrete point in the intersection of all
generators that misses the queried set, which rules out every generator
subset at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

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
)


class FilterError(ValueError):
    """Raised for malformed bases or unsatisfied membership preconditions."""


@dataclass(frozen=True)
class FilterBase:
    """Finite generator list; the filter is all supersets of finite intersections."""

    generators: tuple[SetExpr, ...]
    ambient: str = "xi"

    def __post_init__(self) -> None:
        if not self.generators:
            raise FilterError("a filter base needs at least one generator (Whole is fine)")
        if self.ambient not in (XI, PI):
            raise FilterError(f"unknown ambient {self.ambient!r}")

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

@dataclass(frozen=True)
class MemberVerdict:
    status: Literal["proven", "refuted"]
    subset: tuple[int, ...] | None = None  # generator indices whose intersection works
    witness: XiPoint | None = None  # point in every generator but outside the query
    exact = True  # every verdict is; perfbench/run.py reads the field

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
    refutes every subset at once; otherwise the smallest working generator
    subset is reported."""
    gens = base.generators
    witness = exact_counterexample(base.core(), zset, base.ambient)
    if witness is not None:
        return MemberVerdict("refuted", witness=witness)
    for size in range(0, len(gens) + 1):
        for combo in itertools.combinations(range(len(gens)), size):
            if exact_counterexample(inter_of(gens[i] for i in combo), zset, base.ambient) is None:
                return MemberVerdict("proven", subset=combo)
    raise AssertionError("the full generator subset must succeed here")


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


@dataclass(frozen=True)
class CombineReport:
    combined: SetExpr
    per_base: dict[int, MemberVerdict]
    target_verdict: MemberVerdict


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
