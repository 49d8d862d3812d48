"""Certificate-producing engines for the constructive combinatorial facts.

Each engine realizes one construction at desk scale, relative to an explicit
finite registry, and emits a `Certificate` that an independent checker can
replay from the payload alone.  A certificate records only what that checker
reads; how the engine got there (the property-(B) chain, say) is returned
beside it in a report.  ``params.registry`` is the one place where a
certificate spells out a branch's word and rank; every other field names a
branch by the label of its registry entry, with lists in rank order.

The engines never trust themselves: exact branch-word reasoning or an
exhaustive search of a truncation ``(T, V)`` backs every claim, and any
residual transfinite step is replaced by a concrete eval-verified witness
point.  Only `property_b_refute` searches a truncation, takes one and
records it: its inputs are claims that hold on a truncation and break past
it.  The separator claims (`extendibility-a`, the two chains, property (A)
when it holds) are shown by one eval-checked point per entry, and the two
closure containments by the separators (and, with a rank floor, the cover
and its depth) from which the paper's coordinate-pushing step gives every
point of the shrunken intersection an escape sequence.  The containments
of `check_extendibility_b` and a failing `property_a_check` are decided
over the whole space by `space.exact_counterexample`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# the chain engines reach `filters` as an attribute of the package, which
# imports it on first use, so the other engines do not load it
import zfilterlab

from .branches import (
    BranchError,
    BranchIndex,
    Registry,
    branch_member,
    find_cover,
    find_separator,
)
from .certificates import Certificate
from .formats import setexpr_text
from .space import (
    Ambient,
    Atom,
    Diff,
    Inter,
    PI,
    SetExpr,
    Truncation,
    Union,
    Whole,
    XI,
    XiPoint,
    containment_counterexample,
    eval_setexpr,
    exact_counterexample,
    inter_atoms,
    union_atoms,
)


class EngineError(ValueError):
    """Umbrella for engine precondition and certification failures."""


class CertificationError(EngineError):
    """A required inclusion fails at the point named, or a witness its own check."""


class AFailureVerificationError(EngineError):
    """A claimed property-(A) failure does not hold on the truncation."""


# ---------------------------------------------------------------------------
# Payload helpers
# ---------------------------------------------------------------------------

def _registered(registry: Registry, branches: Iterable[BranchIndex]) -> tuple[BranchIndex, ...]:
    """The registry entries with the words of ``branches``; a certificate
    names a branch only by its entry's label."""
    try:
        return tuple(registry.entry(b) for b in branches)
    except BranchError as exc:
        raise EngineError(str(exc)) from exc


def _labels(entries: Iterable[BranchIndex]) -> list[str]:
    """Labels of registry entries, in rank order."""
    return [b.label for b in sorted(entries, key=lambda b: b.rank)]


def _params(registry: Registry, ambient: Ambient, **extra) -> dict:
    return {"registry": registry.to_payload(), "ambient": ambient, **extra}


# ---------------------------------------------------------------------------
# Extendibility, condition (a)
# ---------------------------------------------------------------------------

def check_extendibility_a(registry: Registry) -> Certificate:
    """Witness points showing no single zero set sits in the pairwise-union filter.

    For every entry, the point carrying the separator element at the
    separator position lies in the intersection of all other entries but
    escapes the entry's zero set.  That point lies in every smaller group
    intersection too, and any finite intersection of pairwise-union
    generators contains such a group intersection, so one point per entry
    rules out membership relative to the registry.
    """
    if len(registry) < 2:
        raise EngineError("extendibility needs at least two registry entries")
    entries = list(registry)
    return Certificate(
        "SeparatorWitness",
        params=_params(registry, XI),
        payload={
            "claim": "no-single-zero-set-in-filter",
            "entries": _separator_entries(
                (alpha, [b for b in entries if b != alpha]) for alpha in entries
            ),
        },
    )


def _separator_entries(
    obligations: Iterable[tuple[BranchIndex, Sequence[BranchIndex]]]
) -> list[dict]:
    """One eval-checked point per (entry, group): inside the group's
    intersection, outside the entry's zero set."""
    entries = []
    for alpha, group in obligations:
        l = find_separator(alpha, group)
        point = XiPoint.of({l: l})
        if not eval_setexpr(point, Diff(inter_atoms(group), Atom(alpha))):
            raise CertificationError(
                f"separator point {point.literal()} failed its own check"
            )
        entries.append({"alpha": alpha.label, "point": point.literal()})
    return entries


# ---------------------------------------------------------------------------
# Extendibility, condition (b)
# ---------------------------------------------------------------------------

def check_extendibility_b(
    zset: SetExpr,
    alpha0: BranchIndex,
    registry: Registry,
) -> Certificate:
    """Finite exception set outside which gluing any entry keeps membership.

    The hypothesis is the first group of other entries, by size and then
    rank, whose intersection lies in the set joined with the distinguished
    entry; when the group of all of them fails, the run is refused with a
    point of its intersection outside that set.  Separator and cover bound the exceptions to the candidates (the
    group and the cover): a candidate is one only if its inclusion through
    the pair generators fails, and every other entry's must hold.  Each
    containment is decided exactly over the whole space.
    """
    (alpha0,) = _registered(registry, [alpha0])
    others = [b for b in registry if b != alpha0]

    target = Union((zset, Atom(alpha0)))
    # the group of all the others has the least intersection: if it fails, all do
    bad = exact_counterexample(inter_atoms(others), target, XI)
    if bad is not None:
        raise CertificationError(
            f"no group intersection lies in the set joined with {alpha0.label}: "
            f"{bad.literal()} lies in the zero set of every entry but {alpha0.label}, "
            "and outside that set"
        )
    groups = (g for size in range(len(others) + 1) for g in itertools.combinations(others, size))
    hypothesis = next(g for g in groups if exact_counterexample(inter_atoms(g), target, XI) is None)

    l = find_separator(alpha0, hypothesis)
    cover = find_cover(l, 0, registry, base=hypothesis)
    candidates = sorted(set(hypothesis) | set(cover), key=lambda b: b.rank)

    exceptions: list[BranchIndex] = []
    members: list[dict] = []
    for beta in registry:
        if beta == alpha0:
            continue  # its membership is the hypothesis itself
        through = [c for c in candidates if c != beta]
        lhs = Inter(tuple(Union((Atom(c), Atom(beta))) for c in through))
        bad = exact_counterexample(lhs, Union((zset, Atom(beta))), XI)
        if bad is None:
            members.append({"beta": beta.label, "via_pairs": [c.label for c in through]})
        elif beta in candidates:
            exceptions.append(beta)
        else:
            raise CertificationError(
                f"inclusion for remaining entry {beta.label} fails at {bad.literal()}"
            )

    return Certificate(
        "ExceptionList",
        params=_params(registry, XI),
        payload={
            "zset": setexpr_text(zset),
            "alpha": alpha0.label,
            "hypothesis_group": [b.label for b in hypothesis],
            "separator": l,
            "cover": _labels(cover),
            "exceptions": [b.label for b in exceptions],
            "members": members,
        },
    )


# ---------------------------------------------------------------------------
# Closure containment (coordinate pushing)
# ---------------------------------------------------------------------------

@dataclass
class ContainmentReport:
    """A closure containment decided exactly by coordinate pushing.

    A point whose support avoids the kept and cover branches is the limit of
    the terms that vary the separators of the subtracted branches its support
    misses: a separator lies in its own subtracted branch and in no kept one,
    and (in ``xi``) the kept and cover branches own every position up to
    ``depth``, at least every separator, so the terms stay valid.  The
    certificate carries only these facts, and the report the branches behind
    its labels.
    """

    subtracted: tuple[BranchIndex, ...]
    kept: tuple[BranchIndex, ...]
    separators: dict[str, int]
    cover: list[BranchIndex]
    depth: int
    ambient: Ambient
    certificate: Certificate = field(repr=False)

    def target(self) -> SetExpr:
        return Diff(inter_atoms(self.kept), union_atoms(self.subtracted))


def containment_decreasing(
    subtracted: Sequence[BranchIndex],
    kept: Sequence[BranchIndex],
    gamma: int,
    registry: Registry,
) -> ContainmentReport:
    """Shrink the kept intersection, at ranks past the floor, into the closure.

    One separator element per subtracted branch escapes its zero set while
    staying inside the kept intersection; covering every position up to the
    deepest separator pushes all remaining support beyond it, which makes the
    escape terms valid and convergent for every point of the shrunken
    intersection.
    """
    subtracted = _registered(registry, subtracted)
    kept = _registered(registry, kept)
    if any(a == b for a in subtracted for b in kept):
        raise EngineError("the subtracted and kept branch sets must be disjoint")

    separators: dict[str, int] = {}
    cover: list[BranchIndex] = []
    depth = 0
    if subtracted:
        for alpha in subtracted:
            separators[alpha.label] = find_separator(alpha, kept)
        depth = max(separators.values())
        cover = find_cover(depth, gamma, registry, base=kept)

    cert = Certificate(
        "InclusionChain",
        params=_params(registry, XI, gamma=gamma),
        payload={
            "claim": "closure-containment-with-rank-floor",
            "subtracted": _labels(subtracted),
            "kept": _labels(kept),
            "separators": separators,
            "depth": depth,
            "cover": _labels(cover),
        },
    )
    return ContainmentReport(subtracted, kept, separators, cover, depth, XI, cert)


# ---------------------------------------------------------------------------
# Closure density in the full product
# ---------------------------------------------------------------------------

def containment_full_product(
    kept: Sequence[BranchIndex],
    subtracted: Sequence[BranchIndex],
) -> ContainmentReport:
    """Density of the punctured intersection inside the full-product intersection.

    In the full product no level constraint binds, so every point of the kept
    intersection admits escape coordinates, one separator element per
    subtracted branch, without any covering step.
    """
    kept = tuple(kept)
    subtracted = tuple(subtracted)
    if any(a == b for a in subtracted for b in kept):
        raise EngineError("the kept and subtracted branch sets must be disjoint")

    separators = {b.label: find_separator(b, kept) for b in subtracted}
    registry_view = Registry(sorted(set(kept) | set(subtracted), key=lambda b: b.rank))
    cert = Certificate(
        "InclusionChain",
        params=_params(registry_view, PI),
        payload={
            "claim": "punctured-intersection-dense",
            "kept": _labels(kept),
            "subtracted": _labels(subtracted),
            "separators": separators,
        },
    )
    return ContainmentReport(subtracted, kept, separators, [], 0, PI, cert)


# ---------------------------------------------------------------------------
# Property (A)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AFailure:
    """A claimed failure of the non-absorption property for one zero set.

    The shape constraint mirrors the definition: the constraining branches
    all rank strictly below every branch the set is claimed to fall into.
    """

    zset: SetExpr
    constraining: tuple[BranchIndex, ...]
    absorbing: tuple[BranchIndex, ...]

    def __post_init__(self) -> None:
        if self.absorbing and self.max_constraining_rank() >= min(b.rank for b in self.absorbing):
            raise EngineError("constraining ranks must lie strictly below absorbing ranks")

    def max_constraining_rank(self) -> int:
        return max((b.rank for b in self.constraining), default=-1)

    def lhs(self) -> SetExpr:
        return Inter((self.zset, inter_atoms(self.constraining)))

    def rhs(self) -> SetExpr:
        return union_atoms(self.absorbing)

    def to_payload(self) -> dict:
        return {
            "zset": setexpr_text(self.zset),
            "constraining": _labels(self.constraining),
            "absorbing": _labels(self.absorbing),
        }


@dataclass
class PropertyAReport:
    holds: bool
    entries: list[dict]
    failure: AFailure | None
    certificate: Certificate


def property_a_check(zset: SetExpr, registry: Registry) -> PropertyAReport:
    """Non-absorption relative to the registry: every constraint set F and
    every entry beta ranked above F need a point of ``zset ∩ ⋂F`` escaping
    beta.  Ranks strictly increase, so one point of ``zset ∩ ⋂entries[:j]``
    outside Z(e_j) serves every F below entry j: the certificate lists one
    ``{alpha, point}`` per entry.  The first entry without one, decided
    exactly, is reported with F shrunk, in rank order, to what it needs."""
    entries = list(registry)
    listed: list[dict] = []
    for j, beta in enumerate(entries):
        point = _property_a_witness(zset, entries[:j], beta)
        if point is None:
            f_set = entries[:j]
            for b in entries[:j]:
                smaller = [c for c in f_set if c != b]
                if _property_a_witness(zset, smaller, beta) is None:
                    f_set = smaller
            failure = AFailure(zset, tuple(f_set), (beta,))
            return PropertyAReport(False, listed, failure, Certificate(
                "InclusionChain",
                params=_params(registry, XI),
                payload={"claim": "absorption-failure", "afailure": failure.to_payload()},
            ))
        listed.append({"alpha": beta.label, "point": point.literal()})
    cert = Certificate(
        "SeparatorWitness",
        params=_params(registry, XI),
        payload={
            "claim": "non-absorption-holds",
            "zset": setexpr_text(zset),
            "entries": listed,
        },
    )
    return PropertyAReport(True, listed, None, cert)


def _property_a_witness(
    zset: SetExpr, f_set: Sequence[BranchIndex], beta: BranchIndex
) -> XiPoint | None:
    """Point of the constrained set escaping the target entry, if any.

    The separator point is tried first (it settles every atom-only case);
    value-sensitive sets fall back to the exact containment rule.
    """
    l = find_separator(beta, f_set)
    candidate = XiPoint.of({l: l})
    constraint = inter_atoms(f_set)
    if eval_setexpr(candidate, zset) and eval_setexpr(candidate, constraint):
        return candidate
    return exact_counterexample(Inter((zset, constraint)), Atom(beta), XI)


# ---------------------------------------------------------------------------
# Property (B) refuter
# ---------------------------------------------------------------------------

@dataclass
class RefuterReport:
    """A property-(B) replay: ``chain[k]`` is the accumulated branch list of
    step k, in the order the steps add branches (empty when the cover misses
    a truncated point outright).  The certificate records only the refuting
    point and the inputs its checker replays."""

    chain: list[list[BranchIndex]]
    certificate: Certificate


def property_b_refute(
    failures: Sequence[AFailure],
    gamma: int,
    registry: Registry,
    trunc: Truncation,
) -> RefuterReport:
    """Replay the chain induction against a putative cover of the whole space.

    Inputs are absorption-failure claims whose union is said to cover the
    space.  The replay verifies every claim exhaustively on the truncation,
    rebuilds the rank-floored covers step by step, and ends either with a
    point the cover misses (a counterexample, possibly found already on the
    truncation) or with an eval-verified point at which one claimed inclusion
    breaks beyond the truncation (the contradiction).  Exactly one of the two
    always emerges: the all-infinite point lies in every zero-set
    intersection, so the final empty-intersection claim can never survive.
    """
    failures = list(failures)
    if not failures:
        raise EngineError("a putative cover needs at least one set")
    if not all(f.zset.is_difference_free() for f in failures):
        raise EngineError("cover sets must be difference-free: zero sets are closed")
    failures = [
        AFailure(f.zset, _registered(registry, f.constraining), _registered(registry, f.absorbing))
        for f in failures
    ]
    g_ranks = [b.rank for f in failures for b in f.absorbing]
    if g_ranks and gamma <= max(g_ranks):
        raise EngineError(
            f"rank floor {gamma} must exceed every absorbing rank (max {max(g_ranks)})"
        )

    for idx, f in enumerate(failures):
        bad = containment_counterexample(f.lhs(), f.rhs(), trunc, XI)
        if bad is not None:
            raise AFailureVerificationError(
                f"claimed inclusion {idx} fails at {bad.literal()} on the truncation"
            )

    order = sorted(range(len(failures)), key=lambda i: failures[i].max_constraining_rank())
    failures = [failures[i] for i in order]
    n = len(failures)
    zsets = [f.zset for f in failures]
    # the params are built with each certificate, after the covers are minted,
    # so that the registry they record holds every branch the chain names
    extra = dict(truncation=trunc.to_payload(), gamma=gamma,
                 afailures=[f.to_payload() for f in failures])

    missed = containment_counterexample(Whole(), Union(tuple(zsets)), trunc, XI)
    if missed is not None:
        return RefuterReport([], Certificate(
            "CounterexamplePoint",
            params=_params(registry, XI, **extra),
            payload={"point": missed.literal()},
        ))

    chain: list[list[BranchIndex]] = []
    accumulated: list[BranchIndex] = []
    hs: list[list[BranchIndex]] = []
    for k in range(n):
        f_k = failures[k]
        base = _merge_branches(accumulated, f_k.constraining)
        if any(beta in base for beta in f_k.absorbing):
            raise EngineError("rank shape violated: an absorbing branch collides with the chain")
        depth = max((find_separator(b, base) for b in f_k.absorbing), default=0)
        h_k = find_cover(depth, gamma, registry, base=base) if depth else []
        hs.append(h_k)
        accumulated = _merge_branches(base, h_k)
        chain.append(accumulated)
        remainder = Union(tuple(zsets[k + 1:]))
        violating = containment_counterexample(
            inter_atoms(accumulated), remainder, trunc, XI
        )
        if violating is not None:
            return RefuterReport(
                chain, _chase(violating, k + 1, failures, hs, registry, trunc, extra)
            )
    raise AssertionError(
        "unreachable: the all-infinite point always violates the final empty claim"
    )


def _merge_branches(*parts: Iterable[BranchIndex]) -> list[BranchIndex]:
    """The branches of ``parts`` in order, each word once, as first met."""
    return list(dict.fromkeys(itertools.chain(*parts)))


def _chase(
    point: XiPoint, stage: int, failures: Sequence[AFailure], hs: Sequence[Sequence[BranchIndex]],
    registry: Registry, trunc: Truncation, extra: dict,
) -> Certificate:
    """Descend the chain from a violating point to an eval-verified terminal.

    Invariant at stage s: the point lies in every chain zero set below s and
    in none of the cover sets from s on.  Escaping the absorbing branches of
    stage s-1 preserves both (the support only grows, and difference-free
    cover sets can only lose members that way), after which the stage s-1 set
    either holds at the point, contradicting its claimed inclusion, or the
    descent continues one stage down.
    """
    y = point
    s = stage
    zsets = [f.zset for f in failures]
    singleton_ceiling = max(
        [v for z in zsets for pt in z.singleton_points() for v in pt.values()],
        default=0,
    )
    while s >= 1:
        f_prev = failures[s - 1]
        if any(eval_setexpr(y, Atom(b)) for b in f_prev.absorbing):
            avoid = _merge_branches(
                *[(*failures[i].constraining, *hs[i]) for i in range(s - 1)], f_prev.constraining
            )
            y = _escape(y, f_prev.absorbing, avoid, trunc, singleton_ceiling)
        if eval_setexpr(y, f_prev.zset):
            return Certificate(
                "Contradiction",
                params=_params(registry, XI, **extra),
                payload={"afailure_index": s - 1, "point": y.literal()},
            )
        s -= 1
    if any(eval_setexpr(y, z) for z in zsets):
        raise AssertionError("chase invariant broken: point regained a cover set")
    return Certificate(
        "CounterexamplePoint",
        params=_params(registry, XI, **extra),
        payload={"point": y.literal()},
    )


def _escape(
    y: XiPoint, absorbing: Sequence[BranchIndex], avoid: Sequence[BranchIndex],
    trunc: Truncation, singleton_ceiling: int,
) -> XiPoint:
    """Extend the support to leave every absorbing zero set, then revalue.

    New positions come from each absorbing branch's element set, skipping the
    protected branches' elements and the current support; all coordinates are
    then raised to one shared large value, which keeps the point valid and
    outside every singleton appearing in the cover sets.
    """
    support = set(y.positions())
    for beta in absorbing:
        if beta in avoid:
            raise EngineError(f"cannot escape {beta.literal()}: it is protected by the chain")
        if any(branch_member(beta, p) for p in support):
            continue
        for n in itertools.count(1):
            candidate = beta.element(n)
            if candidate in support:
                continue
            if any(branch_member(b, candidate) for b in avoid):
                continue
            support.add(candidate)
            break
    big = 1 + max([trunc.V, singleton_ceiling, max(support, default=0)])
    return XiPoint.of({p: big for p in support}, y.ambient)


# ---------------------------------------------------------------------------
# Chain engines
# ---------------------------------------------------------------------------

@dataclass
class ChainReport:
    bases: list[zfilterlab.filters.FilterBase]
    certificate: Certificate


def increasing_chain_engine(registry: Registry, steps: int) -> ChainReport:
    """Strictly increasing filter-base chain: step k is generated by the
    zero sets of the first k entries (plus the whole space).

    Entry j belongs to the filter at step k exactly when j < k.  Its largest
    non-member base is the prefix of the first j entries, and the separator
    point against that prefix lies in every smaller one, so one point per
    entry certifies strictness.
    """
    entries = _chain_entries(registry, steps)
    bases = [
        zfilterlab.filters.FilterBase.of([Whole()] + [Atom(e) for e in entries[:k]])
        for k in range(steps)
    ]
    cert = Certificate(
        "SeparatorWitness",
        params=_params(registry, XI, steps=steps),
        payload={
            "claim": "strictly-increasing-chain",
            "entries": _separator_entries(
                (alpha, entries[:j]) for j, alpha in enumerate(entries)
            ),
        },
    )
    return ChainReport(bases, cert)


def decreasing_chain_engine(registry: Registry, steps: int) -> ChainReport:
    """Strictly decreasing filter-base chain: step k is generated by the
    zero sets of the entries from position k on (the rank tail).

    Entry j belongs to the filter at step k exactly when j >= k.  Its largest
    non-member base is the tail after it, so the last step's entry needs no
    point and every earlier one needs one.
    """
    entries = _chain_entries(registry, steps)
    all_entries = list(registry)
    bases = [
        zfilterlab.filters.FilterBase.of([Atom(e) for e in all_entries[k:]])
        for k in range(steps)
    ]
    cert = Certificate(
        "SeparatorWitness",
        params=_params(registry, XI, steps=steps),
        payload={
            "claim": "strictly-decreasing-chain",
            "entries": _separator_entries(
                (alpha, all_entries[j + 1:]) for j, alpha in enumerate(entries[:-1])
            ),
        },
    )
    return ChainReport(bases, cert)


def _chain_entries(registry: Registry, steps: int) -> list[BranchIndex]:
    if steps < 1:
        raise EngineError("a chain needs at least one step")
    if len(registry) < steps:
        raise EngineError(
            f"registry provides {len(registry)} entries, chain needs {steps}"
        )
    return list(registry)[:steps]


# ---------------------------------------------------------------------------
# Cover certificates (plain cover runs, used by the CLI)
# ---------------------------------------------------------------------------

def cover_certificate(
    l: int,
    gamma: int,
    registry: Registry,
    base: Sequence[BranchIndex],
) -> tuple[list[BranchIndex], Certificate]:
    base = _registered(registry, base)
    cover = find_cover(l, gamma, registry, base=base)
    cert = Certificate(
        "CoverSet",
        params=_params(registry, XI, gamma=gamma, depth=l),
        payload={"base": _labels(base), "cover": _labels(cover)},
    )
    return cover, cert
