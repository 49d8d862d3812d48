"""Certificate-producing engines for the constructive combinatorial facts.

Each engine realizes one construction at desk scale, relative to an explicit
finite registry, and emits a `Certificate` that an independent checker can
replay from the payload alone.  A certificate records only what that checker
reads, and an engine returns its certificate alone, with two exceptions:
`property_b_refute` returns how it got there (the chain) beside it in a
report, and `cover_certificate` the cover in scan order.  ``params.registry``,
one ``label=pre:period@rank`` string per entry, is the one place where a
certificate spells out a branch's word and rank; every other field names a
branch by the label of its registry entry, with lists in rank order.

The engines never trust themselves: exact branch-word reasoning or an
exhaustive search of a truncation ``(T, V)`` backs every claim, and any
residual transfinite step is replaced by a concrete eval-verified witness
point.  Only `property_b_refute` searches a truncation, takes one and
records it: its inputs are claims that hold on a truncation and break past
it.  The separator claims (`extendibility-a`, the two chains, property (A)
when it holds) are shown by one eval-checked point per entry, and the two
closure containments by the separators (and, with a rank floor, a cover up
to the largest) from which the paper's coordinate-pushing step gives every
point of the shrunken intersection an escape sequence.  The containments
of `check_extendibility_b` and a failing `property_a_check` are decided
over the whole space by `space.exact_counterexample`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

from ._record import Frozen, Record
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
    XI,
    XiPoint,
    containment_counterexample,
    eval_setexpr,
    exact_counterexample,
    inter_atoms,
    minimal_sublist,
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
            # registry words are pairwise distinct: entry j's group is the
            # entries at every other position
            "entries": _separator_entries(
                entries, len(entries), lambda xs, j: xs[:j] + xs[j + 1:]
            ),
        },
    )


def _separator_entries(
    entries: Sequence[BranchIndex],
    count: int,
    group: Callable[[Sequence, int], Sequence],
) -> list[str]:
    """One eval-checked point literal for each of the first ``count`` entries,
    inside the intersection of its group and outside its zero set.
    ``group(xs, j)`` picks entry j's group by position from ``entries`` or
    from their atoms, which are built once for every obligation."""
    atoms = tuple(Atom(e) for e in entries)
    listed = []
    for j in range(count):
        l = find_separator(entries[j], group(entries, j))
        point = XiPoint.of({l: l})
        if not eval_setexpr(point, Diff(Inter(group(atoms, j)), atoms[j])):
            raise CertificationError(
                f"separator point {point.literal()} failed its own check"
            )
        listed.append(point.literal())
    return listed


# ---------------------------------------------------------------------------
# Extendibility, condition (b)
# ---------------------------------------------------------------------------

def check_extendibility_b(
    zset: SetExpr,
    alpha0: BranchIndex,
    registry: Registry,
) -> Certificate:
    """Finite exception set outside which gluing any entry keeps membership.

    The hypothesis is a minimal group of other entries (`minimal_sublist`)
    whose intersection lies in the set joined with the distinguished entry;
    when the group of all of them fails, the run is refused with a point of
    its intersection outside that set.  Separator and cover bound the
    exceptions to the candidates (the group and the cover): a candidate is
    one only if its inclusion through the pair generators fails, and every
    other entry's must hold; the checker decides those again, so the
    certificate lists none.  Each containment is decided exactly.
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
    hypothesis = minimal_sublist(
        others, lambda g: exact_counterexample(inter_atoms(g), target, XI) is None)

    l = find_separator(alpha0, hypothesis)
    cover = find_cover(l, 0, registry, base=hypothesis)
    candidates = sorted(set(hypothesis) | set(cover), key=lambda b: b.rank)

    exceptions: list[BranchIndex] = []
    for beta in registry:
        if beta == alpha0:
            continue  # its membership is the hypothesis itself
        through = [c for c in candidates if c != beta]
        lhs = Inter(tuple(Union((Atom(c), Atom(beta))) for c in through))
        bad = exact_counterexample(lhs, Union((zset, Atom(beta))), XI)
        if bad is not None and beta in candidates:
            exceptions.append(beta)
        elif bad is not None:
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
        },
    )


# ---------------------------------------------------------------------------
# Closure containment (coordinate pushing)
# ---------------------------------------------------------------------------

def containment_decreasing(
    subtracted: Sequence[BranchIndex],
    kept: Sequence[BranchIndex],
    gamma: int,
    registry: Registry,
) -> Certificate:
    """Shrink the kept intersection, at ranks past the floor, into the closure.

    One separator element per subtracted branch escapes its zero set while
    staying inside the kept intersection; covering every position up to the
    deepest separator pushes all remaining support beyond it, which makes the
    escape terms valid and convergent for every point of the shrunken
    intersection.
    """
    subtracted = sorted(_registered(registry, subtracted), key=lambda b: b.rank)
    kept = _registered(registry, kept)
    if any(a == b for a in subtracted for b in kept):
        raise EngineError("the subtracted and kept branch sets must be disjoint")

    separators = [find_separator(alpha, kept) for alpha in subtracted]
    cover = find_cover(max(separators), gamma, registry, base=kept) if separators else []

    return Certificate(
        "InclusionChain",
        params=_params(registry, XI, gamma=gamma),
        payload={
            "claim": "closure-containment-with-rank-floor",
            "subtracted": _labels(subtracted),
            "kept": _labels(kept),
            "separators": separators,
            "cover": _labels(cover),
        },
    )


# ---------------------------------------------------------------------------
# Closure density in the full product
# ---------------------------------------------------------------------------

def containment_full_product(
    kept: Sequence[BranchIndex],
    subtracted: Sequence[BranchIndex],
) -> Certificate:
    """Density of the punctured intersection inside the full-product intersection.

    In the full product no level constraint binds, so every point of the kept
    intersection admits escape coordinates, one separator element per
    subtracted branch, without any covering step.  The certificate's registry
    holds the given branches, so two of equal rank or with a shared label are
    refused.
    """
    kept = tuple(kept)
    subtracted = sorted(subtracted, key=lambda b: b.rank)
    if any(a == b for a in subtracted for b in kept):
        raise EngineError("the kept and subtracted branch sets must be disjoint")

    try:
        registry_view = Registry(sorted(set(kept) | set(subtracted), key=lambda b: b.rank))
    except BranchError as exc:
        raise EngineError(str(exc)) from exc
    separators = [find_separator(b, kept) for b in subtracted]
    return Certificate(
        "InclusionChain",
        params=_params(registry_view, PI),
        payload={
            "claim": "punctured-intersection-dense",
            "kept": _labels(kept),
            "subtracted": _labels(subtracted),
            "separators": separators,
        },
    )


# ---------------------------------------------------------------------------
# Property (A)
# ---------------------------------------------------------------------------

class AFailure(Frozen):
    """A claimed failure of the non-absorption property for one zero set.

    The shape constraint mirrors the definition: the constraining branches
    all rank strictly below every branch the set is claimed to fall into.
    """

    __slots__ = ("zset", "constraining", "absorbing")

    def __init__(
        self,
        zset: SetExpr,
        constraining: tuple[BranchIndex, ...],
        absorbing: tuple[BranchIndex, ...],
    ) -> None:
        object.__setattr__(self, "zset", zset)
        object.__setattr__(self, "constraining", constraining)
        object.__setattr__(self, "absorbing", absorbing)
        if absorbing and self.max_constraining_rank() >= min(b.rank for b in absorbing):
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


def property_a_check(zset: SetExpr, registry: Registry) -> Certificate:
    """Non-absorption relative to the registry: every constraint set F and
    every entry beta ranked above F need a point of ``zset ∩ ⋂F`` escaping
    beta.  Ranks strictly increase, so one point of ``zset ∩ ⋂entries[:j]``
    outside Z(e_j) serves every F below entry j: the certificate lists one
    point per entry, in rank order.  The first entry without one, decided
    exactly, is certified as an absorption failure instead, with F a minimal
    sublist of the entries before it."""
    entries = list(registry)
    listed: list[dict] = []
    for j, beta in enumerate(entries):
        point = _property_a_witness(zset, entries[:j], beta)
        if point is None:
            f_set = minimal_sublist(
                entries[:j], lambda f: _property_a_witness(zset, f, beta) is None)
            failure = AFailure(zset, tuple(f_set), (beta,))
            return Certificate(
                "InclusionChain",
                params=_params(registry, XI),
                payload={"claim": "absorption-failure", "afailure": failure.to_payload()},
            )
        listed.append(point.literal())
    return Certificate(
        "SeparatorWitness",
        params=_params(registry, XI),
        payload={
            "claim": "non-absorption-holds",
            "zset": setexpr_text(zset),
            "entries": listed,
        },
    )


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

class RefuterReport(Record):
    """A property-(B) replay: ``chain[k]`` is the accumulated branch list of
    step k, in the order the steps add branches (empty when the cover misses
    a truncated point outright).  The certificate records only the refuting
    point and the inputs its checker replays."""

    __slots__ = ("chain", "certificate")

    def __init__(self, chain: list[list[BranchIndex]], certificate: Certificate) -> None:
        self.chain = chain
        self.certificate = certificate


def property_b_refute(
    failures: Sequence[AFailure],
    gamma: int,
    registry: Registry,
    trunc: Truncation,
) -> RefuterReport:
    """Replay the chain induction against a putative cover of the whole space.

    Inputs are absorption-failure claims whose union is said to cover the
    space.  The replay verifies every claim exhaustively on the truncation,
    then walks the chain: step k asks, on the truncation, whether the first
    k rank-floored covers' intersection (the whole space at step 0) lies in
    the union of the claims from k on.  A violating point is chased down
    the chain to a point the cover misses (a counterexample; at step 0, the
    violating point itself) or to an eval-verified point at which one
    claimed inclusion breaks beyond the truncation (the contradiction).  The
    step after the last always breaks: its union is empty, and the
    all-infinite point lies in every zero-set intersection.
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

    failures.sort(key=AFailure.max_constraining_rank)
    zsets = [f.zset for f in failures]
    # the params are built with each certificate, after the covers are minted,
    # so that the registry they record holds every branch the chain names
    extra = dict(truncation=trunc.to_payload(), gamma=gamma,
                 afailures=[f.to_payload() for f in failures])

    chain: list[list[BranchIndex]] = []
    bases: list[list[BranchIndex]] = []
    accumulated: list[BranchIndex] = []
    # the empty point lies in every zero-set intersection and outside the
    # empty union, so the step past the last failure always returns
    for k in range(len(failures) + 1):
        violating = containment_counterexample(
            inter_atoms(accumulated), Union(tuple(zsets[k:])), trunc, XI
        )
        if violating is not None:
            return RefuterReport(
                chain, _chase(violating, k, failures, bases, registry, trunc, extra)
            )
        f_k = failures[k]
        base = _merge_branches(accumulated, f_k.constraining)
        # No absorbing branch of f_k lies in its base, which `_escape` relies
        # on: every branch here is a registry entry, so equal words have equal
        # ranks, and the base holds constraining branches of f_0..f_k, ranked
        # (after the sort) below f_k's absorbing ranks, and covers of rank at
        # least gamma, which exceeds every absorbing rank.
        assert not any(beta in base for beta in f_k.absorbing)
        depth = max((find_separator(b, base) for b in f_k.absorbing), default=0)
        h_k = find_cover(depth, gamma, registry, base=base) if depth else []
        bases.append(base)
        accumulated = _merge_branches(base, h_k)
        chain.append(accumulated)


def _merge_branches(*parts: Iterable[BranchIndex]) -> list[BranchIndex]:
    """The branches of ``parts`` in order, each word once, as first met."""
    return list(dict.fromkeys(itertools.chain(*parts)))


def _chase(
    point: XiPoint, stage: int, failures: Sequence[AFailure],
    bases: Sequence[Sequence[BranchIndex]], registry: Registry, trunc: Truncation, extra: dict,
) -> Certificate:
    """Descend the chain from a violating point to an eval-verified terminal.

    Invariant at stage s: the point lies in every chain zero set below s and
    in none of the cover sets from s on.  Escaping the absorbing branches of
    stage s-1 through positions outside that step's base preserves both (the
    support only grows, and difference-free cover sets can only lose members
    that way), after which the stage s-1 set either holds at the point,
    contradicting its claimed inclusion, or the descent continues one stage
    down.  At stage 0 the point lies in no cover set: the cover misses it.
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
            y = _escape(y, f_prev.absorbing, bases[s - 1], trunc, singleton_ceiling)
        if eval_setexpr(y, f_prev.zset):
            return Certificate(
                "Contradiction",
                params=_params(registry, XI, **extra),
                payload={"afailure_index": s - 1, "point": y.literal()},
            )
        s -= 1
    # The docstring's invariant at stage 0: y starts outside zsets[stage:],
    # and each stage s leaves it outside zsets[s-1:] or returns.  An escape
    # only grows the support and raises every value above each singleton's,
    # so no atom or singleton gains y, and no difference-free set can.
    assert not any(eval_setexpr(y, z) for z in zsets)
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

    An absorbing branch the support misses gains its separator against the
    protected branches, none of which it is (see `property_b_refute`): its
    least element in none of them, which the support cannot hold.  All
    coordinates are then raised to one shared large value, which keeps the
    point valid and outside every singleton appearing in the cover sets.
    """
    support = set(y.positions())
    for beta in absorbing:
        if not any(branch_member(beta, p) for p in support):
            support.add(find_separator(beta, avoid))
    big = 1 + max([trunc.V, singleton_ceiling, max(support, default=0)])
    return XiPoint.of({p: big for p in support}, y.ambient)


# ---------------------------------------------------------------------------
# Chain engines
# ---------------------------------------------------------------------------

def increasing_chain_engine(registry: Registry, steps: int) -> Certificate:
    """Strictly increasing filter-base chain: step k is generated by the
    zero sets of the first k entries (plus the whole space).

    Entry j belongs to the filter at step k exactly when j < k.  Its largest
    non-member base is the prefix of the first j entries, and the separator
    point against that prefix lies in every smaller one, so one point per
    entry certifies strictness.
    """
    entries = _chain_entries(registry, steps)[:steps]
    return Certificate(
        "SeparatorWitness",
        params=_params(registry, XI, steps=steps),
        payload={
            "claim": "strictly-increasing-chain",
            "entries": _separator_entries(entries, steps, lambda xs, j: xs[:j]),
        },
    )


def decreasing_chain_engine(registry: Registry, steps: int) -> Certificate:
    """Strictly decreasing filter-base chain: step k is generated by the
    zero sets of the entries from position k on (the rank tail).

    Entry j belongs to the filter at step k exactly when j >= k.  Its largest
    non-member base is the tail after it, so the last step's entry needs no
    point and every earlier one needs one.
    """
    entries = _chain_entries(registry, steps)
    return Certificate(
        "SeparatorWitness",
        params=_params(registry, XI, steps=steps),
        payload={
            "claim": "strictly-decreasing-chain",
            "entries": _separator_entries(entries, steps - 1, lambda xs, j: xs[j + 1:]),
        },
    )


def _chain_entries(registry: Registry, steps: int) -> list[BranchIndex]:
    """The registry's entries, refused unless they give a chain of ``steps`` steps."""
    if steps < 1:
        raise EngineError("a chain needs at least one step")
    if len(registry) < steps:
        raise EngineError(
            f"registry provides {len(registry)} entries, chain needs {steps}"
        )
    return list(registry)


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
