"""Independent certificate checker.

Re-validates a certificate from its payload alone: digest first, then a
semantic replay that only uses point evaluation, the branch codec, the exact
containment rule (`space.exact_counterexample`: the `ExceptionList`
inclusions and an absorption-failure `InclusionChain`) and, for the two
kinds that record a truncation (`Contradiction`, `CounterexamplePoint`),
exhaustive truncated enumeration.  Every branch a certificate names is read
from its ``params.registry`` by label, ranks included, and an unknown label
fails the check.  Nothing here calls back into the producing engines, so a
certificate stands or falls on its own evidence.

A certificate records only what this checker reads.  A property-(B)
refutation stands on its point alone: the checker replays every recorded
absorption failure on the truncation, and the refuted cover is the union of
their sets, so a `CounterexamplePoint` must miss each of them and a
`Contradiction` must break the one its ``afailure_index`` names.

`check_certificate` returns a `CheckReport`; `report.ok` is the verdict and
`report.problems` lists every failed obligation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .branches import BranchIndex, Registry, branch_member
from .certificates import Certificate, CertificateError
from .formats import (
    AFailureParts,
    FormatError,
    parse_afailures,
    parse_branch_literal,
    parse_labels,
    parse_point_literal,
    parse_setexpr,
)
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
    validate_point,
)


@dataclass
class CheckReport:
    kind: str
    ok: bool = True
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


def check_certificate_text(text: str | bytes) -> CheckReport:
    """Parse (digest included) and semantically re-verify serialized data."""
    try:
        cert = Certificate.from_json(text)
    except CertificateError as exc:
        report = CheckReport(kind="unparseable")
        report.fail(str(exc))
        return report
    return check_certificate(cert)


def check_certificate(cert: Certificate) -> CheckReport:
    report = CheckReport(kind=cert.kind)
    try:
        ctx = _Context(cert, report)
        handler = {
            "SeparatorWitness": _check_separator_witness,
            "CoverSet": _check_cover_set,
            "ExceptionList": _check_exception_list,
            "InclusionChain": _check_inclusion_chain,
            "Contradiction": _check_contradiction,
            "CounterexamplePoint": _check_counterexample,
        }[cert.kind]
        handler(ctx)
    except (FormatError, CertificateError, KeyError, TypeError, ValueError) as exc:
        report.fail(f"malformed payload: {exc!r}")
    if report.ok:
        cert.verified = True
    return report


class _Context:
    def __init__(self, cert: Certificate, report: CheckReport) -> None:
        self.cert = cert
        self.report = report
        self.registry = Registry([
            parse_branch_literal(e["branch"], _integer(e["rank"], "registry rank"), e["label"])
            for e in cert.params.get("registry", [])
        ])
        self.ambient: Ambient = cert.params.get("ambient", XI)
        if self.ambient not in (XI, PI):
            raise CertificateError(f"unknown ambient {self.ambient!r}")

    def branch(self, label: str) -> BranchIndex:
        return self.registry.by_label(label)

    def branches(self, labels: list[str]) -> list[BranchIndex]:
        return parse_labels(labels, self.registry, "a branch list")

    def point(self, literal: str) -> XiPoint:
        return parse_point_literal(literal, self.ambient)

    def expr(self, text: str) -> SetExpr:
        return parse_setexpr(text, self.registry, self.ambient)

    def need_trunc(self) -> Truncation:
        trunc = self.cert.params.get("truncation")
        if not trunc:
            raise CertificateError("certificate omits the truncation it relies on")
        return Truncation(trunc["T"], trunc["V"])


def _integer(value, what: str) -> int:
    """``value`` itself, if it is an integer and not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateError(f"{what} {value!r} is not an integer")
    return value


# ---------------------------------------------------------------------------
# Kind-specific checks
# ---------------------------------------------------------------------------

def _check_separator_witness(ctx: _Context) -> None:
    """Separator claims: the params fix one (entry, maximal group) obligation
    per listed entry, and each point must lie in the group's intersection,
    and in the recorded ``zset`` for property (A), but outside the entry's
    zero set.  A point in the maximal group's intersection lies in every
    subgroup's, which covers the smaller groups, chain bases and constraint
    sets the claim quantifies over."""
    claim = ctx.cert.payload.get("claim")
    entries = list(ctx.registry)
    zset: SetExpr = Whole()
    if claim == "non-absorption-holds":
        zset = ctx.expr(ctx.cert.payload["zset"])
        # the constraint sets below entry j are the subsets of entries[:j]
        obligations = [(a, entries[:j]) for j, a in enumerate(entries)]
    elif claim == "no-single-zero-set-in-filter":
        if len(entries) < 2:
            ctx.report.fail("extendibility needs at least two registry entries")
            return
        obligations = [(a, [b for b in entries if b != a]) for a in entries]
    elif claim in ("strictly-increasing-chain", "strictly-decreasing-chain"):
        steps = _integer(ctx.cert.params["steps"], "chain steps")
        if not 1 <= steps <= len(entries):
            ctx.report.fail(f"{steps} chain steps do not fit a registry of {len(entries)}")
            return
        if claim == "strictly-increasing-chain":
            # entry j is outside every prefix base of at most j entries
            obligations = [(a, entries[:j]) for j, a in enumerate(entries[:steps])]
        else:
            # entry j is outside every tail base starting after it
            obligations = [(a, entries[j + 1:]) for j, a in enumerate(entries[:steps - 1])]
    else:
        ctx.report.fail(f"unknown separator-witness claim {claim!r}")
        return
    listed = ctx.cert.payload["entries"]
    expected = [alpha.label for alpha, _ in obligations]
    if [e["alpha"] for e in listed] != expected:
        ctx.report.fail(f"entries must list exactly {expected}, in order")
        return
    for e, (alpha, group) in zip(listed, obligations):
        point = ctx.point(e["point"])
        if not validate_point(point):
            ctx.report.fail(f"witness point {e['point']} is not a valid point")
        elif not eval_setexpr(point, Diff(Inter((zset, inter_atoms(group))), Atom(alpha))):
            ctx.report.fail(
                f"point {e['point']} fails to separate {alpha.label} "
                f"from {[b.label for b in group]}"
            )


def _check_cover_set(ctx: _Context) -> None:
    payload = ctx.cert.payload
    base = ctx.branches(payload["base"])
    cover = ctx.branches(payload["cover"])
    _verify_cover(ctx, cover, base, ctx.cert.params["depth"], ctx.cert.params["gamma"])


def _verify_cover(
    ctx: _Context,
    cover: list[BranchIndex],
    base: list[BranchIndex],
    depth: int,
    gamma: int,
) -> None:
    gamma = _integer(gamma, "rank floor")
    depth = _integer(depth, "cover depth")
    for c in cover:
        if c.rank < gamma:
            ctx.report.fail(f"cover branch {c.label} has rank {c.rank} below {gamma}")
    branches = [*base, *cover]
    # a branch has at most depth.bit_length() elements up to depth
    if len(branches) * depth.bit_length() < depth:
        ctx.report.fail(f"{len(branches)} branches cannot cover positions 1..{depth}")
        return
    covered = set().union(*(b.elements_upto(depth) for b in branches))
    uncovered = [n for n in range(1, depth + 1) if n not in covered]
    if uncovered:
        ctx.report.fail(
            f"position {uncovered[0]} is not covered ({len(uncovered)} of 1..{depth} are not)"
        )


def _check_exception_list(ctx: _Context) -> None:
    """The hypothesis and pair inclusions hold exactly, the separator lies in
    ``alpha`` and no hypothesis branch, and exceptions in the group or cover."""
    payload = ctx.cert.payload
    zset = ctx.expr(payload["zset"])
    alpha = ctx.branch(payload["alpha"])
    hypothesis = ctx.branches(payload["hypothesis_group"])
    bad = exact_counterexample(inter_atoms(hypothesis), Union((zset, Atom(alpha))), ctx.ambient)
    if bad is not None:
        ctx.report.fail(f"hypothesis containment fails at {bad.literal()}")

    l = _integer(payload["separator"], "separator")
    if not branch_member(alpha, l):
        ctx.report.fail(f"separator {l} is not an element of {alpha.label}")
    if any(branch_member(b, l) for b in hypothesis):
        ctx.report.fail(f"separator {l} collides with the hypothesis group")
    cover = ctx.branches(payload["cover"])
    _verify_cover(ctx, cover, hypothesis, l, 0)

    candidates = {b.label for b in (*hypothesis, *cover)}
    exceptions = {b.label for b in ctx.branches(payload["exceptions"])}
    if not exceptions <= candidates:
        ctx.report.fail("exceptions stray outside the hypothesis group and cover")
    member_labels = {m["beta"] for m in payload["members"]}
    expected_members = (
        {e.label for e in ctx.registry} - exceptions - {payload["alpha"]}
    )
    if member_labels != expected_members:
        ctx.report.fail("membership entries do not cover exactly the non-exceptions")
    for m in payload["members"]:
        beta = ctx.branch(m["beta"])
        through = ctx.branches(m["via_pairs"])
        if beta in through:
            ctx.report.fail(f"pair inclusion for {m['beta']} runs through {m['beta']} itself")
        lhs = Inter(tuple(Union((Atom(c), Atom(beta))) for c in through))
        bad = exact_counterexample(lhs, Union((zset, Atom(beta))), ctx.ambient)
        if bad is not None:
            ctx.report.fail(f"pair inclusion for {m['beta']} fails at {bad.literal()}")


def _check_inclusion_chain(ctx: _Context) -> None:
    payload = ctx.cert.payload
    claim = payload.get("claim")
    if claim == "closure-containment-with-rank-floor":
        _check_closure_containment(ctx, rank_floor=True)
    elif claim == "punctured-intersection-dense":
        _check_closure_containment(ctx, rank_floor=False)
    elif claim == "absorption-failure":
        _check_absorption_failure(ctx)
    else:
        ctx.report.fail(f"unknown inclusion-chain claim {claim!r}")


def _check_closure_containment(ctx: _Context, *, rank_floor: bool) -> None:
    """Exact, by coordinate pushing: a point whose support S avoids the kept
    (and cover) branches is the limit of the terms varying the separators of
    the subtracted branches S misses.  The terms lie in ⋂kept \\ ∪subtracted
    because each separator is an element of its own subtracted branch and of
    no kept branch.  In ``xi`` they stay valid because the kept and cover
    branches own every position up to ``depth``, at least every separator,
    so S lies past all of them.  No truncation enters."""
    payload = ctx.cert.payload
    ambient = XI if rank_floor else PI
    if ctx.ambient != ambient:
        ctx.report.fail(f"claim {payload['claim']} is made in {ambient}, not {ctx.ambient!r}")
    kept = ctx.branches(payload["kept"])
    subtracted = ctx.branches(payload["subtracted"])
    separators = payload["separators"]
    if not isinstance(separators, dict) or set(separators) != {b.label for b in subtracted}:
        ctx.report.fail("separators must map exactly the subtracted labels to positions")
        return
    for beta in subtracted:
        l = _integer(separators[beta.label], f"separator for {beta.label}")
        if not branch_member(beta, l):
            ctx.report.fail(f"separator for {beta.label} is not an element of it")
        if any(branch_member(b, l) for b in kept):
            ctx.report.fail(f"separator for {beta.label} collides with the kept set")

    if rank_floor:
        depth = payload["depth"]
        _verify_cover(ctx, ctx.branches(payload["cover"]), kept, depth, ctx.cert.params["gamma"])
        if depth < max(separators.values(), default=0):
            ctx.report.fail(f"depth {depth} lies below a separator")


def _check_absorption_failure(ctx: _Context) -> None:
    (af,) = parse_afailures([ctx.cert.payload["afailure"]], ctx.registry, ctx.ambient)
    _replay_afailure(ctx, af, None)


def _replay_afailure(ctx: _Context, af: AFailureParts, trunc: Truncation | None) -> AFailureParts:
    """Check a parsed absorption failure ``zset ∩ ⋂constraining ⊆ ∪absorbing``
    for its rank shape and inclusion (exact without ``trunc``); return it."""
    zset, constraining, absorbing = af
    max_f = max((b.rank for b in constraining), default=-1)
    if absorbing and max_f >= min(b.rank for b in absorbing):
        ctx.report.fail("constraining ranks must stay below absorbing ranks")
    lhs, rhs = Inter((zset, inter_atoms(constraining))), union_atoms(absorbing)
    bad = (exact_counterexample(lhs, rhs, ctx.ambient) if trunc is None
           else containment_counterexample(lhs, rhs, trunc, ctx.ambient))
    if bad is not None:
        ctx.report.fail(f"absorption inclusion breaks at {bad.literal()}")
    return af


def _check_contradiction(ctx: _Context) -> None:
    payload = ctx.cert.payload
    # the index names the refuted failure in the recorded cover, whose every
    # inclusion the replay checks on the truncation, this one included
    replayed = _check_refuter_inputs(ctx, ctx.need_trunc())
    index = _integer(payload["afailure_index"], "afailure_index")
    if not 0 <= index < len(replayed):
        ctx.report.fail(f"afailure_index {index} names no recorded absorption failure")
        return
    zset, constraining, absorbing = replayed[index]
    point = ctx.point(payload["point"])
    if not validate_point(point):
        ctx.report.fail("contradiction point is invalid")
        return
    if not eval_setexpr(point, zset):
        ctx.report.fail("contradiction point misses the failing set")
    if not eval_setexpr(point, inter_atoms(constraining)):
        ctx.report.fail("contradiction point leaves the constraining intersection")
    if any(eval_setexpr(point, Atom(b)) for b in absorbing):
        ctx.report.fail("contradiction point still sits in an absorbing zero set")


def _check_refuter_inputs(ctx: _Context, trunc: Truncation) -> list[AFailureParts]:
    """Shared obligations for refuter outputs: every claimed absorption failure
    verifies on the truncation and the rank floor clears every absorbing rank.
    Returns the replayed failures, in order."""
    gamma = _integer(ctx.cert.params["gamma"], "rank floor")
    afailures = parse_afailures(ctx.cert.params["afailures"], ctx.registry, ctx.ambient)
    replayed = [_replay_afailure(ctx, af, trunc) for af in afailures]
    for _, _, absorbing in replayed:
        if absorbing and gamma <= max(b.rank for b in absorbing):
            ctx.report.fail("rank floor does not clear the absorbing ranks")
    return replayed


def _check_counterexample(ctx: _Context) -> None:
    """The refuted cover is the union of the replayed failures' sets, so the
    point must lie in none of them."""
    point = ctx.point(ctx.cert.payload["point"])
    if not validate_point(point):
        ctx.report.fail("counterexample point is invalid")
        return
    replayed = _check_refuter_inputs(ctx, ctx.need_trunc())
    if not replayed:
        ctx.report.fail("no cover recorded to refute")
    for recorded, (zset, _, _) in zip(ctx.cert.params["afailures"], replayed):
        if eval_setexpr(point, zset):
            ctx.report.fail(f"the point lies in cover set {recorded['zset']}")
