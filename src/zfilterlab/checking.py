"""Independent certificate checker.

Re-validates a certificate from its payload alone: digest first, then a
semantic replay that only uses point evaluation, the branch codec and the
exact containment rule (`space.exact_counterexample`: the `ExceptionList`
inclusions and an absorption-failure `InclusionChain`).  No obligation walks
a truncation.  Every branch a certificate names is read from its
``params.registry`` by label, ranks included, and an unknown label fails
the check.  The registry is read by `formats.parse_registry`, the CLI's
parser, and each entry must be its canonical ``label=pre:period@rank``
text.  Nothing here calls back into the producing engines, so a
certificate stands or falls on its own evidence.

A certificate records only what this checker reads, and nothing it derives:
point j of a separator claim answers registry entry j, separator j of a
closure claim subtracted branch j.  A property-(B) refutation stands on its
point alone: a `CounterexamplePoint` must lie in none of the recorded cover
sets (``zsets``), and a `Contradiction` must break the one recorded
absorption failure (``afailure``), read with the rank-shape rule of an
absorption-failure `InclusionChain`.

`check_certificate` returns a `CheckReport`; `report.ok` is the verdict and
`report.problems` lists every failed obligation, a replay that needs more
than `space.MAX_SPLITS` splits among them.
"""

from __future__ import annotations

import sys

from ._record import Record
from .branches import BranchIndex, branch_member
from .certificates import Certificate, CertificateError
from .formats import (
    FormatError,
    parse_afailures,
    parse_labels,
    parse_point_literal,
    parse_registry,
    parse_setexpr,
)
from .space import (
    Ambient,
    Atom,
    Diff,
    Inter,
    PI,
    SetExpr,
    SplitBoundError,
    Union,
    Whole,
    XI,
    XiPoint,
    eval_setexpr,
    exact_counterexample,
    inter_atoms,
    union_atoms,
    validate_point,
)


class CheckReport(Record):
    __slots__ = ("kind", "ok", "problems")

    def __init__(self, kind: str, ok: bool = True, problems: list[str] | None = None) -> None:
        self.kind = kind
        self.ok = ok
        self.problems = [] if problems is None else problems

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


def check_certificate_text(text: str | bytes) -> CheckReport:
    """Parse (digest included) and semantically re-verify serialized data."""
    try:
        cert = Certificate.from_json(text)
    except CertificateError as exc:
        return CheckReport("unparseable", ok=False, problems=[str(exc)])
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
    except SplitBoundError as exc:
        # a replay too large to decide establishes nothing
        report.fail(f"not decided: {exc}")
    return report


class _Context:
    def __init__(self, cert: Certificate, report: CheckReport) -> None:
        self.cert = cert
        self.report = report
        entries = cert.params.get("registry", [])
        self.registry = parse_registry(entries)
        # each entry written in full, as the engines write it: no defaulted
        # label or rank, no uncanonical word, leading zero or whitespace
        for text, canonical in zip(entries, self.registry.to_payload()):
            if text != canonical:
                raise CertificateError(
                    f"registry entry {text!r} is not in canonical form {canonical!r}")
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


def _integer(value, what: str) -> int:
    """``value`` itself, if it is an integer, not a ``bool``, and within the
    interpreter's limit on decimal digits, so that a message can write it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CertificateError(f"{what} {value!r} is not an integer")
    limit = sys.get_int_max_str_digits()
    # below 2**(3 * limit) < 10**limit, no power of ten is built
    if limit and abs(value).bit_length() > 3 * limit and abs(value) >= 10 ** limit:
        raise CertificateError(f"{what} has more than {limit} decimal digits")
    return value


# ---------------------------------------------------------------------------
# Kind-specific checks
# ---------------------------------------------------------------------------

def _check_separator_witness(ctx: _Context) -> None:
    """Separator claims: the params fix one (entry, maximal group) obligation
    for each of the first ``count`` entries, and point j must lie in entry
    j's group intersection, and in the recorded ``zset`` for property (A),
    but outside entry j's zero set.  A point in the maximal group's
    intersection lies in every subgroup's, which covers the smaller groups,
    chain bases and constraint sets the claim quantifies over.  Entry j's
    group is ``group(xs, j)``, taken by position from the entries or from
    their atoms, which are built once for every obligation."""
    claim = ctx.cert.payload.get("claim")
    entries = list(ctx.registry)
    zset: SetExpr = Whole()
    count = len(entries)
    if claim == "non-absorption-holds":
        zset = ctx.expr(ctx.cert.payload["zset"])
        # the constraint sets below entry j are the subsets of entries[:j]
        group = lambda xs, j: xs[:j]
    elif claim == "no-single-zero-set-in-filter":
        if len(entries) < 2:
            ctx.report.fail("extendibility needs at least two registry entries")
            return
        # registry words are pairwise distinct: every other position
        group = lambda xs, j: xs[:j] + xs[j + 1:]
    elif claim in ("strictly-increasing-chain", "strictly-decreasing-chain"):
        steps = _integer(ctx.cert.params["steps"], "chain steps")
        if not 1 <= steps <= len(entries):
            ctx.report.fail(f"{steps} chain steps do not fit a registry of {len(entries)}")
            return
        if claim == "strictly-increasing-chain":
            # entry j is outside every prefix base of at most j entries
            count, group = steps, lambda xs, j: xs[:j]
        else:
            # entry j is outside every tail base starting after it
            count, group = steps - 1, lambda xs, j: xs[j + 1:]
    else:
        ctx.report.fail(f"unknown separator-witness claim {claim!r}")
        return
    listed = ctx.cert.payload["entries"]
    if len(listed) != count:
        ctx.report.fail(f"entries must list {count} points, one per registry entry in order")
        return
    atoms = tuple(Atom(a) for a in entries)
    for j, literal in enumerate(listed):
        point = ctx.point(literal)
        if not validate_point(point):
            ctx.report.fail(f"witness point {literal} is not a valid point")
        elif not eval_setexpr(point, Diff(Inter((zset, *group(atoms, j))), atoms[j])):
            ctx.report.fail(
                f"point {literal} fails to separate {entries[j].label} "
                f"from {[b.label for b in group(entries, j)]}"
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
    """The hypothesis inclusion holds exactly, the separator lies in ``alpha``
    and no hypothesis branch, the exceptions are candidates (group or cover),
    and every other entry but ``alpha`` passes its pair inclusion exactly."""
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

    candidates = [b for b in ctx.registry if b in hypothesis or b in cover]
    exceptions = ctx.branches(payload["exceptions"])
    if not all(b in candidates for b in exceptions):
        ctx.report.fail("exceptions stray outside the hypothesis group and cover")
    for beta in ctx.registry:
        if beta == alpha or beta in exceptions:
            continue
        through = [c for c in candidates if c != beta]
        lhs = Inter(tuple(Union((Atom(c), Atom(beta))) for c in through))
        bad = exact_counterexample(lhs, Union((zset, Atom(beta))), ctx.ambient)
        if bad is not None:
            ctx.report.fail(f"pair inclusion for {beta.label} fails at {bad.literal()}")


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
    because separator j is an element of subtracted branch j and of no kept
    branch.  In ``xi`` they stay valid because the kept and cover branches
    own every position up to the largest separator, so S lies past all of
    them.  No truncation enters."""
    payload = ctx.cert.payload
    ambient = XI if rank_floor else PI
    if ctx.ambient != ambient:
        ctx.report.fail(f"claim {payload['claim']} is made in {ambient}, not {ctx.ambient!r}")
    kept = ctx.branches(payload["kept"])
    subtracted = ctx.branches(payload["subtracted"])
    separators = payload["separators"]
    if len(separators) != len(subtracted):
        ctx.report.fail("separators must list one position per subtracted branch")
        return
    for beta, l in zip(subtracted, separators):
        l = _integer(l, f"separator for {beta.label}")
        if not branch_member(beta, l):
            ctx.report.fail(f"separator for {beta.label} is not an element of it")
        if any(branch_member(b, l) for b in kept):
            ctx.report.fail(f"separator for {beta.label} collides with the kept set")

    if rank_floor:
        depth = max(separators, default=0)
        _verify_cover(ctx, ctx.branches(payload["cover"]), kept, depth, ctx.cert.params["gamma"])


def _check_absorption_failure(ctx: _Context) -> None:
    zset, constraint, absorbed = _afailure(ctx, ctx.cert.payload["afailure"])
    bad = exact_counterexample(Inter((zset, constraint)), absorbed, ctx.ambient)
    if bad is not None:
        ctx.report.fail(f"absorption inclusion breaks at {bad.literal()}")


def _afailure(ctx: _Context, item) -> tuple[SetExpr, SetExpr, SetExpr]:
    """A recorded absorption failure ``zset ∩ ⋂constraining ⊆ ∪absorbing``,
    its rank shape checked, as its three sets: ``zset``, ``⋂constraining``
    and ``∪absorbing``."""
    ((zset, constraining, absorbing),) = parse_afailures([item], ctx.registry, ctx.ambient)
    max_f = max((b.rank for b in constraining), default=-1)
    if absorbing and max_f >= min(b.rank for b in absorbing):
        ctx.report.fail("constraining ranks must stay below absorbing ranks")
    return zset, inter_atoms(constraining), union_atoms(absorbing)


def _check_contradiction(ctx: _Context) -> None:
    """The point breaks the recorded failure's inclusion: it lies in the
    failing set and the constraining intersection, and in no absorbing set."""
    zset, constraint, absorbed = _afailure(ctx, ctx.cert.payload["afailure"])
    point = ctx.point(ctx.cert.payload["point"])
    if not validate_point(point):
        ctx.report.fail("contradiction point is invalid")
        return
    if not eval_setexpr(point, zset):
        ctx.report.fail("contradiction point misses the failing set")
    if not eval_setexpr(point, constraint):
        ctx.report.fail("contradiction point leaves the constraining intersection")
    if eval_setexpr(point, absorbed):
        ctx.report.fail("contradiction point still sits in an absorbing zero set")


def _check_counterexample(ctx: _Context) -> None:
    """The point is valid and lies in none of the recorded cover's sets."""
    point = ctx.point(ctx.cert.payload["point"])
    if not validate_point(point):
        ctx.report.fail("counterexample point is invalid")
        return
    zsets = ctx.cert.payload["zsets"]
    if not isinstance(zsets, list) or not zsets:
        ctx.report.fail("no cover recorded to refute")
        return
    for text in zsets:
        if eval_setexpr(point, ctx.expr(text)):
            ctx.report.fail(f"the point lies in cover set {text}")
