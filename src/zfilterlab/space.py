"""Points and zero-set algebra over the compact sequence space and the full product.

Points live in the product of one-point-compactified copies of the positive
integers.  A point is stored by its finite support (position -> finite value);
coordinates off the support are the point at infinity.  Two ambients share the
representation:

* ``xi`` - the compact prototype subspace: a point is valid iff some level
  ``k`` bounds its support while every finite value is at least ``k``; with
  finite support this reduces to every value being at least the largest
  support position.
* ``pi`` - the full product, where any finite-support point is valid.  The
  finite-support points are dense in the full product, which is all the
  closure machinery needs.

Each branch ``alpha`` determines the zero set of points whose coordinates at
the branch's element positions are all infinite.  `SetExpr` is a small symbolic
algebra over these atoms plus singletons, with exhaustive evaluation on
truncated sub-universes as the ground-truth oracle.

Whether a point lies in a zero set depends only on which positions carry
finite values, and the callers that reason from supports alone (the
truncated containment loop and `closure_member`) compile their expressions once with
`support_evaluator` (`closure_member`, exact and two-valued, reads one
support per reachable hit pattern).  A support is a frozenset of positions;
an atom compiles to the set of its branch's elements up to ``T`` and holds
exactly when the support misses that set.  Supports may also hold positions
past ``T``, listed up front as ``extra`` (`eval_on_support` lists a whole
support that way); each atom adds the extra positions its branch owns, so
no set is sized by a position's value.  The closure containments need no
support walk: coordinate pushing decides them exactly from separators and a
cover (see `engines.ContainmentReport`).

`exact_counterexample` decides containment over the whole ambient.  A point
neither empty nor a singleton's reads every singleton false, so its verdict
follows from the atoms its support hits.  Distinct branches share only their
common prefix's elements, so every hit/miss assignment of the atoms is the
pattern of some point valued past every singleton.  So ``lhs ⊆ rhs`` iff no
valid one of the empty and singleton points violates it and ``lhs ∧ ¬rhs``
is unsatisfiable in independent atom variables (singletons false, `Whole`
true), which a DNF of (miss, hit) masks decides.  `containment_violations`
lists the violations within a truncation, for the oracle, the property-(B)
refuter and the truncated filter helpers, walking only the support classes
the hit patterns and singletons leave open.  `eval_setexpr` is the
reference both are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Sequence

from .branches import BranchIndex, branch_member, find_separator

Ambient = Literal["xi", "pi"]

XI: Ambient = "xi"
PI: Ambient = "pi"


class SpaceError(ValueError):
    """Raised for invalid points, bad ambients, or malformed expressions."""


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XiPoint:
    """Finite-support point: sorted ``(position, value)`` pairs, rest infinite."""

    support: tuple[tuple[int, int], ...]
    ambient: Ambient = XI

    def __post_init__(self) -> None:
        pairs = tuple(sorted(self.support))
        positions = [p for p, _ in pairs]
        if len(set(positions)) != len(positions):
            raise SpaceError("duplicate support positions")
        if any(p < 1 or v < 1 for p, v in pairs):
            raise SpaceError("positions and finite values are >= 1")
        if self.ambient not in (XI, PI):
            raise SpaceError(f"unknown ambient {self.ambient!r}")
        object.__setattr__(self, "support", pairs)

    @classmethod
    def of(cls, mapping: dict[int, int] | None = None, ambient: Ambient = XI) -> "XiPoint":
        return cls(tuple(sorted((mapping or {}).items())), ambient)

    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.support)

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.support)

    def max_position(self) -> int:
        return self.support[-1][0] if self.support else 0

    def coordinate(self, position: int) -> int | None:
        """Finite value at ``position``, or None for the infinite coordinate."""
        for p, v in self.support:
            if p == position:
                return v
        return None

    def literal(self) -> str:
        inner = ",".join(f"{p}:{v}" for p, v in self.support)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"XiPoint({self.literal()}, {self.ambient})"


def validate_point(point: XiPoint) -> bool:
    """Ambient validity: in ``xi`` every finite value bounds the support width."""
    if point.ambient == PI:
        return True
    m = point.max_position()
    return all(v >= m for _, v in point.support)


def _require_valid(point: XiPoint) -> None:
    if not validate_point(point):
        raise SpaceError(f"invalid {point.ambient} point {point.literal()}")


def in_zero_set(point: XiPoint, alpha: BranchIndex) -> bool:
    """Whether the point's support avoids the branch's element set."""
    _require_valid(point)
    return not any(branch_member(alpha, p) for p in point.positions())


# ---------------------------------------------------------------------------
# Symbolic set expressions
# ---------------------------------------------------------------------------

class SetExpr:
    """Base class; subclasses form a finite expression tree."""

    def children(self) -> tuple["SetExpr", ...]:
        return ()

    def is_difference_free(self) -> bool:
        return all(c.is_difference_free() for c in self.children())

    def _leaves(self, atoms: list, points: list) -> tuple[list, list]:
        """Append the atoms' branches and singletons' points in order; return both."""
        for c in self.children():
            c._leaves(atoms, points)
        return atoms, points

    def atoms(self) -> tuple[BranchIndex, ...]:
        return tuple(self._leaves([], [])[0])

    def singleton_points(self) -> tuple[XiPoint, ...]:
        return tuple(self._leaves([], [])[1])


@dataclass(frozen=True)
class Whole(SetExpr):
    def __repr__(self) -> str:
        return "Whole()"


@dataclass(frozen=True)
class Atom(SetExpr):
    branch: BranchIndex

    def _leaves(self, atoms: list, points: list) -> tuple[list, list]:
        atoms.append(self.branch)
        return atoms, points

    def __repr__(self) -> str:
        return f"Atom({self.branch.literal()})"


@dataclass(frozen=True)
class Singleton(SetExpr):
    point: XiPoint

    def _leaves(self, atoms: list, points: list) -> tuple[list, list]:
        points.append(self.point)
        return atoms, points

    def __repr__(self) -> str:
        return f"Singleton({self.point.literal()})"


@dataclass(frozen=True)
class Union(SetExpr):
    parts: tuple[SetExpr, ...]

    def children(self) -> tuple[SetExpr, ...]:
        return self.parts


@dataclass(frozen=True)
class Inter(SetExpr):
    parts: tuple[SetExpr, ...]

    def children(self) -> tuple[SetExpr, ...]:
        return self.parts


@dataclass(frozen=True)
class Diff(SetExpr):
    left: SetExpr
    right: SetExpr

    def children(self) -> tuple[SetExpr, ...]:
        return (self.left, self.right)

    def is_difference_free(self) -> bool:
        return False


def inter_of(exprs: Iterable[SetExpr]) -> Inter:
    return Inter(tuple(exprs))


def inter_atoms(branches: Iterable[BranchIndex]) -> SetExpr:
    """Intersection of the branches' zero sets; empty input means the whole space."""
    parts = tuple(Atom(b) for b in branches)
    return Inter(parts) if parts else Whole()


def union_atoms(branches: Iterable[BranchIndex]) -> SetExpr:
    """Union of the branches' zero sets; empty input means the empty set."""
    return Union(tuple(Atom(b) for b in branches))


def empty_expr() -> SetExpr:
    return Union(())


def eval_setexpr(point: XiPoint, expr: SetExpr) -> bool:
    """Structural evaluation of membership; atoms defer to the branch oracle.

    The reference every faster evaluator is tested against, so it reads no
    support rule: the point's positions are listed once and passed down, and
    each node is told apart by its class, atoms and intersections first.
    """
    _require_valid(point)
    return _eval(point.positions(), point.support, expr)


def _eval(
    positions: tuple[int, ...], support: tuple[tuple[int, int], ...], expr: SetExpr
) -> bool:
    kind = type(expr)
    if kind is Atom:
        branch = expr.branch
        for p in positions:
            if branch_member(branch, p):
                return False
        return True
    if kind is Inter:
        for part in expr.parts:
            if not _eval(positions, support, part):
                return False
        return True
    if kind is Union:
        for part in expr.parts:
            if _eval(positions, support, part):
                return True
        return False
    if kind is Diff:
        return _eval(positions, support, expr.left) and not _eval(positions, support, expr.right)
    if kind is Whole:
        return True
    if kind is Singleton:
        return support == expr.point.support
    raise SpaceError(f"unknown expression node {expr!r}")


def eval_on_support(support: frozenset[int], expr: SetExpr) -> bool | None:
    """One-shot `support_evaluator` on a single support of any positions."""
    return support_evaluator(expr, 0, support)(support)


# ---------------------------------------------------------------------------
# Truncated enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truncation:
    """Finite sub-universe: support positions <= T, finite values <= V."""

    T: int
    V: int

    def __post_init__(self) -> None:
        for bound in (self.T, self.V):
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise SpaceError(f"truncation bounds must be integers, not {bound!r}")
        if self.T < 0 or self.V < 0:
            raise SpaceError("truncation bounds must be nonnegative")

    def to_payload(self) -> dict:
        return {"T": self.T, "V": self.V}


def _value_range(ambient: Ambient, max_pos: int, v: int) -> range:
    lo = max_pos if ambient == XI else 1
    return range(lo, v + 1)


def class_point_count(support: frozenset[int], trunc: Truncation, ambient: Ambient) -> int:
    """How many truncated points carry exactly this support."""
    if not support:
        return 1
    if max(support) > trunc.T:
        return 0
    choices = len(_value_range(ambient, max(support), trunc.V))
    return choices ** len(support)


def support_classes(trunc: Truncation) -> Iterator[frozenset[int]]:
    """All support sets within the truncation, smallest first, then lexicographic."""
    positions = range(1, trunc.T + 1)
    for size in range(0, trunc.T + 1):
        for combo in itertools.combinations(positions, size):
            yield frozenset(combo)


def class_points(
    support: frozenset[int], trunc: Truncation, ambient: Ambient
) -> Iterator[XiPoint]:
    """Truncated points with exactly this support, in deterministic value order."""
    if not support:
        yield XiPoint.of({}, ambient)
        return
    pos = sorted(support)
    if pos[-1] > trunc.T:
        return
    values = _value_range(ambient, pos[-1], trunc.V)
    for combo in itertools.product(values, repeat=len(pos)):
        yield XiPoint(tuple(zip(pos, combo)), ambient)


def enumerate_truncated(trunc: Truncation, ambient: Ambient = XI) -> list[XiPoint]:
    """All valid truncated points, ordered by (support size, positions, values)."""
    out: list[XiPoint] = []
    for support in support_classes(trunc):
        out.extend(class_points(support, trunc, ambient))
    return out


def support_evaluator(
    expr: SetExpr, T: int, extra: Iterable[int] = ()
) -> Callable[[frozenset[int]], bool | None]:
    """Compile ``expr`` into a tri-valued function of a support.

    The verdict is exact on every support whose positions are at most ``T``
    or among ``extra``; ``None`` means it depends on the values (a nonempty
    singleton on exactly that support).  An atom becomes the set of its
    branch's elements up to ``T`` plus the extra positions in the branch,
    built once per distinct atom, and holds exactly when the support misses
    that set.
    """
    return _compile(expr, _atom_sets(expr.atoms(), T, extra))


def _atom_sets(
    atoms: Iterable[BranchIndex], T: int, extra: Iterable[int] = ()
) -> dict[BranchIndex, frozenset[int]]:
    """Each distinct atom's elements up to ``T`` plus the ``extra`` positions
    its branch owns, in first-occurrence order."""
    extra = tuple(extra)
    return {
        a: frozenset(a.elements_upto(T) + [p for p in extra if branch_member(a, p)])
        for a in dict.fromkeys(atoms)
    }


def _compile(
    expr: SetExpr, sets: dict[BranchIndex, frozenset[int]]
) -> Callable[[frozenset[int]], bool | None]:
    """`support_evaluator` over atom sets already built, told apart by class."""
    kind = type(expr)
    if kind is Atom:
        return sets[expr.branch].isdisjoint
    if kind is Inter or kind is Union:
        parts = [_compile(p, sets) for p in expr.parts]
        # one part with this verdict settles the node: True for a union,
        # False for an intersection
        settles = kind is Union

        def combined(support: frozenset[int]) -> bool | None:
            unsure = False
            for part in parts:
                verdict = part(support)
                if verdict is settles:
                    return settles
                unsure = unsure or verdict is None
            return None if unsure else not settles

        return combined
    if kind is Diff:
        left = _compile(expr.left, sets)
        right = _compile(expr.right, sets)

        def difference(support: frozenset[int]) -> bool | None:
            lv = left(support)
            if lv is False:
                return False
            rv = right(support)
            if rv is True:
                return False
            return True if lv is True and rv is False else None

        return difference
    if kind is Whole:
        return lambda support: True
    if kind is Singleton:
        target = frozenset(expr.point.positions())
        if not target:
            return lambda support: not support
        return lambda support: None if support == target else False
    raise SpaceError(f"unknown expression node {expr!r}")


def containment_violations(
    lhs: SetExpr, rhs: SetExpr, trunc: Truncation, ambient: Ambient
) -> Iterator[XiPoint]:
    """Every truncated point in ``lhs`` outside ``rhs``, in enumeration order.

    Both sides are compiled once against one shared set of atom element sets
    (see `support_evaluator`).  Off the empty support and the singletons' own
    supports every singleton is false, so a support's verdict there follows
    from its hit pattern (`_hit_patterns`).  When no pattern violates, only
    the empty support and the singletons' supports within ``T`` are
    visited, in `support_classes` order; otherwise every support class is.
    A class is settled at once when both sides are support-determined
    there; in the other classes only the sides' singleton points are
    evaluated (see the module docstring).  Raises `SpaceError` for an
    unknown ambient before visiting any class.
    """
    if ambient not in (XI, PI):
        raise SpaceError(f"unknown ambient {ambient!r}")
    atoms, points = rhs._leaves(*lhs._leaves([], []))
    sets = _atom_sets(atoms, trunc.T)
    in_lhs = _compile(lhs, sets)
    in_rhs = _compile(rhs, sets)
    singletons: dict[frozenset[int], set[tuple[int, ...]]] = {}
    for q in points:
        singletons.setdefault(frozenset(q.positions()), set()).add(q.values())
    # position 0 lies in no branch and in no singleton's support, so every
    # singleton reads False on a representative plus 0
    patterns = _hit_patterns(sets.values(), range(1, trunc.T + 1))
    probes = (rep | {0} for rep in patterns)
    if any(in_lhs(s) is True and in_rhs(s) is False for s in probes):
        supports: Iterable[frozenset[int]] = support_classes(trunc)
    else:
        supports = sorted(
            {frozenset(), *(s for s in singletons if max(s, default=0) <= trunc.T)},
            key=lambda s: (len(s), sorted(s)),
        )
    for support in supports:
        lv = in_lhs(support)
        if lv is False:
            continue
        rv = in_rhs(support)
        if rv is True:
            continue
        if lv is True and rv is False:
            yield from class_points(support, trunc, ambient)
            continue
        generic = in_lhs(support | {0}) and not in_rhs(support | {0})
        yield from _value_sensitive_violations(
            support, singletons.get(support, ()), lhs, rhs, lv, rv, generic, trunc, ambient
        )


def _hit_patterns(sets: Iterable[frozenset[int]], positions: Sequence[int]) -> list[frozenset[int]]:
    """One representative support for each set of atoms a nonempty support
    drawn from ``positions`` can hit, the earliest positions first.

    ``sets`` holds one element set per distinct atom, exact on ``positions``.
    A position's pattern is the mask of the atoms whose set holds it, and a
    support hits the union of its positions' patterns; positions in no atom
    count too, as they make the empty pattern reachable.  Only a new mask
    gets a representative.
    """
    owners: dict[int, int] = {}
    for i, elements in enumerate(sets):
        for p in elements:
            owners[p] = owners.get(p, 0) | 1 << i
    first: dict[int, int] = {}
    for p in positions:
        first.setdefault(owners.get(p, 0), p)
    reps: dict[int, tuple[int, ...]] = {}
    for mask, p in first.items():
        for m, rep in [(0, ()), *reps.items()]:
            if m | mask not in reps:
                reps[m | mask] = (*rep, p)
    return [frozenset(rep) for rep in reps.values()]


def _value_sensitive_violations(
    support: frozenset[int],
    singleton_values: Iterable[tuple[int, ...]],
    lhs: SetExpr,
    rhs: SetExpr,
    lv: bool | None,
    rv: bool | None,
    generic: bool,
    trunc: Truncation,
    ambient: Ambient,
) -> Iterator[XiPoint]:
    """The violations in one support class the support alone does not settle.

    ``singleton_values`` are the value tuples of the sides' singletons on this
    support; a side with a support verdict (``lv`` True, ``rv`` False) is not
    evaluated again.  ``generic`` tells whether the class's other points violate.
    """
    pos = sorted(support)
    values = _value_range(ambient, pos[-1], trunc.V)

    def violates(p: XiPoint) -> bool:
        return (lv is True or eval_setexpr(p, lhs)) and (
            rv is False or not eval_setexpr(p, rhs)
        )

    # the singletons that are points of this class, in value order
    inside = [
        XiPoint(tuple(zip(pos, vals)), ambient)
        for vals in sorted(singleton_values)
        if all(v in values for v in vals)
    ]
    verdicts = {p.values(): violates(p) for p in inside}
    if generic and class_point_count(support, trunc, ambient) > len(inside):
        for p in class_points(support, trunc, ambient):
            if verdicts.get(p.values(), True):
                yield p
    else:
        yield from (p for p in inside if verdicts[p.values()])


def containment_counterexample(
    lhs: SetExpr, rhs: SetExpr, trunc: Truncation, ambient: Ambient
) -> XiPoint | None:
    """First truncated point in ``lhs`` outside ``rhs``; None when contained."""
    return next(containment_violations(lhs, rhs, trunc, ambient), None)


# ---------------------------------------------------------------------------
# Exact containment
# ---------------------------------------------------------------------------

# The most terms a claim's DNF may keep; the engines' claims keep one or two.
MAX_DNF_TERMS = 256


class TermBoundError(Exception):
    """A claim's DNF grew past `MAX_DNF_TERMS` terms, so it was not decided."""


def exact_counterexample(lhs: SetExpr, rhs: SetExpr, ambient: Ambient) -> XiPoint | None:
    """A point of the whole ambient in ``lhs`` outside ``rhs``, checked by the
    reference evaluator; None when contained (see the module docstring)."""
    if ambient not in (XI, PI):
        raise SpaceError(f"unknown ambient {ambient!r}")
    atoms, singletons = rhs._leaves(*lhs._leaves([], []))

    def violates(point: XiPoint) -> bool:  # `eval_setexpr`'s walk, validating once
        pos, support = point.positions(), point.support
        return validate_point(point) and _eval(pos, support, lhs) and not _eval(pos, support, rhs)

    for support in dict.fromkeys([(), *(q.support for q in singletons)]):
        point = XiPoint(support, ambient)
        if violates(point):
            return point
    index = {a: i for i, a in enumerate(dict.fromkeys(atoms))}
    terms = _dnf(Diff(lhs, rhs), True, index)
    if not terms:
        return None
    # one element per hit atom that no other atom holds, or one in no atom
    hit = [a for a, i in index.items() if terms[0] >> len(index) + i & 1]
    positions = [find_separator(a, [b for b in index if b != a]) for a in hit] or [
        next(p for p in itertools.count(1) if not any(branch_member(a, p) for a in index))]
    value = max([*positions, *(v + 1 for q in singletons for v in q.values())])
    point = XiPoint.of(dict.fromkeys(positions, value), ambient)
    if not violates(point):
        raise AssertionError(f"witness {point.literal()} failed its own check")
    return point


def _dnf(expr: SetExpr, positive: bool, index: dict[BranchIndex, int]) -> list[int]:
    """``expr``, or its negation, on points that are no singleton, as
    absorbed DNF terms: bit ``i`` of a term says atom ``i`` is missed, bit
    ``len(index) + i`` that it is hit; a term with both is dropped."""
    kind = type(expr)
    if kind is Atom:
        return [1 << index[expr.branch] + (0 if positive else len(index))]
    if kind is Whole or kind is Singleton:
        return [0] if positive == (kind is Whole) else []
    if kind is Diff:
        factors = [_dnf(expr.left, positive, index), _dnf(expr.right, not positive, index)]
        conjunction = positive
    elif kind is Inter or kind is Union:
        factors = [_dnf(part, positive, index) for part in expr.parts]
        conjunction = (kind is Inter) == positive
    else:
        raise SpaceError(f"unknown expression node {expr!r}")
    if not conjunction:
        return _absorb([t for factor in factors for t in factor])
    k, low = len(index), (1 << len(index)) - 1
    terms = factors[0] if factors else [0]
    for factor in factors[1:]:
        terms = _absorb([u for s in terms for t in factor if not (u := s | t) & u >> k & low])
    return terms


def _absorb(terms: list[int]) -> list[int]:
    """``terms`` without repeats and without a term whose bits hold another's."""
    if len(terms) < 2:
        return terms
    kept: list[int] = []
    for t in sorted(sorted(set(terms)), key=int.bit_count):
        for s in kept:
            if s & t == s:
                break
        else:
            kept.append(t)
            if len(kept) > MAX_DNF_TERMS:
                raise TermBoundError(f"a DNF grows past MAX_DNF_TERMS = {MAX_DNF_TERMS} terms")
    return kept


# ---------------------------------------------------------------------------
# Approximating sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxSequence:
    """Coordinatewise approximation of a base point from inside a set.

    Terms agree with the base everywhere except at the varied positions, where
    term ``r`` carries the finite value ``start + r``.  As ``r`` grows the
    varied coordinates run off to infinity, so the terms converge to the base.
    The usual case varies a single position; escaping several zero sets at
    once needs one varied position per set, hence the tuple.
    """

    base: XiPoint
    varied: tuple[int, ...]
    start: int
    count: int

    def __post_init__(self) -> None:
        if not self.varied:
            raise SpaceError("at least one varied position is required")
        if len(set(self.varied)) != len(self.varied):
            raise SpaceError("varied positions must be distinct")
        if any(self.base.coordinate(p) is not None for p in self.varied):
            raise SpaceError("varied positions must be off the base support")
        if self.count < 1:
            raise SpaceError("a sequence needs at least one term")

    def term(self, r: int) -> XiPoint:
        if not 1 <= r <= self.count:
            raise SpaceError(f"term index {r} out of range 1..{self.count}")
        extra = tuple((p, self.start + r) for p in self.varied)
        return XiPoint(self.base.support + extra, self.base.ambient)

    def terms(self) -> list[XiPoint]:
        return [self.term(r) for r in range(1, self.count + 1)]

    def to_payload(self) -> dict:
        return {
            "base": self.base.literal(),
            "varied": sorted(self.varied),
            "start": self.start,
            "count": self.count,
        }


def sequence_start(base: XiPoint, varied: Sequence[int]) -> int:
    """Value offset making every term valid: at least every varied position,
    every support position, and every finite value of the base."""
    candidates = [*varied, *base.positions(), *base.values()]
    return max(candidates) if candidates else 1


def approx_sequence(point: XiPoint, position: int, count: int) -> ApproxSequence:
    """Single-position approximation of ``point`` varying ``position``."""
    return multi_escape_sequence(point, (position,), count)


def escape_terms_valid(point: XiPoint, positions: Sequence[int]) -> bool:
    """Whether varying these positions keeps every term ambient-valid.

    The varied coordinates get values above everything in sight, so only the
    base's existing finite values can fall below the widened support.
    """
    if point.ambient == PI:
        return True
    new_max = max([point.max_position(), *positions])
    return all(v >= new_max for v in point.values())


def multi_escape_sequence(
    point: XiPoint, positions: Sequence[int], count: int
) -> ApproxSequence:
    """Approximation varying several positions at once (one per set to escape)."""
    _require_valid(point)
    if not escape_terms_valid(point, positions):
        raise SpaceError(
            f"varying {sorted(positions)} on {point.literal()} leaves the space"
        )
    return ApproxSequence(point, tuple(positions), sequence_start(point, positions), count)


# ---------------------------------------------------------------------------
# Closure membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosureVerdict:
    """Outcome of an exact closure-membership check.

    ``proven`` carries a witness: the point itself when it satisfies the
    expression, else an approximating sequence all of whose terms do.
    ``refuted`` carries a basic neighborhood ``(held, m, N)`` of the point
    that misses the expression: the points that keep the held coordinates
    and put a value past ``N``, or infinity, at every other position up to
    ``m``.
    """

    status: Literal["proven", "refuted"]
    witness: ApproxSequence | XiPoint | None = None
    neighborhood: tuple[tuple[tuple[int, int], ...], int, int] | None = None


def closure_member(point: XiPoint, expr: SetExpr) -> ClosureVerdict:
    """Decide exactly whether ``point`` lies in the closure of ``expr``.

    Near ``point``, any other point keeps its coordinates and adds a nonempty
    finite set R of positions (within ``1..min(point.values())`` in ``xi``
    with a nonempty support).  With values past every singleton's, it is no
    singleton, so ``supp(point) | R | {0}`` settles it and only R's atom hit
    pattern matters; one R per reachable pattern is read.  A True one gives
    the escape sequence.  Otherwise the neighborhood ``(held, m, N)``, with
    ``m`` and ``N`` the largest singleton position and value (0 without
    any), holds no point of ``expr``.
    """
    _require_valid(point)
    if eval_setexpr(point, expr):
        return ClosureVerdict("proven", witness=point)
    atoms, singletons = expr._leaves([], [])
    m = max((q.max_position() for q in singletons), default=0)
    N = max((v for q in singletons for v in q.values()), default=0)
    held = frozenset(point.positions())
    limit = min(point.values()) if point.ambient == XI and held else None
    positions = _escape_positions(atoms, held, limit)
    sets = _atom_sets(atoms, 0, held.union(positions))
    in_expr = _compile(expr, sets)
    for rep in _hit_patterns(sets.values(), positions):
        if in_expr(held | rep | {0}):
            varied = tuple(sorted(rep))
            start = max(sequence_start(point, varied), N)
            return ClosureVerdict("proven", witness=ApproxSequence(point, varied, start, 3))
    return ClosureVerdict("refuted", neighborhood=(point.support, m, N))


def _escape_positions(
    atoms: Iterable[BranchIndex], held: frozenset[int], limit: int | None
) -> list[int]:
    """Positions off ``held`` and at most ``limit`` (None: no limit) that
    show every hit pattern one such position can have: past B, the deepest
    position two atoms share, a position lies in at most one atom, so the
    atoms' elements up to B, each atom's first element past B and one
    position in no atom suffice.  Both searches step only over held
    positions and atoms' elements, never up to a value.
    """
    atoms = list(dict.fromkeys(atoms))
    B = max(
        (a.element(d) for a, b in itertools.combinations(atoms, 2) if (d := a.lcp(b))),
        default=0,
    )
    found = {p for a in atoms for p in a.elements_upto(B)}
    for a in atoms:
        past = (a.element(n) for n in itertools.count(len(a.elements_upto(B)) + 1))
        found.add(next(p for p in past if p not in held))
    found.add(next(
        p for p in itertools.count(1)
        if p not in held and not any(branch_member(a, p) for a in atoms)
    ))
    return sorted(p for p in found - held if limit is None or p <= limit)
