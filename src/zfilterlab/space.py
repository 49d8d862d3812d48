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
finite values; singletons are the only value-sensitive sets.  Every support
rule uses `_dnf`'s bit layout, atom ``a`` at bit ``index[a]``: a support
hits the union of its positions' masks (`_owners`, `_hits`), and `_generic`
reads an expression at a hit mask, giving the verdict at the support's
generic points (none of its singletons): an atom holds when its bit is
clear, and every singleton reads false.  The truncated containment loop and
`closure_member` evaluate singleton points with `eval_setexpr`.
`eval_on_support` is the one-shot form; no module calls it, but the
benchmark's tracer binds it.  The closure containments need no support
walk: coordinate pushing decides them exactly from separators and a cover
(see `engines.ContainmentReport`).

`exact_counterexample` decides containment over the whole ambient.  A point
neither empty nor a singleton's reads every singleton false, so its verdict
follows from the atoms its support hits.  Distinct branches share only their
common prefix's elements, so every hit/miss assignment of the atoms is the
pattern of some point valued past every singleton.  So ``lhs ⊆ rhs`` iff no
valid one of the empty and singleton points violates it and ``lhs ∧ ¬rhs``
is unsatisfiable in independent atom variables (singletons false, `Whole`
true), which a DNF of (miss, hit) masks decides.  `containment_violations`
lists the violations within a truncation, for the oracle and the
property-(B) refuter, walking only the support classes the hit patterns and
singletons leave open.  `eval_setexpr` is the reference both are tested
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

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
    """Membership of the points with exactly this support, of any positions:
    None when one of ``expr``'s nonempty singletons lies on the support,
    else the generic verdict, which every such point shares."""
    if not support:
        return eval_setexpr(XiPoint.of({}), expr)
    if any(frozenset(q.positions()) == support for q in expr.singleton_points()):
        return None
    index = _index(expr.atoms())
    return _generic(expr, _hits(_owners(index, 0, support), support), index)


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


def _index(atoms: Iterable[BranchIndex]) -> dict[BranchIndex, int]:
    """The one bit layout: atom ``a``, once each in order, at bit ``index[a]``."""
    return {a: i for i, a in enumerate(dict.fromkeys(atoms))}


def _owners(
    index: dict[BranchIndex, int], T: int, extra: frozenset[int] = frozenset()
) -> dict[int, int]:
    """Each position an atom of ``index`` holds, among its elements up to
    ``T`` and the ``extra`` positions, mapped to the mask of those atoms."""
    owners: dict[int, int] = {}
    for a, i in index.items():
        for p in a.elements_upto(T) + [q for q in extra if branch_member(a, q)]:
            owners[p] = owners.get(p, 0) | 1 << i
    return owners


def _hits(owners: dict[int, int], support: Iterable[int]) -> int:
    """The mask of the atoms a support hits."""
    hit = 0
    for p in support:
        hit |= owners.get(p, 0)
    return hit


def _generic(expr: SetExpr, hit: int, index: dict[BranchIndex, int]) -> bool:
    """``expr`` at the generic points of a support hitting the atoms in mask
    ``hit`` (none of the expression's singletons): an atom holds when its
    bit is clear, and every singleton reads False."""
    kind = type(expr)
    if kind is Atom:
        return not hit >> index[expr.branch] & 1
    if kind is Inter:
        return all(_generic(part, hit, index) for part in expr.parts)
    if kind is Union:
        return any(_generic(part, hit, index) for part in expr.parts)
    if kind is Diff:
        return _generic(expr.left, hit, index) and not _generic(expr.right, hit, index)
    if kind is Whole:
        return True
    if kind is Singleton:
        return False
    raise SpaceError(f"unknown expression node {expr!r}")


def containment_violations(
    lhs: SetExpr, rhs: SetExpr, trunc: Truncation, ambient: Ambient
) -> Iterator[XiPoint]:
    """Every truncated point in ``lhs`` outside ``rhs``, in enumeration order.

    A support's generic verdict follows from its hit mask (`_generic`), read
    once per mask.  When no reachable mask violates (`_hit_patterns`), only
    the empty support and the singletons' supports within ``T`` are
    visited, in `support_classes` order; otherwise every support class is.
    A class that holds no singleton takes its generic verdict; in the others
    the singleton points are evaluated (see `_value_sensitive_violations`).
    Raises `SpaceError` for an unknown ambient before visiting any class.
    """
    if ambient not in (XI, PI):
        raise SpaceError(f"unknown ambient {ambient!r}")
    atoms, points = rhs._leaves(*lhs._leaves([], []))
    index = _index(atoms)
    owners = _owners(index, trunc.T)
    verdicts: dict[int, bool] = {}

    def violates(hit: int) -> bool:
        if hit not in verdicts:
            verdicts[hit] = _generic(lhs, hit, index) and not _generic(rhs, hit, index)
        return verdicts[hit]

    singletons: dict[frozenset[int], set[tuple[int, ...]]] = {}
    for q in points:
        singletons.setdefault(frozenset(q.positions()), set()).add(q.values())
    if any(map(violates, _hit_patterns(owners, range(1, trunc.T + 1)))):
        supports: Iterable[frozenset[int]] = support_classes(trunc)
    else:
        supports = sorted(
            {frozenset(), *(s for s in singletons if max(s, default=0) <= trunc.T)},
            key=lambda s: (len(s), sorted(s)),
        )
    for support in supports:
        generic = violates(_hits(owners, support))
        if support in singletons:
            yield from _value_sensitive_violations(
                support, singletons[support], lhs, rhs, generic, trunc, ambient
            )
        elif generic:
            yield from class_points(support, trunc, ambient)


def _hit_patterns(owners: dict[int, int], positions: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Each mask a nonempty support drawn from ``positions`` can hit, mapped
    to one such support, the earliest positions first.

    ``owners`` (see `_owners`) must be exact on ``positions``.  Positions
    in no atom count too, as they make the empty mask reachable.  Only a
    new mask gets a representative.
    """
    first: dict[int, int] = {}
    for p in positions:
        first.setdefault(owners.get(p, 0), p)
    reps: dict[int, tuple[int, ...]] = {}
    for mask, p in first.items():
        for m, rep in [(0, ()), *reps.items()]:
            if m | mask not in reps:
                reps[m | mask] = (*rep, p)
    return reps


def _value_sensitive_violations(
    support: frozenset[int],
    singleton_values: Iterable[tuple[int, ...]],
    lhs: SetExpr,
    rhs: SetExpr,
    generic: bool,
    trunc: Truncation,
    ambient: Ambient,
) -> Iterator[XiPoint]:
    """The violations in one support class: the sides' singleton points on
    it (``singleton_values``, those within the truncation) are evaluated,
    and every other point violates exactly when ``generic`` says so."""
    pos = sorted(support)
    values = _value_range(ambient, max(pos, default=0), trunc.V)
    # the singletons that are points of this class, in value order
    inside = [
        XiPoint(tuple(zip(pos, vals)), ambient)
        for vals in sorted(singleton_values)
        if all(v in values for v in vals)
    ]
    verdicts = {p.values(): eval_setexpr(p, lhs) and not eval_setexpr(p, rhs) for p in inside}
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
    index = _index(atoms)
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
        # later terms only raise the varied values, so they are valid too
        if not validate_point(self.term(1)):
            raise SpaceError(
                f"varying {sorted(self.varied)} on {self.base.literal()} leaves the space"
            )

    def term(self, r: int) -> XiPoint:
        if not 1 <= r <= self.count:
            raise SpaceError(f"term index {r} out of range 1..{self.count}")
        extra = tuple((p, self.start + r) for p in self.varied)
        return XiPoint(self.base.support + extra, self.base.ambient)

    def terms(self) -> list[XiPoint]:
        return [self.term(r) for r in range(1, self.count + 1)]


def sequence_start(base: XiPoint, varied: Sequence[int]) -> int:
    """Value offset making every term valid: at least every varied position,
    every support position, and every finite value of the base."""
    candidates = [*varied, *base.positions(), *base.values()]
    return max(candidates) if candidates else 1


def multi_escape_sequence(point: XiPoint, positions: Sequence[int], count: int) -> ApproxSequence:
    """Approximation varying several positions at once (one per set to escape)."""
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
    with a nonempty support).  With values past every singleton's, it is a
    generic point of ``supp(point) | R``, so `_generic` at the mask that
    support hits settles it, and only R's mask matters; one R per reachable
    mask is read.  A True one gives the escape sequence.  Otherwise the
    neighborhood ``(held, m, N)``, with ``m`` and ``N`` the largest
    singleton position and value (0 without any), holds no point of
    ``expr``.
    """
    _require_valid(point)
    if eval_setexpr(point, expr):
        return ClosureVerdict("proven", witness=point)
    atoms, singletons = expr._leaves([], [])
    m = max((q.max_position() for q in singletons), default=0)
    N = max((v for q in singletons for v in q.values()), default=0)
    held = frozenset(point.positions())
    limit = min(point.values()) if point.ambient == XI and held else None
    index = _index(atoms)
    positions = _escape_positions(index, held, limit)
    owners = _owners(index, 0, held.union(positions))
    held_hit = _hits(owners, held)
    for hit, rep in _hit_patterns(owners, positions).items():
        if _generic(expr, held_hit | hit, index):
            varied = tuple(sorted(rep))
            start = max(sequence_start(point, varied), N)
            return ClosureVerdict("proven", witness=ApproxSequence(point, varied, start, 3))
    return ClosureVerdict("refuted", neighborhood=(point.support, m, N))


def _escape_positions(
    index: dict[BranchIndex, int], held: frozenset[int], limit: int | None
) -> list[int]:
    """Positions off ``held`` and at most ``limit`` (None: no limit) that
    show every hit pattern one such position can have: past B, the deepest
    position two atoms share, a position lies in at most one atom, so the
    atoms' elements up to B, each atom's first element past B and one
    position in no atom suffice.  Both searches step only over held
    positions and atoms' elements, never up to a value.
    """
    B = max(
        (a.element(d) for a, b in itertools.combinations(index, 2) if (d := a.lcp(b))),
        default=0,
    )
    found = {p for a in index for p in a.elements_upto(B)}
    for a in index:
        past = (a.element(n) for n in itertools.count(len(a.elements_upto(B)) + 1))
        found.add(next(p for p in past if p not in held))
    found.add(next(
        p for p in itertools.count(1)
        if p not in held and not any(branch_member(a, p) for a in index)
    ))
    return sorted(p for p in found - held if limit is None or p <= limit)
