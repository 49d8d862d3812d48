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
finite values; singletons are the only value-sensitive sets.  One function
reads the support rule, with atom ``a`` at bit ``index[a]`` (`_index`): a
support hits the union of its positions' masks (`_owners`, `_hits`), and
`_read` reads an expression in many lanes at once, each lane a partial
assignment of the atoms (hit, missed or free), giving the verdict at the
generic points (none of the expression's singletons) of the supports it
describes, or neither when the free atoms decide: Kleene's rule on bit
masks.  `_verdicts` lays out one lane per full hit mask: the truncated
containment loop reads every reachable mask of a claim in one walk,
`closure_member` every reachable escape mask, and the one-shot
`eval_on_support` one; they evaluate singleton points with `eval_setexpr`.
The closure containments need no support walk: coordinate pushing decides
them exactly from separators and a cover, which the two closure engines
(`engines.containment_decreasing`, `containment_full_product`) certify.

`exact_counterexample` decides containment over the whole ambient.  A point
neither empty nor a singleton's reads every singleton false, so its verdict
follows from the atoms its support hits.  Distinct branches share only their
common prefix's elements, so every hit/miss assignment of the atoms is the
pattern of some point valued past every singleton.  So ``lhs ⊆ rhs`` iff no
valid one of the empty and singleton points violates it and no assignment
reads ``lhs ∧ ¬rhs`` True, which a splitting search decides (`_satisfy`); at
each partial assignment one `_read` of the claim reads every free atom's two
values, two lanes per atom.
`containment_violations` lists the violations within a truncation, for the
oracle and the property-(B) refuter, walking only the support classes the
hit patterns and singletons leave open.  `eval_setexpr` is the reference
both are tested against.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Literal, Sequence, TypeVar

from ._record import Frozen
from .branches import BranchIndex, branch_member, find_separator

Ambient = Literal["xi", "pi"]
T = TypeVar("T")

XI: Ambient = "xi"
PI: Ambient = "pi"


class SpaceError(ValueError):
    """Raised for invalid points, bad ambients, or malformed expressions."""


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class XiPoint(Frozen):
    """Finite-support point: sorted ``(position, value)`` pairs, rest infinite."""

    __slots__ = ("support", "ambient")

    def __init__(self, support: Iterable[tuple[int, int]], ambient: Ambient = XI) -> None:
        pairs = tuple(sorted(support))
        positions = [p for p, _ in pairs]
        if len(set(positions)) != len(positions):
            raise SpaceError("duplicate support positions")
        if any(p < 1 or v < 1 for p, v in pairs):
            raise SpaceError("positions and finite values are >= 1")
        if ambient not in (XI, PI):
            raise SpaceError(f"unknown ambient {ambient!r}")
        object.__setattr__(self, "support", pairs)
        object.__setattr__(self, "ambient", ambient)

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

class SetExpr(Frozen):
    """Base class; subclasses form a finite expression tree."""

    __slots__ = ()

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


class Whole(SetExpr):
    __slots__ = ()

    def __repr__(self) -> str:
        return "Whole()"


class Atom(SetExpr):
    __slots__ = ("branch",)

    def __init__(self, branch: BranchIndex) -> None:
        object.__setattr__(self, "branch", branch)

    def _leaves(self, atoms: list, points: list) -> tuple[list, list]:
        atoms.append(self.branch)
        return atoms, points

    def __repr__(self) -> str:
        return f"Atom({self.branch.literal()})"


class Singleton(SetExpr):
    __slots__ = ("point",)

    def __init__(self, point: XiPoint) -> None:
        object.__setattr__(self, "point", point)

    def _leaves(self, atoms: list, points: list) -> tuple[list, list]:
        points.append(self.point)
        return atoms, points

    def __repr__(self) -> str:
        return f"Singleton({self.point.literal()})"


class Union(SetExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SetExpr, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def children(self) -> tuple[SetExpr, ...]:
        return self.parts


class Inter(SetExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[SetExpr, ...]) -> None:
        object.__setattr__(self, "parts", parts)

    def children(self) -> tuple[SetExpr, ...]:
        return self.parts


class Diff(SetExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: SetExpr, right: SetExpr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

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
    return _verdicts(expr, [_hits(_owners(index, 0, support), support)], index) == 1


# ---------------------------------------------------------------------------
# Truncated enumeration
# ---------------------------------------------------------------------------

class Truncation(Frozen):
    """Finite sub-universe: support positions <= T, finite values <= V."""

    __slots__ = ("T", "V")

    def __init__(self, T: int, V: int) -> None:
        for bound in (T, V):
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise SpaceError(f"truncation bounds must be integers, not {bound!r}")
        if T < 0 or V < 0:
            raise SpaceError("truncation bounds must be nonnegative")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "V", V)


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


def _read(expr: SetExpr, lanes: dict[BranchIndex, tuple[int, int]], every: int) -> tuple[int, int]:
    """``expr`` in every lane at once, at the generic points (none of its
    singletons) of the supports each lane describes: the masks ``(true,
    false)`` of the lanes where it reads True and False.  ``lanes[a]`` holds
    the lanes where atom ``a`` holds (the support misses it) and fails (hits
    it); a lane in neither leaves ``a`` free, and a lane in neither result
    says the free atoms decide.  Kleene's rules apply bitwise, and every
    singleton reads False."""
    kind = type(expr)
    if kind is Atom:
        return lanes[expr.branch]
    if kind is Inter:
        true, false = every, 0
        for part in expr.parts:
            t, f = _read(part, lanes, every)
            true &= t
            false |= f
        return true, false
    if kind is Union:
        true, false = 0, every
        for part in expr.parts:
            t, f = _read(part, lanes, every)
            true |= t
            false &= f
        return true, false
    if kind is Diff:
        lt, lf = _read(expr.left, lanes, every)
        rt, rf = _read(expr.right, lanes, every)
        return lt & rf, lf | rt
    if kind is Whole:
        return every, 0
    if kind is Singleton:
        return 0, every
    raise SpaceError(f"unknown expression node {expr!r}")


def _verdicts(expr: SetExpr, masks: Sequence[int], index: dict[BranchIndex, int]) -> int:
    """The lanes, bit ``j`` for the full hit mask ``masks[j]``, where `_read`
    reads ``expr`` True; every atom is assigned, so the others read False."""
    every = (1 << len(masks)) - 1
    lanes = {}
    for a, i in index.items():
        hit = sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1)
        lanes[a] = every & ~hit, hit
    return _read(expr, lanes, every)[0]


def containment_violations(
    lhs: SetExpr, rhs: SetExpr, trunc: Truncation, ambient: Ambient
) -> Iterator[XiPoint]:
    """Every truncated point in ``lhs`` outside ``rhs``, in enumeration order.

    A support's generic verdict follows from its hit mask: one `_verdicts`
    read of ``Diff(lhs, rhs)`` covers the empty mask and every mask
    `_hit_patterns` reaches.  When none of the reachable ones violates, only
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
    patterns = _hit_patterns(owners, range(1, trunc.T + 1))
    masks = [0, *patterns]
    true = _verdicts(Diff(lhs, rhs), masks, index)
    violating = {mask for j, mask in enumerate(masks) if true >> j & 1}
    singletons: dict[frozenset[int], set[tuple[int, ...]]] = {}
    for q in points:
        singletons.setdefault(frozenset(q.positions()), set()).add(q.values())
    if not violating.isdisjoint(patterns):
        supports: Iterable[frozenset[int]] = support_classes(trunc)
    else:
        supports = sorted(
            {frozenset(), *(s for s in singletons if max(s, default=0) <= trunc.T)},
            key=lambda s: (len(s), sorted(s)),
        )
    for support in supports:
        generic = _hits(owners, support) in violating
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

# The most splits one exact claim may take; the demos' and workloads' claims take none.
MAX_SPLITS = 256


class SplitBoundError(Exception):
    """A claim needed more than `MAX_SPLITS` splits, so it was not decided."""


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
    mask = _satisfy(Diff(lhs, rhs), index)
    if mask is None:
        return None
    # one element per hit atom that no other atom holds, or one in no atom;
    # the atoms are distinct, so the others are those at the other bits
    atoms = list(index)
    positions = [find_separator(atoms[i], atoms[:i] + atoms[i + 1:])
                 for i in range(len(atoms)) if mask >> i & 1] or [
        next(p for p in itertools.count(1) if not any(branch_member(a, p) for a in index))]
    value = max([*positions, *(v + 1 for q in singletons for v in q.values())])
    point = XiPoint.of(dict.fromkeys(positions, value), ambient)
    if not violates(point):
        raise AssertionError(f"witness {point.literal()} failed its own check")
    return point


def minimal_sublist(items: Iterable[T], works: Callable[[list[T]], bool]) -> list[T]:
    """A minimal sublist of ``items`` that ``works``, where ``items`` works and
    so does every list holding a working one: the shortest working prefix,
    then each member but its last (which that prefix needs) dropped, back
    to front, whenever the rest works; at most ``2 * len(items) - 1`` calls."""
    items = list(items)
    n = next((k for k in range(len(items)) if works(items[:k])), len(items))
    kept = items[:n]
    for i in reversed(range(n - 1)):
        if works(rest := kept[:i] + kept[i + 1:]):
            kept = rest
    return kept


def _satisfy(expr: SetExpr, index: dict[BranchIndex, int]) -> int | None:
    """The hit mask of an assignment of ``index``'s atoms at which `_read`
    reads ``expr`` True, or None when no assignment does.

    A depth-first splitting search over partial assignments ``(hit, miss)``.
    At each node one `_read` over ``2n + 1`` lanes reads every free atom's
    two values: lane ``i`` adds atom ``i`` hit, lane ``n + i`` adds it
    missed, and lane ``2n`` adds nothing.  Each free atom one of whose
    values reads False takes the other, all at once, until none does.  A
    False node, or an atom forced both ways, ends its branch; a True node's
    free atoms count as missed; an undecided node splits its lowest free
    atom, missed first.  Past `MAX_SPLITS` splits: `SplitBoundError`.
    """
    n = len(index)
    none = 1 << 2 * n  # the lane that adds no atom: the node's own verdict
    every = 2 * none - 1
    nodes, splits = [(0, 0)], 0
    while nodes:
        hit, miss = nodes.pop()
        while True:
            lanes = {}
            for a, i in index.items():
                bit = 1 << i
                lanes[a] = (0, every) if hit & bit else (every, 0) if miss & bit else (
                    bit << n, bit)
            true, false = _read(expr, lanes, every)
            free = (1 << n) - 1 & ~(hit | miss)
            # an atom that reads False when hit must be missed, and the other way
            to_miss, to_hit = false & free, false >> n & free
            if not (to_miss | to_hit) or to_miss & to_hit:
                break
            hit, miss = hit | to_hit, miss | to_miss
        if true & none:
            return hit
        if false & none or to_miss & to_hit:  # no completion reads True
            continue
        splits += 1
        if splits > MAX_SPLITS:
            raise SplitBoundError(f"a claim needs more than MAX_SPLITS = {MAX_SPLITS} splits")
        bit = free & -free
        nodes += [(hit | bit, miss), (hit, miss | bit)]
    return None


# ---------------------------------------------------------------------------
# Approximating sequences
# ---------------------------------------------------------------------------

class ApproxSequence(Frozen):
    """Coordinatewise approximation of a base point from inside a set.

    Terms agree with the base everywhere except at the varied positions, where
    term ``r`` carries the finite value ``start + r``.  As ``r`` grows the
    varied coordinates run off to infinity, so the terms converge to the base.
    The usual case varies a single position; escaping several zero sets at
    once needs one varied position per set, hence the tuple.
    """

    __slots__ = ("base", "varied", "start", "count")

    def __init__(self, base: XiPoint, varied: tuple[int, ...], start: int, count: int) -> None:
        if not varied:
            raise SpaceError("at least one varied position is required")
        if len(set(varied)) != len(varied):
            raise SpaceError("varied positions must be distinct")
        if any(base.coordinate(p) is not None for p in varied):
            raise SpaceError("varied positions must be off the base support")
        if count < 1:
            raise SpaceError("a sequence needs at least one term")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "varied", varied)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "count", count)
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

class ClosureVerdict(Frozen):
    """Outcome of an exact closure-membership check.

    ``proven`` carries a witness: the point itself when it satisfies the
    expression, else an approximating sequence all of whose terms do.
    ``refuted`` carries a basic neighborhood ``(held, m, N)`` of the point
    that misses the expression: the points that keep the held coordinates
    and put a value past ``N``, or infinity, at every other position up to
    ``m``.
    """

    __slots__ = ("status", "witness", "neighborhood")

    def __init__(
        self,
        status: Literal["proven", "refuted"],
        witness: ApproxSequence | XiPoint | None = None,
        neighborhood: tuple[tuple[tuple[int, int], ...], int, int] | None = None,
    ) -> None:
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "neighborhood", neighborhood)


def closure_member(point: XiPoint, expr: SetExpr) -> ClosureVerdict:
    """Decide exactly whether ``point`` lies in the closure of ``expr``.

    Near ``point``, any other point keeps its coordinates and adds a nonempty
    finite set R of positions (within ``1..min(point.values())`` in ``xi``
    with a nonempty support).  With values past every singleton's, it is a
    generic point of ``supp(point) | R``, so the mask that support hits
    settles it, and only R's mask matters; one `_verdicts` read covers one R
    per reachable mask.  The first True one gives the escape sequence.
    Otherwise the neighborhood ``(held, m, N)``, with ``m`` and ``N`` the
    largest singleton position and value (0 without any), holds no point of
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
    patterns = _hit_patterns(owners, positions)
    true = _verdicts(expr, [held_hit | hit for hit in patterns], index)
    if not true:
        return ClosureVerdict("refuted", neighborhood=(point.support, m, N))
    # the first True lane, in pattern order
    varied = tuple(sorted([*patterns.values()][(true & -true).bit_length() - 1]))
    start = max(sequence_start(point, varied), N)
    return ClosureVerdict("proven", witness=ApproxSequence(point, varied, start, 3))


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
