"""The truncated class view of a closure containment.

Coordinate pushing decides the two closure containments exactly from a
report's separators and cover (see `engines.ContainmentReport`).  This view
spells the rule out on a truncation, from the report's fields alone, so the
tests can replay it point by point: one escape schema per support class of
the shrunken intersection, and one verdict per truncated point in it.
"""

from dataclasses import dataclass

from zfilterlab import space
from zfilterlab.space import (
    XI,
    Atom,
    class_point_count,
    class_points,
    inter_atoms,
    multi_escape_sequence,
    support_classes,
)


@dataclass(frozen=True)
class ClassWitness:
    """Uniform escape schema for every point sharing a support set."""

    support: frozenset[int]
    escapes: tuple[int, ...]
    self_member: bool
    count: int


def classes(report, trunc) -> list[ClassWitness]:
    """One escape schema per support class of ``trunc`` avoiding the kept
    and cover branches: the separators of the subtracted branches it misses.
    Classes without truncated points are dropped in ``xi`` and kept in
    ``pi``."""
    shrunken = inter_atoms([*report.kept, *report.cover])
    index = space._index([*shrunken.atoms(), *report.subtracted])
    owners = space._owners(index, trunc.T)
    out: list[ClassWitness] = []
    for support in support_classes(trunc):
        hit = [space._hits(owners, support)]
        if not space._verdicts(shrunken, hit, index):
            continue
        count = class_point_count(support, trunc, report.ambient)
        if report.ambient == XI and count == 0:
            continue
        missing = [a for a in report.subtracted if space._verdicts(Atom(a), hit, index)]
        escapes = tuple(sorted({report.separators[a.label] for a in missing}))
        out.append(ClassWitness(support, escapes, not missing, count))
    return out


def class_verdicts(report, cw: ClassWitness, trunc):
    """Yield (point, witness) for every truncated point of the class: the
    point itself when it already sits in the target, else the escape
    sequence through the class's separators."""
    for p in class_points(cw.support, trunc, report.ambient):
        yield p, p if cw.self_member else multi_escape_sequence(p, cw.escapes, 3)


def point_verdicts(report, trunc):
    """Yield (point, witness) for every point of ``trunc`` in the shrunken
    intersection."""
    for cw in classes(report, trunc):
        yield from class_verdicts(report, cw, trunc)
