"""The truncated class view of a closure containment.

Coordinate pushing decides the two closure containments exactly from a
certificate's separators and, with a rank floor, its cover of every position
up to the largest separator (see `engines.containment_decreasing`).  This
view spells the rule out on a truncation from what the checker reads: the
certificate's fields, with the branches it names by label resolved through
the caller's registry.  The tests replay it point by point: one escape
schema per support class of the shrunken intersection, and one verdict per
truncated point in it.
"""

from dataclasses import dataclass

from zfilterlab import space
from zfilterlab.space import (
    XI,
    Atom,
    Diff,
    class_point_count,
    class_points,
    inter_atoms,
    multi_escape_sequence,
    support_classes,
    union_atoms,
)


@dataclass(frozen=True)
class ClassWitness:
    """Uniform escape schema for every point sharing a support set."""

    support: frozenset[int]
    escapes: tuple[int, ...]
    self_member: bool
    count: int


def branches(cert, registry, key) -> list:
    """The branches a payload field names by label; a certificate without a
    rank floor has no ``cover``, which reads as empty."""
    return [registry.by_label(label) for label in cert.payload.get(key, [])]


def separators(cert) -> dict:
    """Each subtracted label's separator: separator j answers subtracted
    branch j."""
    return dict(zip(cert.payload["subtracted"], cert.payload["separators"]))


def target(cert, registry):
    """The kept intersection with the subtracted zero sets removed."""
    return Diff(inter_atoms(branches(cert, registry, "kept")),
                union_atoms(branches(cert, registry, "subtracted")))


def classes(cert, registry, trunc) -> list[ClassWitness]:
    """One escape schema per support class of ``trunc`` avoiding the kept
    and cover branches: the separators of the subtracted branches it misses.
    Classes without truncated points are dropped in ``xi`` and kept in
    ``pi``."""
    ambient = cert.params["ambient"]
    subtracted = branches(cert, registry, "subtracted")
    shrunken = inter_atoms(branches(cert, registry, "kept") + branches(cert, registry, "cover"))
    escape = separators(cert)
    index = space._index([*shrunken.atoms(), *subtracted])
    owners = space._owners(index, trunc.T)
    out: list[ClassWitness] = []
    for support in support_classes(trunc):
        hit = [space._hits(owners, support)]
        if not space._verdicts(shrunken, hit, index):
            continue
        count = class_point_count(support, trunc, ambient)
        if ambient == XI and count == 0:
            continue
        missing = [a for a in subtracted if space._verdicts(Atom(a), hit, index)]
        escapes = tuple(sorted({escape[a.label] for a in missing}))
        out.append(ClassWitness(support, escapes, not missing, count))
    return out


def class_verdicts(cert, cw: ClassWitness, trunc):
    """Yield (point, witness) for every truncated point of the class: the
    point itself when it already sits in the target, else the escape
    sequence through the class's separators."""
    for p in class_points(cw.support, trunc, cert.params["ambient"]):
        yield p, p if cw.self_member else multi_escape_sequence(p, cw.escapes, 3)


def point_verdicts(cert, registry, trunc):
    """Yield (point, witness) for every point of ``trunc`` in the shrunken
    intersection."""
    for cw in classes(cert, registry, trunc):
        yield from class_verdicts(cert, cw, trunc)
