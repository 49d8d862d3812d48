"""The package's value classes: constructors, equality, hashing, repr strings
and immutability, pinned class by class, and the validation two of them do."""

import copy
import pickle

import pytest

from zfilterlab import branches, certificates, checking, engines, filters, space
from zfilterlab._record import Record
from zfilterlab.branches import BranchIndex, Registry
from zfilterlab.certificates import Certificate
from zfilterlab.checking import CheckReport
from zfilterlab.engines import AFailure, EngineError, RefuterReport
from zfilterlab.filters import CombineReport, FilterBase, MemberVerdict
from zfilterlab.space import (
    ApproxSequence,
    Atom,
    ClosureVerdict,
    Diff,
    Inter,
    Singleton,
    SpaceError,
    Truncation,
    Union,
    Whole,
    XiPoint,
)

A = BranchIndex("12", "2", 0, "a")  # canonical form 1:2
B = BranchIndex("2", "1", 1, "b")
A_REPR = "BranchIndex('1:2', rank=0, label='a')"
B_REPR = "BranchIndex('2:1', rank=1, label='b')"
CERT_REPR = "Certificate(kind='CoverSet', params={'gamma': 0}, payload={'cover': []})"


def _cert() -> Certificate:
    return Certificate("CoverSet", {"gamma": 0}, {"cover": []})


def _verdict() -> MemberVerdict:
    return MemberVerdict("proven", subset=(0,))


# name: (make an instance, make an unequal one, its repr,
# a field to assign, the tuple it hashes as; None for a mutable class, which
# is unhashable, and TypeError for a frozen one holding a dict)
CASES = {
    "BranchIndex": (
        lambda: BranchIndex("12", "2", 0, "a"), lambda: BranchIndex("1", "1", 0, "a"),
        A_REPR, "rank", ("1", "2"),
    ),
    "Registry": (
        lambda: Registry([A, B]), lambda: Registry([A]),
        f"Registry(entries=[{A_REPR}, {B_REPR}])", "entries", None,
    ),
    "XiPoint": (
        lambda: XiPoint(((2, 3), (1, 5))), lambda: XiPoint(((2, 3), (1, 5)), "pi"),
        "XiPoint({1:5,2:3}, xi)", "support", (((1, 5), (2, 3)), "xi"),
    ),
    "Whole": (Whole, lambda: Union(()), "Whole()", "parts", ()),  # it has no field
    "Atom": (lambda: Atom(A), lambda: Atom(B), "Atom(1:2)", "branch", (A,)),
    "Singleton": (
        lambda: Singleton(XiPoint.of({1: 5})), lambda: Singleton(XiPoint.of({1: 6})),
        "Singleton({1:5})", "point", (XiPoint.of({1: 5}),),
    ),
    "Union": (
        lambda: Union((Atom(A), Whole())), lambda: Inter((Atom(A), Whole())),
        "Union(parts=(Atom(1:2), Whole()))", "parts", ((Atom(A), Whole()),),
    ),
    "Inter": (
        lambda: Inter((Atom(A), Atom(B))), lambda: Inter((Atom(B), Atom(A))),
        "Inter(parts=(Atom(1:2), Atom(2:1)))", "parts", ((Atom(A), Atom(B)),),
    ),
    "Diff": (
        lambda: Diff(Whole(), Atom(A)), lambda: Diff(Atom(A), Whole()),
        "Diff(left=Whole(), right=Atom(1:2))", "left", (Whole(), Atom(A)),
    ),
    "Truncation": (
        lambda: Truncation(3, 4), lambda: Truncation(4, 3), "Truncation(T=3, V=4)", "T", (3, 4),
    ),
    "ApproxSequence": (
        lambda: ApproxSequence(XiPoint.of({}), (2,), 2, 3),
        lambda: ApproxSequence(XiPoint.of({}), (2,), 2, 4),
        "ApproxSequence(base=XiPoint({}, xi), varied=(2,), start=2, count=3)", "count",
        (XiPoint.of({}), (2,), 2, 3),
    ),
    "ClosureVerdict": (
        lambda: ClosureVerdict("refuted", neighborhood=((), 0, 0)),
        lambda: ClosureVerdict("proven", witness=XiPoint.of({})),
        "ClosureVerdict(status='refuted', witness=None, neighborhood=((), 0, 0))", "status",
        ("refuted", None, ((), 0, 0)),
    ),
    "AFailure": (
        lambda: AFailure(Whole(), (A,), (B,)), lambda: AFailure(Whole(), (), (B,)),
        f"AFailure(zset=Whole(), constraining=({A_REPR},), absorbing=({B_REPR},))",
        "absorbing", (Whole(), (A,), (B,)),
    ),
    "RefuterReport": (
        lambda: RefuterReport([[A]], _cert()), lambda: RefuterReport([], _cert()),
        f"RefuterReport(chain=[[{A_REPR}]], certificate={CERT_REPR})", "chain", None,
    ),
    "FilterBase": (
        lambda: FilterBase((Whole(),)), lambda: FilterBase((Whole(),), "pi"),
        "FilterBase(generators=(Whole(),), ambient='xi')", "ambient", ((Whole(),), "xi"),
    ),
    "MemberVerdict": (
        _verdict, lambda: MemberVerdict("refuted", witness=XiPoint.of({})),
        "MemberVerdict(status='proven', subset=(0,), witness=None)", "status",
        ("proven", (0,), None),
    ),
    "CombineReport": (
        lambda: CombineReport(Whole(), {1: _verdict()}, _verdict()),
        lambda: CombineReport(Whole(), {}, _verdict()),
        "CombineReport(combined=Whole(), per_base={1: MemberVerdict(status='proven', "
        "subset=(0,), witness=None)}, target_verdict=MemberVerdict(status='proven', "
        "subset=(0,), witness=None))",
        "combined", TypeError,
    ),
    "Certificate": (_cert, lambda: Certificate("CoverSet", {"gamma": 1}, {"cover": []}),
                    CERT_REPR, "kind", None),
    "CheckReport": (
        lambda: CheckReport("CoverSet"), lambda: CheckReport("CoverSet", ok=False),
        "CheckReport(kind='CoverSet', ok=True, problems=[])", "ok", None,
    ),
}


def test_every_value_class_is_pinned():
    modules = (branches, space, engines, filters, certificates, checking)
    found = {
        name for m in modules for name, c in vars(m).items()
        if isinstance(c, type) and issubclass(c, Record) and c.__module__ == m.__name__
    }
    assert found - {"SetExpr"} == set(CASES) and len(CASES) == 19


@pytest.mark.parametrize("name", CASES)
def test_equality_and_repr(name):
    make, other, text, _, _ = CASES[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert x is not y and x == y and not x != y
    assert x != other() and other() != x
    assert x != object() and x != (x,)
    assert repr(x) == text


@pytest.mark.parametrize("name", CASES)
def test_hash_and_immutability(name):
    make, _, _, field, hashed = CASES[name]
    x = make()
    value = getattr(x, field, None)
    if hashed is None:  # mutable: unhashable, and its fields can be assigned
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
        setattr(x, field, value)
        assert x == make()
        return
    if hashed is TypeError:  # frozen, but a field holds a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    else:
        assert hash(x) == hash(make()) == hash(hashed)
    with pytest.raises(AttributeError):
        setattr(x, field, value)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.no_such_field = 1
    assert getattr(x, field, None) is value


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle(name):
    make, _, _, _, hashed = CASES[name]
    x = make()
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)
        if hashed not in (None, TypeError):
            assert hash(twin) == hash(x)


def test_branch_hash_is_the_canonical_words():
    # rank, label and the stored word are no part of the hash, and a copy or
    # pickle hashes as the original
    x = BranchIndex("12", "2", 0, "a")
    assert BranchIndex._fields == ("pre", "period", "rank", "label")
    assert hash(x) == hash(("1", "2")) == hash(BranchIndex("1", "22", 5, "z"))
    x.element(70)
    assert hash(x) == hash(("1", "2"))
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert hash(twin) == hash(x)


def test_branch_equality_is_by_word():
    # rank and label are bookkeeping, so a registry is equal to one whose
    # entries carry the same words under other ranks and labels
    assert BranchIndex("12", "2", 0, "a") == BranchIndex("1", "22", 5, "z")
    assert Registry([A]) == Registry([BranchIndex("1", "2", 3, "c")])
    assert BranchIndex("1", "2", 4).label == "b4"


def test_constructor_defaults_and_keywords():
    assert Certificate("CoverSet") == Certificate(kind="CoverSet", params={}, payload={})
    # each default dict and list is a new one
    assert Certificate("CoverSet").params is not Certificate("CoverSet").params
    assert Certificate("CoverSet").payload is not Certificate("CoverSet").payload
    assert CheckReport("x") == CheckReport(kind="x", ok=True, problems=[])
    assert CheckReport("x").problems is not CheckReport("x").problems
    assert Registry() == Registry(entries=[]) and len(Registry()) == 0
    assert XiPoint.of({1: 1}) == XiPoint(support=((1, 1),), ambient="xi")
    assert FilterBase((Whole(),)) == FilterBase(generators=(Whole(),), ambient="xi")
    assert MemberVerdict("refuted").exact is True
    assert ClosureVerdict("proven") == ClosureVerdict(
        status="proven", witness=None, neighborhood=None)
    assert ApproxSequence(base=XiPoint.of({}), varied=(1,), start=1, count=1).terms() == [
        XiPoint.of({1: 2})]


def test_afailure_refuses_a_rank_shape_violation():
    with pytest.raises(EngineError, match="strictly below absorbing ranks"):
        AFailure(Whole(), (B,), (A,))
    with pytest.raises(EngineError, match="strictly below absorbing ranks"):
        AFailure(Whole(), (A,), (A,))
    # no absorbing branch puts no bound on the constraining ranks
    assert AFailure(Whole(), (B,), ()).max_constraining_rank() == 1


@pytest.mark.parametrize(
    "base, varied, count, message",
    [
        (XiPoint.of({}), (), 1, "at least one varied position"),
        (XiPoint.of({}), (2, 2), 1, "must be distinct"),
        (XiPoint.of({2: 5}), (2,), 1, "off the base support"),
        (XiPoint.of({}), (2,), 0, "at least one term"),
        (XiPoint.of({1: 1}), (2,), 1, "leaves the space"),
    ],
)
def test_approx_sequence_validation(base, varied, count, message):
    with pytest.raises(SpaceError, match=message):
        ApproxSequence(base, varied, 2, count)
