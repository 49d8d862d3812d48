"""Engine tests: extendibility, closure containments, properties, chains."""

import inspect
import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_view import branches, classes, point_verdicts, separators, target
from zfilterlab import engines, space
from zfilterlab.branches import (
    BranchIndex,
    Registry,
    branch_member,
    decode_code,
    find_separator,
    make_registry,
)
from zfilterlab.certificates import Certificate
from zfilterlab.engines import (
    AFailure,
    AFailureVerificationError,
    CertificationError,
    EngineError,
    check_extendibility_a,
    check_extendibility_b,
    containment_decreasing,
    containment_full_product,
    cover_certificate,
    decreasing_chain_engine,
    increasing_chain_engine,
    property_a_check,
    property_b_refute,
)
from zfilterlab.checking import check_certificate
from zfilterlab.filters import FilterBase, filter_member
from zfilterlab.formats import (
    parse_afailures,
    parse_point_literal,
    parse_registry,
    parse_setexpr,
)
from zfilterlab.space import (
    PI,
    XI,
    Atom,
    Diff,
    Inter,
    Singleton,
    Truncation,
    Union,
    Whole,
    XiPoint,
    containment_counterexample,
    enumerate_truncated,
    eval_setexpr,
    exact_counterexample,
    inter_atoms,
    multi_escape_sequence,
)

TR = Truncation(4, 6)


def reg3() -> Registry:
    return make_registry([("", "1"), ("", "2"), ("1", "2")])


def reg5() -> Registry:
    return make_registry([("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")])


class TestExtendibilityA:
    def test_two_branches_yields_diagonal_point(self):
        reg = make_registry([("", "1"), ("", "2")])
        cert = check_extendibility_a(reg)
        assert cert.payload["entries"][0] == "{1:1}"

    def test_three_branches_all_points_check_out(self):
        reg = reg3()
        cert = check_extendibility_a(reg)
        assert len(cert.payload["entries"]) == 3
        # point j answers entry j
        for alpha, literal in zip(reg, cert.payload["entries"]):
            point = parse_point_literal(literal)
            group = [b for b in reg if b != alpha]
            assert eval_setexpr(point, Diff(inter_atoms(group), Atom(alpha)))

    def test_singleton_registry_rejected(self):
        with pytest.raises(EngineError):
            check_extendibility_a(make_registry([("", "1")]))

    def test_a_separator_failing_its_own_check_is_an_error(self):
        # position 2 is an element of the all-2 branch, so a "separator"
        # there puts the point for :1 outside the other entry's zero set
        reg = make_registry([("", "1"), ("", "2")])
        with mock.patch.object(engines, "find_separator", lambda alpha, group: 2):
            with pytest.raises(CertificationError, match=r"separator point \{2:2\} failed"):
                check_extendibility_a(reg)


class TestExtendibilityB:
    def test_zero_set_hypothesis(self):
        reg = reg3()
        alpha0, gamma_b, delta = reg.entries
        cert = check_extendibility_b(Atom(gamma_b), alpha0, reg)
        candidates = {*cert.payload["hypothesis_group"], *cert.payload["cover"]}
        assert set(cert.payload["exceptions"]) <= candidates
        # delta is no exception: the checker decides its pair inclusion
        assert delta.label not in cert.payload["exceptions"]

    def test_whole_has_empty_exception_set(self):
        reg = reg3()
        cert = check_extendibility_b(Whole(), reg.entries[0], reg)
        assert cert.payload["exceptions"] == []

    def test_eight_words_refused_past_the_truncation(self):
        # at (8,10) Z(e1) lies in (pt {1:5}) ∪ Z(e0), so a truncated search
        # would take [e1] as the hypothesis; 15, the code of 1112, lies in e1
        # and in no other entry, and {15:15} lies outside the joined set
        words = ["1111", "1112", "1121", "1122", "1211", "1212", "1221", "1222"]
        reg = make_registry([(w, "2" if w.endswith("1") else "1") for w in words])
        e0, e1 = reg.entries[:2]
        zset = parse_setexpr("(pt {1:5})", reg)
        target = Union((zset, Atom(e0)))
        assert containment_counterexample(Atom(e1), target, Truncation(8, 10), XI) is None
        assert exact_counterexample(Atom(e1), target, XI) == XiPoint.of({15: 15})
        with pytest.raises(CertificationError, match=r"\{15:15\}"):
            check_extendibility_b(zset, e0, reg)

    def test_a_non_closed_set_breaks_a_pair_inclusion(self):
        # zset removes Z(b0), so it is no zero set: the hypothesis is [b1]
        # and the cover [b0], and {3:9} lies in Z(b0) ∩ Z(b1), outside zset,
        # and hits b2 alone (3 is the code of 11), so b2, no candidate,
        # fails its pair inclusion
        reg = parse_registry(["b0=2:2@0", "b1=1:2@1", "b2=111:2@2"])
        zset = parse_setexpr("(diff (union N:b1 (pt {4:8})) N:b0)", reg)
        with pytest.raises(
            CertificationError, match=r"^inclusion for remaining entry b2 fails at \{3:9\}$"
        ):
            check_extendibility_b(zset, reg.by_label("b0"), reg)

    def test_fourteen_entries_need_every_other(self):
        # the set is the intersection of all the others, so the hypothesis
        # is all of them: a linear number of exact calls, where the upward
        # search made 8,207
        words = ["".join(w) for w in itertools.product("12", repeat=4)][:14]
        reg = make_registry([(w, "2" if w.endswith("1") else "1") for w in words])
        alpha, *others = reg.entries
        with mock.patch.object(
            engines, "exact_counterexample", wraps=space.exact_counterexample
        ) as spy:
            cert = check_extendibility_b(inter_atoms(others), alpha, reg)
        labels = [b.label for b in others]
        assert cert.payload["hypothesis_group"] == cert.payload["exceptions"] == labels
        # the cover mints b14, the one entry past alpha and the exceptions,
        # whose pair inclusion runs through every other entry
        assert cert.payload["separator"] == 15 and cert.payload["cover"] == ["b0", "b14"]
        assert [b.label for b in reg if b not in (alpha, *others)] == ["b14"]
        # the refusal check, 13 + 12 for the rule and one pair inclusion per entry
        assert spy.call_count <= 1 + 2 * 13 - 1 + 14
        assert check_certificate(cert).ok

    def test_uncertifiable_hypothesis_errors(self):
        reg = reg3()
        # {3:3} lies in Z(b1) ∩ Z(b2), outside Z(b0): 3 is the code of 11
        with pytest.raises(CertificationError, match=r"\{3:3\}"):
            check_extendibility_b(Union(()), reg.entries[0], reg)


class TestContainmentDecreasing:
    def test_empty_subtracted_is_trivial(self):
        reg = reg3()
        cert = containment_decreasing([], [reg.entries[1]], 5, reg)
        assert cert.payload["cover"] == []
        goal = target(cert, reg)
        for p, witness in point_verdicts(cert, reg, TR):
            assert witness == p
            assert eval_setexpr(p, goal)

    def test_single_subtracted_cover_shape(self):
        reg = make_registry([("", "1"), ("", "2")])
        a1, a2 = reg.entries
        cert = containment_decreasing([a1], [a2], 5, reg)
        assert cert.payload["separators"] == [1]
        cover = branches(cert, reg, "cover")
        assert all(c.rank >= 5 for c in cover)
        assert len(cover) == 1 and cover[0].prefix(1) == "1"

    def test_subtracted_only(self):
        reg = make_registry([("", "1"), ("", "2")])
        a1 = reg.entries[0]
        cert = containment_decreasing([a1], [], 0, reg)
        (l,) = cert.payload["separators"]
        assert l == 1
        for n in range(1, l + 1):
            assert any(branch_member(c, n) for c in branches(cert, reg, "cover"))

    def test_every_point_witnessed_inside_target(self):
        reg = reg5()
        f = [reg.entries[0]]
        g = [reg.entries[1], reg.entries[2]]
        cert = containment_decreasing(f, g, 7, reg)
        goal = target(cert, reg)
        shrunken = inter_atoms(list(g) + branches(cert, reg, "cover"))
        seen = 0
        for p, witness in point_verdicts(cert, reg, TR):
            seen += 1
            assert eval_setexpr(p, shrunken)
            if witness is p:
                assert eval_setexpr(p, goal)
            else:
                for t in witness.terms():
                    assert eval_setexpr(t, goal)
        total = sum(
            1 for p in enumerate_truncated(TR, XI) if eval_setexpr(p, shrunken)
        )
        assert seen == total

    def test_disjointness_required(self):
        reg = reg3()
        with pytest.raises(EngineError):
            containment_decreasing([reg.entries[0]], [reg.entries[0]], 0, reg)


class TestContainmentFullProduct:
    def test_trivial_whole_space(self):
        cert = containment_full_product([], [])
        for p, witness in point_verdicts(cert, Registry(), TR):
            assert witness == p

    def test_escape_position_is_least_separator(self):
        reg = make_registry([("", "1"), ("", "2")])
        a1, a2 = reg.entries
        cert = containment_full_product([a1], [a2])
        assert cert.payload["separators"] == [2]
        p_inf_class = next(cw for cw in classes(cert, reg, TR) if not cw.support)
        assert p_inf_class.escapes == (2,)

    def test_every_point_gets_verified_sequence(self):
        reg = reg5()
        kept = [reg.entries[0]]
        subtracted = [reg.entries[1], reg.entries[3]]
        cert = containment_full_product(kept, subtracted)
        goal = target(cert, reg)
        lhs = inter_atoms(kept)
        checked = 0
        for p, witness in point_verdicts(cert, reg, TR):
            checked += 1
            assert p.ambient == PI
            assert eval_setexpr(p, lhs)
            terms = [p] if witness is p else witness.terms()
            for t in terms:
                assert eval_setexpr(t, goal)
        total = sum(
            1 for p in enumerate_truncated(TR, PI) if eval_setexpr(p, lhs)
        )
        assert checked == total

    def test_overlap_rejected(self):
        reg = reg3()
        with pytest.raises(EngineError):
            containment_full_product([reg.entries[0]], [reg.entries[0]])

    @pytest.mark.parametrize(
        "kept, subtracted, message",
        [
            ([BranchIndex("", "1", 0)], [BranchIndex("", "2", 0)],
             "registry ranks must be strictly increasing: b0 has rank 0 after rank 0"),
            ([BranchIndex("", "1", 0, "x")], [BranchIndex("", "2", 1, "x")],
             "duplicate label 'x'"),
        ],
        ids=["equal-ranks", "shared-label"],
    )
    def test_branches_no_registry_holds_are_an_engine_error(self, kept, subtracted, message):
        # the certificate's registry is built from the given branches; the
        # BranchError of building it used to escape
        with pytest.raises(EngineError) as raised:
            containment_full_product(kept, subtracted)
        assert str(raised.value) == message and type(raised.value) is EngineError


@st.composite
def closure_setups(draw):
    """A registry split into disjoint kept and subtracted sets, a rank floor,
    and raw support positions up to 40 (ten times the truncation's T)."""
    branches: list[BranchIndex] = []
    for pre, period in draw(st.lists(
        st.tuples(st.text(alphabet="12", max_size=3), st.text(alphabet="12", min_size=1, max_size=2)),
        min_size=1, max_size=5,
    )):
        b = BranchIndex(pre, period, len(branches))
        if b not in branches:
            branches.append(b)
    roles = draw(st.lists(st.sampled_from("ksn"), min_size=len(branches), max_size=len(branches)))
    kept = [b for b, r in zip(branches, roles) if r == "k"]
    subtracted = [b for b, r in zip(branches, roles) if r == "s"]
    positions = draw(st.sets(st.integers(1, 40), max_size=6))
    values = draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
    return Registry(branches), kept, subtracted, draw(st.integers(0, 12)), positions, values


class TestExactClosureRule:
    """The coordinate-pushing rule the checker accepts holds on every finite
    support avoiding the kept (and cover) branches, not only within T."""

    @staticmethod
    def assert_rule(cert, reg, point):
        assert check_certificate(cert).ok
        missed = [
            a for a in branches(cert, reg, "subtracted")
            if not any(branch_member(a, n) for n in point.positions())
        ]
        escapes = sorted({separators(cert)[a.label] for a in missed})
        terms = multi_escape_sequence(point, escapes, 3).terms() if escapes else [point]
        assert all(eval_setexpr(t, target(cert, reg)) for t in terms)
        support = frozenset(point.positions())
        if support and max(support) <= TR.T:
            # the truncated view names the same escapes for this support
            cw = next(cw for cw in classes(cert, reg, TR) if cw.support == support)
            assert cw.escapes == tuple(escapes) and cw.self_member == (not missed)

    @given(closure_setups())
    @settings(max_examples=150, deadline=None)
    def test_rank_floor(self, setup):
        reg, kept, subtracted, gamma, positions, values = setup
        cert = containment_decreasing(subtracted, kept, gamma, reg)
        owned = [*kept, *branches(cert, reg, "cover")]
        support = sorted(p for p in positions if not any(branch_member(b, p) for b in owned))
        if support:
            assert support[0] > max(cert.payload["separators"], default=0)
        top = max(support, default=0)
        self.assert_rule(cert, reg, XiPoint.of({p: top + v for p, v in zip(support, values)}))

    @given(closure_setups())
    @settings(max_examples=150, deadline=None)
    def test_full_product(self, setup):
        reg, kept, subtracted, _, positions, values = setup
        cert = containment_full_product(kept, subtracted)
        support = sorted(p for p in positions if not any(branch_member(b, p) for b in kept))
        self.assert_rule(cert, reg, XiPoint.of({p: 1 + v for p, v in zip(support, values)}, PI))


@st.composite
def property_a_setups(draw):
    """A registry of at most 5 entries (2 to 5 draws, repeats dropped) and a
    zset built from some of its atoms and one singleton by union or
    intersection."""
    branches: list[BranchIndex] = []
    for pre, period in draw(st.lists(
        st.tuples(st.text(alphabet="12", max_size=3), st.text(alphabet="12", min_size=1, max_size=2)),
        min_size=2, max_size=5,
    )):
        b = BranchIndex(pre, period, len(branches))
        if b not in branches:
            branches.append(b)
    atoms = [Atom(b) for b in branches if draw(st.booleans())]
    positions = sorted(draw(st.sets(st.integers(1, 12), max_size=3)))
    top = max(positions, default=0)
    point = XiPoint.of({p: top + draw(st.integers(0, 3)) for p in positions})
    combine = draw(st.sampled_from((Union, Inter)))
    return Registry(branches), combine((*atoms, Singleton(point)))


def has_point(zset, f_set, beta) -> bool:
    """Some point of the space lies in ``zset ∩ ⋂f_set`` outside Z(beta)."""
    lhs = Inter((zset, inter_atoms(f_set)))
    return exact_counterexample(lhs, Atom(beta), XI) is not None


def certified_failure(cert: Certificate, reg: Registry) -> AFailure:
    """The absorption failure a failing property-(A) certificate records,
    its branches read by label from ``reg``."""
    assert (cert.kind, cert.payload["claim"]) == ("InclusionChain", "absorption-failure")
    (parts,) = parse_afailures([cert.payload["afailure"]], reg)
    zset, constraining, absorbing = parts
    return AFailure(zset, tuple(constraining), tuple(absorbing))


class TestPropertyA:
    def test_whole_has_property(self):
        reg = make_registry([("", "1"), ("", "2")])
        cert = property_a_check(Whole(), reg)
        assert cert.kind == "SeparatorWitness"
        assert len(cert.payload["entries"]) == 2
        for j, literal in enumerate(cert.payload["entries"]):
            point = parse_point_literal(literal)
            assert eval_setexpr(point, inter_atoms(reg.entries[:j]))
            assert not eval_setexpr(point, Atom(reg.entries[j]))

    def test_top_zero_set_fails_reflexively(self):
        reg = reg3()
        top = reg.entries[-1]
        cert = property_a_check(Atom(top), reg)
        assert certified_failure(cert, reg).absorbing == (top,)

    def test_empty_set_fails_immediately(self):
        reg = reg3()
        failure = certified_failure(property_a_check(Union(()), reg), reg)
        assert failure.constraining == ()
        assert failure.absorbing == (reg.entries[0],)

    @given(property_a_setups())
    @settings(max_examples=300, deadline=None)
    def test_one_point_per_entry_serves_every_constraint_set(self, setup):
        reg, zset = setup
        cert = property_a_check(zset, reg)
        assert check_certificate(cert).ok
        entries = list(reg)
        if cert.kind == "SeparatorWitness":
            listed = cert.payload["entries"]
            # one point per entry, in rank order
            assert len(listed) == len(entries)
            for j, literal in enumerate(listed):
                point = parse_point_literal(literal)
                # the whole quantifier range: every F below the entry, one by one
                for size in range(j + 1):
                    for f_set in itertools.combinations(entries[:j], size):
                        target = Diff(Inter((zset, inter_atoms(f_set))), Atom(entries[j]))
                        assert eval_setexpr(point, target), (literal, f_set)
            return
        failure = certified_failure(cert, reg)
        (beta,) = failure.absorbing
        # the failing entry is the first without a point
        cut = entries.index(beta)
        assert all(has_point(zset, entries[:j], entries[j]) for j in range(cut))
        # the failure holds over the whole space, and its points at
        # three truncations agree
        assert exact_counterexample(failure.lhs(), failure.rhs(), XI) is None
        for trunc in (Truncation(3, 4), Truncation(5, 6)):
            assert containment_counterexample(failure.lhs(), failure.rhs(), trunc, XI) is None
        # the reported constraint set keeps only members it cannot do without
        for b in failure.constraining:
            smaller = [c for c in failure.constraining if c != b]
            assert has_point(zset, smaller, beta), (b, failure)

    def test_separator_past_the_truncation_serves_the_smaller_sets(self):
        # (F = {b1}, b2) has no point on the truncation (4, 2): its separator
        # point {4:4} misses the zset and the truncation holds none of
        # zset ∩ Z(b1) outside Z(b2).  The separator point {10:10} against the largest
        # set {b0, b1} lies past T, in the zset, so it serves {b1} too and
        # the property holds relative to the registry.
        reg = make_registry([("", "12"), ("11", "2"), ("122", "21")])
        zset = parse_setexpr("(union (pt {1:1}) (pt {3:3}) (pt {10:10}))", reg)
        trunc = Truncation(4, 2)
        b0, b1, b2 = reg.entries
        assert find_separator(b2, [b1]) == 4
        assert containment_counterexample(
            Inter((zset, Atom(b1))), Atom(b2), trunc, XI) is None
        cert = property_a_check(zset, reg)
        assert cert.kind == "SeparatorWitness"
        assert cert.payload["entries"][2] == "{10:10}"
        assert eval_setexpr(XiPoint.of({10: 10}), Diff(Inter((zset, Atom(b1))), Atom(b2)))
        assert check_certificate(cert).ok


def whole_afailure(reg: Registry, trunc: Truncation) -> AFailure:
    """A truncation-valid absorption failure for the whole space.

    Constraining branches jointly cover every truncated position, so the
    constrained part of the truncation collapses to the all-infinite point,
    which lies in any single zero set.
    """
    constraining = [b for b in reg if b.rank <= trunc.T]
    covered = all(
        any(branch_member(b, n) for b in constraining) for n in range(1, trunc.T + 1)
    )
    assert covered, "fixture registry must cover the truncated positions"
    absorbing = [max(reg, key=lambda b: b.rank)]
    return AFailure(Whole(), tuple(constraining), tuple(absorbing))


def cover_registry() -> Registry:
    # first four branches cover positions 1..4; a high-rank absorber on top
    return make_registry(
        [("11", "1"), ("12", "1"), ("2", "1"), ("21", "2"), ("", "2", 9)]
    )


def test_demo_05_whole_space_failure_breaks_at_14():
    # demo 05's failure holds on its truncation (6, 8), where the refuter
    # takes it as input; 14, the code of 222, lies in :2 and in none of the
    # constraining branches, so {14:14} breaks it in the whole space
    reg = make_registry(
        [("", "1"), ("112", "1"), ("12", "1"), ("21", "1"), ("22", "1"), ("", "2", 9)]
    )
    failure = AFailure(Whole(), tuple(e for e in reg if e.rank <= 4), (reg.by_label("b9"),))
    assert containment_counterexample(failure.lhs(), failure.rhs(), Truncation(6, 8), XI) is None
    assert exact_counterexample(failure.lhs(), failure.rhs(), XI) == XiPoint.of({14: 14})
    cert = property_b_refute([failure], 50, reg, Truncation(6, 8)).certificate
    assert cert.kind == "Contradiction" and check_certificate(cert).ok


class TestPropertyBRefute:
    def test_fabricated_afailure_rejected(self):
        reg = reg3()
        bad = AFailure(Whole(), (reg.entries[0],), (reg.entries[2],))
        with pytest.raises(AFailureVerificationError):
            property_b_refute([bad], 50, reg, TR)

    def test_non_covering_zero_sets_yield_counterexample(self):
        reg = reg3()
        b0, b1, b2 = reg.entries
        failures = [
            AFailure(Atom(b0), (), (b0,)),
            AFailure(Atom(b1), (), (b1,)),
        ]
        cert = property_b_refute(failures, 50, reg, TR).certificate
        assert cert.kind == "CounterexamplePoint"
        point = parse_point_literal(cert.payload["point"])
        assert not eval_setexpr(point, Union((Atom(b0), Atom(b1))))

    def test_whole_cover_ends_in_contradiction(self):
        reg = cover_registry()
        failure = whole_afailure(reg, TR)
        cert = property_b_refute([failure], 50, reg, TR).certificate
        assert cert.kind == "Contradiction"
        assert set(cert.payload) == {"afailure_index", "point"}
        point = parse_point_literal(cert.payload["point"])
        refuted = cert.params["afailures"][cert.payload["afailure_index"]]
        # the point witnesses the break: inside the set and its constraint,
        # outside every absorbing zero set
        assert eval_setexpr(point, parse_setexpr(refuted["zset"], reg))
        for b in refuted["constraining"]:
            assert eval_setexpr(point, Atom(reg.by_label(b)))
        for b in refuted["absorbing"]:
            assert not eval_setexpr(point, Atom(reg.by_label(b)))

    def test_two_set_cover_with_genuine_failure(self):
        reg = cover_registry()
        whole_f = whole_afailure(reg, TR)
        extra = AFailure(Atom(reg.entries[0]), (), (reg.entries[0],))
        cert = property_b_refute([extra, whole_f], 50, reg, TR).certificate
        assert cert.kind in ("Contradiction", "CounterexamplePoint")
        assert cert.kind == "Contradiction"

    @pytest.mark.parametrize(
        "cover, kind, payload, chain",
        [
            ("atoms", "CounterexamplePoint", {"point": "{1:2,2:2}"}, []),
            ("whole", "Contradiction", {"afailure_index": 0, "point": "{6:7}"},
             [["b0", "b1", "b2", "b3", "b50"]]),
            ("two-set", "Contradiction", {"afailure_index": 1, "point": "{6:7}"},
             [["b50"], ["b50", "b0", "b1", "b2", "b3", "b51"]]),
            ("demo-05", "Contradiction", {"afailure_index": 0, "point": "{14:15}"},
             [["b0", "b1", "b2", "b3", "b4", "b50", "b51", "b52"]]),
        ],
        ids=["atoms", "whole", "two-set", "demo-05"],
    )
    def test_pinned_certificate_and_chain(self, cover, kind, payload, chain):
        # the atom cover misses a truncated point at step 0, before any
        # cover is built; the other three are chased to a contradiction,
        # the escape adding the absorbing branch's separator against the
        # step's base (6 = code of 22, 14 = code of 222)
        trunc = TR
        if cover == "atoms":
            reg = reg3()
            b0, b1, _ = reg.entries
            failures = [AFailure(Atom(b0), (), (b0,)), AFailure(Atom(b1), (), (b1,))]
        elif cover == "demo-05":
            reg = make_registry(
                [("", "1"), ("112", "1"), ("12", "1"), ("21", "1"), ("22", "1"), ("", "2", 9)]
            )
            trunc = Truncation(6, 8)
            failures = [
                AFailure(Whole(), tuple(e for e in reg if e.rank <= 4), (reg.by_label("b9"),))
            ]
        else:
            reg = cover_registry()
            failures = [whole_afailure(reg, TR)]
            if cover == "two-set":
                failures.insert(0, AFailure(Atom(reg.entries[0]), (), (reg.entries[0],)))
        report = property_b_refute(failures, 50, reg, trunc)
        assert report.certificate.kind == kind and report.certificate.payload == payload
        assert [[b.label for b in step] for step in report.chain] == chain
        assert check_certificate(report.certificate).ok

    def test_chase_descends_to_a_counterexample(self):
        # both claims and the first two steps hold on (1,1); the empty point
        # violates at stage 2, and the chase escapes Z(d), then Z(a), on its
        # way down to stage 0, where the point lies in neither cover set
        reg = parse_registry(["a=222:1@0", "c=21:2@1", "d=211:1@2"])
        a, c, d = reg.entries
        failures = [
            AFailure(Singleton(XiPoint.of({1: 1})), (), (a,)),
            AFailure(Atom(c), (), (d,)),
        ]
        report, lines = _lines_run(
            engines._chase, lambda: property_b_refute(failures, 50, reg, Truncation(1, 1))
        )
        cert = report.certificate
        assert cert.kind == "CounterexamplePoint" and cert.payload == {"point": "{2:6,5:6}"}
        assert [[b.label for b in step] for step in report.chain] == [
            ["b50", "b51"], ["b50", "b51", "b52", "b53"]
        ]
        assert check_certificate(cert).ok
        source, first = inspect.getsourcelines(engines._chase)
        descent = first + next(i for i, line in enumerate(source) if line.strip() == "s -= 1")
        assert descent in lines

    def test_difference_sets_rejected(self):
        reg = reg3()
        z = Diff(Whole(), Atom(reg.entries[0]))
        with pytest.raises(EngineError):
            property_b_refute([AFailure(z, (), (reg.entries[1],))], 50, reg, TR)

    def test_low_gamma_rejected(self):
        reg = reg3()
        f = AFailure(Atom(reg.entries[0]), (), (reg.entries[0],))
        with pytest.raises(EngineError):
            property_b_refute([f], 0, reg, TR)


def _lines_run(function, thunk):
    """``thunk()``, and the line numbers of ``function`` that ran during it."""
    ran = set()

    def trace(frame, event, arg):
        if frame.f_code is not function.__code__:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        return thunk(), ran
    finally:
        sys.settrace(previous)


def increasing_bases(reg: Registry, steps: int) -> list[FilterBase]:
    """Step k of the increasing chain: the whole space and the zero sets of
    the first k entries."""
    return [FilterBase.of([Whole()] + [Atom(e) for e in reg.entries[:k]]) for k in range(steps)]


def decreasing_bases(reg: Registry, steps: int) -> list[FilterBase]:
    """Step k of the decreasing chain: the zero sets of the entries from
    position k on."""
    return [FilterBase.of([Atom(e) for e in reg.entries[k:]]) for k in range(steps)]


class TestChains:
    def test_increasing_one_step(self):
        reg = reg3()
        cert = increasing_chain_engine(reg, 1)
        assert cert.payload["entries"] == ["{1:1}"]

    def test_increasing_membership_biconditional(self):
        reg = reg5()
        steps = 4
        assert check_certificate(increasing_chain_engine(reg, steps)).ok
        bases = increasing_bases(reg, steps)
        for k in range(steps):
            for j, entry in enumerate(reg.entries[:steps]):
                verdict = filter_member(bases[k], Atom(entry))
                assert verdict.proven == (j < k)

    def test_decreasing_membership_biconditional(self):
        reg = reg5()
        steps = 3
        assert check_certificate(decreasing_chain_engine(reg, steps)).ok
        bases = decreasing_bases(reg, steps)
        for k in range(steps):
            for j, entry in enumerate(reg.entries):
                verdict = filter_member(bases[k], Atom(entry))
                assert verdict.proven == (j >= k)

    def test_pair_witness_points_verify(self):
        reg = reg5()
        cert = decreasing_chain_engine(reg, 3)
        # point j answers entry j
        points = {
            alpha.label: parse_point_literal(literal)
            for alpha, literal in zip(reg, cert.payload["entries"])
        }
        for k in range(3):
            for alpha in reg.entries[:k]:
                point = points[alpha.label]
                assert eval_setexpr(point, inter_atoms(reg.entries[k:]))
                assert not eval_setexpr(point, Atom(alpha))

    def test_decreasing_single_step_makes_no_strictness_claim(self):
        reg = reg3()
        assert decreasing_chain_engine(reg, 1).payload["entries"] == []

    def test_insufficient_registry(self):
        with pytest.raises(EngineError):
            increasing_chain_engine(reg3(), 4)


class TestCoverCertificate:
    def test_cover_payload(self):
        reg = Registry()
        cover, cert = cover_certificate(3, 5, reg, [])
        assert cert.kind == "CoverSet"
        ranks = {e.label: e.rank for e in parse_registry(cert.params["registry"])}
        assert cert.payload["cover"] and all(ranks[c] >= 5 for c in cert.payload["cover"])


def reference_separator_entries(obligations):
    """`engines._separator_entries` as it was: each group formed by the
    caller, a fresh atom for every member of every group."""
    listed = []
    for alpha, group in obligations:
        l = find_separator(alpha, group)
        point = XiPoint.of({l: l})
        assert eval_setexpr(point, Diff(inter_atoms(group), Atom(alpha)))
        listed.append(point.literal())
    return listed


def reference_cover(l, gamma, registry, base):
    """`find_cover` as it was: the whole registry scanned at each uncovered
    position, and a minted branch built once to test and again to add."""
    cover = []
    covered = set().union(*(b.elements_upto(l) for b in base))
    for n in range(1, l + 1):
        if n in covered:
            continue
        length = (n + 1).bit_length() - 1
        chosen = next((e for e in registry if e.rank >= gamma and e.element(length) == n), None)
        if chosen is None:
            word, rank = decode_code(n), max(gamma, registry.max_rank() + 1)
            candidates = itertools.chain(
                [(word, "1"), (word, "2")], ((word + "2" * j, "1") for j in itertools.count(1)))
            pre, period = next(c for c in candidates if BranchIndex(*c, rank) not in registry)
            chosen = registry.add_unlabelled(pre, period, rank)
        cover.append(chosen)
        covered.update(chosen.elements_upto(l))
    return cover


def rank_labels(branches):
    return [b.label for b in sorted(branches, key=lambda b: b.rank)]


class TestFormerConstruction:
    def test_certificates_match_the_former_construction(self):
        # seeded registries of 2 to 12 words, some sharing a 70-letter stem
        # that `lcp` reads past its 64-letter heads, and some labels taken
        # that a minted branch's default label may meet
        rng = random.Random(33)

        def word(lo, hi):
            return "".join(rng.choice("12") for _ in range(rng.randint(lo, hi)))

        for _ in range(150):
            stem = "12" * 35 if rng.random() < 0.2 else ""
            specs, seen, labels, rank = [], set(), set(), -1
            for _ in range(rng.randint(2, 12)):
                pre, period = stem + word(0, 6), word(1, 4)
                label = f"b{rng.randint(0, 40)}" if rng.random() < 0.3 else ""
                if BranchIndex(pre, period, 0) not in seen and label not in labels:
                    seen.add(BranchIndex(pre, period, 0))
                    labels.add(label or None)
                    rank += rng.randint(1, 3)
                    specs.append((pre, period, rank, label))
            if len(specs) < 2:
                continue
            r = make_registry(specs)
            entries = r.entries
            steps = rng.randint(1, len(entries))
            params = {"registry": r.to_payload(), "ambient": XI}
            obligations = {
                "no-single-zero-set-in-filter": (
                    check_extendibility_a(r), params,
                    [(a, [b for b in entries if b != a]) for a in entries]),
                "strictly-increasing-chain": (
                    increasing_chain_engine(r, steps), {**params, "steps": steps},
                    [(a, entries[:j]) for j, a in enumerate(entries[:steps])]),
                "strictly-decreasing-chain": (
                    decreasing_chain_engine(r, steps), {**params, "steps": steps},
                    [(a, entries[j + 1:]) for j, a in enumerate(entries[:steps - 1])]),
            }
            for claim, (cert, want_params, pairs) in obligations.items():
                want = Certificate("SeparatorWitness", params=want_params, payload={
                    "claim": claim, "entries": reference_separator_entries(pairs)})
                assert cert.to_json() == want.to_json(), claim

            l, gamma = rng.randint(1, 60), rng.randint(0, r.max_rank() + 2)
            at = sorted(rng.sample(range(len(specs)), rng.randint(0, len(specs))))
            ours, theirs = make_registry(specs), make_registry(specs)
            _, cert = cover_certificate(l, gamma, ours, [ours.entries[i] for i in at])
            base = [theirs.entries[i] for i in at]
            cover = reference_cover(l, gamma, theirs, base)
            want = Certificate("CoverSet", params={
                "registry": theirs.to_payload(), "ambient": XI, "gamma": gamma, "depth": l,
            }, payload={"base": rank_labels(base), "cover": rank_labels(cover)})
            assert cert.to_json() == want.to_json()
