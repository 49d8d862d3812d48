"""Engine tests: extendibility, closure containments, properties, chains."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closure_view import classes, point_verdicts
from zfilterlab.branches import BranchIndex, Registry, branch_member, find_separator, make_registry
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
from zfilterlab.filters import filter_member
from zfilterlab.formats import parse_point_literal, parse_setexpr
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
        assert cert.payload["entries"][0] == {"alpha": "b0", "point": "{1:1}"}

    def test_three_branches_all_points_check_out(self):
        reg = reg3()
        cert = check_extendibility_a(reg)
        assert [e["alpha"] for e in cert.payload["entries"]] == ["b0", "b1", "b2"]
        for e in cert.payload["entries"]:
            point = parse_point_literal(e["point"])
            alpha = reg.by_label(e["alpha"])
            group = [b for b in reg if b != alpha]
            assert eval_setexpr(point, Diff(inter_atoms(group), Atom(alpha)))

    def test_singleton_registry_rejected(self):
        with pytest.raises(EngineError):
            check_extendibility_a(make_registry([("", "1")]))


class TestExtendibilityB:
    def test_zero_set_hypothesis(self):
        reg = reg3()
        alpha0, gamma_b, delta = reg.entries
        cert = check_extendibility_b(Atom(gamma_b), alpha0, reg)
        candidates = {*cert.payload["hypothesis_group"], *cert.payload["cover"]}
        assert set(cert.payload["exceptions"]) <= candidates
        member_labels = {m["beta"] for m in cert.payload["members"]}
        assert delta.label in member_labels

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

    def test_uncertifiable_hypothesis_errors(self):
        reg = reg3()
        # {3:3} lies in Z(b1) ∩ Z(b2), outside Z(b0): 3 is the code of 11
        with pytest.raises(CertificationError, match=r"\{3:3\}"):
            check_extendibility_b(Union(()), reg.entries[0], reg)


class TestContainmentDecreasing:
    def test_empty_subtracted_is_trivial(self):
        reg = reg3()
        report = containment_decreasing([], [reg.entries[1]], 5, reg)
        assert report.cover == []
        target = report.target()
        for p, witness in point_verdicts(report, TR):
            assert witness == p
            assert eval_setexpr(p, target)

    def test_single_subtracted_cover_shape(self):
        reg = make_registry([("", "1"), ("", "2")])
        a1, a2 = reg.entries
        report = containment_decreasing([a1], [a2], 5, reg)
        assert report.depth == report.separators[a1.label] == 1
        assert all(c.rank >= 5 for c in report.cover)
        assert len(report.cover) == 1 and report.cover[0].prefix(1) == "1"

    def test_subtracted_only(self):
        reg = make_registry([("", "1"), ("", "2")])
        a1 = reg.entries[0]
        report = containment_decreasing([a1], [], 0, reg)
        l = report.separators[a1.label]
        assert l == 1
        for n in range(1, l + 1):
            assert any(branch_member(c, n) for c in report.cover)

    def test_every_point_witnessed_inside_target(self):
        reg = reg5()
        f = [reg.entries[0]]
        g = [reg.entries[1], reg.entries[2]]
        report = containment_decreasing(f, g, 7, reg)
        target = report.target()
        shrunken = inter_atoms(list(g) + report.cover)
        seen = 0
        for p, witness in point_verdicts(report, TR):
            seen += 1
            assert eval_setexpr(p, shrunken)
            if witness is p:
                assert eval_setexpr(p, target)
            else:
                for t in witness.terms():
                    assert eval_setexpr(t, target)
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
        report = containment_full_product([], [])
        for p, witness in point_verdicts(report, TR):
            assert witness == p

    def test_escape_position_is_least_separator(self):
        reg = make_registry([("", "1"), ("", "2")])
        a1, a2 = reg.entries
        report = containment_full_product([a1], [a2])
        assert report.separators[a2.label] == 2
        p_inf_class = next(cw for cw in classes(report, TR) if not cw.support)
        assert p_inf_class.escapes == (2,)

    def test_every_point_gets_verified_sequence(self):
        reg = reg5()
        kept = [reg.entries[0]]
        subtracted = [reg.entries[1], reg.entries[3]]
        report = containment_full_product(kept, subtracted)
        target = report.target()
        lhs = inter_atoms(kept)
        checked = 0
        for p, witness in point_verdicts(report, TR):
            checked += 1
            assert p.ambient == PI
            assert eval_setexpr(p, lhs)
            terms = [p] if witness is p else witness.terms()
            for t in terms:
                assert eval_setexpr(t, target)
        total = sum(
            1 for p in enumerate_truncated(TR, PI) if eval_setexpr(p, lhs)
        )
        assert checked == total

    def test_overlap_rejected(self):
        reg = reg3()
        with pytest.raises(EngineError):
            containment_full_product([reg.entries[0]], [reg.entries[0]])


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
    def assert_rule(report, point):
        assert check_certificate(report.certificate).ok
        missed = [
            a for a in report.subtracted
            if not any(branch_member(a, n) for n in point.positions())
        ]
        escapes = sorted({report.separators[a.label] for a in missed})
        terms = multi_escape_sequence(point, escapes, 3).terms() if escapes else [point]
        assert all(eval_setexpr(t, report.target()) for t in terms)
        support = frozenset(point.positions())
        if support and max(support) <= TR.T:
            # the truncated view names the same escapes for this support
            cw = next(cw for cw in classes(report, TR) if cw.support == support)
            assert cw.escapes == tuple(escapes) and cw.self_member == (not missed)

    @given(closure_setups())
    @settings(max_examples=150, deadline=None)
    def test_rank_floor(self, setup):
        reg, kept, subtracted, gamma, positions, values = setup
        report = containment_decreasing(subtracted, kept, gamma, reg)
        owned = [*kept, *report.cover]
        support = sorted(p for p in positions if not any(branch_member(b, p) for b in owned))
        if support:
            assert support[0] > report.depth
        top = max(support, default=0)
        self.assert_rule(report, XiPoint.of({p: top + v for p, v in zip(support, values)}))

    @given(closure_setups())
    @settings(max_examples=150, deadline=None)
    def test_full_product(self, setup):
        _, kept, subtracted, _, positions, values = setup
        report = containment_full_product(kept, subtracted)
        support = sorted(p for p in positions if not any(branch_member(b, p) for b in kept))
        self.assert_rule(report, XiPoint.of({p: 1 + v for p, v in zip(support, values)}, PI))


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


class TestPropertyA:
    def test_whole_has_property(self):
        reg = make_registry([("", "1"), ("", "2")])
        report = property_a_check(Whole(), reg)
        assert report.holds
        assert [e["alpha"] for e in report.entries] == ["b0", "b1"]
        for j, e in enumerate(report.entries):
            point = parse_point_literal(e["point"])
            assert eval_setexpr(point, inter_atoms(reg.entries[:j]))
            assert not eval_setexpr(point, Atom(reg.entries[j]))

    def test_top_zero_set_fails_reflexively(self):
        reg = reg3()
        top = reg.entries[-1]
        report = property_a_check(Atom(top), reg)
        assert not report.holds
        assert report.failure.absorbing == (top,)

    def test_empty_set_fails_immediately(self):
        reg = reg3()
        report = property_a_check(Union(()), reg)
        assert not report.holds
        assert report.failure.constraining == ()
        assert report.failure.absorbing == (reg.entries[0],)

    @given(property_a_setups())
    @settings(max_examples=300, deadline=None)
    def test_one_point_per_entry_serves_every_constraint_set(self, setup):
        reg, zset = setup
        report = property_a_check(zset, reg)
        assert check_certificate(report.certificate).ok
        entries = list(reg)
        if report.holds:
            assert len(report.entries) == len(entries)
            cut = len(entries)
        else:
            beta = report.failure.absorbing[0]
            cut = entries.index(beta)
        # the entries before the first failing one are listed, in rank order
        assert [e["alpha"] for e in report.entries] == [b.label for b in entries[:cut]]
        for j, e in enumerate(report.entries):
            point = parse_point_literal(e["point"])
            # the whole quantifier range: every F below the entry, one by one
            for size in range(j + 1):
                for f_set in itertools.combinations(entries[:j], size):
                    target = Diff(Inter((zset, inter_atoms(f_set))), Atom(entries[j]))
                    assert eval_setexpr(point, target), (e, f_set)
        if not report.holds:
            failure = report.failure
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
        report = property_a_check(zset, reg)
        assert report.holds
        assert report.entries[2] == {"alpha": "b2", "point": "{10:10}"}
        assert eval_setexpr(XiPoint.of({10: 10}), Diff(Inter((zset, Atom(b1))), Atom(b2)))
        assert check_certificate(report.certificate).ok


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


class TestChains:
    def test_increasing_one_step(self):
        reg = reg3()
        report = increasing_chain_engine(reg, 1)
        assert len(report.bases) == 1
        assert report.certificate.payload["entries"] == [
            {"alpha": "b0", "point": "{1:1}"}
        ]

    def test_increasing_membership_biconditional(self):
        reg = reg5()
        steps = 4
        report = increasing_chain_engine(reg, steps)
        for k in range(steps):
            for j, entry in enumerate(reg.entries[:steps]):
                verdict = filter_member(report.bases[k], Atom(entry))
                assert verdict.proven == (j < k)

    def test_decreasing_membership_biconditional(self):
        reg = reg5()
        steps = 3
        report = decreasing_chain_engine(reg, steps)
        for k in range(steps):
            for j, entry in enumerate(reg.entries):
                verdict = filter_member(report.bases[k], Atom(entry))
                assert verdict.proven == (j >= k)

    def test_pair_witness_points_verify(self):
        reg = reg5()
        report = decreasing_chain_engine(reg, 3)
        points = {
            e["alpha"]: parse_point_literal(e["point"])
            for e in report.certificate.payload["entries"]
        }
        for k in range(3):
            for alpha in reg.entries[:k]:
                point = points[alpha.label]
                assert eval_setexpr(point, inter_atoms(reg.entries[k:]))
                assert not eval_setexpr(point, Atom(alpha))

    def test_decreasing_single_step_makes_no_strictness_claim(self):
        reg = reg3()
        report = decreasing_chain_engine(reg, 1)
        assert len(report.bases) == 1
        assert report.certificate.payload["entries"] == []

    def test_insufficient_registry(self):
        with pytest.raises(EngineError):
            increasing_chain_engine(reg3(), 4)


class TestCoverCertificate:
    def test_cover_payload(self):
        reg = Registry()
        cover, cert = cover_certificate(3, 5, reg, [])
        assert cert.kind == "CoverSet"
        ranks = {e["label"]: e["rank"] for e in cert.params["registry"]}
        assert cert.payload["cover"] and all(ranks[c] >= 5 for c in cert.payload["cover"])
