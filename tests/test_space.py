"""Point validity, zero-set membership, enumeration, sequences, closure checks."""

import itertools
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfilterlab import space
from zfilterlab.branches import BranchIndex, branch_member, make_registry
from zfilterlab.formats import parse_setexpr, setexpr_text
from zfilterlab.space import (
    PI,
    XI,
    ApproxSequence,
    Atom,
    Diff,
    Inter,
    SetExpr,
    Singleton,
    SpaceError,
    Truncation,
    Union,
    SplitBoundError,
    Whole,
    XiPoint,
    class_point_count,
    class_points,
    closure_member,
    containment_violations,
    empty_expr,
    enumerate_truncated,
    eval_on_support,
    eval_setexpr,
    exact_counterexample,
    in_zero_set,
    inter_atoms,
    minimal_sublist,
    multi_escape_sequence,
    support_classes,
    union_atoms,
    validate_point,
)

ALL1 = BranchIndex("", "1", 0, "a1")
ALL2 = BranchIndex("", "2", 1, "a2")
ONE_THEN_2 = BranchIndex("1", "2", 2, "m")
ONE_TWO_THEN_1 = BranchIndex("12", "1", 3, "t")

P_INF = XiPoint.of({})


class TestValidity:
    def test_examples(self):
        assert validate_point(P_INF)
        assert validate_point(XiPoint.of({2: 3}))
        assert not validate_point(XiPoint.of({3: 2}))

    def test_product_ambient_is_free(self):
        assert validate_point(XiPoint.of({3: 2}, PI))

    def test_defining_level_is_max_position(self):
        # valid iff coordinates up to k are >= k and later ones infinite,
        # witnessed by k = max support position
        for p in enumerate_truncated(Truncation(6, 8), XI):
            k = p.max_position()
            assert all(v >= k for v in p.values())
            assert all(pos <= k for pos in p.positions())

    def test_structural_errors(self):
        with pytest.raises(SpaceError):
            XiPoint(((1, 2), (1, 3)))
        with pytest.raises(SpaceError):
            XiPoint.of({0: 1})
        with pytest.raises(SpaceError, match="^unknown ambient 'zz'$"):
            XiPoint.of({1: 1}, "zz")
        with pytest.raises(SpaceError, match="^truncation bounds must be nonnegative$"):
            Truncation(2, -1)
        # refused before any point is built, whether or not a point violates
        for lhs in (Atom(ALL1), Whole()):
            with pytest.raises(SpaceError, match="unknown ambient"):
                list(containment_violations(lhs, Atom(ALL1), Truncation(2, 3), "zz"))


class TestZeroSets:
    def test_examples(self):
        assert in_zero_set(P_INF, ALL1)
        assert in_zero_set(XiPoint.of({2: 3}), ALL1)  # 2 not in {1,3,7,...}
        assert not in_zero_set(XiPoint.of({1: 1}), ALL1)

    def test_invalid_point_rejected(self):
        with pytest.raises(SpaceError):
            in_zero_set(XiPoint.of({3: 2}), ALL1)

    def test_agrees_with_branch_oracle(self):
        for p in enumerate_truncated(Truncation(5, 6), XI):
            for b in (ALL1, ALL2, ONE_THEN_2):
                expected = all(not branch_member(b, pos) for pos in p.positions())
                assert in_zero_set(p, b) == expected


class TestEval:
    def test_examples(self):
        assert eval_setexpr(P_INF, Whole())
        assert not eval_setexpr(P_INF, Diff(Whole(), Whole()))
        p = XiPoint.of({1: 1})
        assert eval_setexpr(p, Union((Atom(ALL1), Atom(ALL2))))

    def test_singleton(self):
        p = XiPoint.of({2: 3})
        assert eval_setexpr(p, Singleton(XiPoint.of({2: 3})))
        assert not eval_setexpr(P_INF, Singleton(XiPoint.of({2: 3})))

    def test_a_form_identity(self):
        # membership in an intersection of atoms is a pure support condition
        gens = [ALL1, ONE_THEN_2]
        expr = inter_atoms(gens)
        for p in enumerate_truncated(Truncation(5, 6), XI):
            expected = all(
                not branch_member(b, pos) for b in gens for pos in p.positions()
            )
            assert eval_setexpr(p, expr) == expected

    def test_support_eval_matches_pointwise(self):
        exprs = [
            inter_atoms([ALL1, ALL2]),
            union_atoms([ONE_THEN_2]),
            Diff(Whole(), Atom(ALL1)),
            Singleton(XiPoint.of({2: 2})),
            Singleton(P_INF),
        ]
        trunc = Truncation(4, 5)
        for support in support_classes(trunc):
            pts = [
                p
                for p in enumerate_truncated(trunc, XI)
                if frozenset(p.positions()) == support
            ]
            for e in exprs:
                verdict = eval_on_support(support, e)
                if verdict is None:
                    continue
                assert all(eval_setexpr(p, e) == verdict for p in pts)


class TestEnumeration:
    def test_degenerate_cases(self):
        assert enumerate_truncated(Truncation(0, 9), XI) == [P_INF]
        pts = enumerate_truncated(Truncation(1, 1), XI)
        assert pts == [P_INF, XiPoint.of({1: 1})]

    def test_trivial_count_t2_v2(self):
        pts = enumerate_truncated(Truncation(2, 2), XI)
        expected = {
            P_INF,
            XiPoint.of({1: 1}),
            XiPoint.of({1: 2}),
            XiPoint.of({2: 2}),
            XiPoint.of({1: 2, 2: 2}),
        }
        assert set(pts) == expected and len(pts) == 5

    def test_deterministic_order(self):
        a = enumerate_truncated(Truncation(3, 4), XI)
        b = enumerate_truncated(Truncation(3, 4), XI)
        assert a == b
        sizes = [len(p.support) for p in a]
        assert sizes == sorted(sizes)

    def test_class_counts_match(self):
        trunc = Truncation(4, 6)
        for ambient in (XI, PI):
            pts = enumerate_truncated(trunc, ambient)
            for support in support_classes(trunc):
                got = sum(1 for p in pts if frozenset(p.positions()) == support)
                assert got == class_point_count(support, trunc, ambient)

    def test_all_points_valid(self):
        assert all(validate_point(p) for p in enumerate_truncated(Truncation(4, 5), XI))

    def test_a_support_past_the_truncation_has_no_points(self):
        for ambient in (XI, PI):
            assert class_point_count(frozenset({2, 5}), Truncation(4, 6), ambient) == 0
            assert list(class_points(frozenset({2, 5}), Truncation(4, 6), ambient)) == []


class TestApproxSequence:
    def test_minimal_start_from_infinity(self):
        seq = multi_escape_sequence(P_INF, (1,), 3)
        assert seq.start == 1
        assert seq.terms() == [
            XiPoint.of({1: 2}),
            XiPoint.of({1: 3}),
            XiPoint.of({1: 4}),
        ]

    def test_start_forced_by_existing_values(self):
        seq = multi_escape_sequence(XiPoint.of({2: 3}), (1,), 2)
        assert seq.start == 3
        assert seq.terms() == [XiPoint.of({1: 4, 2: 3}), XiPoint.of({1: 5, 2: 3})]

    def test_position_in_support_rejected(self):
        with pytest.raises(SpaceError):
            multi_escape_sequence(XiPoint.of({2: 3}), (2,), 2)

    def test_terms_valid_and_single_coordinate_change(self):
        base = XiPoint.of({3: 7})
        seq = multi_escape_sequence(base, (2,), 5)
        for t in seq.terms():
            assert validate_point(t)
            changed = [
                pos
                for pos in set(t.positions()) | set(base.positions())
                if t.coordinate(pos) != base.coordinate(pos)
            ]
            assert changed == [2]

    def test_term_index_out_of_range(self):
        seq = multi_escape_sequence(P_INF, (1,), 3)
        for r in (0, 4):
            with pytest.raises(SpaceError, match=f"^term index {r} out of range 1..3$"):
                seq.term(r)

    def test_eventual_prefix_agreement(self):
        # on any fixed prefix, far-out terms agree with the base off the
        # varied position only by carrying ever larger values there
        base = XiPoint.of({4: 9})
        seq = multi_escape_sequence(base, (2,), 10)
        last = seq.term(10)
        assert last.coordinate(2) == seq.start + 10
        assert last.coordinate(4) == 9

    def test_multi_escape_validity_guard(self):
        with pytest.raises(SpaceError, match="leaves the space"):
            multi_escape_sequence(XiPoint.of({2: 3}), [5], 2)

    def test_a_sequence_checks_its_own_terms(self):
        # built directly, with a start of its own: the first term {2:3, 5:6}
        # has a value below its width 5
        with pytest.raises(SpaceError, match="leaves the space"):
            ApproxSequence(XiPoint.of({2: 3}), (5,), 5, 2)
        # a base that is no point of xi leaves it at every term
        with pytest.raises(SpaceError, match="leaves the space"):
            ApproxSequence(XiPoint.of({3: 2}), (1,), 5, 2)
        # in pi every finite-support point is valid
        pi_base = XiPoint.of({3: 2}, PI)
        assert ApproxSequence(pi_base, (1,), 5, 2).term(2) == XiPoint.of({1: 7, 3: 2}, PI)


class TestAFormContainment:
    """Pure intersection forms through the exact rule: ⋂U ⊆ ⋂V exactly when
    every branch of V occurs in U."""

    @staticmethod
    def witness(u, v, ambient=XI):
        return exact_counterexample(inter_atoms(u), inter_atoms(v), ambient)

    def test_examples(self):
        assert self.witness([ALL1, ALL2], [ALL1]) is None
        assert self.witness([ALL1], [ALL2]) is not None
        assert self.witness([ALL1, ONE_THEN_2], [ALL1, ONE_THEN_2]) is None

    def test_witness_point(self):
        # 2, the code of the word 2, is an element of :2 and not of :1
        for ambient in (XI, PI):
            w = self.witness([ALL1], [ALL2], ambient)
            assert w == XiPoint.of({2: 2}, ambient)
            assert eval_setexpr(w, inter_atoms([ALL1]))
            assert not eval_setexpr(w, inter_atoms([ALL2]))

    def test_agrees_with_exhaustive_oracle_small(self):
        branches = [ALL1, ALL2, ONE_THEN_2]
        trunc = Truncation(4, 5)
        pts = enumerate_truncated(trunc, XI)
        gen_sets = [
            list(c) for r in range(0, 3) for c in itertools.combinations(branches, r)
        ]
        for u in gen_sets:
            for v in gen_sets:
                brute = all(
                    eval_setexpr(p, inter_atoms(v))
                    for p in pts
                    if eval_setexpr(p, inter_atoms(u))
                )
                w = self.witness(u, v)
                assert (w is None) == (set(v) <= set(u))
                if w is None:
                    assert brute
                else:
                    assert eval_setexpr(w, inter_atoms(u))
                    assert not eval_setexpr(w, inter_atoms(v))


# words sharing prefixes of up to four letters, so that some atoms' private
# elements lie past every truncation the differential below reads
_EXACT_BRANCHES = [
    BranchIndex(pre, period, rank)
    for rank, (pre, period) in enumerate([
        ("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1"), ("11", "2"),
        ("121", "2"), ("1111", "2"), ("1111", "12"), ("22", "1"), ("212", "1"), ("1112", "1"),
    ])
]


def _exact_setexprs(ambient):
    points = st.dictionaries(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=8),
        max_size=2,
    ).map(lambda m: XiPoint.of(m, ambient))
    leaves = st.one_of(
        st.sampled_from(_EXACT_BRANCHES).map(Atom),
        st.sampled_from(_EXACT_BRANCHES).map(Atom),
        points.map(Singleton),
        st.just(Whole()),
    )

    def nodes(kids):
        parts = st.lists(kids, max_size=3).map(tuple)
        return st.one_of(parts.map(Union), parts.map(Inter), st.builds(Diff, kids, kids))

    return st.recursive(leaves, nodes, max_leaves=8)


_EXACT_CLAIMS = st.sampled_from([XI, PI]).flatmap(
    lambda ambient: st.tuples(st.just(ambient), _exact_setexprs(ambient), _exact_setexprs(ambient))
)


def _truth_table(expr, index, full):
    """``expr`` on points that are no singleton, as a 2**k-bit integer: bit j
    is the verdict under the assignment that misses atom i exactly when bit
    i of j is set."""
    kind = type(expr)
    if kind is Atom:
        i = index[expr.branch]
        return sum(1 << j for j in range(full.bit_length()) if j >> i & 1)
    if kind is Whole:
        return full
    if kind is Singleton:
        return 0
    if kind is Union:
        out = 0
        for part in expr.parts:
            out |= _truth_table(part, index, full)
        return out
    if kind is Inter:
        out = full
        for part in expr.parts:
            out &= _truth_table(part, index, full)
        return out
    return _truth_table(expr.left, index, full) & ~_truth_table(expr.right, index, full)


def _truth_table_holds(lhs, rhs, ambient) -> bool:
    """A second exact decision: the empty and singleton points, then one
    truth table per side over independent atoms."""
    atoms = dict.fromkeys(lhs.atoms() + rhs.atoms())
    assert len(atoms) <= 12
    points = [XiPoint.of({}, ambient)]
    points += [XiPoint(q.support, ambient) for q in lhs.singleton_points() + rhs.singleton_points()]
    for p in points:
        if validate_point(p) and eval_setexpr(p, lhs) and not eval_setexpr(p, rhs):
            return False
    index = {a: i for i, a in enumerate(atoms)}
    full = (1 << (1 << len(atoms))) - 1
    return not _truth_table(lhs, index, full) & ~_truth_table(rhs, index, full) & full


class TestExactContainment:
    @given(_EXACT_CLAIMS)
    @settings(max_examples=200, deadline=None)
    # a singleton on both sides and a difference, in pi
    @example((PI, Diff(Whole(), Singleton(XiPoint.of({1: 3}, PI))), Atom(ALL1)))
    # a singleton that is no point of xi
    @example((XI, Union((Singleton(XiPoint.of({2: 1})), Atom(ALL2))), empty_expr()))
    # a violation off the one singleton that hits no atom
    @example((XI, Diff(Atom(ALL1), Singleton(P_INF)), empty_expr()))
    def test_matches_truth_tables_and_truncations(self, claim):
        ambient, lhs, rhs = claim
        witness = exact_counterexample(lhs, rhs, ambient)
        assert (witness is None) == _truth_table_holds(lhs, rhs, ambient)
        if witness is not None:
            assert witness.ambient == ambient and validate_point(witness)
            assert eval_setexpr(witness, lhs) and not eval_setexpr(witness, rhs)
            return
        for tv in ((4, 6), (8, 10), (12, 16)):
            assert next(containment_violations(lhs, rhs, Truncation(*tv), ambient), None) is None

    def test_finds_a_failure_past_every_truncation(self):
        # 1111:2 and 1111:12 share the elements 1, 3, 7 and 15, the codes of
        # 1, 11, 111 and 1111, so Z(1111:2) ⊆ Z(1111:12) holds up to position
        # 30; 31, the code of 11111, is the first element of 1111:12 only
        a, b = _EXACT_BRANCHES[7], _EXACT_BRANCHES[8]
        assert next(containment_violations(Atom(a), Atom(b), Truncation(12, 16), XI), None) is None
        assert exact_counterexample(Atom(a), Atom(b), XI) == XiPoint.of({31: 31})

    def test_unknown_ambient(self):
        with pytest.raises(SpaceError):
            exact_counterexample(Whole(), Whole(), "zz")

    def test_nine_pair_intersection_lies_in_whole(self):
        # nine two-atom unions over distinct atoms; ¬Whole reads False
        # before any atom is assigned, so no split is made
        words = [format(i, "05b").translate(str.maketrans("01", "12")) for i in range(18)]
        atoms = [Atom(BranchIndex(w, "1", i)) for i, w in enumerate(words)]
        lhs = Inter(tuple(Union(pair) for pair in zip(atoms[::2], atoms[1::2])))
        with mock.patch.object(space, "MAX_SPLITS", 0):
            assert exact_counterexample(lhs, Whole(), XI) is None

    def test_settling_decides_an_atom_indexed_last(self):
        # ⋂(Z(a_i) ∪ Z(b_i)) ∩ Z(c) ⊆ Z(c) over 13 pairs, c the last atom:
        # both of c's values read False, so settling misses it and the claim
        # holds with no split, where splitting in index order alone makes
        # about 3^13; 20 pairs (41 atoms) read 83 lanes, past one machine word
        for length, pairs in ((5, 13), (6, 20)):
            words = ["".join(w) for w in itertools.product("12", repeat=length)][:2 * pairs + 1]
            atoms = [Atom(BranchIndex(w, "1", i)) for i, w in enumerate(words)]
            unions = (Union(pair) for pair in zip(atoms[:-1:2], atoms[1::2]))
            with mock.patch.object(space, "MAX_SPLITS", 0):
                assert exact_counterexample(Inter((*unions, atoms[-1])), atoms[-1], XI) is None

    def test_split_bound(self):
        # pigeonhole: no way to put each of six pigeons in one of five holes
        # with no hole holding two, which a splitting search settles only
        # after hundreds of splits; five pigeons in four holes take fewer
        with pytest.raises(SplitBoundError, match="MAX_SPLITS = 256"):
            exact_counterexample(*_pigeonhole(6, 5), XI)
        assert exact_counterexample(*_pigeonhole(5, 4), XI) is None

    def test_a_witness_failing_its_own_check_is_an_error(self):
        # position 2 lies outside the all-1 branch, so a "separator" there
        # leaves the witness inside Z(:1)
        with mock.patch.object(space, "find_separator", lambda alpha, group: 2):
            with pytest.raises(AssertionError, match=r"witness \{2:2\} failed its own check"):
                exact_counterexample(Whole(), Atom(ALL1), XI)


class TestMinimalSublist:
    """`minimal_sublist` under upward-closed tests: a list works when it
    holds one of the drawn sets of positions, or all of them."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_minimal_in_linear_calls(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6), label="n")
        members = st.sets(st.integers(0, n - 1)) if n else st.just(set())
        family = [*data.draw(st.lists(members, max_size=4), label="family"), set(range(n))]
        calls = []

        def works(sub):
            calls.append(sub)
            return any(m <= set(sub) for m in family)

        kept = minimal_sublist(range(n), works)
        assert len(calls) <= max(2 * n - 1, 0)
        assert kept == sorted(kept) and works(kept)
        assert not any(works(kept[:i] + kept[i + 1:]) for i in range(len(kept)))
        # the upward search, by size and then order, that the rule replaced
        smallest = next(
            c for k in range(n + 1) for c in itertools.combinations(range(n), k) if works(list(c))
        )
        assert len(kept) >= len(smallest)

    def test_minimal_need_not_be_smallest(self):
        # A ∩ B works and so does C: the prefix [A, B] works first and
        # loses neither member, where the upward search found [C]
        works = lambda sub: {"A", "B"} <= set(sub) or "C" in sub
        assert minimal_sublist("ABC", works) == ["A", "B"]

    def test_the_prefix_keeps_its_last_member_untested(self):
        calls = []
        works = lambda sub: calls.append(sub) or "B" in sub
        assert minimal_sublist("ABC", works) == ["B"]
        assert calls == [[], ["A"], ["A", "B"], ["B"]]


def _pigeonhole(pigeons, holes):
    """``(lhs, rhs)``: atom ``x[p, h]`` says pigeon ``p`` sits in hole ``h``;
    ``lhs`` puts every pigeon in some hole and ``rhs`` two in one hole."""
    words = ["".join(w) for w in itertools.product("12", repeat=5)]
    x = {
        (p, h): Atom(BranchIndex(words[p * holes + h], "1", p * holes + h))
        for p in range(pigeons)
        for h in range(holes)
    }
    lhs = Inter(tuple(Union(tuple(x[p, h] for h in range(holes))) for p in range(pigeons)))
    rhs = Union(tuple(
        Inter((x[p, h], x[q, h]))
        for h in range(holes)
        for p, q in itertools.combinations(range(pigeons), 2)
    ))
    return lhs, rhs


@given(
    st.dictionaries(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=9),
        max_size=3,
    )
)
@settings(max_examples=80)
def test_validity_criterion_is_value_floor(mapping):
    p = XiPoint.of(mapping, XI)
    expected = all(v >= max(mapping) for v in mapping.values()) if mapping else True
    assert validate_point(p) == expected


_BRANCHES = [ALL1, ALL2, ONE_THEN_2, ONE_TWO_THEN_1]


def _setexprs(ambient, more_points=st.nothing()):
    # singleton values of at least 4 keep most singletons valid and inside
    # the truncation, so value-sensitive support classes come up often
    points = st.dictionaries(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=4, max_value=6),
        max_size=2,
    ).map(lambda m: XiPoint.of(m, ambient))
    leaves = st.one_of(
        st.sampled_from(_BRANCHES).map(Atom),
        points.map(Singleton),
        more_points.map(Singleton),
        st.just(Whole()),
    )

    def nodes(kids):
        parts = st.lists(kids, max_size=3).map(tuple)
        return st.one_of(
            parts.map(Union),
            parts.map(Inter),
            st.builds(Diff, kids, kids),
        )

    return st.recursive(leaves, nodes, max_leaves=6)


# the full product at (5,6) has 7**5 points, too many to enumerate per example
_CLAIMS = st.sampled_from([XI, PI]).flatmap(
    lambda ambient: st.tuples(
        st.just(ambient),
        _setexprs(ambient),
        _setexprs(ambient),
        st.builds(
            Truncation,
            st.integers(min_value=0, max_value=5 if ambient == XI else 4),
            st.integers(min_value=0, max_value=6),
        ),
    )
)


# every word of both strategies, so that each atom parses to its entry
_TEXT_REGISTRY = make_registry([(b.pre, b.period) for b in _EXACT_BRANCHES])


@given(st.sampled_from([XI, PI]).flatmap(lambda ambient: st.tuples(
    st.just(ambient), st.one_of(_exact_setexprs(ambient), _setexprs(ambient)))))
@settings(max_examples=60, deadline=None)
@example((PI, Diff(Union((Atom(ALL1), Singleton(XiPoint.of({2: 1}, PI)))), Inter((Whole(),)))))
def test_setexpr_text_round_trips(case):
    ambient, expr = case
    assert parse_setexpr(setexpr_text(expr), _TEXT_REGISTRY, ambient) == expr


_P14 = XiPoint.of({1: 4})


@given(_CLAIMS)
@example((XI, Singleton(XiPoint.of({1: 4})), Atom(ALL1), Truncation(2, 5)))
@example((XI, Diff(Whole(), Singleton(XiPoint.of({1: 4}))), Atom(ALL1), Truncation(2, 5)))
# a singleton that is no point of xi: its value lies below its position
@example((XI, Union((Singleton(XiPoint.of({2: 1})), Atom(ALL2))), empty_expr(), Truncation(2, 5)))
# a singleton whose value lies above V, in either ambient
@example((PI, Union((Singleton(XiPoint.of({1: 7}, PI)), Atom(ALL1))), empty_expr(), Truncation(2, 5)))
@example((XI, Singleton(XiPoint.of({1: 6})), empty_expr(), Truncation(2, 5)))
# V equal to the largest position: the class {2} is the singleton alone
@example((XI, Union((Singleton(XiPoint.of({2: 2})), Atom(ALL2))), Atom(ALL2), Truncation(2, 2)))
# the same singleton on both sides
@example((XI, Union((Singleton(_P14), Atom(ALL1))), Diff(Atom(ALL2), Singleton(_P14)),
          Truncation(2, 5)))
# a generic violation with a non-violating singleton in the middle of the class
@example((PI, Diff(Whole(), Singleton(XiPoint.of({1: 3}, PI))), Atom(ALL1), Truncation(1, 5)))
# two violating singletons in one class whose generic point does not violate
@example((XI, Union((Singleton(XiPoint.of({1: 6})), Singleton(_P14))), Atom(ALL1),
          Truncation(2, 6)))
# a singleton whose support lies past T
@example((XI, Singleton(XiPoint.of({3: 4})), empty_expr(), Truncation(2, 5)))
# the empty-support singleton
@example((PI, Singleton(XiPoint.of({}, PI)), empty_expr(), Truncation(2, 3)))
# violations only on supports of positions that lie in no atom
@example((XI, Diff(Whole(), Singleton(P_INF)), Diff(Whole(), Atom(ALL2)), Truncation(2, 5)))
@settings(max_examples=150, deadline=None)
def test_containment_violations_match_reference_evaluator(claim):
    ambient, lhs, rhs, trunc = claim
    expected = [
        p
        for p in enumerate_truncated(trunc, ambient)
        if eval_setexpr(p, lhs) and not eval_setexpr(p, rhs)
    ]
    assert list(containment_violations(lhs, rhs, trunc, ambient)) == expected


# the full product stops at T = 4 for the same reason as in _CLAIMS; the
# extra positions past T reach the branches' elements 7, 10, 11, 14, 15, 22,
# 23, 30 and 31
@given(
    st.sampled_from([XI, PI]).flatmap(
        lambda ambient: st.tuples(
            st.just(ambient),
            _setexprs(ambient),
            st.integers(min_value=0, max_value=5 if ambient == XI else 4),
        )
    ).flatmap(
        lambda case: st.tuples(
            *map(st.just, case),
            st.frozensets(st.integers(min_value=case[2] + 1, max_value=32), min_size=1, max_size=2),
        )
    )
)
# a support verdict on the left with an undecided singleton on the right
@example((XI, Diff(Whole(), Singleton(_P14)), 3, frozenset({7})))
@example((PI, Inter((Atom(ALL2), Diff(Atom(ALL2), Singleton(XiPoint.of({1: 4}, PI))))), 3,
          frozenset({14})))
# a singleton whose support holds an extra position
@example((XI, Diff(Atom(ALL1), Singleton(XiPoint.of({2: 4, 4: 4}))), 2, frozenset({4, 15})))
# the empty-point singleton, where the generic verdict and the empty point's differ
@example((PI, Union((Singleton(XiPoint.of({}, PI)), Diff(Whole(), Atom(ALL1)))), 2,
          frozenset({7})))
@settings(max_examples=150, deadline=None)
def test_eval_on_support_matches_reference_evaluator(case):
    ambient, expr, T, extra = case
    trunc = Truncation(T, T + 1)
    index = space._index(expr.atoms())
    owners = space._owners(index, T, extra)
    singletons = {q.support for q in expr.singleton_points()}
    value_sensitive = {frozenset(p for p, _ in s) for s in singletons} - {frozenset()}
    above = 1 + max((v for s in singletons for _, v in s), default=0)
    positions = [*range(1, T + 1), *sorted(extra)]
    for support in map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(positions, n) for n in range(len(positions) + 1)
    )):
        # the mask rule is the verdict at a point of the support that is no
        # singleton: every value at least every position and above every
        # singleton value (only the empty point can still be a singleton)
        point = XiPoint.of(dict.fromkeys(support, max([above, *support])), ambient)
        if point.support not in singletons:
            generic = space._verdicts(expr, [space._hits(owners, support)], index) == 1
            assert generic == eval_setexpr(point, expr)
        verdict = eval_on_support(support, expr)
        if verdict is None:
            assert support in value_sensitive
            continue
        if support <= set(range(1, T + 1)):
            points = list(class_points(support, trunc, ambient))
        else:
            # one valid point of a support past T: every value at its width
            points = [XiPoint.of(dict.fromkeys(support, max(support)), ambient)]
        for p in points:
            assert eval_setexpr(p, expr) == verdict


@given(
    st.lists(st.frozensets(st.integers(min_value=1, max_value=8)), max_size=6),
    st.lists(st.integers(min_value=1, max_value=8), max_size=8, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_hit_patterns_match_brute_force(element_sets, positions):
    owners = {}
    for i, elements in enumerate(element_sets):
        for p in elements:
            owners[p] = owners.get(p, 0) | 1 << i

    def hits(support):
        return sum(1 << i for i, s in enumerate(element_sets) if not s.isdisjoint(support))

    reps = space._hit_patterns(owners, positions)
    every = {
        hits(combo)
        for n in range(1, len(positions) + 1)
        for combo in itertools.combinations(positions, n)
    }
    # one representative per reachable mask, each a nonempty support drawn
    # from the positions that hits exactly its mask
    assert sorted(reps) == sorted(every)
    assert all(rep and set(rep) <= set(positions) for rep in reps.values())
    assert all(hits(rep) == mask == space._hits(owners, rep) for mask, rep in reps.items())


def _reference_reading(expr, hit, miss, index):
    """``expr`` at the generic points of the supports that hit the atoms in
    mask ``hit`` and miss those in ``miss``, one assignment at a time: the
    scalar reference for `space._read`'s lanes, or None when the free atoms
    decide.  ``miss = ~hit`` frees none."""
    kind = type(expr)
    if kind is Atom:
        bit = 1 << index[expr.branch]
        return False if hit & bit else True if miss & bit else None
    if kind is Inter or kind is Union:
        # an intersection's first False part decides it, a union's first True
        decisive = kind is Union
        verdict = not decisive
        for part in expr.parts:
            v = _reference_reading(part, hit, miss, index)
            if v is decisive:
                return v
            if v is None:
                verdict = None
        return verdict
    if kind is Diff:
        left = _reference_reading(expr.left, hit, miss, index)
        if left is False:
            return False
        right = _reference_reading(expr.right, hit, miss, index)
        return False if right else left if right is False else None
    if kind is Whole or kind is Singleton:
        return kind is Whole
    raise SpaceError(f"unknown expression node {expr!r}")


def _lane_readings(expr, assignments, index):
    """`space._read` with one lane per ``(hit, miss)`` assignment: each
    lane's True, False or None.  No lane may read both."""
    every = (1 << len(assignments)) - 1
    lanes = {
        a: (sum(1 << j for j, (_, miss) in enumerate(assignments) if miss >> i & 1),
            sum(1 << j for j, (hit, _) in enumerate(assignments) if hit >> i & 1))
        for a, i in index.items()
    }
    true, false = space._read(expr, lanes, every)
    assert not true & false and not (true | false) & ~every
    return [True if true >> j & 1 else False if false >> j & 1 else None
            for j in range(len(assignments))]


def _assignments(index):
    """One ``(hit, miss)`` per atom state list drawn from "h", "m", "f"."""
    states = st.lists(st.sampled_from("hmf"), min_size=len(index), max_size=len(index))
    return states.map(lambda states: tuple(
        sum(1 << i for i, s in enumerate(states) if s == state) for state in "hm"))


@given(st.sampled_from([XI, PI]).flatmap(_setexprs), st.data())
@settings(max_examples=200, deadline=None)
def test_a_decided_partial_reading_holds_at_every_completion(expr, data):
    index = space._index(expr.atoms())
    hit, miss = data.draw(_assignments(index))
    free = [1 << i for i in range(len(index)) if not (hit | miss) >> i & 1]
    completions = [hit | sum(bits) for n in range(len(free) + 1)
                   for bits in itertools.combinations(free, n)]
    readings = set(_lane_readings(expr, [(h, ~h) for h in completions], index))
    # a full assignment is always decided, and a partial one only when
    # every completion agrees
    assert readings <= {True, False}
    verdict, = _lane_readings(expr, [(hit, miss)], index)
    assert verdict is not None or free
    if verdict is not None:
        assert readings == {verdict}


@given(st.sampled_from([XI, PI]).flatmap(_setexprs))
@settings(max_examples=200, deadline=None)
def test_satisfy_finds_a_true_mask_exactly_when_one_exists(expr):
    index = space._index(expr.atoms())
    masks = range(1 << len(index))
    true = space._verdicts(expr, masks, index)
    true_masks = [h for h in masks if true >> h & 1]
    mask = space._satisfy(expr, index)
    assert (mask is None) == (not true_masks)
    assert mask is None or mask in true_masks


@given(st.sampled_from([XI, PI]).flatmap(_setexprs), st.data())
@settings(max_examples=200, deadline=None)
def test_each_read_lane_is_the_reference_reading_of_its_assignment(expr, data):
    # full and partial assignments mixed, up to 80 lanes: past one machine
    # word when there are many
    index = space._index(expr.atoms())
    full = st.integers(min_value=0, max_value=(1 << len(index)) - 1).map(lambda h: (h, ~h))
    assignments = data.draw(st.lists(st.one_of(full, _assignments(index)), max_size=80))
    assert _lane_readings(expr, assignments, index) == [
        _reference_reading(expr, hit, miss, index) for hit, miss in assignments]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_verdicts_past_one_machine_word_match_reference_evaluator(data):
    # seven atoms, each the only one holding its element 7..13 (the codes of
    # 111 ... 221), so all 128 hit masks are reachable within T = 14
    words = ["".join(w) for w in itertools.product("12", repeat=3)][:7]
    atoms = [BranchIndex(w, "1", i) for i, w in enumerate(words)]
    expr = data.draw(st.recursive(
        st.one_of(st.sampled_from(atoms).map(Atom), st.just(Whole()),
                  st.just(Singleton(XiPoint.of({7: 14, 8: 14})))),
        lambda kids: st.one_of(
            st.lists(kids, max_size=4).map(lambda parts: Union(tuple(parts))),
            st.lists(kids, max_size=4).map(lambda parts: Inter(tuple(parts))),
            st.builds(Diff, kids, kids),
        ),
        max_leaves=12,
    ))
    index = space._index(atoms)
    owners = space._owners(index, 14)
    patterns = space._hit_patterns(owners, range(1, 15))
    assert len(patterns) == 128
    true = space._verdicts(expr, list(patterns), index)
    assert true >> 128 == 0
    for j, (mask, support) in enumerate(patterns.items()):
        # a generic point of a support that hits the lane's mask
        assert space._hits(owners, support) == mask
        point = XiPoint.of(dict.fromkeys(support, 15))
        assert bool(true >> j & 1) == eval_setexpr(point, expr)


def _reference_satisfy(expr, index):
    """`space._satisfy` with sequential settling, the reference the one-read
    settling must agree with: each pass reads ``expr`` twice per free atom,
    one atom at a time."""
    bits = [1 << i for i in range(len(index))]
    nodes, splits = [(0, 0)], 0
    while nodes:
        hit, miss = nodes.pop()
        previous = None
        while previous != (hit, miss):
            previous = hit, miss
            for bit in bits:
                if not (hit | miss) & bit:
                    if _reference_reading(expr, hit | bit, miss, index) is False:
                        miss |= bit
                    elif _reference_reading(expr, hit, miss | bit, index) is False:
                        hit |= bit
        verdict = _reference_reading(expr, hit, miss, index)
        if verdict:
            return hit
        if verdict is None:
            splits += 1
            if splits > space.MAX_SPLITS:
                raise SplitBoundError(
                    f"a claim needs more than MAX_SPLITS = {space.MAX_SPLITS} splits")
            bit = next(b for b in bits if not (hit | miss) & b)
            nodes += [(hit | bit, miss), (hit, miss | bit)]
    return None


def _search_outcomes(search, lhs, rhs):
    """What ``search`` gives for ``lhs ∧ ¬rhs`` under each split bound: a
    mask, None, or "bound" for `SplitBoundError`."""
    expr = Diff(lhs, rhs)
    index = space._index(expr.atoms())
    outcomes = []
    for bound in (0, 2, 256):
        with mock.patch.object(space, "MAX_SPLITS", bound):
            try:
                outcomes.append(search(expr, index))
            except SplitBoundError:
                outcomes.append("bound")
    return outcomes


@given(_EXACT_CLAIMS)
@settings(max_examples=100, deadline=None)
def test_sweep_settles_as_the_sequential_loop_did(claim):
    _, lhs, rhs = claim
    swept = _search_outcomes(space._satisfy, lhs, rhs)
    assert swept == _search_outcomes(_reference_satisfy, lhs, rhs)


@pytest.mark.parametrize("pigeons, holes", [(4, 3), (5, 4), (6, 5)])
def test_sweep_splits_pigeonholes_as_the_sequential_loop_did(pigeons, holes):
    claim = _pigeonhole(pigeons, holes)
    swept = _search_outcomes(space._satisfy, *claim)
    assert swept == _search_outcomes(_reference_satisfy, *claim)
    # under the bound of 256, 4 and 5 pigeons are decided and 6 are not
    assert swept[-1] == ("bound" if pigeons == 6 else None)


def _recursive_eval(point, expr):
    """The recursive evaluator `eval_setexpr` used before it listed the point's
    positions once and told nodes apart by class; `_require_valid` runs first."""
    if isinstance(expr, Whole):
        return True
    if isinstance(expr, Atom):
        return not any(space.branch_member(expr.branch, p) for p in point.positions())
    if isinstance(expr, Singleton):
        return point.support == expr.point.support
    if isinstance(expr, Union):
        return any(_recursive_eval(point, p) for p in expr.parts)
    if isinstance(expr, Inter):
        return all(_recursive_eval(point, p) for p in expr.parts)
    if isinstance(expr, Diff):
        return _recursive_eval(point, expr.left) and not _recursive_eval(point, expr.right)
    raise SpaceError(f"unknown expression node {expr!r}")


@st.composite
def _evaluations(draw):
    ambient = draw(st.sampled_from([XI, PI]))
    # values below the largest position make some points invalid in xi
    point = draw(
        st.dictionaries(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=1, max_value=8),
            max_size=3,
        ).map(lambda m: XiPoint.of(m, ambient))
    )
    # the point's own singleton among the leaves, so singletons also hold
    return point, draw(_setexprs(ambient, st.just(point)))


@given(_evaluations())
@example((XiPoint.of({1: 4}), Inter(())))
@example((XiPoint.of({1: 4}), Union(())))
@example((XiPoint.of({3: 2}), Whole()))
@example((XiPoint.of({3: 2}, PI), Singleton(XiPoint.of({3: 2}, PI))))
@settings(max_examples=200, deadline=None)
def test_eval_setexpr_matches_recursive_reference(case):
    point, expr = case
    if not validate_point(point):
        with pytest.raises(SpaceError, match="invalid"):
            eval_setexpr(point, expr)
        return
    with mock.patch.object(space, "branch_member", wraps=branch_member) as member:
        verdict = eval_setexpr(point, expr)
        calls = member.call_args_list
        member.reset_mock()
        assert _recursive_eval(point, expr) == verdict
        # the same atoms are read at the same positions, in the same order
        assert member.call_args_list == calls


def test_eval_setexpr_refuses_an_unknown_node():
    class Unknown(SetExpr):
        pass

    for expr in (Unknown(), Inter((Whole(), Unknown())), Diff(Unknown(), Whole())):
        with pytest.raises(SpaceError, match="unknown expression node"):
            eval_setexpr(P_INF, expr)
        with pytest.raises(SpaceError, match="unknown expression node"):
            _recursive_eval(P_INF, expr)
        # the truncated search reads every support class at once
        with pytest.raises(SpaceError, match="unknown expression node"):
            list(containment_violations(expr, Whole(), Truncation(2, 3), XI))


def test_value_sensitive_class_evaluates_only_its_singletons(monkeypatch):
    # the 9-position class at (12, 16) has 8**9 points; both sides agree on
    # all of them.  Only the k = 1 singleton is evaluated, once per side: the
    # other points' verdict is read from the support plus position 0
    p = XiPoint.of({1: 10, 2: 11, 3: 12, 4: 13, 5: 14, 6: 15, 7: 16, 8: 9, 9: 9})
    lhs = Union((Inter((Atom(ALL1), Atom(ALL2))), Singleton(p)))
    rhs = Union((Singleton(p), Inter((Atom(ALL2), Atom(ALL1)))))
    calls = []
    evaluate = space.eval_setexpr
    monkeypatch.setattr(space, "eval_setexpr", lambda q, e: calls.append(q) or evaluate(q, e))
    # no hit pattern violates, so the 2**12 support classes are never listed
    walks = []
    classes = space.support_classes
    monkeypatch.setattr(space, "support_classes", lambda t: walks.append(t) or classes(t))
    for left, right in ((lhs, rhs), (rhs, lhs)):
        calls.clear()
        assert list(containment_violations(left, right, Truncation(12, 16), XI)) == []
        assert calls == [p, p]
    assert walks == []
    # a support-decided claim that fails walks every class, as before
    trunc = Truncation(3, 4)
    expected = [
        q
        for q in enumerate_truncated(trunc, XI)
        if eval_setexpr(q, Atom(ALL1)) and not eval_setexpr(q, Atom(ALL2))
    ]
    walks.clear()
    assert list(containment_violations(Atom(ALL1), Atom(ALL2), trunc, XI)) == expected
    assert expected and walks == [trunc]
    # at V = 2 the xi class {2} is the point {2:2} alone: every other point
    # would violate, but there is none, so the class is not listed
    lhs, trunc = Diff(Whole(), Singleton(XiPoint.of({2: 2}))), Truncation(2, 2)
    expected = [q for q in enumerate_truncated(trunc, XI) if eval_setexpr(q, lhs)]
    listed = []
    points = space.class_points
    monkeypatch.setattr(space, "class_points", lambda s, t, a: listed.append(s) or points(s, t, a))
    assert list(containment_violations(lhs, empty_expr(), trunc, XI)) == expected
    assert frozenset({2}) not in listed and len(listed) == 3


def _closure_member_reference(point, expr, trunc):
    """A bounded closure search that evaluates every term and every
    truncated point, kept as the reference for the verdicts it decides.

    Returns "proven" when a sequence of one or two varied positions up to
    ``max(T, 64)`` has three terms in ``expr``, "unknown" when some truncated
    point that keeps the point's coordinates lies in ``expr``, and
    "refuted" (on the truncation only) otherwise.
    """
    space._require_valid(point)
    if eval_setexpr(point, expr):
        return "proven"

    limit = max(trunc.T, 64)
    free = [p for p in range(1, limit + 1) if point.coordinate(p) is None]
    for size in range(1, 3):
        for combo in itertools.combinations(free, size):
            try:
                seq = multi_escape_sequence(point, combo, 3)
            except SpaceError:  # the terms leave the space
                continue
            if all(eval_setexpr(t, expr) for t in seq.terms()):
                return "proven"

    fixed = point.support
    for q in enumerate_truncated(trunc, point.ambient):
        if all(q.coordinate(p) == v for p, v in fixed):
            if eval_setexpr(q, expr):
                return "unknown"
    return "refuted"


def _first_escape(point, expr):
    """The varied positions of the first reachable escape mask, in
    `_hit_patterns` order, that `_reference_reading` reads True, one mask at
    a time: the escape `closure_member` gives."""
    index = space._index(expr.atoms())
    held = frozenset(point.positions())
    limit = min(point.values()) if point.ambient == XI and held else None
    positions = space._escape_positions(index, held, limit)
    owners = space._owners(index, 0, held.union(positions))
    held_hit = space._hits(owners, held)
    return next(
        tuple(sorted(rep)) for hit, rep in space._hit_patterns(owners, positions).items()
        if _reference_reading(expr, held_hit | hit, ~(held_hit | hit), index)
    )


@st.composite
def _carrying(draw, point, trunc):
    """A singleton point that carries ``point``'s coordinates and one or two
    more, with values valid in the ambient and at most one past ``V``: the
    kind of singleton that can meet the point's neighborhood classes."""
    held = dict(point.support)
    free = [p for p in range(1, trunc.T + 3) if p not in held]
    extra = draw(st.lists(st.sampled_from(free), min_size=1, max_size=2, unique=True))
    lo = max([*held, *extra]) if point.ambient == XI else 1
    values = st.integers(min_value=lo, max_value=max(lo, trunc.V + 1))
    return XiPoint.of({**held, **{p: draw(values) for p in extra}}, point.ambient)


def _closure_cases(ambient):
    def within(trunc):
        # coordinates reach one past the truncation, so that most points
        # lie inside it and some do not
        point = st.dictionaries(
            st.integers(min_value=1, max_value=trunc.T + 1),
            st.integers(min_value=1, max_value=trunc.V + 1),
            max_size=2,
        ).map(lambda m: XiPoint.of(m, ambient)).filter(validate_point)

        def with_expr(point):
            carrying = _carrying(point, trunc)
            exprs = _setexprs(ambient, carrying)
            joined = st.builds(lambda q, e: Union((Singleton(q), e)), carrying, exprs)
            return st.tuples(st.just(point), st.one_of(exprs, joined), st.just(trunc))

        return point.flatmap(with_expr)

    return st.builds(
        Truncation, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=5)
    ).flatmap(within)


def _check_closure_verdict(point, expr, verdict):
    """A proof's terms are valid points of ``expr`` that vary positions off
    the point; a refutation's neighborhood, sampled with values ``N+1..N+3``
    or infinity at the other positions ``1..m+2``, holds no point of it."""
    if verdict.status == "proven":
        if verdict.witness == point:
            assert eval_setexpr(point, expr)
            return
        seq = verdict.witness
        assert set(seq.varied).isdisjoint(point.positions())
        for t in seq.terms():
            assert validate_point(t) and eval_setexpr(t, expr), t
        return
    held, m, N = verdict.neighborhood
    assert held == point.support and not eval_setexpr(point, expr)
    free = [p for p in range(1, m + 3) if point.coordinate(p) is None]
    for values in itertools.product((None, N + 1, N + 2, N + 3), repeat=len(free)):
        q = XiPoint(held + tuple((p, v) for p, v in zip(free, values) if v), point.ambient)
        assert not (validate_point(q) and eval_setexpr(q, expr)), q


class TestClosure:
    def test_point_in_set_is_its_own_witness(self):
        verdict = closure_member(P_INF, Whole())
        assert verdict.status == "proven" and verdict.witness == P_INF

    def test_separator_escape(self):
        # the all-infinite point is a limit of the intersection minus one set
        expr = Diff(inter_atoms([ALL2]), Atom(ALL1))
        verdict = closure_member(P_INF, expr)
        assert verdict.status == "proven"
        assert isinstance(verdict.witness, ApproxSequence)
        _check_closure_verdict(P_INF, expr, verdict)

    def test_refuted_by_support_neighborhood(self):
        p = XiPoint.of({1: 1})
        verdict = closure_member(p, Atom(ALL1))
        assert verdict.status == "refuted"
        assert verdict.neighborhood == (((1, 1),), 0, 0)

    def test_unknown_when_search_bounded_out(self):
        # a singleton off the point: every truncated neighborhood that holds
        # position 1 at most at V meets it, so a bounded search cannot
        # decide; pushing position 1 past its value 2 misses it
        target = Singleton(XiPoint.of({1: 2}))
        assert _closure_member_reference(P_INF, target, Truncation(2, 3)) == "unknown"
        verdict = closure_member(P_INF, target)
        assert verdict.status == "refuted" and verdict.neighborhood == ((), 1, 2)
        _check_closure_verdict(P_INF, target, verdict)

    def test_a_late_singleton_alone_meets_the_class(self):
        # the class {1, 2} holding 1:10 has nine points within V = 10, 2..10
        # at position 2, and only the last lies in the set: a bounded search
        # cannot decide, and values past 10 at position 2 miss the set
        point, trunc = XiPoint.of({1: 10}), Truncation(2, 10)
        expr = Singleton(XiPoint.of({1: 10, 2: 10}))
        assert _closure_member_reference(point, expr, trunc) == "unknown"
        verdict = closure_member(point, expr)
        assert verdict.status == "refuted" and verdict.neighborhood == (((1, 10),), 2, 10)
        _check_closure_verdict(point, expr, verdict)

    def test_terms_start_past_every_singleton_value(self):
        # the sequence through position 1 would start on the removed {1:2}
        expr = Diff(Whole(), Union((Singleton(P_INF), Singleton(XiPoint.of({1: 2})))))
        assert multi_escape_sequence(P_INF, (1,), 3).term(1) == XiPoint.of({1: 2})
        verdict = closure_member(P_INF, expr)
        assert verdict.status == "proven" and verdict.witness.varied == (1,)
        assert verdict.witness.term(1) == XiPoint.of({1: 3})
        _check_closure_verdict(P_INF, expr, verdict)

    @pytest.mark.parametrize(
        "point, expr",
        [
            (XiPoint.of({1: 10}), empty_expr()),
            # the singleton carries 1:3, and every support holding position 1
            # misses ALL1
            (XiPoint.of({1: 3}, PI),
             Union((Singleton(XiPoint.of({1: 3, 2: 17}, PI)), Atom(ALL1)))),
        ],
        ids=["xi-empty", "pi-singleton-past-v"],
    )
    def test_refutation_at_the_cap_enumerates_no_point(self, monkeypatch, point, expr):
        # the refutation reads hit patterns: it lists no support class and
        # no point
        def fail(*args):
            pytest.fail("the refutation listed classes or points")

        for name in ("support_classes", "enumerate_truncated", "class_points"):
            monkeypatch.setattr(space, name, fail)
        start = time.perf_counter()
        verdict = closure_member(point, expr)
        assert time.perf_counter() - start < 1.0
        assert verdict.status == "refuted" and verdict.neighborhood[0] == point.support
        _check_closure_verdict(point, expr, verdict)

    def test_escape_past_a_long_shared_prefix(self, monkeypatch):
        # the branches share a 40-letter prefix, so every position of b up
        # to 2**40 lies in a too, and only b's 41st element escapes a
        a = BranchIndex("12" * 20 + "1", "2", 0, "a")
        b = BranchIndex("12" * 20 + "2", "1", 1, "b")

        def fail(*args):
            pytest.fail("the proof listed classes or points")

        for name in ("support_classes", "enumerate_truncated", "class_points"):
            monkeypatch.setattr(space, name, fail)
        expr = Diff(Atom(a), Atom(b))
        start = time.perf_counter()
        verdict = closure_member(P_INF, expr)
        assert time.perf_counter() - start < 1.0
        assert verdict.status == "proven" and verdict.witness.varied == (b.element(41),)
        assert b.element(41) > 2**41
        _check_closure_verdict(P_INF, expr, verdict)

    @pytest.mark.parametrize(
        "V, removed",
        [(1, False), (1, True), (2, True)],
        ids=["generic", "every-point-removed", "one-point-removed"],
    )
    def test_classes_three_positions_past_the_point(self, V, removed):
        # the core holds only on supports that avoid ALL1 and hit ALL2, 12:1
        # and 112:1, which share no position past 1: no sequence of one or
        # two varied positions gets there, but six classes of the full
        # product within T = 8 do.  Removing each class's point of all-1
        # values leaves every class's points with larger values, so the
        # all-infinite point stays a limit of three varied positions.
        hit = (ALL2, ONE_TWO_THEN_1, BranchIndex("112", "1", 5, "u"))
        core = Inter((Atom(ALL1), *(Diff(Whole(), Atom(b)) for b in hit)))
        trunc = Truncation(8, V)
        supports = [s for s in support_classes(trunc) if eval_on_support(s, core)]
        assert len(supports) == 6 and min(map(len, supports)) == 3
        expr = core
        if removed:
            points = [XiPoint.of(dict.fromkeys(s, 1), PI) for s in supports]
            expr = Diff(core, Union(tuple(map(Singleton, points))))
        point = XiPoint.of({}, PI)
        assert _closure_member_reference(point, expr, trunc) != "proven"
        verdict = closure_member(point, expr)
        assert verdict.status == "proven" and verdict.witness.varied == (2, 4, 8)
        _check_closure_verdict(point, expr, verdict)

    @given(st.sampled_from([XI, PI]).flatmap(_closure_cases))
    @example((XiPoint.of({1: 4}), Singleton(XiPoint.of({1: 4, 2: 5})), Truncation(2, 5)))
    # no varied position keeps 1:1 valid, and only the class {1} holds it
    @example((XiPoint.of({1: 1}), Diff(Whole(), Atom(ALL2)), Truncation(2, 2)))
    # a singleton on the class {1, 2} that does not carry the held 1:2
    @example((XiPoint.of({1: 2}), Singleton(XiPoint.of({1: 3, 2: 3})), Truncation(2, 3)))
    # the first varied support is value-sensitive, and its terms lie in the set
    @example((P_INF,
              Inter((Diff(Whole(), Atom(ALL1)), Diff(Whole(), Singleton(XiPoint.of({1: 9}))))),
              Truncation(2, 3)))
    # the point's value lies past V, so no class within the truncation holds it
    @example((XiPoint.of({1: 6}), Singleton(XiPoint.of({1: 6, 2: 6})), Truncation(2, 5)))
    @example((P_INF, Singleton(XiPoint.of({1: 2})), Truncation(2, 3)))
    # three escape masks read True, and the first in pattern order is taken
    @example((P_INF, Union((Diff(Whole(), Atom(ALL1)), Diff(Whole(), Atom(ALL2)))),
              Truncation(2, 3)))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, case):
        # every proof the bounded reference finds is found, and every
        # verdict carries its own evidence
        point, expr, trunc = case
        verdict = closure_member(point, expr)
        if _closure_member_reference(point, expr, trunc) == "proven":
            assert verdict.status == "proven"
        _check_closure_verdict(point, expr, verdict)
        if isinstance(verdict.witness, ApproxSequence):
            assert verdict.witness.varied == _first_escape(point, expr)
