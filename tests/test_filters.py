"""Filter-base membership, shifts, pseudo-finite exceptions, witness unions."""

import pytest

from zfilterlab.branches import BranchIndex, find_separator
from zfilterlab.filters import (
    FilterBase,
    FilterError,
    combine_nonredundancy_witnesses,
    filter_member,
    pairwise_union_base,
    pseudo_finite_exceptions,
    shifted_filter,
)
from zfilterlab.space import (
    Atom,
    Diff,
    Inter,
    Truncation,
    Union,
    Whole,
    XiPoint,
    enumerate_truncated,
    eval_setexpr,
    inter_atoms,
    union_atoms,
)

A = BranchIndex("", "1", 0, "a")
B = BranchIndex("", "2", 1, "b")
C = BranchIndex("1", "2", 2, "c")

TR = Truncation(4, 6)


class TestFilterMember:
    def test_generator_is_member(self):
        base = pairwise_union_base([A, B, C])
        verdict = filter_member(base, Union((Atom(A), Atom(B))), TR)
        assert verdict.proven

    def test_single_zero_set_refuted_with_separator_point(self):
        base = pairwise_union_base([A, B])
        verdict = filter_member(base, Atom(A), TR)
        assert verdict.refuted
        l = find_separator(A, [B])
        assert verdict.witness == XiPoint.of({l: l})

    def test_trivial_base(self):
        base = FilterBase.trivial()
        assert filter_member(base, Whole(), TR).proven
        assert filter_member(base, Atom(A), TR).refuted

    def test_exact_route_on_pure_intersections(self):
        for ambient in ("xi", "pi"):
            base = FilterBase.of([Atom(A), Atom(B)], ambient)
            good = filter_member(base, inter_atoms([A]))
            assert good.proven and good.exact and good.subset == (0,)
            bad = filter_member(base, inter_atoms([C]))
            assert bad.refuted and bad.exact
            # the witness is a point of the base's ambient
            l = find_separator(C, [A, B])
            assert bad.witness == XiPoint.of({l: l}, ambient)
            assert eval_setexpr(bad.witness, inter_atoms([A, B]))
            assert not eval_setexpr(bad.witness, inter_atoms([C]))

    def test_unknown_without_truncation(self):
        base = pairwise_union_base([A, B])
        assert filter_member(base, Diff(Whole(), Atom(A))).status == "unknown"

    def test_monotone_under_certified_supersets(self):
        base = pairwise_union_base([A, B, C])
        small = Union((Atom(A), Atom(B)))
        big = Union((Atom(A), Atom(B), Atom(C)))
        v_small = filter_member(base, small, TR)
        v_big = filter_member(base, big, TR)
        assert v_small.proven and v_big.proven

    def test_intersection_closure_at_base_level(self):
        base = FilterBase.of([Atom(A), Atom(B), Atom(C)])
        z1, z2 = inter_atoms([A]), inter_atoms([B, C])
        assert filter_member(base, z1, TR).proven
        assert filter_member(base, z2, TR).proven
        assert filter_member(base, Inter((z1, z2)), TR).proven

    def test_never_both_proven_and_refuted(self):
        base = pairwise_union_base([A, B, C])
        corpus = [
            Whole(),
            Atom(A),
            Union((Atom(A), Atom(B))),
            Union((Atom(A), Atom(C))),
            Diff(Whole(), Atom(A)),
            inter_atoms([A, B]),
        ]
        pts = enumerate_truncated(TR)
        core = base.core()
        for z in corpus:
            v = filter_member(base, z, TR)
            oracle_holds = all(
                eval_setexpr(p, z) for p in pts if eval_setexpr(p, core)
            )
            assert v.status in ("proven", "refuted")
            assert v.proven == oracle_holds


class TestShiftedFilter:
    def test_pair_generator_proven_after_shift(self):
        base = pairwise_union_base([A, B, C])
        shifted = shifted_filter(base, A)
        assert filter_member(shifted, Atom(B), TR).proven

    def test_empty_set_matches_unshifted_query(self):
        base = pairwise_union_base([A, B])
        shifted = shifted_filter(base, A)
        empty = Union(())
        v = filter_member(shifted, empty, TR)
        direct = filter_member(base, Union((empty, Atom(A))), TR)
        assert v.refuted and direct.refuted

    def test_whole_is_member(self):
        base = pairwise_union_base([A, B])
        assert filter_member(shifted_filter(base, A), Whole(), TR).proven

    def test_consistency_with_defining_equation(self):
        base = pairwise_union_base([A, B, C])
        shifted = shifted_filter(base, A)
        corpus = [
            Whole(),
            Atom(A),
            Atom(B),
            Union((Atom(B), Atom(C))),
            inter_atoms([B, C]),
            Union(()),
        ]
        for z in corpus:
            lhs = filter_member(shifted, z, TR)
            rhs = filter_member(base, Union((z, Atom(A))), TR)
            assert lhs.status == rhs.status


class TestPseudoFiniteExceptions:
    def _shifted_family(self):
        base = pairwise_union_base([A, B, C])
        return [shifted_filter(base, x) for x in (A, B, C)]

    def test_pair_union_has_few_exceptions(self):
        family = self._shifted_family()
        exceptions, verdicts = pseudo_finite_exceptions(
            family, Union((Atom(B), Atom(C))), TR
        )
        assert all(verdicts[i].proven for i in range(3) if i not in exceptions)
        assert len(exceptions) <= 2

    def test_whole_has_no_exceptions(self):
        family = self._shifted_family()
        exceptions, _ = pseudo_finite_exceptions(family, Whole(), TR)
        assert exceptions == []

    def test_member_of_none_errors(self):
        family = self._shifted_family()
        with pytest.raises(FilterError):
            pseudo_finite_exceptions(family, Union(()), TR)


class TestCombineWitnesses:
    def _family(self):
        # member filters generated by single tails, separating cleanly
        return [
            FilterBase.of([Atom(A)]),
            FilterBase.of([Atom(B)]),
            FilterBase.of([Atom(C)]),
        ]

    def test_union_proven_in_both_other_bases(self):
        family = self._family()
        witnesses = {1: union_atoms([B]), 2: union_atoms([C])}
        report = combine_nonredundancy_witnesses(witnesses, 0, family, TR)
        assert report.per_base[1].proven and report.per_base[2].proven
        assert report.target_verdict.refuted
        p = report.target_verdict.witness
        assert eval_setexpr(p, family[0].core())
        assert not eval_setexpr(p, report.combined)

    def test_single_witness_unchanged(self):
        family = self._family()
        w = union_atoms([B])
        report = combine_nonredundancy_witnesses({1: w}, 0, family, TR)
        assert report.combined == w

    def test_empty_map_errors(self):
        with pytest.raises(FilterError):
            combine_nonredundancy_witnesses({}, 0, self._family(), TR)

    def test_bad_witness_rejected(self):
        family = self._family()
        with pytest.raises(FilterError):
            combine_nonredundancy_witnesses({1: Atom(C)}, 0, family, TR)


class TestProperness:
    def test_atom_bases_proper(self):
        assert FilterBase.of([Atom(A), Atom(B)]).is_proper(TR)

    def test_empty_generator_detected(self):
        assert not FilterBase.of([Union(())]).is_proper(TR)

    def test_needs_a_generator(self):
        with pytest.raises(FilterError):
            FilterBase.of([])
        with pytest.raises(FilterError, match="unknown ambient"):
            FilterBase.of([Whole()], "zz")
