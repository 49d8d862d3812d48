"""Filter-base membership, shifts, pseudo-finite exceptions, witness unions."""

import importlib.util
import itertools
import pathlib

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
from zfilterlab.formats import parse_registry, parse_setexpr
from zfilterlab.space import (
    Atom,
    Diff,
    Inter,
    Singleton,
    TermBoundError,
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
        verdict = filter_member(base, Union((Atom(A), Atom(B))))
        assert verdict.proven

    def test_single_zero_set_refuted_with_separator_point(self):
        base = pairwise_union_base([A, B])
        verdict = filter_member(base, Atom(A))
        assert verdict.refuted
        l = find_separator(A, [B])
        assert verdict.witness == XiPoint.of({l: l})

    def test_trivial_base(self):
        base = FilterBase.trivial()
        assert filter_member(base, Whole()).proven
        assert filter_member(base, Atom(A)).refuted

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

    def test_complement_decided_without_truncation(self):
        base = pairwise_union_base([A, B])
        query = Diff(Whole(), Atom(A))
        verdict = filter_member(base, query)
        assert verdict.refuted and verdict.exact
        assert eval_setexpr(verdict.witness, base.core())
        assert not eval_setexpr(verdict.witness, query)

    def test_monotone_under_certified_supersets(self):
        base = pairwise_union_base([A, B, C])
        small = Union((Atom(A), Atom(B)))
        big = Union((Atom(A), Atom(B), Atom(C)))
        v_small = filter_member(base, small)
        v_big = filter_member(base, big)
        assert v_small.proven and v_big.proven

    def test_intersection_closure_at_base_level(self):
        base = FilterBase.of([Atom(A), Atom(B), Atom(C)])
        z1, z2 = inter_atoms([A]), inter_atoms([B, C])
        assert filter_member(base, z1).proven
        assert filter_member(base, z2).proven
        assert filter_member(base, Inter((z1, z2))).proven

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
            v = filter_member(base, z)
            oracle_holds = all(
                eval_setexpr(p, z) for p in pts if eval_setexpr(p, core)
            )
            assert v.status in ("proven", "refuted")
            assert v.proven == oracle_holds


class TestExactOverTheWholeSpace:
    """Verdicts that a search of a truncation got wrong."""

    Y = BranchIndex("1112", "1", 0, "y")
    X = BranchIndex("1111", "2", 1, "x")

    @pytest.mark.parametrize("trunc", [None, Truncation(12, 16)])
    def test_point_past_the_cap_refutes(self, trunc):
        # (12,16) holds no point of Z(y) outside the query
        base = FilterBase.of([Atom(self.Y)])
        query = Union((Atom(self.X), Singleton(XiPoint.of({1: 5}))))
        verdict = filter_member(base, query, trunc)
        assert verdict.refuted and verdict.witness == XiPoint.of({15: 15})
        assert eval_setexpr(verdict.witness, base.core())
        assert not eval_setexpr(verdict.witness, query)

    def test_core_nonempty_past_the_cap(self):
        # (12,16) holds no point of Z(y) that hits x
        assert FilterBase.of([Diff(Whole(), Atom(self.X)), Atom(self.Y)]).is_proper()

    @pytest.mark.parametrize("trunc", [None, Truncation(4, 6)])
    def test_core_past_the_term_bound_raises(self, trunc):
        # nine two-atom unions: 2^9 core terms; (4,6) proved a wrong subset
        words = ["".join(w) for w in itertools.product("12", repeat=5)][:19]
        b = [BranchIndex(w, "1", i) for i, w in enumerate(words)]
        base = FilterBase.of([Union((Atom(b[2 * i]), Atom(b[2 * i + 1]))) for i in range(9)])
        with pytest.raises(TermBoundError):
            filter_member(base, Atom(b[18]), trunc)


def _benchmark_filter_ops(seed, directory):
    """The filter operations the benchmark generates for ``seed``."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in ("exact-sweep", "value-sensitive"):
        sub = directory / name
        sub.mkdir()
        for op in workloads.generate(name, seed, str(sub))["ops"]:
            if op["type"] == "filter":
                yield op


@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_truncation_is_ignored(seed, tmp_path):
    """The benchmark passes a truncation and reads ``exact``: every filter
    op it generates gets the verdict it expects, the same with and without
    a truncation."""
    ops = list(_benchmark_filter_ops(seed, tmp_path))
    assert len(ops) == 5
    for op in ops:
        reg = parse_registry(op["registry"])
        parse = lambda text: parse_setexpr(text, reg, op["ambient"])
        base = FilterBase.of([parse(g) for g in op["generators"]], op["ambient"])
        zset = parse(op["zset"])
        verdict = filter_member(base, zset)
        assert verdict == filter_member(base, zset, Truncation(*(op["trunc"] or (12, 16))))
        assert verdict.exact is True and verdict.status == op["expect"]["status"], op["name"]
        if "subset" in op["expect"]:
            assert list(verdict.subset) == op["expect"]["subset"]
        if "witness" in op["expect"]:
            assert verdict.witness.literal() == op["expect"]["witness"]


class TestShiftedFilter:
    def test_pair_generator_proven_after_shift(self):
        base = pairwise_union_base([A, B, C])
        shifted = shifted_filter(base, A)
        assert filter_member(shifted, Atom(B)).proven

    def test_empty_set_matches_unshifted_query(self):
        base = pairwise_union_base([A, B])
        shifted = shifted_filter(base, A)
        empty = Union(())
        v = filter_member(shifted, empty)
        direct = filter_member(base, Union((empty, Atom(A))))
        assert v.refuted and direct.refuted

    def test_whole_is_member(self):
        base = pairwise_union_base([A, B])
        assert filter_member(shifted_filter(base, A), Whole()).proven

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
            lhs = filter_member(shifted, z)
            rhs = filter_member(base, Union((z, Atom(A))))
            assert lhs.status == rhs.status


class TestPseudoFiniteExceptions:
    def _shifted_family(self):
        base = pairwise_union_base([A, B, C])
        return [shifted_filter(base, x) for x in (A, B, C)]

    def test_pair_union_has_few_exceptions(self):
        family = self._shifted_family()
        exceptions, verdicts = pseudo_finite_exceptions(
            family, Union((Atom(B), Atom(C)))
        )
        assert all(verdicts[i].proven for i in range(3) if i not in exceptions)
        assert len(exceptions) <= 2

    def test_whole_has_no_exceptions(self):
        family = self._shifted_family()
        exceptions, _ = pseudo_finite_exceptions(family, Whole())
        assert exceptions == []

    def test_member_of_none_errors(self):
        family = self._shifted_family()
        with pytest.raises(FilterError):
            pseudo_finite_exceptions(family, Union(()))


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
        report = combine_nonredundancy_witnesses(witnesses, 0, family)
        assert report.per_base[1].proven and report.per_base[2].proven
        assert report.target_verdict.refuted
        p = report.target_verdict.witness
        assert eval_setexpr(p, family[0].core())
        assert not eval_setexpr(p, report.combined)

    def test_single_witness_unchanged(self):
        family = self._family()
        w = union_atoms([B])
        report = combine_nonredundancy_witnesses({1: w}, 0, family)
        assert report.combined == w

    def test_union_can_land_in_the_target(self):
        # each witness misses Z(A), their union is the whole space
        family = [
            FilterBase.of([Atom(A)]),
            FilterBase.of([Diff(Whole(), Atom(B))]),
            FilterBase.of([Atom(B)]),
        ]
        witnesses = {1: Diff(Whole(), Atom(B)), 2: Atom(B)}
        report = combine_nonredundancy_witnesses(witnesses, 0, family)
        assert report.target_verdict.proven and report.target_verdict.subset == ()

    def test_empty_map_errors(self):
        with pytest.raises(FilterError):
            combine_nonredundancy_witnesses({}, 0, self._family())

    def test_bad_witness_rejected(self):
        family = self._family()
        with pytest.raises(FilterError):
            combine_nonredundancy_witnesses({1: Atom(C)}, 0, family)


class TestProperness:
    def test_atom_bases_proper(self):
        assert FilterBase.of([Atom(A), Atom(B)]).is_proper()

    def test_empty_generator_detected(self):
        assert not FilterBase.of([Union(())]).is_proper()

    def test_needs_a_generator(self):
        with pytest.raises(FilterError):
            FilterBase.of([])
        with pytest.raises(FilterError, match="unknown ambient"):
            FilterBase.of([Whole()], "zz")
