"""Branch-family tests: codec, element sets, separators, covers, density."""

import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfilterlab.branches import (
    MAX_COVER_BOUND,
    BranchError,
    BranchIndex,
    CoverBoundError,
    Registry,
    branch_elements,
    branch_member,
    decode_code,
    density_count,
    encode_string,
    find_cover,
    find_separator,
    intersection_exact,
    make_registry,
)
from zfilterlab.branches import _canonicalize
from zfilterlab.formats import FormatError, parse_registry

ALL1 = BranchIndex("", "1", 0, "a1")
ALL2 = BranchIndex("", "2", 1, "a2")
ONE_THEN_2 = BranchIndex("1", "2", 2, "m")


def codec_member(branch: BranchIndex, n: int) -> bool:
    """Oracle: decode the code and test prefix-ness directly."""
    word = decode_code(n)
    return branch.prefix(len(word)) == word


def brute_codes_of_branch(branch: BranchIndex, bound: int) -> set[int]:
    """Oracle: scan every code up to the bound."""
    return {n for n in range(1, bound + 1) if codec_member(branch, n)}


def reference_canonicalize(pre: str, period: str) -> tuple[str, str]:
    """Oracle: the least divisor of the period's length whose prefix repeats
    to the period, then the preperiod's trailing letters rolled into it."""
    for d in range(1, len(period) + 1):
        if len(period) % d == 0 and period == period[:d] * (len(period) // d):
            period = period[:d]
            break
    while pre and pre[-1] == period[-1]:
        pre = pre[:-1]
        period = period[-1] + period[:-1]
    return pre, period


def all_words(lo: int, hi: int) -> list[str]:
    """Every word over {1,2} of length ``lo`` to ``hi``."""
    return ["".join(w) for k in range(lo, hi + 1) for w in itertools.product("12", repeat=k)]


words = st.text(alphabet="12", min_size=1, max_size=16)


class TestCodec:
    def test_forced_small_codes(self):
        assert encode_string("1") == 1
        assert encode_string("2") == 2
        assert encode_string("12") == 4
        assert decode_code(1) == "1"
        assert decode_code(6) == "22"
        assert decode_code(7) == "111"

    def test_rejects_bad_input(self):
        with pytest.raises(BranchError):
            encode_string("")
        with pytest.raises(BranchError):
            encode_string("13")
        with pytest.raises(BranchError):
            decode_code(0)

    @given(words)
    def test_word_round_trip(self, w):
        assert decode_code(encode_string(w)) == w

    def test_code_round_trip_range(self):
        for n in range(1, 5000):
            assert encode_string(decode_code(n)) == n

    def test_length_monotone(self):
        # codes of length-n words fill [2^n - 1, 2^(n+1) - 2]
        for n in range(1, 7):
            codes = sorted(
                encode_string("".join(w))
                for w in itertools.product("12", repeat=n)
            )
            assert codes == list(range(2**n - 1, 2 ** (n + 1) - 1))


class TestBranchIndex:
    def test_canonical_equality(self):
        assert BranchIndex("1", "1", 0) == ALL1
        assert BranchIndex("12", "2", 0) == ONE_THEN_2
        assert BranchIndex("1", "21", 0) == BranchIndex("", "12", 0)
        assert ALL1 != ALL2

    def test_period_must_be_nonempty(self):
        with pytest.raises(BranchError):
            BranchIndex("1", "", 0)

    def test_a_negative_rank_or_count_is_refused(self):
        with pytest.raises(BranchError, match="rank must be a nonnegative integer"):
            BranchIndex("1", "2", -1)
        with pytest.raises(BranchError, match="count must be nonnegative"):
            ALL1.elements(-1)

    def test_canonical_form_matches_the_divisor_loop(self):
        # every preperiod of up to 4 letters with every period of up to 6;
        # words are equal and hash alike exactly when their reference forms match
        classes: dict[BranchIndex, tuple[str, str]] = {}
        forms = set()
        for pre, period in itertools.product(all_words(0, 4), all_words(1, 6)):
            want = reference_canonicalize(pre, period)
            assert _canonicalize(pre, period) == want
            b = BranchIndex(pre, period, 0)
            assert (b.pre, b.period) == want and hash(b) == hash(want)
            assert classes.setdefault(b, want) == want
            forms.add(want)
        assert len(classes) == len(forms)

    @given(
        st.text(alphabet="12", max_size=30),
        st.text(alphabet="12", min_size=1, max_size=12),
        st.integers(1, 6),
        st.text(alphabet="12", max_size=12),
    )
    @settings(max_examples=300)
    def test_canonical_form_of_longer_words(self, pre, root, power, extra):
        # a period is often a power of a shorter root, so not primitive
        for period in (root * power, root * power + extra):
            assert _canonicalize(pre, period) == reference_canonicalize(pre, period)

    @given(st.text(alphabet="12", max_size=5), st.text(alphabet="12", min_size=1, max_size=4))
    def test_canonicalization_preserves_word(self, pre, period):
        raw_prefix = (pre + period * 40)[:30]
        assert BranchIndex(pre, period, 0).prefix(30) == raw_prefix

    def test_positions_below_one_are_refused(self):
        b = BranchIndex("12", "1", 0)
        for n in (0, -1, -65):
            with pytest.raises(BranchError, match="positions are 1-based"):
                b.element(n)
        for n in (-1, -65):
            with pytest.raises(BranchError, match="positions are 1-based"):
                b.prefix(n)
        assert b.prefix(0) == "" and b.element(1) == 1

    def test_member_examples(self):
        assert branch_member(ALL1, 7)
        assert not branch_member(ALL1, 2)
        # derived: decode(4) = "12" is a prefix of 1222...
        assert decode_code(4) == "12"
        assert branch_member(ONE_THEN_2, 4)

    def test_elements_examples(self):
        assert branch_elements(ALL1, 4) == [1, 3, 7, 15]
        assert branch_elements(ALL2, 3) == [2, 6, 14]
        assert branch_elements(ONE_THEN_2, 0) == []

    def test_elements_match_brute_force(self):
        for b in (ALL1, ALL2, ONE_THEN_2, BranchIndex("221", "12", 0)):
            got = set(b.elements_upto(2**10))
            assert got == brute_codes_of_branch(b, 2**10)


class TestIntersection:
    def test_disjoint_at_root(self):
        assert intersection_exact(ALL1, ALL2) == set()

    def test_derived_single_shared_code(self):
        # brute force: the only code <= 2^10 shared by 111... and 1222...
        brute = brute_codes_of_branch(ALL1, 2**10) & brute_codes_of_branch(
            ONE_THEN_2, 2**10
        )
        assert brute == {1}
        assert intersection_exact(ALL1, ONE_THEN_2) == {1}

    def test_derived_common_prefix_12(self):
        a = BranchIndex("12", "1", 0)
        b = BranchIndex("122", "2", 1)
        brute = brute_codes_of_branch(a, 2**12) & brute_codes_of_branch(b, 2**12)
        assert brute == {1, 4}
        assert intersection_exact(a, b) == {1, 4}

    def test_equal_branches_error(self):
        with pytest.raises(BranchError):
            intersection_exact(ALL1, BranchIndex("1", "1", 5))

    @given(
        st.text(alphabet="12", max_size=6),
        st.text(alphabet="12", min_size=1, max_size=4),
        st.text(alphabet="12", max_size=6),
        st.text(alphabet="12", min_size=1, max_size=4),
    )
    @settings(max_examples=120)
    def test_size_equals_agreement_depth(self, pre_a, per_a, pre_b, per_b):
        a = BranchIndex(pre_a, per_a, 0)
        b = BranchIndex(pre_b, per_b, 1)
        if a == b:
            return
        d = a.lcp(b)
        inter = intersection_exact(a, b)
        assert len(inter) == d
        assert inter == {a.element(n) for n in range(1, d + 1)}


class TestSeparator:
    def test_examples(self):
        assert find_separator(ALL1, [ALL2]) == 1
        assert find_separator(ALL1, [ONE_THEN_2]) == 3
        assert find_separator(ALL1, []) == 1

    def test_alpha_in_group_error(self):
        with pytest.raises(BranchError):
            find_separator(ALL1, [ALL1, ALL2])

    @pytest.mark.parametrize(
        "group",
        [
            lambda a, others: [a, *others],
            lambda a, others: [*others, a],
            lambda a, others: [a],
            lambda a, others: (b for b in [*others, a]),
        ],
        ids=["first", "last", "alone", "generator"],
    )
    @pytest.mark.parametrize(
        "alpha, twin, others",
        [
            (ALL1, BranchIndex("11", "1", 5, "twin"), [ALL2, ONE_THEN_2]),
            # equal words whose 64-letter heads agree, so `lcp` reads past them
            (BranchIndex("12" * 35 + "1", "2", 0), BranchIndex("12" * 35 + "12", "2", 3),
             [BranchIndex("12" * 35 + "2", "1", 1), BranchIndex("12" * 35, "21", 2)]),
        ],
        ids=["short", "70-letter-preperiod"],
    )
    def test_the_target_is_refused_wherever_it_stands(self, alpha, twin, others, group):
        # refused by `lcp` on the equal word, under the guard's former message
        assert twin == alpha and twin is not alpha
        for a in (alpha, twin):
            with pytest.raises(BranchError) as refused:
                find_separator(alpha, group(a, others))
            assert str(refused.value) == "separator target must not belong to the excluded group"
            assert refused.value.__cause__ is None and refused.value.__suppress_context__

    def test_minimality_brute_force(self):
        # the example, then 200 seeded random (alpha, group) pairs with
        # preperiods of up to 4 letters and periods of up to 2
        rng = random.Random(20)

        def word(lo: int, hi: int) -> str:
            return "".join(rng.choice("12") for _ in range(rng.randint(lo, hi)))

        pairs = [(ALL1, [ALL2, ONE_THEN_2, BranchIndex("11", "2", 3)])]
        while len(pairs) < 201:
            alpha = BranchIndex(word(0, 4), word(1, 2), 0)
            group = [BranchIndex(word(0, 4), word(1, 2), 1) for _ in range(rng.randint(0, 4))]
            if alpha not in group:
                pairs.append((alpha, group))
        for alpha, group in pairs:
            l = find_separator(alpha, group)
            assert branch_member(alpha, l)
            assert all(not branch_member(b, l) for b in group)
            for smaller in brute_codes_of_branch(alpha, l - 1):
                assert any(branch_member(b, smaller) for b in group)


class TestCover:
    def test_mints_fresh_branches(self):
        reg = Registry()
        cover = find_cover(2, 10, reg, base=[])
        assert [c.rank for c in cover] == [10, 11]
        assert cover[0].prefix(1) == "1"
        assert cover[1].prefix(1) == "2"
        assert all(branch_member(cover[0], n) or branch_member(cover[1], n) for n in (1, 2))

    def test_a_bound_past_the_cap_mints_nothing(self):
        reg = make_registry([("", "1"), ("", "2", 3)])
        with pytest.raises(CoverBoundError, match=f"MAX_COVER_BOUND = {MAX_COVER_BOUND}"):
            find_cover(MAX_COVER_BOUND + 1, 0, reg)
        assert len(reg) == 2
        # a usage error is a BranchError (exit 3); the cap is a resource cap
        assert not issubclass(CoverBoundError, BranchError)
        with pytest.raises(BranchError, match="^cover bound must be >= 1$"):
            find_cover(0, 0, reg)

    def test_only_entries_admissible_at_the_call_are_scanned(self, monkeypatch):
        # a chosen branch holds only covered codes, so no later position reads
        # it: of about 500 cover branches, only the one admissible entry is
        # ever scanned, and the entry below the rank floor never is
        read = []
        element = BranchIndex.element
        monkeypatch.setattr(
            BranchIndex, "element", lambda self, n: read.append(self) or element(self, n))
        reg = make_registry([("", "1", 0), ("2", "1", 5)])
        cover = find_cover(1000, 3, reg)
        assert len(cover) > 400 and reg.entries[1] in cover
        assert read and all(b is reg.entries[1] for b in read)

    def test_base_already_covers(self):
        reg = Registry([ALL1])
        assert find_cover(1, 0, reg, base=[ALL1]) == []

    def test_partial_cover(self):
        reg = Registry([ALL1])
        cover = find_cover(3, 0, reg, base=[ALL1])
        assert len(cover) == 1
        assert cover[0].prefix(1) == "2"

    def test_coverage_exhaustive_and_ranked(self):
        reg = make_registry([("", "1"), ("", "2"), ("12", "1")])
        for l, gamma in [(5, 7), (10, 3), (16, 20)]:
            local = Registry(list(reg.entries))
            cover = find_cover(l, gamma, local, base=[ALL1])
            assert all(c.rank >= gamma for c in cover)
            for n in range(1, l + 1):
                assert branch_member(ALL1, n) or any(
                    branch_member(c, n) for c in cover
                )

    def test_minting_avoids_duplicates(self):
        reg = Registry([ALL1])
        fresh = reg.mint_through("1", 5)
        assert fresh != ALL1
        assert fresh.prefix(1) == "1"
        again = reg.mint_through("1", 5)
        assert again != fresh and again != ALL1

    def test_minting_labels_past_taken_defaults(self):
        # b<rank> when free, else the first free b<rank>_<n>
        reg = Registry([BranchIndex("", "1", 0, "b2"), BranchIndex("", "2", 1, "b2_2")])
        assert reg.mint_through("1", 2).label == "b2_3"
        assert reg.mint_through("1", 2).label == "b3"
        assert [e.label for e in reg] == ["b2", "b2_2", "b2_3", "b3"]


class TestDensity:
    def test_examples(self):
        assert density_count(1, 3) == 4
        assert density_count(7, 3) == 1

    def test_derived_count_by_enumeration(self):
        # all 16 depth-4 words, count those extending decode(4) = "12"
        brute = sum(
            1
            for w in itertools.product("12", repeat=4)
            if "".join(w).startswith(decode_code(4))
        )
        assert brute == 4
        assert density_count(4, 4) == 4

    def test_depth_too_small(self):
        with pytest.raises(BranchError):
            density_count(7, 2)


class TestRegistry:
    def test_rank_order_enforced(self):
        with pytest.raises(BranchError):
            Registry([ALL2, ALL1])  # ranks 1 then 0

    def test_duplicate_words_rejected(self):
        with pytest.raises(BranchError):
            Registry([ALL1, BranchIndex("1", "1", 9)])

    @pytest.mark.parametrize(
        "second, message",
        [
            (BranchIndex("2", "1", 0),
             "registry ranks must be strictly increasing: b0 has rank 0 after rank 0"),
            (BranchIndex("1", "1", 9), "duplicate branch word :1"),
            (BranchIndex("", "2", 1, "a1"), "duplicate label 'a1'"),
        ],
        ids=["rank", "word", "label"],
    )
    def test_constructor_and_add_refuse_alike(self, second, message):
        with pytest.raises(BranchError) as built:
            Registry([ALL1, second])
        reg = Registry([ALL1])
        with pytest.raises(BranchError) as added:
            reg.add(second)
        assert str(built.value) == str(added.value) == message
        # a refused entry leaves no trace
        assert reg.to_payload() == Registry([ALL1]).to_payload()
        assert (second in reg) == (second == ALL1)
        assert reg.by_label("a1") is ALL1

    def test_minting_through_the_empty_word_is_refused(self):
        reg = Registry([ALL1])
        with pytest.raises(BranchError, match="cannot mint a branch through the empty word"):
            reg.mint_through("", 0)
        assert list(reg) == [ALL1]

    def test_a_label_of_any_type_is_looked_up(self):
        # a certificate may name a branch by any JSON value
        with pytest.raises(BranchError, match="no branch labelled"):
            Registry([ALL1]).by_label(["a1"])

    def test_added_entries_are_found(self):
        reg = Registry([ALL1])
        made = [reg.add_unlabelled("12", "1", 3), reg.mint_through("2", 5)]
        assert [e.label for e in reg] == ["a1", "b3", "b5"]
        for e in made:
            assert e in reg and reg.by_label(e.label) is e
            assert reg.entry(BranchIndex(e.pre, e.period, 0)) is e

    @pytest.mark.parametrize(
        "specs, texts, payload",
        [
            # a rank after an explicit one, and a default label taken by an
            # explicit one
            ([("1", "2", 5), ("2", "1")], ["1:2@5", "2:1"], ["b5=1:2@5", "b6=2:1@6"]),
            ([("1", "2", 0, "b1"), ("2", "1")], ["b1=1:2@0", "2:1"], ["b1=1:2@0", "b1_2=2:1@1"]),
        ],
    )
    def test_make_registry_defaults_as_parse_registry(self, specs, texts, payload):
        assert make_registry(specs).to_payload() == parse_registry(texts).to_payload() == payload

    @given(st.lists(
        st.tuples(
            st.text(alphabet="12", max_size=4),
            st.sampled_from(["2", "22"]),
            st.one_of(st.none(), st.integers(1, 3)),
            st.one_of(st.none(), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)),
        ),
        max_size=6,
    ))
    @settings(max_examples=100)
    def test_registry_round_trips_through_its_entries(self, drawn):
        # distinct words (a stem, then 1, then 2s), ranks defaulted or rising
        # by a gap, labels defaulted or explicit; b20 is taken, so the branch
        # minted at rank 20 is labelled b20_2
        specs, last, stems, labels = [("", "1", 0, "b20")], 0, set(), {"b20"}
        for stem, period, gap, label in drawn:
            if stem in stems or label and label in labels:
                continue
            stems.add(stem)
            labels.add(label)
            last += gap or 1
            specs.append((stem + "1", period, gap and last, label or ""))
        r = make_registry(specs)
        assert r.mint_through("2", 20).label == "b20_2"
        entries = r.to_payload()
        assert parse_registry(entries).to_payload() == entries
        assert entries == [f"{e.label}={e.literal()}@{e.rank}" for e in r]

    @pytest.mark.parametrize("label", ["a b", "a-b", "1a", "é", "a=b"])
    def test_a_label_outside_the_entry_grammar_is_refused(self, label):
        # no -r entry and no N:<label> reference could name it
        reg = Registry([ALL1])
        with pytest.raises(BranchError, match=f"^label {re.escape(repr(label))} is not"):
            reg.add(BranchIndex("", "2", 1, label))
        with pytest.raises(BranchError, match=re.escape("is not a name [A-Za-z_][A-Za-z0-9_]*")):
            make_registry([("", "2", 1, label)])
        assert reg.to_payload() == ["a1=:1@0"]

    def test_covering_property_of_depth_d_branches(self):
        # branches through all depth-d words jointly cover 1..2^(d+1)-2
        d = 4
        reg = Registry()
        branches = [
            reg.mint_through("".join(w), 0) for w in itertools.product("12", repeat=d)
        ]
        for n in range(1, 2 ** (d + 1) - 1):
            assert any(branch_member(b, n) for b in branches)


# ---------------------------------------------------------------------------
# Differential tests: the stored 64-letter word and the registry's indexes
# against the codec and linear scans, which stay the reference; and the
# registry's two builders against each other
# ---------------------------------------------------------------------------

pres = st.text(alphabet="12", max_size=6)
periods = st.text(alphabet="12", min_size=1, max_size=4)
branches = st.builds(BranchIndex, pres, periods, st.just(0))
# either side of 2**64, the last stored element, and far past it
codes = st.one_of(
    st.integers(1, 2**70), st.integers(2**63, 2**66), st.integers(10**100, 10**101)
)


def scanned_elements_upto(alpha: BranchIndex, bound: int) -> list[int]:
    return [
        c
        for c in (encode_string(alpha.prefix(k)) for k in range(1, max(bound, 1).bit_length() + 1))
        if c <= bound
    ]


def scanned_lcp(a: BranchIndex, b: BranchIndex) -> int | None:
    """Reference: the common prefix found one letter at a time, or None when
    the words agree on ``max(pre) + lcm(periods)`` letters, i.e. are equal."""
    bound = max(len(a.pre), len(b.pre)) + math.lcm(len(a.period), len(b.period))
    x, y = a.prefix(bound), b.prefix(bound)
    return next((i for i in range(bound) if x[i] != y[i]), None)


# shared stems either side of the 64 stored letters, and far past them
stems = st.one_of(
    st.sampled_from([63, 64, 65]), st.integers(70, 140), st.integers(0, 70)
).flatmap(lambda k: st.text(alphabet="12", min_size=k, max_size=k))
# periods up to 12 letters long: two of them can have an lcm past 64
long_periods = st.text(alphabet="12", min_size=1, max_size=12)


@st.composite
def stem_branches(draw, count):
    """``count`` branches whose words all begin with one drawn stem."""
    stem = draw(stems)
    return [BranchIndex(stem + draw(pres), draw(long_periods), r) for r in range(count)]


any_branches = st.one_of(branches, stem_branches(1).map(lambda drawn: drawn[0]))


def reference_cover(l, gamma, registry, base=()):
    """find_cover's former body: every chosen branch tested at every position."""
    base = list(base)
    cover = []

    def covered(n):
        return any(branch_member(b, n) for b in itertools.chain(base, cover))

    for n in range(1, l + 1):
        if covered(n):
            continue
        word = decode_code(n)
        reusable = [
            e
            for e in registry
            if e.rank >= gamma
            and e.prefix(len(word)) == word
            and all(e != b for b in base)
            and all(e != c for c in cover)
        ]
        if reusable:
            cover.append(min(reusable, key=lambda e: e.rank))
        else:
            cover.append(registry.mint_through(word, gamma))
    return cover


class TestStoredCodes:
    @given(any_branches, st.lists(codes, max_size=8), st.lists(st.integers(2, 150), max_size=4))
    @settings(max_examples=200)
    def test_member_matches_the_codec(self, alpha, ns, lengths):
        # the codes of the branch's own prefixes are the members; the codes
        # next to them are the nearest misses
        ns += [encode_string(alpha.prefix(k)) + d for k in [63, 64, 65, *lengths] for d in (-1, 0, 1)]
        for n in ns:
            assert branch_member(alpha, n) == codec_member(alpha, n), n
        for n in (0, -1, -(2**70)):
            with pytest.raises(BranchError):
                branch_member(alpha, n)

    @given(any_branches, st.permutations(range(1, 71)))
    @settings(max_examples=100)
    def test_element_matches_the_codec_in_any_order(self, alpha, order):
        for n in order:
            assert alpha.element(n) == encode_string(alpha.prefix(n)), n
        assert alpha.elements(70) == [encode_string(alpha.prefix(n)) for n in range(1, 71)]

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 200])
    def test_elements_behind_a_long_stem_match_each_element(self, count):
        # past the stored word each code is built from the one before it
        for stem, period in itertools.product((65, 70, 130), ("1", "21", "1121")):
            alpha = BranchIndex(("1211" * 40)[:stem] + "2", period, 0)
            assert alpha.elements(count) == [alpha.element(k) for k in range(1, count + 1)]

    @given(
        any_branches,
        st.lists(st.one_of(st.integers(-3, 2**12), codes), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(1, 150), st.integers(-2, 2)), max_size=3),
    )
    @settings(max_examples=150)
    def test_elements_upto_matches_a_scan(self, alpha, bounds, near):
        # and bounds within two of an element, where the last one may drop
        bounds += [encode_string(alpha.prefix(k)) + d for k, d in near]
        for bound in bounds:
            got = alpha.elements_upto(bound)
            assert got == scanned_elements_upto(alpha, bound), bound
            if bound <= 2**12:
                assert set(got) == brute_codes_of_branch(alpha, bound)

    def test_no_stored_list_grows_with_a_position(self):
        alpha = BranchIndex("12", "21", 0)
        far = encode_string(alpha.prefix(16_000))
        assert branch_member(alpha, far) and not branch_member(alpha, far + 1)
        assert alpha.elements_upto(far)[-1] == far
        assert alpha.element(16_000) == far
        # the one stored word holds the first 64 letters, whatever was asked
        assert type(alpha._word) is int and 0 <= alpha._word < 2**64
        assert alpha._word == int(alpha.prefix(64).translate(str.maketrans("12", "01")), 2)

    @given(st.data())
    @settings(max_examples=120)
    def test_find_cover_matches_the_former_scan(self, data):
        words = data.draw(st.lists(st.tuples(pres, periods), max_size=8))
        entries, rank = [], 0
        for pre, period in words:
            branch = BranchIndex(pre, period, rank)
            if branch not in entries:
                entries.append(branch)
                rank += data.draw(st.integers(1, 3))
        base = data.draw(st.lists(st.one_of(st.sampled_from(entries), branches), max_size=3)
                         if entries else st.lists(branches, max_size=3))
        l = data.draw(st.integers(1, 40))
        gamma = data.draw(st.integers(0, rank + 2))
        ours, theirs = Registry(list(entries)), Registry(list(entries))
        got = find_cover(l, gamma, ours, base)
        want = reference_cover(l, gamma, theirs, base)
        assert [(c.literal(), c.rank, c.label) for c in got] == [
            (c.literal(), c.rank, c.label) for c in want
        ]
        assert ours.to_payload() == theirs.to_payload()


class TestCommonPrefix:
    """`lcp` and `find_separator` against a symbol scan, within and past the
    64 letters each branch keeps as one word."""

    @given(stem_branches(2))
    @settings(max_examples=300)
    def test_lcp_matches_a_symbol_scan(self, pair):
        a, b = pair
        want = scanned_lcp(a, b)
        if want is None:
            assert a == b
            with pytest.raises(BranchError, match="equal as infinite words"):
                a.lcp(b)
        else:
            assert a.lcp(b) == b.lcp(a) == want
            assert intersection_exact(a, b) == {encode_string(a.prefix(n)) for n in range(1, want + 1)}

    @pytest.mark.parametrize("k", [63, 64, 65, 70, 200])
    def test_a_stem_of_k_letters_is_the_common_prefix(self, k):
        stem = ("1211" * 60)[:k]
        a, b = BranchIndex(stem, "1", 0), BranchIndex(stem, "2", 1)
        assert a.lcp(b) == scanned_lcp(a, b) == k
        assert find_separator(a, [b]) == encode_string(stem + "1")
        assert find_separator(b, [a]) == encode_string(stem + "2")

    def test_periods_alone_push_the_bound_past_64(self):
        # periods of 71 and 81 letters, bound 71 + 81 - 1, agreeing on 70 letters
        a, b = BranchIndex("", "1" * 70 + "2", 0), BranchIndex("", "1" * 80 + "2", 1)
        assert a.lcp(b) == scanned_lcp(a, b) == 70
        assert find_separator(a, [b]) == encode_string("1" * 70 + "2")
        # periods of 65 and 130 letters that expand to the same word
        c, d = BranchIndex("", "12" * 32 + "2", 0), BranchIndex("", ("12" * 32 + "2") * 2, 1)
        assert c == d and scanned_lcp(c, d) is None
        with pytest.raises(BranchError, match="equal as infinite words"):
            c.lcp(d)

    def test_the_bound_is_tight(self):
        # "121" and "12112" repeated agree on 3 + 5 - 1 - 1 = 6 letters, the
        # most that periods 3 and 5 allow without agreeing everywhere
        stem = "2" * 70
        a, b = BranchIndex(stem, "121", 0), BranchIndex(stem, "12112", 1)
        assert a.lcp(b) == b.lcp(a) == scanned_lcp(a, b) == 76

    def test_long_coprime_periods_read_a_linear_prefix(self, monkeypatch):
        # periods of 30,000 and 30,001 letters: their lcm is about 9e8
        a = BranchIndex("", "1" * 29_999 + "2", 0)
        b = BranchIndex("", "1" * 30_000 + "2", 1)
        prefix = BranchIndex.prefix

        def short_prefix(self, n):
            # refused before it is built: an lcm-long prefix takes gigabytes
            assert n <= 30_000 + 30_001, n
            return prefix(self, n)

        monkeypatch.setattr(BranchIndex, "prefix", short_prefix)
        assert a.lcp(b) == b.lcp(a) == 29_999
        assert find_separator(a, [b]) == encode_string("1" * 29_999 + "2")

    def test_the_16000_letter_branch(self):
        long = "1" * 16_000
        a, b = BranchIndex(long, "2", 0), BranchIndex(long, "12", 1)
        assert a.lcp(b) == b.lcp(a) == 16_000
        assert find_separator(a, [b, ALL2]) == a.element(16_001) == encode_string(long + "2")
        assert find_separator(b, [a]) == encode_string(long + "1")
        far = a.element(16_000)
        assert far == encode_string(long) == 2**16_000 - 1
        assert branch_member(a, far) and branch_member(b, far)
        assert not branch_member(a, far + 1) and not branch_member(b, far - 1)
        assert a.elements_upto(far) == b.elements_upto(far) == [2**n - 1 for n in range(1, 16_001)]

    @given(stem_branches(4), st.integers(0, 3))
    @settings(max_examples=200)
    def test_find_separator_matches_the_scanned_depth(self, drawn, target):
        alpha = drawn[target]
        group = [b for b in drawn if b != alpha]
        depth = max((scanned_lcp(alpha, b) for b in group), default=0)
        l = find_separator(alpha, group)
        assert l == encode_string(alpha.prefix(depth + 1))
        assert branch_member(alpha, l) and not any(branch_member(b, l) for b in group)


def _built(build, specs):
    """``build(specs)``'s entries, or the message it refuses them with."""
    try:
        return build(specs).to_payload()
    except (BranchError, FormatError) as exc:
        return str(exc)


specs = st.tuples(
    pres, periods, st.one_of(st.none(), st.integers(0, 6)),
    st.sampled_from(["", "x", "b0", "b1", "b1_2", "b3"]),
)


class TestRegistryIndexes:
    @given(st.lists(st.tuples(branches, st.integers(0, 3), st.sampled_from(["", "x", "b2"]))))
    @settings(max_examples=120)
    def test_lookups_match_a_scan(self, adds):
        reg, rank = Registry(), 0
        for branch, step, label in adds:
            rank += step
            try:
                reg.add(BranchIndex(branch.pre, branch.period, rank, label))
            except BranchError:
                pass
        entries = list(reg)
        for branch, _, _ in adds:
            found = [e for e in entries if e == branch]
            assert (branch in reg) == bool(found)
            if found:
                assert reg.entry(branch) is found[0]
        for label in ["x", "b2", *(e.label for e in entries)]:
            found = [e for e in entries if e.label == label]
            if found:
                assert reg.by_label(label) is found[0]
            else:
                with pytest.raises(BranchError, match="no branch labelled"):
                    reg.by_label(label)

    @given(st.lists(specs, max_size=6))
    @settings(max_examples=200)
    def test_make_registry_matches_parse_registry(self, drawn):
        texts = [
            f"{label + '=' if label else ''}{pre}:{period}{'' if rank is None else f'@{rank}'}"
            for pre, period, rank, label in drawn
        ]
        assert _built(make_registry, drawn) == _built(parse_registry, texts)
