"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Transfinite statements are checked through their finite constructive
content: every quantifier is pinned to an explicit registry and truncation,
recorded in the certificates themselves.

Two finitizations used here and documented inline: "every registry" is a
fixture family of canonical plus seeded-random registries, and the two big
exhaustive closure criteria group points by support (membership in atom-form
sets depends only on the support, an invariant the unit suite verifies), with
full value-level evaluation on every small class and on representatives of
large ones.
"""

import itertools
import random
import time

from closure_view import branches, class_verdicts, classes, point_verdicts, target
from zfilterlab.branches import (
    BranchIndex,
    Registry,
    branch_member,
    decode_code,
    encode_string,
    intersection_exact,
    make_registry,
)
from zfilterlab.certificates import Certificate
from zfilterlab.checking import check_certificate, check_certificate_text
from zfilterlab.engines import (
    AFailure,
    check_extendibility_a,
    containment_counterexample,
    containment_decreasing,
    containment_full_product,
    decreasing_chain_engine,
    increasing_chain_engine,
    property_b_refute,
)
from zfilterlab.filters import FilterBase, filter_member, pairwise_union_base
from zfilterlab.formats import parse_point_literal
from zfilterlab.space import (
    PI,
    XI,
    Atom,
    Diff,
    Singleton,
    Truncation,
    Union,
    Whole,
    XiPoint,
    class_point_count,
    class_points,
    enumerate_truncated,
    eval_setexpr,
    exact_counterexample,
    inter_atoms,
    multi_escape_sequence,
    union_atoms,
)

TRUNC = Truncation(8, 10)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def random_branch(rng: random.Random, rank: int, max_pre=6, max_period=4) -> BranchIndex:
    pre = "".join(rng.choice("12") for _ in range(rng.randrange(0, max_pre + 1)))
    period = "".join(rng.choice("12") for _ in range(rng.randrange(1, max_period + 1)))
    return BranchIndex(pre, period, rank)


def random_registry(rng: random.Random, size: int) -> Registry:
    branches: list[BranchIndex] = []
    rank = 0
    while len(branches) < size:
        b = random_branch(rng, rank)
        if all(b != x for x in branches):
            branches.append(b)
            rank += 1
    return Registry(branches)


POOL8 = [
    ("", "1"), ("", "2"), ("1", "2"), ("12", "1"),
    ("2", "1"), ("21", "12"), ("112", "1"), ("22", "21"),
]


def pool_registry() -> Registry:
    return make_registry(POOL8)


def test_criterion_codec_bijectivity():
    start = time.perf_counter()
    ok = all(encode_string(decode_code(n)) == n for n in range(1, 10**5 + 1))
    for length in range(1, 17):
        for word in itertools.product("12", repeat=length):
            w = "".join(word)
            if decode_code(encode_string(w)) != w:
                ok = False
                break
    elapsed = time.perf_counter() - start
    report("codec bijectivity (n<=1e5, words<=16)", ok and elapsed < 2.0,
           f"{elapsed:.2f}s")


def test_criterion_exact_almost_disjointness():
    start = time.perf_counter()
    rng = random.Random(20240811)
    mismatches = 0
    checked = 0
    while checked < 200:
        if checked % 4 == 0:
            # force a deep common prefix to exercise large agreement depths
            depth = rng.randrange(5, 15)
            common = "".join(rng.choice("12") for _ in range(depth))
            a = BranchIndex(common + "1", rng.choice(["1", "2", "12"]), 0)
            b = BranchIndex(common + "2", rng.choice(["1", "2", "21"]), 1)
        else:
            a = random_branch(rng, 0)
            b = random_branch(rng, 1)
        if a == b:
            continue
        d = a.lcp(b)
        if d > 14:
            continue
        checked += 1
        exact = intersection_exact(a, b)
        bound = 2 ** (d + 2)
        brute = set(a.elements_upto(bound)) & set(b.elements_upto(bound))
        if len(exact) != d or exact != brute:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report("exact almost-disjointness (200 random pairs, depth<=14)",
           mismatches == 0 and elapsed < 5.0,
           f"{elapsed:.2f}s, {mismatches} mismatches")


def test_criterion_prototype_witnesses():
    start = time.perf_counter()
    rng = random.Random(7)
    registries = [
        make_registry([("", "1"), ("", "2"), ("1", "2"), ("12", "1"),
                       ("2", "1"), ("21", "12")]),
        make_registry([("111", "1"), ("111", "2"), ("12", "21"),
                       ("1", "12"), ("", "12"), ("11222", "1")]),
        make_registry([("", "1"), ("", "2")]),
        random_registry(rng, 5),
        random_registry(rng, 6),
        random_registry(rng, 4),
    ]
    failures = 0
    pairs = 0
    for reg in registries:
        cert = check_extendibility_a(reg)
        # point j answers entry j
        points = {a.label: parse_point_literal(p) for a, p in zip(reg, cert.payload["entries"])}
        if len(cert.payload["entries"]) != len(reg):
            failures += 1
        # alpha's single point must separate it from every group of at most
        # four other entries
        for alpha in reg:
            point = points[alpha.label]
            others = [b for b in reg if b != alpha]
            for size in range(0, min(4, len(others)) + 1):
                for group in itertools.combinations(others, size):
                    pairs += 1
                    ok = eval_setexpr(point, inter_atoms(group)) and not eval_setexpr(
                        point, Atom(alpha)
                    )
                    if not ok:
                        failures += 1
        if not check_certificate(cert).ok:
            failures += 1
    elapsed = time.perf_counter() - start
    report("prototype-lemma witness points (registries<=6, |G|<=4)",
           failures == 0 and elapsed < 10.0,
           f"{pairs} pairs over {len(registries)} registries, {elapsed:.2f}s")


def _sample_disjoint(rng: random.Random, entries, max_each=3):
    k1 = rng.randrange(0, max_each + 1)
    k2 = rng.randrange(0, max_each + 1)
    chosen = rng.sample(entries, min(k1 + k2, len(entries)))
    return chosen[:k1], chosen[k1:k1 + k2]


def test_criterion_closure_engine_prototype():
    start = time.perf_counter()
    rng = random.Random(41)
    bad = 0
    points_total = 0
    for _ in range(100):
        reg = pool_registry()
        subtracted, kept = _sample_disjoint(rng, list(reg))
        gamma = rng.randrange(0, 30)
        # the criteria read what is certified: the certificate's cover and
        # separators, its branches resolved by label
        cert = containment_decreasing(subtracted, kept, gamma, reg)
        cover = branches(cert, reg, "cover")
        if cover and min(c.rank for c in cover) < gamma:
            bad += 1
        covered = all(
            any(branch_member(b, n) for b in itertools.chain(branches(cert, reg, "kept"), cover))
            for n in range(1, max(cert.payload["separators"], default=0) + 1)
        )
        if not covered:
            bad += 1
        goal = target(cert, reg)
        for p, witness in point_verdicts(cert, reg, TRUNC):
            points_total += 1
            terms = [p] if witness is p else witness.terms()
            if not all(eval_setexpr(t, goal) for t in terms):
                bad += 1
                break
    elapsed = time.perf_counter() - start
    report("closure engine, compact space (100 random runs, T=8 V=10)",
           bad == 0 and elapsed < 60.0,
           f"{points_total} point verdicts, {elapsed:.2f}s")


def test_criterion_closure_engine_full_product():
    start = time.perf_counter()
    rng = random.Random(42)
    bad = 0
    classes_total = 0
    covered_points = 0
    full_checked = 0
    for _ in range(100):
        reg = pool_registry()
        kept, subtracted = _sample_disjoint(rng, list(reg))
        cert = containment_full_product(kept, subtracted)
        goal = target(cert, reg)
        lhs = inter_atoms(kept)
        expected_total = 0
        free = [
            n for n in range(1, TRUNC.T + 1)
            if not any(branch_member(b, n) for b in kept)
        ]
        for cw in classes(cert, reg, TRUNC):
            classes_total += 1
            if cw.count != class_point_count(cw.support, TRUNC, PI):
                bad += 1
            expected_total += cw.count
            sample = next(class_points(cw.support, TRUNC, PI))
            if not eval_setexpr(sample, lhs):
                bad += 1
            seq_points = (
                [sample]
                if cw.self_member
                else multi_escape_sequence(sample, cw.escapes, 3).terms()
            )
            if not all(eval_setexpr(t, goal) for t in seq_points):
                bad += 1
            if cw.count <= 256 and full_checked < 20000:
                for p, witness in class_verdicts(cert, cw, TRUNC):
                    full_checked += 1
                    terms = [p] if witness is p else witness.terms()
                    if not all(eval_setexpr(t, goal) for t in terms):
                        bad += 1
                        break
        covered_points += expected_total
        # independent count: free positions each carry one of V values or infinity
        if expected_total != (TRUNC.V + 1) ** len(free):
            bad += 1
    elapsed = time.perf_counter() - start
    report("closure engine, full product (100 random runs, T=8 V=10)",
           bad == 0,
           f"{covered_points} points in {classes_total} classes, "
           f"{full_checked} fully evaluated, {elapsed:.2f}s")


def _refuter_fixtures():
    """At least ten putative covers (n <= 4) with truncation-valid failure claims."""
    fixtures = []

    def zero_set_cover(labels_count: int):
        reg = pool_registry()
        entries = list(reg)[:labels_count]
        failures = [AFailure(Atom(b), (), (b,)) for b in entries]
        return reg, failures

    for n in (1, 2, 3, 4):
        fixtures.append(zero_set_cover(n))

    # constraining branches jointly cover every position up to T=8, so the
    # constrained truncation collapses to the all-infinite point and the
    # whole-space failure claim verifies
    covering = [("", "1"), ("112", "1"), ("12", "1"), ("21", "1"), ("22", "1")]

    def whole_fixture(extra_sets: int):
        reg = make_registry(
            covering + [("", "2", 9), ("1", "21", 10), ("122", "1", 11)]
        )
        constraining = tuple(b for b in reg if b.rank <= 4)
        whole_failure = AFailure(Whole(), constraining, (reg.by_label("b9"),))
        failures = [whole_failure]
        extras = [reg.by_label("b10"), reg.by_label("b11")][:extra_sets]
        for b in extras:
            failures.append(AFailure(Atom(b), (), (b,)))
        return reg, failures

    for extras in (0, 1, 2):
        fixtures.append(whole_fixture(extras))

    reg = pool_registry()
    fixtures.append(
        (
            reg,
            [
                AFailure(
                    Union((Atom(reg.entries[0]), Atom(reg.entries[1]))),
                    (),
                    (reg.entries[0], reg.entries[1]),
                ),
                AFailure(Singleton(XiPoint.of({})), (), (reg.entries[2],)),
            ],
        )
    )
    reg = pool_registry()
    fixtures.append(
        (
            reg,
            [
                AFailure(Singleton(XiPoint.of({3: 4})), (), (reg.entries[3],)),
                AFailure(Atom(reg.entries[0]), (), (reg.entries[0],)),
                AFailure(Atom(reg.entries[1]), (), (reg.entries[1],)),
            ],
        )
    )
    reg = make_registry(covering + [("", "2", 9)])
    fixtures.append(
        (
            reg,
            [
                AFailure(Whole(), tuple(b for b in reg if b.rank <= 4),
                         (reg.by_label("b9"),)),
                AFailure(Singleton(XiPoint.of({3: 4})), (), (reg.by_label("b9"),)),
            ],
        )
    )
    return fixtures


def test_criterion_property_b_refuter():
    start = time.perf_counter()
    fixtures = _refuter_fixtures()
    assert len(fixtures) >= 10
    bad = 0
    kinds = {"Contradiction": 0, "CounterexamplePoint": 0}
    for reg, failures in fixtures:
        refuted = property_b_refute(failures, 50, reg, TRUNC)
        cert = refuted.certificate
        if cert.kind not in kinds:
            bad += 1
            continue
        kinds[cert.kind] += 1
        if not check_certificate(cert).ok:
            bad += 1
        # every chain step before the terminal passed its inclusion;
        # re-check each exhaustively against the sorted cover sets
        ordered = sorted(failures, key=lambda f: f.max_constraining_rank())
        zsets = [f.zset for f in ordered]
        for k, chain in enumerate(refuted.chain):
            remainder = Union(tuple(zsets[k + 1:]))
            violation = containment_counterexample(
                inter_atoms(chain), remainder, TRUNC, XI
            )
            is_last_step = k == len(refuted.chain) - 1
            if violation is None and is_last_step and cert.kind == "Contradiction":
                bad += 1  # the terminal step must be the one that broke
            if violation is not None and not is_last_step:
                bad += 1  # earlier steps must have passed
    elapsed = time.perf_counter() - start
    report("property-(B) refuter fixture suite (>=10 covers, n<=4)",
           bad == 0 and kinds["Contradiction"] > 0
           and kinds["CounterexamplePoint"] > 0 and elapsed < 120.0,
           f"{kinds['Contradiction']} contradictions, "
           f"{kinds['CounterexamplePoint']} counterexamples, {elapsed:.2f}s")


def test_criterion_chain_strictness():
    start = time.perf_counter()
    reg_inc = pool_registry()
    reg_dec = pool_registry()
    inc = increasing_chain_engine(reg_inc, 8)
    dec = decreasing_chain_engine(reg_dec, 8)
    bad = 0
    if not check_certificate(inc).ok:
        bad += 1
    if not check_certificate(dec).ok:
        bad += 1
    entries = list(pool_registry())
    # step k's base, as each engine's docstring defines it
    inc_bases = [FilterBase.of([Whole()] + [Atom(e) for e in entries[:k]]) for k in range(8)]
    dec_bases = [FilterBase.of([Atom(e) for e in entries[k:]]) for k in range(8)]
    for k in range(8):
        for j, entry in enumerate(entries):
            v_inc = filter_member(inc_bases[k], Atom(entry))
            v_dec = filter_member(dec_bases[k], Atom(entry))
            if v_inc.proven != (j < k) or v_dec.proven != (j >= k):
                bad += 1
    # strictness: at every step k where entry j is not a member, entry j's
    # single point lies in the intersection of base k but outside Z(e_j)
    for rep, base_of, member in (
        (inc, lambda k: entries[:k], lambda j, k: j < k),
        (dec, lambda k: entries[k:], lambda j, k: j >= k),
    ):
        points = {e.label: parse_point_literal(p)
                  for e, p in zip(entries, rep.payload["entries"])}
        for k in range(8):
            for j, entry in enumerate(entries[:8]):
                if member(j, k):
                    continue
                point = points.get(entry.label)
                if point is None or not eval_setexpr(
                    point, Diff(inter_atoms(base_of(k)), Atom(entry))
                ):
                    bad += 1
    elapsed = time.perf_counter() - start
    report("chain strictness (8-step increasing and decreasing)",
           bad == 0, f"{elapsed:.2f}s")


def test_criterion_oracle_equivalence():
    """Exact containment vs the exhaustive oracle, with no contradictions.

    Boolean equality of the two on every pair is impossible at (6,8) with
    five branches: only four length-2 words exist, so two branches share a
    2-prefix and their separator code exceeds the truncation, hiding the
    refuting point from the exhaustive check (the degenerate T=0 case breaks
    the literal reading the same way).  What is checkable, and checked on
    every pair: the exact verdict never contradicts the oracle, every exact
    refutation carries an evaluation-verified witness point, and equality
    holds whenever the witness fits inside the truncation.
    """
    start = time.perf_counter()
    trunc = Truncation(6, 8)
    reg = make_registry([("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")])
    entries = list(reg)
    points = enumerate_truncated(trunc, XI)
    gen_sets = [
        tuple(c)
        for r in range(0, 4)
        for c in itertools.combinations(entries, r)
    ]
    membership = {
        gs: [eval_setexpr(p, inter_atoms(gs)) for p in points] for gs in gen_sets
    }
    bad = 0
    equal = 0
    beyond = 0
    for u in gen_sets:
        for v in gen_sets:
            brute = all(
                (not mu) or mv for mu, mv in zip(membership[u], membership[v])
            )
            w = exact_counterexample(inter_atoms(u), inter_atoms(v), XI)
            exact = w is None
            if exact and not brute:
                bad += 1  # a truncated counterexample contradicts the exact claim
            if exact == brute:
                equal += 1
            if not exact:
                if not (
                    eval_setexpr(w, inter_atoms(u))
                    and not eval_setexpr(w, inter_atoms(v))
                ):
                    bad += 1
                in_trunc = all(
                    pos <= trunc.T and val <= trunc.V for pos, val in w.support
                )
                if in_trunc and brute:
                    bad += 1  # witness inside the truncation, oracle missed it
                if not in_trunc:
                    beyond += 1

    base = pairwise_union_base(entries[:3])
    corpus = [
        Whole(),
        Atom(entries[0]),
        Union((Atom(entries[0]), Atom(entries[1]))),
        Diff(Whole(), Atom(entries[0])),
        inter_atoms(entries[:2]),
        union_atoms(entries[:3]),
        Union(()),
    ]
    core = base.core()
    for z in corpus:
        verdict = filter_member(base, z)
        oracle = all(
            eval_setexpr(p, z) for p in points if eval_setexpr(p, core)
        )
        if verdict.proven and not oracle:
            bad += 1
        if verdict.refuted and oracle:
            bad += 1
    elapsed = time.perf_counter() - start
    report("oracle equivalence (no contradictions, witnesses verified, T=6 V=8)",
           bad == 0,
           f"{len(gen_sets)**2} pairs, {equal} boolean-equal, "
           f"{beyond} refutation witnesses beyond the truncation, {elapsed:.2f}s")


def test_criterion_certificate_integrity():
    start = time.perf_counter()
    bad = 0
    for i in range(1000):
        offset = i % 7
        reg = make_registry(
            [("", "1", offset), ("", "2", offset + 1 + i % 3), ("1", "2", offset + 5)]
        )
        cert = check_extendibility_a(reg)
        text = cert.to_json()
        again = Certificate.from_json(text)
        if not check_certificate(again).ok:
            bad += 1
    blob = check_extendibility_a(pool_registry()).to_json().encode()
    rng = random.Random(99)
    rejected = 0
    trials = 0
    while trials < 1000:
        i = rng.randrange(len(blob))
        flip = bytes([blob[i] ^ (1 << rng.randrange(8))])
        mutated = blob[:i] + flip + blob[i + 1:]
        if mutated == blob:
            continue
        trials += 1
        if not check_certificate_text(mutated).ok:
            rejected += 1
    elapsed = time.perf_counter() - start
    report("certificate integrity (1000 round-trips, 1000 fuzz mutations)",
           bad == 0 and rejected == 1000,
           f"{rejected}/1000 rejected, {elapsed:.2f}s")
