"""Certificate serialization, digesting, tampering, and checker behavior."""

import hashlib
import itertools
import json
import random
import time

import pytest

from zfilterlab.branches import branch_member, find_separator, make_registry
from zfilterlab.certificates import (
    SCHEMA_VERSION,
    Certificate,
    CertificateError,
    body_digest,
    canonical_json,
)
from zfilterlab.checking import CheckReport, check_certificate, check_certificate_text
from zfilterlab.engines import (
    AFailure,
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
from zfilterlab.formats import MAX_SETEXPR_DEPTH, FormatError, parse_setexpr
from zfilterlab.space import Atom, Truncation, Union, Whole

TR = Truncation(4, 6)


def reg():
    return make_registry([("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")])


def sample_certificates():
    r = reg()
    certs = [check_extendibility_a(r)]
    r = reg()
    certs.append(check_extendibility_b(Whole(), r.entries[0], r, TR))
    r = reg()
    certs.append(
        containment_decreasing([r.entries[0]], [r.entries[1]], 7, r).certificate
    )
    r = reg()
    certs.append(
        containment_full_product([r.entries[0]], [r.entries[1]]).certificate
    )
    r = reg()
    certs.append(property_a_check(Whole(), r, TR).certificate)
    r = reg()
    certs.append(increasing_chain_engine(r, 3).certificate)
    r = reg()
    certs.append(decreasing_chain_engine(r, 3).certificate)
    r = make_registry([("11", "1"), ("12", "1"), ("2", "1"), ("21", "2"), ("", "2", 9)])
    constraining = tuple(b for b in r if b.rank <= TR.T)
    failure = AFailure(Whole(), constraining, (r.entries[-1],))
    certs.append(property_b_refute([failure], 50, r, TR))
    r = reg()
    failures = [
        AFailure(Atom(r.entries[0]), (), (r.entries[0],)),
        AFailure(Atom(r.entries[1]), (), (r.entries[1],)),
    ]
    certs.append(property_b_refute(failures, 50, r, TR))
    r = reg()
    certs.append(property_a_check(Atom(r.entries[0]), r, TR).certificate)
    return certs


class TestRoundTrip:
    def test_all_kinds_round_trip_and_verify(self):
        for cert in sample_certificates():
            text = cert.to_json()
            again = Certificate.from_json(text)
            assert again.kind == cert.kind
            assert again.to_json() == text
            report = check_certificate(again)
            assert report.ok, (cert.kind, report.problems)

    def test_serialization_is_the_canonical_document(self):
        # the digest is spliced into the serialized body, not serialized with it
        for cert in sample_certificates():
            body = {"schema": SCHEMA_VERSION, "kind": cert.kind, "params": cert.params,
                    "payload": cert.payload, "steps": cert.steps}
            digest = body_digest(cert.kind, cert.params, cert.payload, cert.steps)
            assert cert.to_json() == canonical_json({**body, "digest": digest})

    def test_byte_determinism(self):
        r1, r2 = reg(), reg()
        a = check_extendibility_a(r1).to_json()
        b = check_extendibility_a(r2).to_json()
        assert a == b

    def test_file_round_trip(self, tmp_path):
        cert = sample_certificates()[0]
        path = tmp_path / "cert.json"
        cert.write(str(path))
        again = Certificate.read(str(path))
        assert again.to_json() == cert.to_json()


class TestTampering:
    def test_payload_mutation_detected(self):
        cert = sample_certificates()[0]
        doc = json.loads(cert.to_json())
        doc["payload"]["entries"][0]["point"] = "{1:2}"
        with pytest.raises(CertificateError):
            Certificate.from_json(json.dumps(doc))

    def test_digest_mutation_detected(self):
        cert = sample_certificates()[0]
        doc = json.loads(cert.to_json())
        doc["digest"] = "0" * 64
        with pytest.raises(CertificateError):
            Certificate.from_json(json.dumps(doc))

    def test_kind_swap_detected(self):
        cert = sample_certificates()[0]
        doc = json.loads(cert.to_json())
        doc["kind"] = "CoverSet"
        with pytest.raises(CertificateError):
            Certificate.from_json(json.dumps(doc))

    def test_single_byte_fuzz_sample(self):
        cert = sample_certificates()[0]
        blob = cert.to_json().encode()
        rng = random.Random(7)
        for _ in range(200):
            i = rng.randrange(len(blob))
            flip = bytes([blob[i] ^ (1 << rng.randrange(8))])
            mutated = blob[:i] + flip + blob[i + 1:]
            if mutated == blob:
                continue
            report = check_certificate_text(mutated)
            assert not report.ok

    def test_semantic_lie_rejected_by_checker(self):
        # a well-digested certificate whose witness point is wrong
        r = reg()
        cert = check_extendibility_a(r)
        cert.payload["entries"][0]["point"] = "{1:1,2:2}"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        report = check_certificate(fresh)
        assert not report.ok

    @pytest.mark.parametrize("tamper", ["index-out-of-range", "index-not-int", "afailure-dropped"])
    def test_contradiction_is_tied_to_its_cover(self, tamper):
        # the payload afailure must be the recorded one at afailure_index;
        # each tamper used to pass under a fresh digest
        cert = next(c for c in sample_certificates() if c.kind == "Contradiction")
        params, payload = dict(cert.params), dict(cert.payload)
        index = payload["afailure_index"]
        if tamper == "index-out-of-range":
            payload["afailure_index"] = 99
        elif tamper == "index-not-int":
            payload["afailure_index"] = str(index)
        else:
            # drop the payload's afailure from the recorded cover
            params["afailures"] = [a for i, a in enumerate(params["afailures"]) if i != index]
            params["cover"] = [c for i, c in enumerate(params["cover"]) if i != index]
        assert check_certificate(cert).ok
        tampered = Certificate(cert.kind, params, payload, cert.steps)
        assert not check_certificate(Certificate.from_json(tampered.to_json())).ok


class TestStructure:
    def test_bad_field_types_rejected_on_construction(self):
        with pytest.raises(CertificateError):
            Certificate("SeparatorWitness", [], {})
        with pytest.raises(CertificateError):
            Certificate("SeparatorWitness", {}, {}, steps={})

    def test_digest_valid_body_with_list_params_is_a_failed_report(self):
        doc = {"schema": SCHEMA_VERSION, "kind": "SeparatorWitness", "params": [],
               "payload": {}, "steps": []}
        doc["digest"] = body_digest("SeparatorWitness", [], {}, [])
        report = check_certificate_text(json.dumps(doc))
        assert not report.ok and report.problems

    def test_version_one_document_rejected(self):
        # schema 2 certificates still list the closure classes, schema 3
        # property-a certificates one witness per (F, beta) pair, and schema 4
        # separator certificates a truncation
        cert = sample_certificates()[0]
        for schema in (1, 2, 3, 4):
            doc = {"schema": schema, "kind": cert.kind, "params": cert.params,
                   "payload": cert.payload, "steps": cert.steps}
            doc["digest"] = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
            report = check_certificate_text(json.dumps(doc))
            assert not report.ok
            assert "unsupported schema version" in report.problems[0]


    def test_only_truncated_searches_record_a_truncation(self):
        certs = sample_certificates()
        recorded = {(c.kind, c.payload.get("claim")) for c in certs if "truncation" in c.params}
        assert recorded == {
            ("ExceptionList", None),
            ("InclusionChain", "absorption-failure"),
            ("Contradiction", "afailure-inclusion-breaks"),
            ("CounterexamplePoint", "cover-misses-point"),
        }
        exact = {(c.kind, c.payload.get("claim")) for c in certs if "truncation" not in c.params}
        assert exact == {
            ("SeparatorWitness", "no-single-zero-set-in-filter"),
            ("SeparatorWitness", "non-absorption-holds"),
            ("SeparatorWitness", "strictly-increasing-chain"),
            ("SeparatorWitness", "strictly-decreasing-chain"),
            ("InclusionChain", "closure-containment-with-rank-floor"),
            ("InclusionChain", "punctured-intersection-dense"),
        }


class TestSeparatorWitnessClaims:
    def test_empty_payload_rejected(self):
        assert not check_certificate(Certificate("SeparatorWitness", {}, {})).ok

    def test_unknown_claim_rejected(self):
        cert = increasing_chain_engine(reg(), 3).certificate
        cert.payload["claim"] = "strictly-sideways-chain"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok

    @pytest.mark.parametrize(
        "cut",
        [
            lambda xs: [],
            lambda xs: xs[:-1],
            lambda xs: xs[1:],
            lambda xs: xs[:1],
            lambda xs: xs + xs[:1],
            lambda xs: [xs[1], xs[0]] + xs[2:],
        ],
        ids=["none", "last-missing", "first-missing", "cut-to-one", "one-repeated",
             "two-swapped"],
    )
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: check_extendibility_a(reg()), "entries"),
            (lambda: increasing_chain_engine(reg(), 3).certificate, "entries"),
            (lambda: decreasing_chain_engine(reg(), 3).certificate, "entries"),
            (lambda: property_a_check(Whole(), reg(), TR).certificate, "entries"),
        ],
        ids=["ext-a", "chain-inc", "chain-dec", "prop-a"],
    )
    def test_entries_must_match(self, make, field, cut):
        # the checker derives the obligation list; any cut of it must fail
        cert = make()
        assert check_certificate(cert).ok
        cert.payload[field] = cut(cert.payload[field])
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok

    def test_entry_counts(self):
        r = reg()
        assert len(check_extendibility_a(r).payload["entries"]) == len(r)
        for steps in (1, 3, 5):
            inc = increasing_chain_engine(reg(), steps).certificate
            dec = decreasing_chain_engine(reg(), steps).certificate
            assert len(inc.payload["entries"]) == steps
            assert len(dec.payload["entries"]) == steps - 1

    def test_point_outside_the_maximal_group_rejected(self):
        # b0's point for the group {b1} alone would not do: it must lie in
        # the intersection of every other entry
        r = reg()
        cert = check_extendibility_a(r)
        cert.payload["entries"][0]["point"] = "{1:1}"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok

    def test_property_a_point_outside_the_maximal_set_rejected(self):
        # b3's point must lie in the zero sets of b0, b1 and b2, not only in
        # those of b0 and b1
        r = reg()
        cert = property_a_check(Whole(), r, TR).certificate
        assert len(cert.payload["entries"]) == len(r)
        b0, b1, b2, b3 = r.entries[:4]
        l = find_separator(b3, [b0, b1])
        assert branch_member(b2, l)
        cert.payload["entries"][3]["point"] = f"{{{l}:{l}}}"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        report = check_certificate(fresh)
        assert not report.ok and "fails to separate b3" in report.problems[0]

    def test_single_entry_registry_rejected(self):
        cert = check_extendibility_a(reg())
        cert.params["registry"] = cert.params["registry"][:1]
        cert.payload["entries"] = cert.payload["entries"][:1]
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok

    def test_property_a_witnesses_must_lie_in_the_recorded_set(self):
        cert = property_a_check(Whole(), reg(), TR).certificate
        assert cert.payload["zset"] == "W"
        cert.payload["zset"] = "(union)"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok


class TestWrongTypedFields:
    VALUES = [[], {}, "x", 5, None, True, [1], {"a": 1}]

    def test_every_field_replacement_yields_a_report(self):
        # each top-level params and payload field of every sample certificate,
        # replaced by each wrong-typed value, must give a report, not raise
        for cert in sample_certificates():
            for section, value in itertools.product(("params", "payload"), self.VALUES):
                for key in getattr(cert, section):
                    params, payload = dict(cert.params), dict(cert.payload)
                    {"params": params, "payload": payload}[section][key] = value
                    fresh = Certificate(cert.kind, params, payload, cert.steps)
                    report = check_certificate(fresh)
                    assert isinstance(report.ok, bool), (cert.kind, section, key, value)

    @staticmethod
    def position_one_certificates():
        """Rank-floor and full-product closure certificates and a cover to
        depth 1, on b0 = 1:2 and b1 = 2:1 with b0 subtracted and b1 kept.

        Position 1, the code of the word 1, is b0's separator in both claims
        and the depth of the rank floor and the cover, so ``True``, equal to
        1, fails only for its type.
        """
        specs = [("1", "2"), ("2", "1")]
        r = make_registry(specs)
        certs = [containment_decreasing([r.entries[0]], [r.entries[1]], 2, r).certificate]
        r = make_registry(specs)
        certs.append(containment_full_product([r.entries[1]], [r.entries[0]]).certificate)
        certs.append(cover_certificate(1, 0, make_registry(specs), [])[1])
        for cert in certs:
            assert check_certificate(cert).ok
        assert [c.payload["separators"] for c in certs[:2]] == [{"b0": 1}] * 2
        assert certs[0].payload["depth"] == certs[2].params["depth"] == 1
        return certs

    def test_every_separator_replacement_is_rejected(self):
        # no wrong-typed, nonpositive or fractional position is a separator here
        for cert in closure_certificates() + self.position_one_certificates()[:2]:
            separators = cert.payload["separators"]
            for label, value in itertools.product(separators, self.VALUES + [0, -1, 2.5]):
                payload = dict(cert.payload, separators=dict(separators, **{label: value}))
                report = check_certificate(Certificate(cert.kind, cert.params, payload, cert.steps))
                assert report.ok is False, (cert.payload["claim"], label, value)

    def test_every_depth_replacement_is_rejected(self):
        dec, _, cover = self.position_one_certificates()
        for cert, section in ((dec, "payload"), (cover, "params")):
            for value in self.VALUES:
                report = check_certificate(_with(section, depth=value)(cert))
                assert report.ok is False, (cert.kind, value)

    def test_every_non_integer_steps_is_rejected(self):
        # True equals 1, so a one-step chain used to pass with it
        for make in (increasing_chain_engine, decreasing_chain_engine):
            for steps in (1, 3):
                cert = make(reg(), steps).certificate
                assert check_certificate(cert).ok
                for value in (True, float(steps), steps + 0.5, str(steps), None):
                    report = check_certificate(_with("params", steps=value)(cert))
                    assert report.ok is False, (cert.payload["claim"], steps, value)

    def test_every_non_integer_gamma_is_rejected(self):
        # a rank floor is only compared with ranks, so a bool or a float on
        # the same side of every rank used to pass
        r = reg()
        certs = [cover_certificate(12, 5, r, [r.entries[0]])[1]]
        certs += [c for c in sample_certificates() if "gamma" in c.params]
        assert {c.kind for c in certs} == {
            "CoverSet", "InclusionChain", "Contradiction", "CounterexamplePoint"
        }
        for cert in certs:
            assert check_certificate(cert).ok
            gamma = cert.params["gamma"]
            for value in (True, False, 0.5, -1.5, gamma - 0.5, float(gamma), str(gamma), None):
                report = check_certificate(_with("params", gamma=value)(cert))
                assert report.ok is False, (cert.kind, value)

    def test_every_non_integer_truncation_is_rejected(self):
        # a fractional or boolean bound is no truncation; it used to reach
        # BranchIndex.elements_upto and raise AttributeError, or pass
        certs = [c for c in sample_certificates() if "truncation" in c.params]
        assert {c.kind for c in certs} >= {"ExceptionList", "Contradiction", "CounterexamplePoint"}
        for cert in certs:
            for key, value in itertools.product(("T", "V"), (2.5, 1.0, True)):
                truncation = dict(cert.params["truncation"], **{key: value})
                params = dict(cert.params, truncation=truncation)
                report = check_certificate(Certificate(cert.kind, params, cert.payload, cert.steps))
                assert report.ok is False, (cert.kind, key, value)


class TestNestingLimit:
    DEEP = "(union " * 3000 + "W" + ")" * 3000

    def test_parse_setexpr_refuses_nesting_past_the_limit(self):
        at_limit = "(union " * MAX_SETEXPR_DEPTH + "W" + ")" * MAX_SETEXPR_DEPTH
        assert isinstance(parse_setexpr(at_limit), Union)
        past = "(inter " + at_limit + ")"
        for text in (past, self.DEEP):
            with pytest.raises(FormatError, match="deeper than"):
                parse_setexpr(text)

    def test_deep_zset_in_a_certificate_is_a_failed_report(self):
        cert = sample_certificates()[1]
        assert cert.payload["zset"] == "W"
        payload = dict(cert.payload, zset=self.DEEP)
        text = Certificate(cert.kind, cert.params, payload, cert.steps).to_json()
        report = check_certificate_text(text)
        assert not report.ok and "deeper than" in report.problems[0]


class TestBoundedReplay:
    """Replay cost follows the certificate's size, not the numbers in it."""

    def test_far_separator_fails_at_once(self):
        # the listed branches own at most 22 positions up to 3,000,000 each
        cert = sample_certificates()[1]
        payload = dict(cert.payload, separator=3_000_000)
        start = time.perf_counter()
        report = check_certificate(Certificate(cert.kind, cert.params, payload, cert.steps))
        assert time.perf_counter() - start < 1.0
        assert not report.ok
        assert len([p for p in report.problems if "cover" in p]) == 1

    def test_uncovered_positions_are_one_problem(self):
        r = reg()
        cover, cert = cover_certificate(12, 5, r, [r.entries[0]])
        assert check_certificate(cert).ok and cover
        payload = dict(cert.payload, cover=cert.payload["cover"][1:])
        report = check_certificate(Certificate(cert.kind, cert.params, payload, cert.steps))
        assert not report.ok and len(report.problems) == 1
        assert "not covered" in report.problems[0]

    def test_property_a_listing_stops_at_the_first_missing_pair(self):
        # 24 entries, none of them listed
        words = [format(i, "05b").translate(str.maketrans("01", "12")) for i in range(24)]
        r = make_registry([(w, "2") for w in words])
        cert = property_a_check(Whole(), reg(), TR).certificate
        params = dict(cert.params, registry=r.to_payload())
        payload = dict(cert.payload, entries=[])
        start = time.perf_counter()
        report = check_certificate(Certificate(cert.kind, params, payload, cert.steps))
        assert time.perf_counter() - start < 2.0
        assert not report.ok

    def test_separator_far_past_every_branch_prefix(self):
        # a separator of 10**5000 is decoded once per branch, never enumerated
        for cert in closure_certificates():
            label = next(iter(cert.payload["separators"]))
            separators = dict(cert.payload["separators"], **{label: 10**5000})
            payload = dict(cert.payload, separators=separators)
            start = time.perf_counter()
            report = check_certificate(Certificate(cert.kind, cert.params, payload, cert.steps))
            assert time.perf_counter() - start < 1.0
            assert isinstance(report, CheckReport) and not report.ok


def closure_certificates():
    """A rank-floor and a full-product closure certificate.

    Rank floor: subtracted b0 = :1 and b3 = 2:1 with separators 3 and 2,
    kept b1 = 1:2, depth 3 and cover b5 = 22:1, b6 = 11:2 (positions 1, 2, 3
    are the codes of 1, 2, 11).  Full product: kept b1, subtracted b0 and
    b2 = :2 with separators 3 and 2.
    """
    r = make_registry([("", "1"), ("1", "2"), ("", "2"), ("2", "1")])
    dec = containment_decreasing([r.entries[0], r.entries[3]], [r.entries[1]], 5, r)
    full = containment_full_product([r.entries[1]], [r.entries[0], r.entries[2]])
    return [dec.certificate, full.certificate]


def _with(section, **changes):
    return lambda cert: Certificate(
        cert.kind,
        dict(cert.params, **changes) if section == "params" else cert.params,
        dict(cert.payload, **changes) if section == "payload" else cert.payload,
        cert.steps,
    )


def _separators(**changes):
    return lambda cert: _with("payload", separators={
        k: v for k, v in {**cert.payload["separators"], **changes}.items() if v is not None
    })(cert)


class TestClosureObligations:
    """One digest-valid tamper per checker obligation; each breaks only that one."""

    def test_engine_certificates_hold_and_carry_no_truncation(self):
        dec, full = closure_certificates()
        assert dec.payload["separators"] == {"b0": 3, "b3": 2} and dec.payload["depth"] == 3
        assert [c["label"] for c in dec.payload["cover"]] == ["b5", "b6"]
        assert full.payload["separators"] == {"b0": 3, "b2": 2}
        for cert in (dec, full):
            assert "classes" not in cert.payload and "truncation" not in cert.params
            assert check_certificate_text(cert.to_json()).ok

    @pytest.mark.parametrize(
        "which, tamper, problem",
        [
            (0, _with("params", ambient="pi"), "is made in xi"),
            (1, _with("params", ambient="xi"), "is made in pi"),
            (0, _separators(b3=None), "exactly the subtracted labels"),
            (1, _separators(b9=2), "exactly the subtracted labels"),
            # 2 is the code of the word 2: not in :1, nor in the kept 1:2
            (0, _separators(b0=2), "is not an element"),
            (1, _separators(b0=2), "is not an element"),
            # the entry's own branch decides, not the registry's b0 = :1
            (0, lambda c: _with("payload", subtracted=[
                dict(c.payload["subtracted"][0], branch="2:2"), c.payload["subtracted"][1]
            ])(c), "is not an element"),
            # 1 is the code of the word 1, a prefix of :1 and of the kept 1:2
            (0, _separators(b0=1), "collides with the kept set"),
            (1, _separators(b0=1), "collides with the kept set"),
            # the kept and cover branches still cover 1..2
            (0, _with("payload", depth=2), "lies below a separator"),
            (0, lambda c: _with("payload", cover=c.payload["cover"][1:])(c), "not covered"),
            (0, lambda c: _with("payload", cover=c.payload["cover"][:1])(c), "not covered"),
        ],
        ids=["dec-in-pi", "full-in-xi", "separator-missing", "separator-extra",
             "dec-outside-branch", "full-outside-branch", "entry-branch-decides",
             "dec-hits-kept", "full-hits-kept", "depth-below-separator",
             "cover-first-dropped", "cover-last-dropped"],
    )
    def test_tamper_rejected(self, which, tamper, problem):
        cert = tamper(closure_certificates()[which])
        report = check_certificate_text(cert.to_json())
        assert not report.ok
        assert [problem in p for p in report.problems] == [True], report.problems


class TestDeepJson:
    def test_deep_nesting_is_unparseable(self):
        # past the recursion limit the parser fails; just under it, the
        # digest can fail instead; both must give a report
        texts = ["[" * 100000 + "]" * 100000]
        for depth in range(1, 1500):
            nested = "[" * depth + "]" * depth
            texts.append(
                '{"schema":%d,"kind":"CoverSet","params":{},"payload":{"x":%s},'
                '"steps":[],"digest":"0"}' % (SCHEMA_VERSION, nested)
            )
        for text in texts:
            report = check_certificate_text(text)
            assert report.kind == "unparseable" and not report.ok


class TestCheckerIndependence:
    def test_checker_only_trusts_evidence(self):
        # drop a member entry from an exception-list certificate: the checker
        # must notice the registry is no longer exactly covered
        r = reg()
        cert = check_extendibility_b(Whole(), r.entries[0], r, TR)
        if cert.payload["members"]:
            cert.payload["members"] = cert.payload["members"][:-1]
            fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
            report = check_certificate(fresh)
            assert not report.ok

    def test_verified_flag_set_only_on_success(self):
        cert = sample_certificates()[0]
        assert not cert.verified
        report = check_certificate(cert)
        assert report.ok and cert.verified
