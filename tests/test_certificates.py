"""Certificate serialization, digesting, tampering, and checker behavior."""

import hashlib
import itertools
import json
import os
import random
import re
import stat
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_space import _pigeonhole
from zfilterlab import formats, space
from zfilterlab.branches import (
    BranchIndex,
    Registry,
    branch_member,
    find_separator,
    make_registry,
)
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
from zfilterlab.formats import MAX_SETEXPR_DEPTH, FormatError, parse_setexpr, setexpr_text
from zfilterlab.space import MAX_SPLITS, Atom, Diff, SetExpr, Truncation, Union, Whole

TR = Truncation(4, 6)


def reg():
    return make_registry([("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")])


def sample_certificates():
    r = reg()
    certs = [check_extendibility_a(r)]
    r = reg()
    certs.append(check_extendibility_b(Whole(), r.entries[0], r))
    r = reg()
    certs.append(containment_decreasing([r.entries[0]], [r.entries[1]], 7, r))
    r = reg()
    certs.append(containment_full_product([r.entries[0]], [r.entries[1]]))
    r = reg()
    certs.append(property_a_check(Whole(), r))
    r = reg()
    certs.append(increasing_chain_engine(r, 3))
    r = reg()
    certs.append(decreasing_chain_engine(r, 3))
    certs.append(whole_cover_refutation().certificate)
    certs.append(zero_set_cover_refutation().certificate)
    r = reg()
    certs.append(property_a_check(Atom(r.entries[0]), r))
    return certs


def whole_cover_refutation():
    """Property (B) against the whole space, claimed to fail absorption on
    constraining branches that cover every truncated position: a
    `Contradiction` whose chain mints covers."""
    r = make_registry([("11", "1"), ("12", "1"), ("2", "1"), ("21", "2"), ("", "2", 9)])
    constraining = tuple(b for b in r if b.rank <= TR.T)
    return property_b_refute([AFailure(Whole(), constraining, (r.entries[-1],))], 50, r, TR)


def zero_set_cover_refutation():
    """Property (B) against Z(b0) ∪ Z(b1): a `CounterexamplePoint` found on
    the truncation."""
    r = reg()
    failures = [
        AFailure(Atom(r.entries[0]), (), (r.entries[0],)),
        AFailure(Atom(r.entries[1]), (), (r.entries[1],)),
    ]
    return property_b_refute(failures, 50, r, TR)


# the extendibility-(a) certificate of :1 and :2 as schema 9 wrote it, each
# entry restating the label of the registry entry at its position
SCHEMA_9_CERTIFICATE = (
    '{"digest":"b1d29cb886bf57d1ac6a3f82707d255424e72c25608d63865743584dc6286fc6",'
    '"kind":"SeparatorWitness","params":{"ambient":"xi","registry":['
    '{"branch":":1","label":"b0","rank":0},{"branch":":2","label":"b1","rank":1}]},'
    '"payload":{"claim":"no-single-zero-set-in-filter","entries":['
    '{"alpha":"b0","point":"{1:1}"},{"alpha":"b1","point":"{2:2}"}]},"schema":9}'
)

# the same certificate as schema 10 wrote it, each registry entry an object
SCHEMA_10_CERTIFICATE = (
    '{"digest":"77c1b9761a38ea9aa0ef66f0d2e4795ad60f75d68f2c08d273b591a3e1ce4e92",'
    '"kind":"SeparatorWitness","params":{"ambient":"xi","registry":['
    '{"branch":":1","label":"b0","rank":0},{"branch":":2","label":"b1","rank":1}]},'
    '"payload":{"claim":"no-single-zero-set-in-filter","entries":["{1:1}","{2:2}"]},"schema":10}'
)

# `whole_cover_refutation` as schema 11 wrote it: the refuted cover's every
# absorption failure, the truncation and rank floor they were searched on,
# and the index of the one the point breaks
SCHEMA_11_CONTRADICTION = (
    '{"digest":"295e082a78828d93f730026b6c9f3537e89b9fa998ff1fa6d9851b9a53299fb2",'
    '"kind":"Contradiction","params":{"afailures":[{"absorbing":["b9"],'
    '"constraining":["b0","b1","b2","b3"],"zset":"W"}],"ambient":"xi","gamma":50,'
    '"registry":["b0=:1@0","b1=12:1@1","b2=2:1@2","b3=21:2@3","b9=:2@9","b50=22:1@50"],'
    '"truncation":{"T":4,"V":6}},"payload":{"afailure_index":0,"point":"{6:7}"},"schema":11}'
)

# sha256 of ``to_json()`` for the certificates demos 04 and 05 build
DEMO_DIGESTS = {
    "containment-dec": "ab61e99610e9dd3c0760be886eea0b629366f2c93ac98e437f531ab41ee9bb80",
    "containment-full": "72cde1c61455fd8e20e99a99eb90cb04e301a9c07d0a0c3f5e334b5661b3747c",
    "property-a-holds": "c87b272580ff8caa0cd12b355bb06cb5f0f2c2e64701b27cae91f1be02072f9f",
    "property-a-fails": "bb70354d7db84af3a409e013e6e003096838b8ead2db236f59ed8d63cf020e4d",
}


def demo_certificate(name: str) -> Certificate:
    """The certificate the demos build under ``name``, on a fresh registry
    of their three words."""
    r = make_registry([("", "1"), ("", "2"), ("1", "2")])
    a, b, c = r.entries
    return {
        "containment-dec": lambda: containment_decreasing([a], [b], 10, r),
        "containment-full": lambda: containment_full_product([a], [b]),
        "property-a-holds": lambda: property_a_check(Whole(), r),
        "property-a-fails": lambda: property_a_check(Atom(c), r),
    }[name]()


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
                    "payload": cert.payload}
            digest = body_digest(cert.kind, cert.params, cert.payload)
            assert cert.to_json() == canonical_json({**body, "digest": digest})

    def test_byte_determinism(self):
        r1, r2 = reg(), reg()
        a = check_extendibility_a(r1).to_json()
        b = check_extendibility_a(r2).to_json()
        assert a == b

    @pytest.mark.parametrize("name", DEMO_DIGESTS)
    def test_demo_certificate_bytes_are_pinned(self, name):
        # a changed digest is a declared output change
        text = demo_certificate(name).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == DEMO_DIGESTS[name]

    def test_file_round_trip(self, tmp_path):
        cert = sample_certificates()[0]
        path = tmp_path / "cert.json"
        cert.write(str(path))
        again = Certificate.read(str(path))
        assert again.to_json() == cert.to_json()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        # a new file and a replaced one both get what a plain open would give
        cert = sample_certificates()[0]
        path = tmp_path / "cert.json"
        old = os.umask(umask)
        try:
            cert.write(str(path))
            assert stat.S_IMODE(path.stat().st_mode) == mode
            path.chmod(0o640)
            cert.write(str(path))
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert os.listdir(tmp_path) == ["cert.json"]
        assert Certificate.read(str(path)).to_json() == cert.to_json()

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        # a descriptor may take fewer bytes than it is given; the rest follow
        cert = sample_certificates()[0]
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        path = tmp_path / "cert.json"
        cert.write(str(path))
        assert path.read_text() == cert.to_json() + "\n"
        assert os.listdir(tmp_path) == ["cert.json"]

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_write(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", failing_write)
        with pytest.raises(OSError, match="No space left"):
            sample_certificates()[0].write(str(tmp_path / "cert.json"))
        assert os.listdir(tmp_path) == []


class TestTampering:
    def test_payload_mutation_detected(self):
        cert = sample_certificates()[0]
        doc = json.loads(cert.to_json())
        doc["payload"]["entries"][0] = "{1:2}"
        with pytest.raises(CertificateError):
            Certificate.from_json(json.dumps(doc))

    def test_digest_mutation_detected(self):
        cert = sample_certificates()[0]
        doc = json.loads(cert.to_json())
        doc["digest"] = "0" * 64
        with pytest.raises(CertificateError):
            Certificate.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", '["digest", "kind"]', "5", '"schema"', "null"])
    def test_a_document_that_is_not_an_object_is_refused(self, text):
        with pytest.raises(CertificateError, match="^certificate document must be a JSON object$"):
            Certificate.from_json(text)

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
        cert.payload["entries"][0] = "{1:1,2:2}"
        fresh = Certificate(cert.kind, cert.params, cert.payload)
        report = check_certificate(fresh)
        assert not report.ok

    @pytest.mark.parametrize("tamper", ["afailure-dropped"])
    def test_contradiction_is_tied_to_its_cover(self, tamper):
        # the recorded afailure is the one claim the point refutes: without
        # it nothing is refuted (a changed one: `_whole_cover_afailure`)
        cert = next(c for c in sample_certificates() if c.kind == "Contradiction")
        payload = {k: v for k, v in cert.payload.items() if k != "afailure"}
        assert check_certificate(cert).ok
        tampered = Certificate(cert.kind, cert.params, payload)
        report = check_certificate(Certificate.from_json(tampered.to_json()))
        assert report.problems == ["malformed payload: KeyError('afailure')"]


class TestRefutedCover:
    """A counterexample is checked against the cover sets it records
    (``zsets``), the only record of the cover it refutes."""

    @staticmethod
    def point_inside_the_cover():
        cert = zero_set_cover_refutation().certificate
        r = reg()
        b0, b1 = r.entries[:2]
        # a point of Z(b0) outside Z(b1): the cover Z(b0) ∪ Z(b1) holds it
        l = find_separator(b1, [b0])
        assert cert.payload["zsets"] == [f"N:{b0.literal()}", f"N:{b1.literal()}"]
        return cert, f"{{{l}:{l}}}"

    @pytest.mark.parametrize("cover", [["N::2"], None], ids=["forged-cover", "no-cover"])
    def test_point_inside_a_failure_set_rejected(self, cover):
        # a params field that keeps only Z(b1), which misses the point, is
        # read by no check: the point is tested against the recorded zsets
        cert, point = self.point_inside_the_cover()
        params = dict(cert.params)
        if cover is not None:
            params["cover"] = cover
        forged = Certificate(cert.kind, params, dict(cert.payload, point=point))
        report = check_certificate_text(forged.to_json())
        zset = cert.payload["zsets"][0]
        assert not report.ok and report.problems == [f"the point lies in cover set {zset}"]

    def test_no_recorded_failure_is_no_cover(self):
        cert = zero_set_cover_refutation().certificate
        report = check_certificate(_with("payload", zsets=[])(cert))
        assert report.problems == ["no cover recorded to refute"]

    @pytest.mark.parametrize("zsets", ["N::1", None, {"N::1": 0}],
                             ids=["string", "null", "object"])
    def test_zsets_must_be_a_list(self, zsets):
        forged = _with("payload", zsets=zsets)(zero_set_cover_refutation().certificate).to_json()
        Certificate.from_json(forged)  # the digest holds
        report = check_certificate_text(forged)
        assert report.problems == ["no cover recorded to refute"]


class _ReadRecorder(dict):
    """A dict that records every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


class TestEveryFieldIsRead:
    def test_checker_reads_every_field(self):
        # a field the checker never reads is bytes no check covers
        for cert in _label_certificates():
            params, payload = _ReadRecorder(cert.params), _ReadRecorder(cert.payload)
            assert check_certificate(Certificate(cert.kind, params, payload)).ok
            assert set(params) - params.read == set(), cert.kind
            assert set(payload) - payload.read == set(), cert.kind


class TestStructure:
    def test_bad_field_types_rejected_on_construction(self):
        with pytest.raises(CertificateError):
            Certificate("SeparatorWitness", [], {})
        with pytest.raises(CertificateError):
            Certificate("SeparatorWitness", {}, [])

    def test_digest_valid_body_with_list_params_is_a_failed_report(self):
        doc = {"schema": SCHEMA_VERSION, "kind": "SeparatorWitness", "params": [],
               "payload": {}}
        doc["digest"] = body_digest("SeparatorWitness", [], {})
        report = check_certificate_text(json.dumps(doc))
        assert not report.ok and report.problems

    def test_document_holds_only_the_checked_fields(self):
        for cert in sample_certificates():
            assert set(json.loads(cert.to_json())) == {
                "schema", "kind", "params", "payload", "digest"
            }
        # the digest covers only those fields, so another one is refused
        cert = sample_certificates()[0]
        doc = dict(json.loads(cert.to_json()), steps=[])
        report = check_certificate_text(json.dumps(doc))
        assert not report.ok and report.problems == ["unexpected field 'steps'"]

    def test_version_one_document_rejected(self):
        # schema 2 certificates still list the closure classes, schema 3
        # property-a certificates one witness per (F, beta) pair, schema 4
        # separator certificates a truncation, schema 5 certificates spell
        # branches out as {label, branch, rank} outside the registry, schema
        # 6 certificates carry steps and fields no check reads, schema 7
        # contradictions repeat their afailure beside its index, schema 8
        # exception lists and absorption failures record a truncation,
        # schema 9 separator entries restate their alpha, exception lists
        # their members and rank-floor closures their depth, schema 10
        # registries write each entry as a {label, branch, rank} object, and
        # schema 11 refutations record a truncation and every claimed failure
        cert = sample_certificates()[0]
        for schema in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
            doc = {"schema": schema, "kind": cert.kind, "params": cert.params,
                   "payload": cert.payload, "steps": []}
            doc["digest"] = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
            report = check_certificate_text(json.dumps(doc))
            assert not report.ok
            assert "unsupported schema version" in report.problems[0]

    def test_schema_9_certificate_refused(self):
        # its digest holds, and the schema is read first
        doc = json.loads(SCHEMA_9_CERTIFICATE)
        body = {k: v for k, v in doc.items() if k != "digest"}
        assert doc["digest"] == hashlib.sha256(canonical_json(body).encode()).hexdigest()
        with pytest.raises(CertificateError, match="^unsupported schema version 9$"):
            Certificate.from_json(SCHEMA_9_CERTIFICATE)
        report = check_certificate_text(SCHEMA_9_CERTIFICATE)
        assert (report.ok, report.problems) == (False, ["unsupported schema version 9"])

    def test_schema_10_certificate_refused(self):
        doc = json.loads(SCHEMA_10_CERTIFICATE)
        body = {k: v for k, v in doc.items() if k != "digest"}
        assert doc["digest"] == hashlib.sha256(canonical_json(body).encode()).hexdigest()
        report = check_certificate_text(SCHEMA_10_CERTIFICATE)
        assert (report.ok, report.problems) == (False, ["unsupported schema version 10"])
        # at schema 11 the same run writes each entry as one string
        cert = check_extendibility_a(make_registry([("", "1"), ("", "2")]))
        assert cert.params["registry"] == ["b0=:1@0", "b1=:2@1"]
        assert cert.payload == doc["payload"] and check_certificate(cert).ok

    def test_schema_11_contradiction_refused(self):
        doc = json.loads(SCHEMA_11_CONTRADICTION)
        body = {k: v for k, v in doc.items() if k != "digest"}
        assert doc["digest"] == hashlib.sha256(canonical_json(body).encode()).hexdigest()
        report = check_certificate_text(SCHEMA_11_CONTRADICTION)
        assert (report.ok, report.problems) == (False, ["unsupported schema version 11"])
        # at schema 12 the same run records the failure it breaks, and the
        # registry without the cover the chain minted (b50)
        cert = whole_cover_refutation().certificate
        assert cert.payload == {"afailure": doc["params"]["afailures"][0], "point": "{6:7}"}
        assert cert.params == {"ambient": "xi", "registry": doc["params"]["registry"][:-1]}

    @pytest.mark.parametrize("schema", [f"{SCHEMA_VERSION}.0", "true"])
    def test_schema_must_be_the_integer_version(self, schema):
        # the digest is recomputed from the integer version, so a float or a
        # bool that compares equal to it would pass with non-canonical bytes
        text = sample_certificates()[0].to_json()
        assert check_certificate_text(text).ok
        forged = text.replace(f'"schema":{SCHEMA_VERSION}', f'"schema":{schema}')
        assert forged != text
        report = check_certificate_text(forged)
        assert not report.ok and "unsupported schema version" in report.problems[0]


    def test_only_truncated_searches_record_a_truncation(self):
        # property (B) alone searches a truncation, and its point is the whole
        # evidence, so no certificate records one
        certs = sample_certificates()
        assert not any("truncation" in c.params or "truncation" in c.payload for c in certs)
        assert {(c.kind, c.payload.get("claim")) for c in certs} == {
            ("Contradiction", None),
            ("CounterexamplePoint", None),
            ("ExceptionList", None),
            ("InclusionChain", "absorption-failure"),
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
        cert = increasing_chain_engine(reg(), 3)
        cert.payload["claim"] = "strictly-sideways-chain"
        fresh = Certificate(cert.kind, cert.params, cert.payload)
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
            (lambda: increasing_chain_engine(reg(), 3), "entries"),
            (lambda: decreasing_chain_engine(reg(), 3), "entries"),
            (lambda: property_a_check(Whole(), reg()), "entries"),
        ],
        ids=["ext-a", "chain-inc", "chain-dec", "prop-a"],
    )
    def test_entries_must_match(self, make, field, cut):
        # the checker derives the obligation list; any cut of it must fail
        cert = make()
        assert check_certificate(cert).ok
        cert.payload[field] = cut(cert.payload[field])
        fresh = Certificate(cert.kind, cert.params, cert.payload)
        assert not check_certificate(fresh).ok

    def test_entry_counts(self):
        r = reg()
        assert len(check_extendibility_a(r).payload["entries"]) == len(r)
        for steps in (1, 3, 5):
            inc = increasing_chain_engine(reg(), steps)
            dec = decreasing_chain_engine(reg(), steps)
            assert len(inc.payload["entries"]) == steps
            assert len(dec.payload["entries"]) == steps - 1

    def test_point_outside_the_maximal_group_rejected(self):
        # b0's point for the group {b1} alone would not do: it must lie in
        # the intersection of every other entry
        r = reg()
        cert = check_extendibility_a(r)
        cert.payload["entries"][0] = "{1:1}"
        fresh = Certificate(cert.kind, cert.params, cert.payload)
        assert not check_certificate(fresh).ok

    def test_property_a_point_outside_the_maximal_set_rejected(self):
        # b3's point must lie in the zero sets of b0, b1 and b2, not only in
        # those of b0 and b1
        r = reg()
        cert = property_a_check(Whole(), r)
        assert len(cert.payload["entries"]) == len(r)
        b0, b1, b2, b3 = r.entries[:4]
        l = find_separator(b3, [b0, b1])
        assert branch_member(b2, l)
        cert.payload["entries"][3] = f"{{{l}:{l}}}"
        fresh = Certificate(cert.kind, cert.params, cert.payload)
        report = check_certificate(fresh)
        assert not report.ok and "fails to separate b3" in report.problems[0]

    @pytest.mark.parametrize("member", [0, 1, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize(
        "make, j, group",
        [
            (lambda: check_extendibility_a(reg()), 2, lambda xs, j: xs[:j] + xs[j + 1:]),
            (lambda: increasing_chain_engine(reg(), 5), 4, lambda xs, j: xs[:j]),
            (lambda: decreasing_chain_engine(reg(), 5), 0, lambda xs, j: xs[j + 1:]),
            (lambda: property_a_check(Whole(), reg()), 4, lambda xs, j: xs[:j]),
        ],
        ids=["ext-a", "chain-inc", "chain-dec", "prop-a"],
    )
    def test_a_point_in_one_group_member_is_rejected(self, make, j, group, member):
        # entry j's point is replaced by one in alpha's set and in the set of
        # exactly one member of its four-entry group, so the checker must read
        # the atom at that member's position, not only the group's ends
        r = reg()
        cert = make()
        assert check_certificate(cert).ok
        alpha, others = r.entries[j], group(r.entries, j)
        assert len(others) == 4
        hit = others[member]
        misses = [b for b in others if b is not hit]
        p = find_separator(alpha, others)
        q = find_separator(hit, [alpha, *misses])
        cert.payload["entries"][j] = f"{{{min(p, q)}:{max(p, q)},{max(p, q)}:{max(p, q)}}}"
        fresh = Certificate(cert.kind, cert.params, cert.payload)
        report = check_certificate(fresh)
        assert not report.ok
        assert report.problems == [
            f"point {cert.payload['entries'][j]} fails to separate {alpha.label} "
            f"from {[b.label for b in others]}"
        ]

    def test_single_entry_registry_rejected(self):
        cert = check_extendibility_a(reg())
        cert.params["registry"] = cert.params["registry"][:1]
        cert.payload["entries"] = cert.payload["entries"][:1]
        fresh = Certificate(cert.kind, cert.params, cert.payload)
        assert not check_certificate(fresh).ok

    def test_property_a_witnesses_must_lie_in_the_recorded_set(self):
        cert = property_a_check(Whole(), reg())
        assert cert.payload["zset"] == "W"
        cert.payload["zset"] = "(union)"
        fresh = Certificate(cert.kind, cert.params, cert.payload)
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
                    fresh = Certificate(cert.kind, params, payload)
                    report = check_certificate(fresh)
                    assert isinstance(report.ok, bool), (cert.kind, section, key, value)

    @staticmethod
    def position_one_certificates():
        """Rank-floor and full-product closure certificates and a cover to
        depth 1, on b0 = 1:2 and b1 = 2:1 with b0 subtracted and b1 kept.

        Position 1, the code of the word 1, is b0's separator in both claims
        and the depth of the cover, so ``True``, equal to 1, fails only for
        its type.
        """
        specs = [("1", "2"), ("2", "1")]
        r = make_registry(specs)
        certs = [containment_decreasing([r.entries[0]], [r.entries[1]], 2, r)]
        r = make_registry(specs)
        certs.append(containment_full_product([r.entries[1]], [r.entries[0]]))
        certs.append(cover_certificate(1, 0, make_registry(specs), [])[1])
        for cert in certs:
            assert check_certificate(cert).ok
        assert [c.payload["separators"] for c in certs[:2]] == [[1]] * 2
        assert certs[2].params["depth"] == 1
        return certs

    def test_every_separator_replacement_is_rejected(self):
        # no wrong-typed, nonpositive or fractional position is a separator here
        for cert in closure_certificates() + self.position_one_certificates()[:2]:
            separators = cert.payload["separators"]
            for i, value in itertools.product(range(len(separators)), self.VALUES + [0, -1, 2.5]):
                payload = dict(cert.payload, separators=[*separators[:i], value, *separators[i + 1:]])
                report = check_certificate(Certificate(cert.kind, cert.params, payload))
                assert report.ok is False, (cert.payload["claim"], i, value)

    def test_every_depth_replacement_is_rejected(self):
        # a cover's depth; a closure claim records none
        cover = self.position_one_certificates()[2]
        for value in self.VALUES:
            report = check_certificate(_with("params", depth=value)(cover))
            assert report.ok is False, (cover.kind, value)

    def test_every_non_integer_steps_is_rejected(self):
        # True equals 1, so a one-step chain used to pass with it
        for make in (increasing_chain_engine, decreasing_chain_engine):
            for steps in (1, 3):
                cert = make(reg(), steps)
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
        assert {c.kind for c in certs} == {"CoverSet", "InclusionChain"}
        for cert in certs:
            assert check_certificate(cert).ok
            gamma = cert.params["gamma"]
            for value in (True, False, 0.5, -1.5, gamma - 0.5, float(gamma), str(gamma), None):
                report = check_certificate(_with("params", gamma=value)(cert))
                assert report.ok is False, (cert.kind, value)


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
        text = Certificate(cert.kind, cert.params, payload).to_json()
        report = check_certificate_text(text)
        assert not report.ok and "deeper than" in report.problems[0]


class TestSetExprTokens:
    @pytest.mark.parametrize(
        "text",
        ["(union\tN:1:2 N:2:1)", "(union\n N:1:2\n N:2:1)", "(union\r\nN:1:2\x0bN:2:1)\n"],
    )
    def test_any_whitespace_separates_tokens(self, text):
        assert parse_setexpr(text) == parse_setexpr("(union N:1:2 N:2:1)")


class _UnknownNode(SetExpr):
    """A set-expression node `setexpr_text` has no spelling for."""

    __slots__ = ()


class TestFormatErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "unexpected end of expression"),
            ("(", "dangling '('"),
            ("(pt)", "(pt ...) needs a point literal"),
            ("(diff W)", "(diff ...) takes exactly two arguments"),
            ("(xor W)", "unknown operator 'xor'"),
            (")", "unexpected ')'"),
            ("(union W", "missing ')'"),
            ("W W", "trailing tokens in 'W W'"),
            ("N:zz", "unknown branch reference 'zz'"),
            ("(pt {1:x})", "bad coordinate '1:x' in '{1:x}'"),
            ("(pt {1:2,1:3})", "repeated position 1 in '{1:2,1:3}'"),
            ("(pt {0:1})", "positions and finite values are >= 1"),
        ],
    )
    def test_malformed_setexpr_names_its_fault(self, text, message):
        with pytest.raises(FormatError) as raised:
            parse_setexpr(text, reg())
        assert str(raised.value) == message

    def test_setexpr_text_refuses_an_unknown_node(self):
        with pytest.raises(FormatError) as raised:
            setexpr_text(_UnknownNode())
        assert str(raised.value) == "unknown expression node _UnknownNode()"


@given(st.text())
@settings(max_examples=300)
def test_tokens_hold_every_non_whitespace_character_in_order(text):
    tokens = formats._TOKEN_RE.findall(text)
    assert re.sub(r"\s", "", "".join(tokens)) == re.sub(r"\s", "", text)


class TestBoundedReplay:
    """Replay cost follows the certificate's size, not the numbers in it."""

    def test_far_separator_fails_at_once(self):
        # the listed branches own at most 22 positions up to 3,000,000 each
        cert = sample_certificates()[1]
        payload = dict(cert.payload, separator=3_000_000)
        start = time.perf_counter()
        report = check_certificate(Certificate(cert.kind, cert.params, payload))
        assert time.perf_counter() - start < 1.0
        assert not report.ok
        assert len([p for p in report.problems if "cover" in p]) == 1

    def test_uncovered_positions_are_one_problem(self):
        r = reg()
        cover, cert = cover_certificate(12, 5, r, [r.entries[0]])
        assert check_certificate(cert).ok and cover
        payload = dict(cert.payload, cover=cert.payload["cover"][1:])
        report = check_certificate(Certificate(cert.kind, cert.params, payload))
        assert not report.ok and len(report.problems) == 1
        assert "not covered" in report.problems[0]

    def test_property_a_listing_stops_at_the_first_missing_pair(self):
        # 24 entries, none of them listed
        words = [format(i, "05b").translate(str.maketrans("01", "12")) for i in range(24)]
        r = make_registry([(w, "2") for w in words])
        cert = property_a_check(Whole(), reg())
        params = dict(cert.params, registry=r.to_payload())
        payload = dict(cert.payload, entries=[])
        start = time.perf_counter()
        report = check_certificate(Certificate(cert.kind, params, payload))
        assert time.perf_counter() - start < 2.0
        assert not report.ok

    def test_separator_far_past_every_branch_prefix(self):
        # a separator of 10**5000 is refused before any message writes it,
        # past the interpreter's limit on decimal digits; JSON cannot carry
        # one, an in-memory certificate can
        limit = sys.get_int_max_str_digits()
        certs = [(c, "separators") for c in closure_certificates()]
        certs.append((exception_list(), "separator"))
        for cert, key in certs:
            value = cert.payload[key]
            far = [10**5000, *value[1:]] if key == "separators" else 10**5000
            payload = dict(cert.payload, **{key: far})
            start = time.perf_counter()
            report = check_certificate(Certificate(cert.kind, cert.params, payload))
            assert time.perf_counter() - start < 1.0
            assert isinstance(report, CheckReport) and not report.ok
            assert not any("ValueError(" in p for p in report.problems), report.problems
            assert any(f"more than {limit} decimal digits" in p for p in report.problems)


def pigeonhole_certificate() -> Certificate:
    """A digest-valid absorption failure whose set, six pigeons in five
    holes with no two in one, is empty: the claim is true, but deciding it
    takes more than `MAX_SPLITS` splits."""
    lhs, rhs = _pigeonhole(6, 5)
    registry = Registry(sorted(lhs.atoms(), key=lambda b: b.rank))
    afailure = {"zset": setexpr_text(Diff(lhs, rhs)), "constraining": [], "absorbing": []}
    return Certificate(
        "InclusionChain",
        {"registry": registry.to_payload(), "ambient": "xi"},
        {"claim": "absorption-failure", "afailure": afailure},
    )


class TestUndecidedReplay:
    def test_a_replay_past_the_split_bound_is_a_failed_obligation(self):
        report = check_certificate_text(pigeonhole_certificate().to_json())
        assert isinstance(report, CheckReport) and not report.ok
        assert report.problems == [
            f"not decided: a claim needs more than MAX_SPLITS = {MAX_SPLITS} splits"
        ]


def closure_certificates():
    """A rank-floor and a full-product closure certificate.

    Rank floor: subtracted b0 = :1 and b3 = 2:1 with separators 3 and 2,
    kept b1 = 1:2 and cover b5 = 22:1, b6 = 11:2 of 1..3 (positions 1, 2, 3
    are the codes of 1, 2, 11).  Full product: kept b1, subtracted b0 and
    b2 = :2 with separators 3 and 2.
    """
    r = make_registry([("", "1"), ("1", "2"), ("", "2"), ("2", "1")])
    dec = containment_decreasing([r.entries[0], r.entries[3]], [r.entries[1]], 5, r)
    full = containment_full_product([r.entries[1]], [r.entries[0], r.entries[2]])
    return [dec, full]


def _with(section, **changes):
    return lambda cert: Certificate(
        cert.kind,
        dict(cert.params, **changes) if section == "params" else cert.params,
        dict(cert.payload, **changes) if section == "payload" else cert.payload,
    )


def _separators(*values):
    """Replace a closure certificate's separator list."""
    return _with("payload", separators=list(values))


class TestClosureObligations:
    """One digest-valid tamper per checker obligation; each breaks only that one."""

    def test_engine_certificates_hold_and_carry_no_truncation(self):
        dec, full = closure_certificates()
        assert dec.payload["separators"] == [3, 2] and dec.payload["cover"] == ["b5", "b6"]
        assert full.payload["separators"] == [3, 2]
        for cert in (dec, full):
            assert "classes" not in cert.payload and "truncation" not in cert.params
            assert check_certificate_text(cert.to_json()).ok

    @pytest.mark.parametrize(
        "which, tamper, problem",
        [
            (0, _with("params", ambient="pi"), "is made in xi"),
            (1, _with("params", ambient="xi"), "is made in pi"),
            (0, _separators(3), "one position per subtracted branch"),
            (1, _separators(3, 2, 2), "one position per subtracted branch"),
            # 2 is the code of the word 2: not in :1, nor in the kept 1:2
            (0, _separators(2, 2), "is not an element"),
            (1, _separators(2, 2), "is not an element"),
            # the registry's entry decides: b0 = 212:1 does not hold 3, the
            # code of the word 11
            (0, lambda c: _with("params", registry=[
                "b0=212:1@0" if e.startswith("b0=") else e for e in c.params["registry"]
            ])(c), "is not an element"),
            # 1 is the code of the word 1, a prefix of :1 and of the kept 1:2
            (0, _separators(1, 2), "collides with the kept set"),
            (1, _separators(1, 2), "collides with the kept set"),
            # 5, the code of 21, lies in b3 and no kept branch, and the kept
            # and cover branches cover 1..4 but not 5
            (0, _separators(3, 5), "position 5 is not covered"),
            (0, lambda c: _with("payload", cover=c.payload["cover"][1:])(c), "not covered"),
            (0, lambda c: _with("payload", cover=c.payload["cover"][:1])(c), "not covered"),
        ],
        ids=["dec-in-pi", "full-in-xi", "separator-missing", "separator-extra",
             "dec-outside-branch", "full-outside-branch", "entry-branch-decides",
             "dec-hits-kept", "full-hits-kept", "separator-past-cover",
             "cover-first-dropped", "cover-last-dropped"],
    )
    def test_tamper_rejected(self, which, tamper, problem):
        cert = tamper(closure_certificates()[which])
        report = check_certificate_text(cert.to_json())
        assert not report.ok
        assert [problem in p for p in report.problems] == [True], report.problems


def exception_list():
    """An `ExceptionList` for Z(b) joined with Z(a): hypothesis [b],
    separator 3 (the code of 11, in a = 11:2 and not in b = 12:1), cover
    [a, c] of 1..3 and exception b; c and d (d = 1:1 is no candidate) pass
    their pair inclusions through the candidates a, b, c."""
    r = formats.parse_registry(["a=11:2@0", "b=12:1@1", "c=2:1@2", "d=1:1@3"])
    return check_extendibility_b(parse_setexpr("N:b", r), r.by_label("a"), r)


class TestExceptionListObligations:
    """Digest-valid forgeries of an exception list, each a claim the
    certificate's evidence does not back."""

    def test_engine_certificate_holds(self):
        cert = exception_list()
        assert cert.payload["separator"] == 3 and cert.payload["cover"] == ["a", "c"]
        assert cert.payload["exceptions"] == ["b"]
        assert "candidates" not in cert.payload and "truncation" not in cert.params
        assert check_certificate_text(cert.to_json()).ok

    @pytest.mark.parametrize(
        "tamper, problems",
        [
            # 1, the code of 1, lies in a and in the hypothesis branch b
            (_with("payload", separator=1), ["collides with the hypothesis group"]),
            # 4, the code of 12, lies in b only; the cover still covers 1..4
            (_with("payload", separator=4),
             ["is not an element of a", "collides with the hypothesis group"]),
            # the candidates are the hypothesis group and the cover, whatever
            # a candidates field says: d is none of them
            (_with("payload", candidates=["a", "b", "c", "d"], exceptions=["b", "d"]),
             ["exceptions stray outside"]),
        ],
        ids=["separator-in-hypothesis", "separator-outside-alpha", "exception-past-candidates"],
    )
    def test_forgery_rejected(self, tamper, problems):
        report = check_certificate_text(tamper(exception_list()).to_json())
        assert not report.ok
        assert len(report.problems) == len(problems), report.problems
        for problem, want in zip(report.problems, problems):
            assert want in problem, report.problems


# payload and params fields that name branches by registry label
LABEL_FIELDS = {
    "alpha", "kept", "subtracted", "cover", "base", "constraining", "absorbing",
    "hypothesis_group", "exceptions",
}


def _named_labels(value, found):
    """Collect, as (field, labels) pairs, every label list ``value`` holds,
    and refuse an inline ``{label, branch, rank}`` branch dict."""
    if isinstance(value, dict):
        assert not {"branch", "rank"} & set(value), value
        for key, item in value.items():
            if key in LABEL_FIELDS:
                found.append((key, [item] if isinstance(item, str) else item))
            else:
                _named_labels(item, found)
    elif isinstance(value, list):
        for item in value:
            _named_labels(item, found)
    return found


def _label_certificates():
    r = reg()
    return sample_certificates() + [cover_certificate(12, 5, r, [r.entries[0]])[1]]


def _forgery(kind, registry, payload, **params):
    params = {"registry": registry, "ambient": "xi", **params}
    return Certificate(kind, params, payload).to_json()


B0, B1 = "b0=:1@0", "b1=:2@1"
# the same entries as schema 10 wrote them, here inlined where a label belongs
B0_OBJECT = {"label": "b0", "branch": ":1", "rank": 0}
B1_OBJECT = {"label": "b1", "branch": ":2", "rank": 1}


class TestAmbient:
    """The checker reads a recorded ambient as ``xi`` or ``pi`` only; a
    certificate that records none is read in ``xi``."""

    @staticmethod
    def certificates():
        r = reg()
        return [cover_certificate(12, 5, r, [r.entries[0]])[1], check_extendibility_a(reg())]

    @pytest.mark.parametrize("ambient", ["zz", ["xi"], None, 5], ids=["zz", "list", "null", "int"])
    def test_an_unknown_ambient_is_refused(self, ambient):
        for cert in self.certificates():
            assert check_certificate_text(cert.to_json()).ok
            forged = Certificate(cert.kind, dict(cert.params, ambient=ambient), cert.payload)
            report = check_certificate_text(forged.to_json())
            assert not report.ok, cert.kind
            assert report.problems == [
                f"malformed payload: CertificateError({f'unknown ambient {ambient!r}'!r})"
            ]

    def test_a_missing_ambient_reads_as_xi(self):
        for cert in self.certificates():
            params = {k: v for k, v in cert.params.items() if k != "ambient"}
            assert check_certificate_text(Certificate(cert.kind, params, cert.payload).to_json()).ok


class TestRegistryLabels:
    """The registry alone spells out a branch's word and rank (schema 6)."""

    def test_certificates_name_branches_by_registry_label(self):
        for cert in _label_certificates():
            ranks = {e.label: e.rank for e in formats.parse_registry(cert.params["registry"])}
            params = {k: v for k, v in cert.params.items() if k != "registry"}
            named = _named_labels([params, cert.payload], [])
            # a separator claim names its entries by position alone, and a
            # counterexample its cover's sets by expression text
            assert named or cert.kind in ("SeparatorWitness", "CounterexamplePoint"), cert.kind
            for key, labels in named:
                assert all(isinstance(x, str) and x in ranks for x in labels), (key, labels)
                assert [ranks[x] for x in labels] == sorted(ranks[x] for x in labels), key

    def test_label_lists_follow_rank_order(self):
        # whatever order the branches are given in
        r = reg()
        b0, b1, b2, b3, b4 = r.entries
        dec = containment_decreasing([b3, b0], [b2, b1], 9, r)
        assert (dec.payload["subtracted"], dec.payload["kept"]) == (["b0", "b3"], ["b1", "b2"])
        assert cover_certificate(3, 9, r, [b4, b1])[1].payload["base"] == ["b1", "b4"]
        failure = AFailure(Whole(), (b2, b0), (b4, b3)).to_payload()
        assert (failure["constraining"], failure["absorbing"]) == (["b0", "b2"], ["b3", "b4"])

    def test_property_b_registry_holds_the_minted_covers(self):
        # the chain mints its cover b50 into the registry it is given; the
        # certificate names no cover, and records that registry as given
        report = whole_cover_refutation()
        assert report.certificate.kind == "Contradiction"
        chain = {b.label for step in report.chain for b in step}
        recorded = {e.label for e in formats.parse_registry(report.certificate.params["registry"])}
        assert recorded == {"b0", "b1", "b2", "b3", "b9"} and chain - recorded == {"b50"}

    def test_cover_refuses_an_unregistered_base(self):
        r = reg()
        with pytest.raises(EngineError, match="not a registry entry"):
            cover_certificate(3, 0, r, [BranchIndex("21", "2", 7)])

    def test_cover_ranks_are_read_from_the_registry(self):
        # :1 and :2 cover 1..3; listed with rank 10 they used to clear the floor
        inline = _forgery("CoverSet", [B0, B1], {"base": [], "cover": [
            dict(B0_OBJECT, rank=10), dict(B1_OBJECT, rank=10)]}, gamma=10, depth=3)
        assert not check_certificate_text(inline).ok
        labelled = _forgery("CoverSet", [B0, B1], {"base": [], "cover": ["b0", "b1"]},
                            gamma=10, depth=3)
        report = check_certificate_text(labelled)
        assert not report.ok
        assert report.problems == [
            "cover branch b0 has rank 0 below 10", "cover branch b1 has rank 1 below 10"
        ]

    @pytest.mark.parametrize("form", ["inline", "labelled"])
    def test_absorbing_rank_is_read_from_the_registry(self, form):
        # Z(b0) ∩ Z(b1) ⊆ Z(b0) holds, but b0 ranks below b1, not at 7
        constraining, absorbing = ["b1"], ["b0"]
        if form == "inline":
            constraining, absorbing = [B1_OBJECT], [dict(B0_OBJECT, rank=7)]
        text = _forgery("InclusionChain", [B0, B1], {"claim": "absorption-failure", "afailure": {
            "zset": "N:b0", "constraining": constraining, "absorbing": absorbing}})
        report = check_certificate_text(text)
        assert not report.ok
        if form == "labelled":
            assert report.problems == ["constraining ranks must stay below absorbing ranks"]

    @pytest.mark.parametrize("form", ["inline", "labelled"])
    def test_absorbing_branch_must_be_registered(self, form):
        # Z(b0) ∩ Z(21:1) ⊆ Z(21:1) holds, but 21:1 is no registry entry
        absorbing = ["zz"] if form == "labelled" else [{"label": "zz", "branch": "21:1", "rank": 5}]
        text = _forgery("InclusionChain", [B0, B1], {"claim": "absorption-failure", "afailure": {
            "zset": "N:21:1", "constraining": ["b0"] if form == "labelled" else [B0_OBJECT],
            "absorbing": absorbing}})
        report = check_certificate_text(text)
        assert not report.ok
        if form == "labelled":
            assert "no branch labelled 'zz'" in report.problems[0]

    def test_registry_ranks_must_be_integers(self):
        # ranks are read from the registry alone, so each must be written in
        # decimal digits
        cert = cover_certificate(12, 5, reg(), [])[1]
        assert check_certificate(cert).ok
        assert cert.params["registry"][0] == "b0=:1@0"
        for rank in ("x", "0.5", "True", "-1", ""):
            entry = f"b0=:1@{rank}"
            registry = [entry, *cert.params["registry"][1:]]
            report = check_certificate(_with("params", registry=registry)(cert))
            problem = FormatError(f"bad registry entry {entry!r}; expected label=pre:period@rank")
            assert report.problems == [f"malformed payload: {problem!r}"], rank

    @pytest.mark.parametrize("entry", [100000, None, "=:1@0"], ids=["int", "null", "empty"])
    def test_registry_labels_must_be_nonempty_strings(self, entry):
        # the first entry replaced by one that is not a string, or has an
        # empty label; its witness names it by position
        cert = check_extendibility_a(reg())
        assert check_certificate(cert).ok
        registry = [entry, *cert.params["registry"][1:]]
        forged = _with("params", registry=registry)(cert)
        report = check_certificate_text(forged.to_json())
        assert not report.ok and len(report.problems) == 1
        assert f"bad registry entry {entry!r}" in report.problems[0]

    @pytest.mark.parametrize(
        "entry, problem",
        [
            # schema 10's object
            ({"label": "e0", "branch": "1:2", "rank": 0},
             "bad registry entry {'branch': '1:2', 'label': 'e0', 'rank': 0}"),
            ("e0=1:2@0 ", "registry entry 'e0=1:2@0 ' is not in canonical form 'e0=1:2@0'"),
            ("e0=1:2", "registry entry 'e0=1:2' is not in canonical form 'e0=1:2@0'"),
            ("1:2@0", "registry entry '1:2@0' is not in canonical form 'b0=1:2@0'"),
            ("e0=1:22@0", "registry entry 'e0=1:22@0' is not in canonical form 'e0=1:2@0'"),
            ("e0=1:2@00", "registry entry 'e0=1:2@00' is not in canonical form 'e0=1:2@0'"),
            ("e-0=1:2@0", "bad registry entry 'e-0=1:2@0'"),
            ("e1=1:2@0", "duplicate label 'e1'"),
            ("e0=1:2@5", "e1 has rank 1 after rank 5"),
        ],
        ids=["object", "whitespace", "no-rank", "no-label", "long-period", "leading-zero",
             "bad-label", "duplicate-label", "falling-ranks"],
    )
    def test_each_entry_is_written_in_full_canonical_form(self, entry, problem):
        # the first entry of a digest-valid certificate replaced; a problem
        # names the entry, or its label
        cert = check_extendibility_a(formats.parse_registry(["e0=1:2@0", "e1=2:1@1"]))
        assert cert.params["registry"] == ["e0=1:2@0", "e1=2:1@1"]
        assert check_certificate_text(cert.to_json()).ok
        forged = _with("params", registry=[entry, "e1=2:1@1"])(cert)
        report = check_certificate_text(forged.to_json())
        assert not report.ok and len(report.problems) == 1, report.problems
        assert problem in report.problems[0] and "TypeError" not in report.problems[0]

    @pytest.mark.parametrize("registry", ["e0=1:2@0", {"e0=1:2@0": 0}, 5])
    def test_a_registry_must_be_a_list(self, registry):
        cert = check_extendibility_a(formats.parse_registry(["e0=1:2@0", "e1=2:1@1"]))
        report = check_certificate_text(_with("params", registry=registry)(cert).to_json())
        problem = FormatError(f"a registry must be a list of entries, got {registry!r}")
        assert report.problems == [f"malformed payload: {problem!r}"]

    def test_an_unregistered_label_is_rejected(self):
        # each label list of each certificate, with a label the registry lacks
        tampered = set()
        for cert in _label_certificates():
            assert check_certificate(cert).ok
            for section in ("params", "payload"):
                fields = getattr(cert, section)
                for key in ("base", "cover", "kept", "subtracted", "exceptions",
                            "hypothesis_group", "afailure"):
                    if key not in fields:
                        continue
                    for forged in _with_unregistered_label(fields[key]):
                        fresh = _with(section, **{key: forged})(cert)
                        report = check_certificate_text(fresh.to_json())
                        assert not report.ok, (cert.kind, key)
                        assert "no branch labelled 'nope'" in report.problems[0], report.problems
                        tampered.add((cert.kind, key))
        assert {kind for kind, _ in tampered} == {
            "CoverSet", "ExceptionList", "InclusionChain", "Contradiction"
        }


def _with_unregistered_label(value):
    """Copies of a label list or an afailure, each with one label list
    opened by ``nope``."""
    if isinstance(value, list):
        yield ["nope", *value[1:]]
    else:
        for key in ("constraining", "absorbing"):
            yield dict(value, **{key: ["nope", *value[key][1:]]})


def _whole_cover_point(point):
    """The `whole_cover_refutation` contradiction with another point: its
    failure is W ∩ Z(b0..b3) ⊆ Z(b9), with b2 = 2:1 and b9 = :2."""
    return _with("payload", point=point)(whole_cover_refutation().certificate).to_json()


def _whole_cover_afailure(zset, constraining, absorbing):
    """The `whole_cover_refutation` contradiction, its point {6:7} of
    support {6}, the code of 22, which lies in b9 = :2 alone, against
    another failure."""
    afailure = {"zset": zset, "constraining": constraining, "absorbing": absorbing}
    return _with("payload", afailure=afailure)(whole_cover_refutation().certificate).to_json()


class TestSemanticObligations:
    """One digest-valid forgery for each checker rejection that no other test
    reaches: each is re-serialized with a correct digest, so only the named
    obligation rejects it, and it is the one problem reported."""

    @pytest.mark.parametrize(
        "make, problem",
        [
            # Z(b1) does not lie in Z(b0) joined with Z(b0); every other
            # obligation holds (separator 1 is in b0 only, b0 covers 1, and
            # b1 is the one exception)
            (lambda: _forgery("ExceptionList", [B0, B1], {
                "zset": "N:b0", "alpha": "b0", "hypothesis_group": ["b1"], "separator": 1,
                "cover": ["b0"], "exceptions": ["b1"]}),
             "hypothesis containment fails at {1:1}"),
            # with no exception listed, b's pair inclusion is decided:
            # (Z(a) ∪ Z(b)) ∩ (Z(c) ∪ Z(b)) is not in Z(b), as {4:4} hits b
            # alone (4 is the code of 12)
            (lambda: _with("payload", exceptions=[])(exception_list()).to_json(),
             "pair inclusion for b fails at {4:4}"),
            # the whole space is not in Z(b0), decided exactly ...
            (lambda: _forgery("InclusionChain", [B0, B1], {
                "claim": "absorption-failure",
                "afailure": {"zset": "W", "constraining": [], "absorbing": ["b0"]}}),
             "absorption inclusion breaks at {1:1}"),
            # in xi every value is at least the largest position
            (lambda: _whole_cover_point("{2:1}"), "contradiction point is invalid"),
            # Z(b0) ⊆ Z(b0) holds, and {1:1} lies outside Z(b0)
            (lambda: _forgery("Contradiction", [B0, B1], {"point": "{1:1}", "afailure": {
                "zset": "N:b0", "constraining": [], "absorbing": ["b0"]}}),
             "contradiction point misses the failing set"),
            # 2 lies in b2 and in b9
            (lambda: _whole_cover_point("{2:2}"),
             "contradiction point leaves the constraining intersection"),
            # the all-infinite point lies in every zero set
            (lambda: _whole_cover_point("{}"),
             "contradiction point still sits in an absorbing zero set"),
            (lambda: _with("payload", point="{2:1}")(
                zero_set_cover_refutation().certificate).to_json(),
             "counterexample point is invalid"),
            # the recorded failure, not the point, is forged for each of the
            # three obligations ...
            (lambda: _whole_cover_afailure("N:b9", ["b0", "b1", "b2", "b3"], ["b9"]),
             "contradiction point misses the failing set"),
            (lambda: _whole_cover_afailure("W", ["b9"], []),
             "contradiction point leaves the constraining intersection"),
            (lambda: _whole_cover_afailure("W", [], ["b0"]),
             "contradiction point still sits in an absorbing zero set"),
            # ... and W ∩ Z(b1) ⊆ Z(b0) breaks at {1:1}, 1 lying in b0 alone,
            # but b1 ranks above b0
            (lambda: _forgery("Contradiction", [B0, B1], {"point": "{1:1}", "afailure": {
                "zset": "W", "constraining": ["b1"], "absorbing": ["b0"]}}),
             "constraining ranks must stay below absorbing ranks"),
            # 1 lies in :1 alone, so {1:1} lies in the cover set Z(:2)
            (lambda: _with("payload", point="{1:1}")(
                zero_set_cover_refutation().certificate).to_json(),
             "the point lies in cover set N::2"),
        ],
        ids=["hypothesis", "pair-inclusion", "absorption-exact", "contradiction-invalid",
             "contradiction-misses-set", "contradiction-leaves-constraining",
             "contradiction-in-absorbing", "counterexample-invalid", "afailure-misses-set",
             "afailure-leaves-constraining", "afailure-in-absorbing", "afailure-inverted-ranks",
             "counterexample-in-cover-set"],
    )
    def test_forgery_rejected(self, make, problem):
        text = make()
        Certificate.from_json(text)  # the digest holds
        report = check_certificate_text(text)
        assert not report.ok and report.problems == [problem]


class TestDeepJson:
    def test_deep_nesting_is_unparseable(self):
        # past the recursion limit the parser fails; just under it, the
        # digest can fail instead; both must give a report
        texts = ["[" * 100000 + "]" * 100000]
        for depth in range(1, 1500):
            nested = "[" * depth + "]" * depth
            texts.append(
                '{"schema":%d,"kind":"CoverSet","params":{},"payload":{"x":%s},'
                '"digest":"0"}' % (SCHEMA_VERSION, nested)
            )
        for text in texts:
            report = check_certificate_text(text)
            assert report.kind == "unparseable" and not report.ok


class TestCheckerIndependence:
    def test_checker_only_trusts_evidence(self):
        # the checker decides the pair inclusion of every entry the exception
        # list does not name: naming c, a candidate whose inclusion holds, in
        # place of b leaves b decided, and it fails
        cert = exception_list()
        assert cert.payload["exceptions"] == ["b"] and check_certificate(cert).ok
        report = check_certificate(_with("payload", exceptions=["c"])(cert))
        assert report.problems == ["pair inclusion for b fails at {4:4}"]

    def test_checker_walks_no_truncation(self, monkeypatch):
        # a refutation stands on its point: its replay enumerates no
        # truncated support class and runs no truncated containment loop
        certs = [whole_cover_refutation().certificate, zero_set_cover_refutation().certificate]
        assert {c.kind for c in certs} == {"Contradiction", "CounterexamplePoint"}

        def walked(*args, **kwargs):
            raise AssertionError("the checker walked a truncation")

        monkeypatch.setattr(space, "containment_violations", walked)
        monkeypatch.setattr(space, "support_classes", walked)
        for cert in certs:
            report = check_certificate_text(cert.to_json())
            assert report.ok, report.problems

    def test_checking_leaves_the_certificate_unchanged(self):
        # the verdict is the report's alone: a checked certificate still
        # equals its parsed copy, and writes the same bytes
        for cert in sample_certificates():
            text = cert.to_json()
            assert check_certificate(cert).ok
            assert cert == Certificate.from_json(text) and cert.to_json() == text
