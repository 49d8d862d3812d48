"""Certificate serialization, digesting, tampering, and checker behavior."""

import json
import random

import pytest

from zfilterlab.branches import make_registry
from zfilterlab.certificates import Certificate, CertificateError, body_digest
from zfilterlab.checking import check_certificate, check_certificate_text
from zfilterlab.engines import (
    AFailure,
    check_extendibility_a,
    check_extendibility_b,
    containment_decreasing,
    containment_full_product,
    decreasing_chain_engine,
    increasing_chain_engine,
    property_a_check,
    property_b_refute,
)
from zfilterlab.space import Atom, Truncation, Union, Whole

TR = Truncation(4, 6)


def reg():
    return make_registry([("", "1"), ("", "2"), ("1", "2"), ("12", "1"), ("2", "1")])


def sample_certificates():
    r = reg()
    certs = [check_extendibility_a(r, TR, max_group_size=2)]
    r = reg()
    certs.append(check_extendibility_b(Whole(), r.entries[0], r, TR))
    r = reg()
    certs.append(
        containment_decreasing([r.entries[0]], [r.entries[1]], 7, r, TR).certificate
    )
    r = reg()
    certs.append(
        containment_full_product([r.entries[0]], [r.entries[1]], TR).certificate
    )
    r = reg()
    certs.append(property_a_check(Whole(), r, TR, max_f_size=1).certificate)
    r = reg()
    certs.append(increasing_chain_engine(r, 3, TR).certificate)
    r = reg()
    certs.append(decreasing_chain_engine(r, 3, TR).certificate)
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

    def test_byte_determinism(self):
        r1, r2 = reg(), reg()
        a = check_extendibility_a(r1, TR).to_json()
        b = check_extendibility_a(r2, TR).to_json()
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
        doc["payload"]["entries"][0]["separator"] += 1
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
        cert = check_extendibility_a(r, TR, max_group_size=1)
        cert.payload["entries"][0]["point"] = "{1:1,2:2}"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        report = check_certificate(fresh)
        assert not report.ok


class TestStructure:
    def test_bad_field_types_rejected_on_construction(self):
        with pytest.raises(CertificateError):
            Certificate("SeparatorWitness", [], {})
        with pytest.raises(CertificateError):
            Certificate("SeparatorWitness", {}, {}, steps={})

    def test_digest_valid_body_with_list_params_is_a_failed_report(self):
        doc = {"schema": 1, "kind": "SeparatorWitness", "params": [], "payload": {},
               "steps": []}
        doc["digest"] = body_digest("SeparatorWitness", [], {}, [])
        report = check_certificate_text(json.dumps(doc))
        assert not report.ok and report.problems


class TestSeparatorWitnessClaims:
    def test_empty_payload_rejected(self):
        assert not check_certificate(Certificate("SeparatorWitness", {}, {})).ok

    def test_unknown_claim_rejected(self):
        cert = increasing_chain_engine(reg(), 3, TR).certificate
        cert.payload["claim"] = "strictly-sideways-chain"
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok

    @pytest.mark.parametrize("engine", [increasing_chain_engine, decreasing_chain_engine])
    @pytest.mark.parametrize(
        "cut",
        [lambda pairs: [], lambda pairs: pairs[:-1], lambda pairs: pairs + pairs[:1]],
        ids=["no-pairs", "one-missing", "one-repeated"],
    )
    def test_chain_pairs_must_fill_the_grid(self, engine, cut):
        cert = engine(reg(), 3, TR).certificate
        assert check_certificate(cert).ok
        cert.payload["pairs"] = cut(cert.payload["pairs"])
        fresh = Certificate(cert.kind, cert.params, cert.payload, cert.steps)
        assert not check_certificate(fresh).ok


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
