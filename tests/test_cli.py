"""Command-line behavior: outputs, exit codes, certificate files, oracle claims;
and what a command, or an import of the package, loads."""

import argparse
import importlib
import json
import os
import subprocess
import sys

import pytest

import zfilterlab
from zfilterlab import cli, space
from zfilterlab.certificates import Certificate
from zfilterlab.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)

REG = ["a=:1@0", "b=:2@1", "c=1:2@2"]


def _reg_flags():
    flags = []
    for entry in REG:
        flags.extend(["--registry", entry])
    return flags


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _refuted_cover(capsys, tmp_path) -> Certificate:
    """A property-b `CounterexamplePoint` made at (4, 6): Z(a) ∪ Z(b) misses
    a point.  Only property-b certificates record a truncation."""
    cover_file = tmp_path / "cover.json"
    cover_file.write_text(json.dumps({"afailures": [
        {"zset": "N:a", "constraining": [], "absorbing": ["a"]},
        {"zset": "N:b", "constraining": [], "absorbing": ["b"]},
    ]}))
    out_file = tmp_path / "refute.json"
    code, _, _ = run(
        capsys,
        "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
        *_reg_flags(), "--T", "4", "--V", "6", "--out", str(out_file),
    )
    assert code == EXIT_OK
    cert = Certificate.read(str(out_file))
    assert cert.kind == "CounterexamplePoint" and cert.params["truncation"] == {"T": 4, "V": 6}
    return cert


# Python's lowest limit on the decimal digits of an int-to-str conversion
# (4,300 by default), and a word whose codes and elements run past it
DIGITS = 640
LONG = "1" * 2200
DIGIT_LIMIT_MESSAGE = (
    f"an output integer has more than {DIGITS} decimal digits,"
    " the interpreter's limit for writing one"
)


@pytest.fixture
def lowest_digit_limit():
    """Python's limit on decimal digits lowered to `DIGITS`, so that the
    integers past it stay quick to make."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGITS)
    yield
    sys.set_int_max_str_digits(limit)


class TestFamily:
    def test_elements(self, capsys):
        code, out, _ = run(capsys, "family", "elements", ":1", "--count", "4")
        assert code == EXIT_OK and out.strip() == "1,3,7,15"

    def test_intersect(self, capsys):
        code, out, _ = run(capsys, "family", "intersect", ":1", "1:2")
        assert code == EXIT_OK and out.strip() == "{1}"

    def test_separator(self, capsys):
        code, out, _ = run(capsys, "family", "separator", ":1", "--group", "1:2")
        assert code == EXIT_OK and out.strip() == "3"

    def test_cover_writes_certificate(self, capsys, tmp_path):
        out_file = tmp_path / "cover.json"
        code, out, _ = run(
            capsys,
            "family", "cover", "--l", "3", "--gamma", "5",
            "--base", ":1", "--registry", "a=:1@0", "--out", str(out_file),
        )
        assert code == EXIT_OK
        cert = Certificate.read(str(out_file))
        assert cert.kind == "CoverSet"
        ranks = {e["label"]: e["rank"] for e in cert.params["registry"]}
        assert cert.payload["cover"] and all(ranks[c] >= 5 for c in cert.payload["cover"])

    def test_cover_mints_past_a_taken_default_label(self, capsys, tmp_path):
        # the first minted branch has rank 3, and "b3" already names an entry
        out_file = tmp_path / "cover.json"
        code, out, _ = run(
            capsys,
            "family", "cover", "--l", "10", "--gamma", "3",
            "-r", "b3=1:2@0", "-r", "x=2:1@1", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "b3_2 :1 rank=3"
        cert = Certificate.read(str(out_file))
        assert [e["label"] for e in cert.params["registry"]][:3] == ["b3", "x", "b3_2"]
        assert run(capsys, "verify", "--check", str(out_file))[1].strip() == "verified"

    def test_density_and_codec(self, capsys):
        assert run(capsys, "family", "density", "--n", "4", "--depth", "4")[1].strip() == "4"
        assert run(capsys, "family", "encode", "22")[1].strip() == "6"
        assert run(capsys, "family", "decode", "7")[1].strip() == "111"

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--n", "1", "--depth", "2200"],
            ["elements", ":1", "--count", "2200"],
            ["encode", LONG],
            ["separator", f"{LONG}:2", "--group", f"{LONG}:1"],
            ["intersect", f"{LONG}:2", f"{LONG}:1"],
        ],
        ids=["density", "elements", "encode", "separator", "intersect"],
    )
    @pytest.mark.usefixtures("lowest_digit_limit")
    def test_an_output_past_the_digit_limit_is_a_resource_cap(self, capsys, argv):
        code, out, err = run(capsys, "family", *argv)
        assert code == EXIT_RESOURCE and out == ""
        assert err == f"error: resource cap: {DIGIT_LIMIT_MESSAGE}\n"

    def test_only_the_digit_limit_is_a_resource_cap(self):
        # a ValueError with any other cause is a fault, and stays one
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            cli._decimal(json.dumps, loop)

    def test_bad_literal_is_usage_error(self, capsys):
        code, _, err = run(capsys, "family", "elements", "13:")
        assert code == EXIT_USAGE and "error" in err


class TestVerify:
    def test_containment_dec(self, capsys, tmp_path):
        out_file = tmp_path / "dec.json"
        code, out, _ = run(
            capsys,
            "verify", "containment-dec",
            "--F", "a", "--G", "b", "--gamma", "5",
            *_reg_flags(), "--T", "4", "--V", "6", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert "verified" in out
        assert Certificate.read(str(out_file)).kind == "InclusionChain"

    @pytest.mark.usefixtures("lowest_digit_limit")
    def test_a_certificate_past_the_digit_limit_is_a_resource_cap(self, capsys, tmp_path):
        # b's separator lies past its long prefix
        out_file = tmp_path / "full.json"
        code, out, err = run(
            capsys, "verify", "containment-full", "--F", "a", "--G", "b",
            "-r", "a=:1@0", "-r", f"b={LONG}:2@1", "--out", str(out_file),
        )
        assert code == EXIT_RESOURCE and out == ""
        assert err == f"error: resource cap: {DIGIT_LIMIT_MESSAGE}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.usefixtures("lowest_digit_limit")
    def test_a_rank_past_the_digit_limit_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "verify", "chain-inc", "--steps", "1", "-r", f"a=1:2@{'9' * (DIGITS + 1)}",
            "--out", str(tmp_path / "chain.json"),
        )
        assert code == EXIT_USAGE
        assert err == f"error: a registry rank has more than {DIGITS} digits\n"

    def test_check_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "chain.json"
        code, _, _ = run(
            capsys,
            "verify", "chain-inc", "--steps", "3",
            *_reg_flags(), "--T", "4", "--V", "6", "--out", str(out_file),
        )
        assert code == EXIT_OK
        code, out, _ = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_OK and "verified" in out

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "chain.json"
        run(
            capsys,
            "verify", "chain-dec", "--steps", "2",
            *_reg_flags(), "--T", "4", "--V", "6", "--out", str(out_file),
        )
        blob = out_file.read_bytes()
        mutated = blob.replace(b'"point":"{', b'"point":"{1:1,', 1)
        assert mutated != blob
        out_file.write_bytes(mutated)
        code, out, _ = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_FAIL and "rejected" in out

    @pytest.mark.parametrize("T, V", [(40, 6), (4, 17)], ids=["past-cap-T", "past-cap-V"])
    def test_check_refuses_truncation_past_caps(self, capsys, tmp_path, T, V):
        # a digest-valid certificate rebuilt at T = 40 could keep the replay
        # busy with 2**40 support classes; the caps stop it before the replay
        cert = _refuted_cover(capsys, tmp_path)
        out_file = tmp_path / "refute.json"
        # the all-infinite point lies in every cover set, whatever the truncation
        params = dict(cert.params, truncation={"T": T, "V": V})
        payload = dict(cert.payload, point="{}")
        out_file.write_text(Certificate(cert.kind, params, payload).to_json())
        code, out, err = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("error:") and f"({T},{V}) exceeds caps (12,16)" in err
        if V > 16:
            # raising the cap lets the replay run, and it rejects the cut
            code, out, err = run(capsys, "verify", "--check", str(out_file), "--cap-V", str(V))
            assert code == EXIT_FAIL and "rejected" in out
            assert "the point lies in cover set N:" in err

    @pytest.mark.parametrize("T, V", [(2.5, 6), (4, 6.5), (True, 6)], ids=["T-2.5", "V-6.5", "T-true"])
    def test_check_rejects_non_integer_truncation(self, capsys, tmp_path, T, V):
        cert = _refuted_cover(capsys, tmp_path)
        out_file = tmp_path / "refute.json"
        params = dict(cert.params, truncation={"T": T, "V": V})
        out_file.write_text(Certificate(cert.kind, params, cert.payload).to_json())
        code, out, err = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_FAIL and out.strip() == "rejected"
        assert "must be integers" in err and "Traceback" not in err

    def test_separator_far_past_the_truncation(self, capsys, tmp_path):
        # a and b share a 20-letter prefix, so b's separator avoiding a is the
        # code of 1**21, far past T = 8; the checker decodes that position
        # against both words instead of enumerating up to it
        out_file = tmp_path / "full.json"
        registry = ["--registry", "a=" + "1" * 20 + ":2@0", "--registry", "b=:1@1"]
        code, out, _ = run(
            capsys,
            "verify", "containment-full", "--F", "a", "--G", "b",
            *registry, "--T", "8", "--out", str(out_file),
        )
        assert code == EXIT_OK and "verified" in out
        assert Certificate.read(str(out_file)).payload["separators"] == {"b": 2**21 - 1}
        code, out, _ = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_OK and "verified" in out

    def test_property_b_counterexample(self, capsys, tmp_path):
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(
            json.dumps(
                {
                    "afailures": [
                        {"zset": "N:a", "constraining": [], "absorbing": ["a"]},
                        {"zset": "N:b", "constraining": [], "absorbing": ["b"]},
                    ]
                }
            )
        )
        out_file = tmp_path / "refute.json"
        code, out, _ = run(
            capsys,
            "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
            *_reg_flags(), "--T", "4", "--V", "6", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert Certificate.read(str(out_file)).kind == "CounterexamplePoint"

    @pytest.mark.parametrize("lemma, extra", [
        ("property-a", []),
        ("extendibility-b", ["--alpha", "e0"]),
        ("property-b", ["--cover", "COVER"]),
        ("extendibility-a", []),
        ("containment-dec", ["--F", "e0", "--G", "e1"]),
        ("containment-full", ["--F", "e0", "--G", "e1"]),
        ("chain-inc", []),
        ("chain-dec", []),
    ])
    def test_xi_only_lemmas_refuse_another_ambient(self, capsys, tmp_path, lemma, extra):
        # every engine decides and records one ambient, containment-full pi
        # and the rest xi, and refuses the other; {1:1,3:1} is a pi point only
        own, other = ("pi", "xi") if lemma == "containment-full" else ("xi", "pi")
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(json.dumps({"afailures": [
            {"zset": "(union N:e0 (pt {1:1,3:1}))", "constraining": [], "absorbing": ["e1"]}]}))
        out_file = tmp_path / "x.json"
        extra = [str(cover_file) if x == "COVER" else x for x in extra]
        flags = [*extra, "-r", "e0=:1@0", "-r", "e1=:2@1", "--T", "4", "--V", "5",
                 "--out", str(out_file)]
        code, out, err = run(
            capsys,
            "verify", lemma, "--ambient", other, "--zset", "(union N:e0 (pt {1:1,3:1}))",
            *flags,
        )
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and own in err
        assert not out_file.exists()
        # the lemma's own ambient is the default, and naming it changes
        # nothing (the three lemmas that read the pi-only set are left out)
        if lemma not in ("extendibility-b", "property-a", "property-b"):
            assert run(capsys, "verify", lemma, *flags)[0] == EXIT_OK
            default = out_file.read_bytes()
            assert run(capsys, "verify", lemma, "--ambient", own, *flags)[0] == EXIT_OK
            assert out_file.read_bytes() == default
            assert Certificate.read(str(out_file)).params["ambient"] == own

    @pytest.mark.parametrize("lemma, recorded, other", [
        ("containment-full", "pi", "xi"),
        ("chain-dec", "xi", "pi"),
    ])
    def test_check_refuses_another_ambient(self, capsys, tmp_path, lemma, recorded, other):
        # the replay decides in the recorded ambient, so asking for another
        # one is refused rather than answered about the recorded one
        out_file = tmp_path / "x.json"
        flags = ["--F", "e0", "--G", "e1"] if lemma == "containment-full" else []
        code, _, _ = run(
            capsys,
            "verify", lemma, *flags, "-r", "e0=:1@0", "-r", "e1=:2@1", "-r", "e2=1:2@2",
            "--T", "4", "--V", "5", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert Certificate.read(str(out_file)).params["ambient"] == recorded
        code, out, err = run(capsys, "verify", "--check", str(out_file), "--ambient", other)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and recorded in err
        for same in ([], ["--ambient", recorded]):
            code, out, _ = run(capsys, "verify", "--check", str(out_file), *same)
            assert code == EXIT_OK and out.strip() == "verified"

    def test_unknown_hypothesis_exit_code(self, capsys, tmp_path):
        # no group intersection lies in the empty set joined with Z(a), so the
        # hypothesis is refused exactly, exit 1, naming a point of
        # Z(b) ∩ Z(c) outside Z(a): 3 is an element of a = :1, and of neither
        # b = :2 nor c = 1:2
        code, out, err = run(
            capsys,
            "verify", "extendibility-b", "--zset", "(union)", "--alpha", "a",
            *_reg_flags(), "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_FAIL and out == ""
        assert err.startswith("failed: no group intersection") and "{3:3}" in err
        assert not (tmp_path / "x.json").exists()

    def test_eight_word_refusal_names_a_point_past_the_truncation(self, capsys, tmp_path):
        # at (8,10) no point of Z(e1) lies outside (pt {1:5}) ∪ Z(e0), so a
        # truncated search would take [e1] as the hypothesis; {15:15} is one
        words = ["1111:2", "1112:1", "1121:2", "1122:1", "1211:2", "1212:1", "1221:2", "1222:1"]
        flags = [x for i, w in enumerate(words) for x in ("-r", f"e{i}={w}@{i}")]
        code, out, err = run(
            capsys,
            "verify", "extendibility-b", "--zset", "(pt {1:5})", "--alpha", "e0", *flags,
            "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_FAIL and out == ""
        assert "{15:15}" in err

    def test_term_bound_exit_code(self, capsys, tmp_path):
        # ¬zset is a product of nine two-term factors over distinct atoms, so
        # its DNF outgrows MAX_DNF_TERMS = 256 before it is absorbed
        words = [f"{format(i, '05b').translate(str.maketrans('01', '12'))}:1" for i in range(18)]
        pairs = " ".join(f"(inter N:{a} N:{b})" for a, b in zip(words[::2], words[1::2]))
        code, out, err = run(
            capsys,
            "verify", "extendibility-b", "--zset", f"(union {pairs})", "--alpha", "a",
            *_reg_flags(), "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("error: resource cap:") and "MAX_DNF_TERMS = 256" in err

    def test_resource_cap(self, capsys, tmp_path):
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(json.dumps({"afailures": [
            {"zset": "N:a", "constraining": [], "absorbing": ["a"]}]}))
        code, _, err = run(
            capsys,
            "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
            *_reg_flags(), "--T", "20", "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_RESOURCE and "cap" in err

    def test_cap_override(self, capsys, tmp_path):
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(json.dumps({"afailures": [
            {"zset": "N:a", "constraining": [], "absorbing": ["a"]}]}))
        out_file = tmp_path / "x.json"
        code, _, _ = run(
            capsys,
            "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
            *_reg_flags(), "--T", "13", "--V", "4", "--cap-T", "13", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert Certificate.read(str(out_file)).params["truncation"] == {"T": 13, "V": 4}

    @pytest.mark.parametrize("lemma, extra", [
        ("chain-inc", ["--steps", "2"]),
        ("extendibility-a", []),
        ("containment-dec", ["--F", "a", "--G", "b"]),
        ("containment-full", ["--F", "a", "--G", "b"]),
        ("extendibility-b", ["--zset", "W", "--alpha", "a"]),
        ("property-a", ["--zset", "W"]),
    ])
    def test_exact_lemmas_ignore_the_truncation(self, capsys, tmp_path, lemma, extra):
        # these engines read no truncation, so --T/--V and the caps are
        # accepted and have no effect on the certificate
        extra = [*extra, "-r", "a=1:2@0", "-r", "b=2:1@1"]
        out_file = tmp_path / "x.json"
        code, out, err = run(capsys, "verify", lemma, *extra, "--out", str(out_file))
        assert code == EXIT_OK, err
        default = out_file.read_bytes()
        assert "truncation" not in Certificate.read(str(out_file)).params
        code, out, err = run(
            capsys, "verify", lemma, *extra, "--T", "13", "--V", "40", "--cap-T", "2",
            "--out", str(out_file),
        )
        assert code == EXIT_OK and "verified" in out, err
        assert out_file.read_bytes() == default
        code, out, _ = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_OK and out.strip() == "verified"

    def test_property_b_meets_the_caps(self, capsys, tmp_path):
        # the one lemma that searches a truncation
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(json.dumps({"afailures": [
            {"zset": "N:a", "constraining": [], "absorbing": ["a"]}]}))
        out_file = tmp_path / "x.json"
        code, out, err = run(
            capsys, "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
            *_reg_flags(), "--T", "13", "--out", str(out_file),
        )
        assert code == EXIT_RESOURCE and out == ""
        assert "truncation (13,10) exceeds caps (12,16)" in err
        assert not out_file.exists()

    def test_bare_literals_register_on_the_fly(self, capsys, tmp_path):
        out_file = tmp_path / "dec.json"
        code, out, _ = run(
            capsys,
            "verify", "containment-dec", "--F", ":1", "--G", ":2", "--gamma", "5",
            "--T", "4", "--V", "6", "--out", str(out_file),
        )
        assert code == EXIT_OK and "verified" in out

    def test_bare_literal_past_a_taken_default_label(self, capsys, tmp_path):
        # the literal registers at rank 1, and "b1" already names an entry
        out_file = tmp_path / "dec.json"
        code, out, _ = run(
            capsys,
            "verify", "containment-dec", "--F", "1:2", "--G", "2:1",
            "-r", "b1=22:1@0", "--out", str(out_file),
        )
        assert code == EXIT_OK and "verified" in out
        cert = Certificate.read(str(out_file))
        assert [e["label"] for e in cert.params["registry"]] == ["b1", "b1_2", "b2"]
        assert cert.payload["subtracted"] == ["b1_2"] and cert.payload["kept"] == ["b2"]

    @pytest.mark.parametrize("flags, labels", [
        (["-r", "b1=1:2@0", "-r", "2:1@1"], ["b1", "b1_2"]),
        (["-r", "1:2@0", "-r", "b0=2:1@1"], ["b0_2", "b0"]),
        (["-r", "1:2@0", "-r", "2:1@1"], ["b0", "b1"]),
    ], ids=["explicit-first", "explicit-later", "no-collision"])
    def test_explicit_registry_labels_win(self, capsys, tmp_path, flags, labels):
        # an unlabelled entry takes b<rank>, or b<rank>_2 when an explicit
        # label, before or after it, holds b<rank>
        out_file = tmp_path / "chain.json"
        code, out, err = run(capsys, "verify", "chain-inc", "--steps", "2", *flags,
                             "--out", str(out_file))
        assert code == EXIT_OK and "verified" in out, err
        cert = Certificate.read(str(out_file))
        assert [e["label"] for e in cert.params["registry"]] == labels

    def test_output_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ZFILTERLAB_OUT", str(tmp_path))
        code, _, _ = run(
            capsys,
            "verify", "chain-inc", "--steps", "2", *_reg_flags(),
            "--T", "4", "--V", "6",
        )
        assert code == EXIT_OK
        assert (tmp_path / "chain-inc.cert.json").exists()

    def test_seed_is_no_option(self, capsys, tmp_path):
        # a seed was only written into the certificate, where nothing read it
        code, out, err = run(capsys, "verify", "extendibility-a", *_reg_flags(),
                             "--seed", "9", "--out", str(tmp_path / "a.json"))
        assert code == EXIT_USAGE and out == "" and "--seed" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        base = [
            "verify", "extendibility-a", *_reg_flags(),
            "--T", "4", "--V", "6",
        ]
        run(capsys, *base, "--out", str(f1))
        run(capsys, *base, "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

        # main() reuses one parser, so flags, usage errors and help given to
        # one call must leave no trace in the calls after it
        assert cli._build_parser() is cli._build_parser()
        plain_file = tmp_path / "plain.json"
        plain = [
            ["family", "cover", "--l", "3", "--gamma", "5", "--out", str(plain_file)],
            ["verify", "containment-dec", "--gamma", "5", "--T", "4", "--V", "6",
             "--out", str(plain_file)],
        ]

        def run_plain():
            return [(run(capsys, *argv), plain_file.read_bytes()) for argv in plain]

        first = run_plain()
        assert all(code == EXIT_OK for (code, _, _), _ in first)
        flagged = tmp_path / "flagged.json"
        interleaved = [
            (["family", "cover", "--l", "3", "--gamma", "5", "--base", ":1",
              "-r", "a=:1@0", "--out", str(flagged)], EXIT_OK, "certificate:", ""),
            (["verify", "containment-dec", "--F", "a", "--G", "b", "--gamma", "5",
              *_reg_flags(), "--base", "--T", "4", "--V", "6", "--out", str(flagged)],
             EXIT_USAGE, "", "error:"),
            (["verify", "containment-dec", "--F", "a", "--G", "b", "--gamma", "5",
              *_reg_flags(), "--T", "4", "--V", "6", "--out", str(flagged)],
             EXIT_OK, "verified", ""),
            (["family", "cover", "--l", "3", "--no-such-flag"], EXIT_USAGE, "", "error:"),
            (["-h"], EXIT_OK, "usage: zfilterlab", ""),
            (["verify", "-h"], EXIT_OK, "--check CERT", ""),
        ]
        for argv, want_code, want_out, want_err in interleaved:
            code, out, err = run(capsys, *argv)
            assert code == want_code, argv
            assert want_out in out and want_err in err, argv
            assert run_plain() == first, argv


class TestOracle:
    def test_equality_of_empty_intersection_and_whole(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps({"claim": "equality", "lhs": "(inter)", "rhs": "W"}))
        code, out, _ = run(
            capsys, "oracle", str(claim), *_reg_flags(), "--T", "4", "--V", "6"
        )
        assert code == EXIT_OK and "holds" in out

    def test_containment_fails_with_first_point(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text(
            json.dumps({"claim": "containment", "lhs": "N:1:2", "rhs": "N::1"})
        )
        code, out, _ = run(
            capsys, "oracle", str(claim), *_reg_flags(), "--T", "4", "--V", "6"
        )
        assert code == EXIT_FAIL
        assert "{3:3}" in out

    def test_resource_cap(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps({"claim": "emptiness", "lhs": "(union)"}))
        code, _, err = run(capsys, "oracle", str(claim), "--T", "20")
        assert code == EXIT_RESOURCE

    def test_nesting_past_the_depth_limit_is_a_usage_error(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text(
            json.dumps({"claim": "emptiness", "lhs": "(union " * 3000 + "W" + ")" * 3000})
        )
        code, _, err = run(capsys, "oracle", str(claim))
        assert code == EXIT_USAGE and err.startswith("error:") and "deeper" in err

    def test_equality_lists_counterexamples_in_order(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text(
            json.dumps({"claim": "equality", "lhs": "(diff N:b (pt {1:3}))", "rhs": "N:a"})
        )
        code, out, _ = run(
            capsys, "oracle", str(claim), *_reg_flags(), "--T", "4", "--V", "6",
            "--max-counterexamples", "3",
        )
        assert code == EXIT_FAIL
        # three per direction: lhs minus rhs, then rhs minus lhs
        points = ["{1:1}", "{1:2}", "{1:4}", "{2:2}", "{2:3}", "{2:4}"]
        assert out.splitlines() == [f"counterexample: {p}" for p in points]


class TestDispatch:
    """A command word hands the rest of argv to that command's own parser."""

    # one argv per command: every family subcommand, each lemma, --check, oracle
    ARGVS = [
        ["family", "elements", ":1", "--count", "4"],
        ["family", "intersect", ":1", "1:2"],
        ["family", "separator", ":1", "--group", "1:2", "--group", "2:1"],
        ["family", "cover", "--l", "3", "--gamma", "5", "--base", ":1", "-r", "a=:1@0",
         "--out", "c.json"],
        ["family", "density", "--n", "4", "--depth", "4"],
        ["family", "encode", "22"],
        ["family", "decode", "7"],
        ["verify", "extendibility-a", *_reg_flags(), "--out", "c.json"],
        ["verify", "extendibility-b", "--zset", "N:a", "--alpha", "b", *_reg_flags(),
         "--T", "4", "--V", "6", "--cap-T", "13"],
        ["verify", "containment-dec", "--F", "a", "--G", "b", "--gamma", "5", *_reg_flags()],
        ["verify", "containment-full", "--F", "a", "--G", "b", "--G", "c", "--ambient", "pi"],
        ["verify", "property-a", "--zset", "W", *_reg_flags(), "--T", "5"],
        ["verify", "property-b", "--cover", "f.json", "--gamma", "50", *_reg_flags()],
        ["verify", "chain-inc", "--steps", "3", *_reg_flags()],
        ["verify", "chain-dec", *_reg_flags(), "--steps", "2", "--out", "c.json"],
        ["verify", "--check", "c.json", "--ambient", "pi", "--cap-V", "20"],
        ["oracle", "claim.json", *_reg_flags(), "--T", "4", "--V", "6", "--max-counterexamples", "2"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_handler_gets_the_top_level_namespace(self, monkeypatch, argv):
        top = vars(cli._build_parser()[0].parse_args(argv))
        parse_args = argparse.ArgumentParser.parse_args
        used = []

        def recording(parser, args=None, namespace=None):
            ns = parse_args(parser, args, namespace)
            used.append((parser.prog, dict(vars(ns))))
            ns.func = lambda args: EXIT_OK
            return ns

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
        assert main(argv) == EXIT_OK
        words = argv[:2] if argv[0] == "family" else argv[:1]
        [(prog, received)] = used
        assert prog == " ".join(["zfilterlab", *words])
        # the top-level parser also records the command words it consumed
        for key in ("command", "family_command"):
            top.pop(key, None)
            received.pop(key, None)
        assert received == top

    @pytest.mark.parametrize(
        "argv, want_code",
        [
            ([], EXIT_USAGE),
            (["nope"], EXIT_USAGE),
            (["-h"], EXIT_OK),
            (["verify", "-h"], EXIT_OK),
            (["family"], EXIT_USAGE),
            (["family", "nope"], EXIT_USAGE),
            (["family", "elements", "-h"], EXIT_OK),
            (["family", "decode", "x"], EXIT_USAGE),
            (["verify", "nolemma"], EXIT_USAGE),
            (["oracle"], EXIT_USAGE),
        ],
        ids=repr,
    )
    def test_help_and_usage_errors_match_the_top_level_parser(self, capsys, argv, want_code):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser()[0].parse_args(argv)
        out, err = capsys.readouterr()
        assert (EXIT_USAGE if exc.value.code else EXIT_OK) == want_code
        assert run(capsys, *argv) == (want_code, out, err)

    def test_unrecognized_arguments_print_the_command_usage(self, capsys):
        code, out, err = run(capsys, "oracle", "c.json", "--bogus", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("usage: zfilterlab oracle ")
        assert err.endswith("zfilterlab oracle: error: unrecognized arguments: --bogus 1\n")


class TestInputErrors:
    """Unreadable or incomplete input, and an unwritable certificate path,
    are usage errors, never a refutation."""

    def test_check_missing_certificate(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--check", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE and err.startswith("error:")

    def test_oracle_malformed_json(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text('{"claim": "emptiness", "lhs": ')
        code, _, err = run(capsys, "oracle", str(claim), *_reg_flags())
        assert code == EXIT_USAGE and err.startswith("error:")

    def test_oracle_claim_without_lhs(self, capsys, tmp_path):
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps({"claim": "containment", "rhs": "W"}))
        code, _, err = run(capsys, "oracle", str(claim), *_reg_flags())
        assert code == EXIT_USAGE and err.startswith("error:")

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "oracle", str(deep), *_reg_flags())
        assert code == EXIT_USAGE and err.startswith("error:")
        code, out, _ = run(capsys, "verify", "--check", str(deep))
        assert code == EXIT_FAIL and "rejected" in out

    @pytest.mark.parametrize(
        "content",
        [None, '{"afailures": [', json.dumps({"afailures": [{"absorbing": ["a"]}]})],
        ids=["missing-file", "malformed-json", "afailure-without-zset"],
    )
    def test_property_b_bad_cover_file(self, capsys, tmp_path, content):
        cover_file = tmp_path / "cover.json"
        if content is not None:
            cover_file.write_text(content)
        code, _, err = run(
            capsys,
            "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
            *_reg_flags(), "--T", "4", "--V", "6", "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_USAGE and err.startswith("error:")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"afailures": 5}, "afailures must be a list"),
            ({"afailures": [{"zset": "N:a", "constraining": 5, "absorbing": ["a"]}]},
             "'constraining' must be a list of registry labels"),
            # a string used to be read letter by letter, as ["a"]
            ({"afailures": [{"zset": "N:a", "constraining": [], "absorbing": "a"}]},
             "'absorbing' must be a list of registry labels"),
            ({"afailures": [{"zset": "N:a", "absorbing": ["a"]}]},
             "'constraining' must be a list of registry labels"),
            ({"afailures": [{"zset": "N:a", "constraining": [], "absorbing": ["zz"]}]},
             "no branch labelled 'zz'"),
        ],
        ids=["afailures-not-a-list", "constraining-not-a-list", "absorbing-a-string",
             "constraining-missing", "absorbing-unregistered"],
    )
    def test_property_b_malformed_afailures(self, capsys, tmp_path, doc, message):
        # a cover file's afailures have the shape a certificate records
        cover_file = tmp_path / "cover.json"
        cover_file.write_text(json.dumps(doc))
        code, _, err = run(
            capsys,
            "verify", "property-b", "--cover", str(cover_file), "--gamma", "50",
            "-r", "a=:1@0", "-r", "b=:2@1", "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_USAGE and err.startswith("error:") and message in err, err


    @pytest.mark.parametrize(
        "argv",
        [["verify", "extendibility-a", "-r", "a=1:2@0", "-r", "b=2:1@1"],
         ["family", "cover", "--l", "3"]],
        ids=["verify", "family-cover"],
    )
    def test_unwritable_certificate_path(self, capsys, tmp_path, monkeypatch, argv):
        missing = tmp_path / "missing" / "c.json"
        code, out, err = run(capsys, *argv, "--out", str(missing))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: cannot write certificate: {missing}: ")
        # through the output directory variable too
        monkeypatch.setenv("ZFILTERLAB_OUT", str(missing.parent))
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot write certificate: ")
        # a directory in the path's place: the temporary file is removed
        target = tmp_path / "adir"
        target.mkdir()
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: cannot write certificate: ")
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


# every name the package re-exports, by the module that defines it
EXPORTS = {
    "branches": [
        "BranchError", "BranchIndex", "Registry", "branch_elements", "branch_member",
        "decode_code", "density_count", "encode_string", "find_cover", "find_separator",
        "intersection_exact", "make_registry",
    ],
    "certificates": ["Certificate", "CertificateError"],
    "checking": ["CheckReport", "check_certificate", "check_certificate_text"],
    "engines": [
        "AFailure", "AFailureVerificationError", "CertificationError", "EngineError",
        "check_extendibility_a", "check_extendibility_b", "containment_decreasing",
        "containment_full_product", "cover_certificate", "decreasing_chain_engine",
        "increasing_chain_engine", "property_a_check", "property_b_refute",
    ],
    "filters": [
        "FilterBase", "FilterError", "MemberVerdict", "combine_nonredundancy_witnesses",
        "filter_member", "pairwise_union_base", "pseudo_finite_exceptions", "shifted_filter",
    ],
    "formats": [
        "FormatError", "parse_branch_literal", "parse_point_literal", "parse_registry",
        "parse_setexpr", "setexpr_text",
    ],
    "space": [
        "ApproxSequence", "Atom", "Diff", "Inter", "PI", "SetExpr", "Singleton", "SpaceError",
        "Truncation", "Union", "Whole", "XI", "XiPoint", "closure_member",
        "enumerate_truncated", "eval_setexpr", "exact_counterexample", "in_zero_set",
        "inter_atoms", "multi_escape_sequence", "union_atoms", "validate_point",
    ],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestPackageExports:
    """`zfilterlab` re-exports its modules' names, each looked up on first use."""

    def test_all_lists_every_export(self):
        assert len(EXPORTED) == 66
        assert sorted(zfilterlab.__all__) == sorted(name for _, name in EXPORTED)

    def test_each_export_is_its_modules_object(self):
        def source(module):
            return importlib.import_module(f"zfilterlab.{module}")

        wrong = [n for m, n in EXPORTED if getattr(zfilterlab, n) is not getattr(source(m), n)]
        assert wrong == []
        assert set(zfilterlab.__all__) <= set(dir(zfilterlab))

    def test_each_module_is_an_attribute(self):
        for module in EXPORTS:
            assert getattr(zfilterlab, module) is importlib.import_module(f"zfilterlab.{module}")
        assert set(EXPORTS) <= set(dir(zfilterlab))

    def test_export_reads_the_current_binding(self, monkeypatch):
        # a tracer rebinds names in the modules; the package must not keep
        # the object it read first
        original = zfilterlab.check_certificate
        monkeypatch.setattr("zfilterlab.checking.check_certificate", len)
        assert zfilterlab.check_certificate is len
        monkeypatch.undo()
        assert zfilterlab.check_certificate is original
        assert "check_certificate" not in vars(zfilterlab)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            zfilterlab.no_such_name
        assert not hasattr(zfilterlab, "parse_afailures")

    def test_from_imports(self):
        namespace = {}
        exec("from zfilterlab import cli as c\nfrom zfilterlab import *", namespace)
        assert namespace["c"] is cli
        assert set(namespace) - {"__builtins__", "c"} == set(zfilterlab.__all__)

    def test_cli_ambient_names_are_the_spaces(self):
        assert (cli.XI, cli.PI) == (space.XI, space.PI)
        assert set(cli.LEMMAS.values()) == {space.XI, space.PI}


# runs `main` on argv in a fresh interpreter, then prints its exit code and
# the package modules loaded
FOOTPRINT = """
import sys
from zfilterlab import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("zfilterlab")))
"""


def _fresh(tmp_path, *args: str) -> tuple[list[str], str]:
    src = os.path.dirname(os.path.dirname(zfilterlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()[-1].split(), proc.stderr


class TestImportFootprint:
    """Each command loads only the package modules it runs."""

    def test_package_import_loads_no_module(self, tmp_path):
        code = 'import sys, zfilterlab; print(*sorted(m for m in sys.modules if "zfilterlab" in m))'
        assert _fresh(tmp_path, "-c", code)[0] == ["zfilterlab"]
        # a module loads on first use as an attribute of the package
        code = "import sys, zfilterlab; zfilterlab.formats; print(*sorted(sys.modules))"
        loaded = _fresh(tmp_path, "-c", code)[0]
        assert "zfilterlab.formats" in loaded and "zfilterlab.engines" not in loaded

    def test_cli_import_loads_only_cli(self, tmp_path):
        code = 'import sys, zfilterlab.cli; print(*sorted(m for m in sys.modules if "zfilterlab" in m))'
        assert _fresh(tmp_path, "-c", code)[0] == ["zfilterlab", "zfilterlab.cli"]

    @pytest.mark.parametrize(
        "argv, want_code, unloaded",
        [
            (["oracle", "claim.json", *_reg_flags()], EXIT_OK,
             {"engines", "checking", "certificates", "filters"}),
            (["verify", "--check", "cert.json"], EXIT_OK, {"engines", "filters"}),
            # each error's exit code, its class looked up only once raised:
            # BranchError with `space` and `formats` not loaded, FormatError,
            # ResourceCap and EngineError
            (["family", "encode", "3"], EXIT_USAGE,
             {"engines", "checking", "certificates", "filters", "formats", "space"}),
            (["oracle", "bad.json", *_reg_flags()], EXIT_USAGE,
             {"engines", "checking", "certificates", "filters"}),
            (["oracle", "claim.json", "--T", "13"], EXIT_RESOURCE,
             {"engines", "checking", "certificates", "filters"}),
            # only the chain engines build a filter base
            (["verify", "extendibility-a", "-r", "a=1:2@0"], EXIT_FAIL, {"filters"}),
        ],
        ids=["oracle", "verify-check", "family-branch-error", "oracle-format-error",
             "oracle-resource-cap", "verify-engine-error"],
    )
    def test_command_loads(self, capsys, tmp_path, argv, want_code, unloaded):
        claim = {"claim": "equality", "lhs": "(inter N:a N:b)", "rhs": "(inter N:b N:a)"}
        (tmp_path / "claim.json").write_text(json.dumps(claim))
        (tmp_path / "bad.json").write_text(json.dumps({**claim, "lhs": "(inter N:a"}))
        run(capsys, "verify", "chain-inc", *_reg_flags(), "--out", str(tmp_path / "cert.json"))
        (code, *loaded), err = _fresh(tmp_path, "-c", FOOTPRINT, *argv)
        assert int(code) == want_code
        assert err.startswith({EXIT_OK: "", EXIT_FAIL: "failed: "}.get(want_code, "error: "))
        assert not {f"zfilterlab.{m}" for m in unloaded} & set(loaded)
