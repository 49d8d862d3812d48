"""Command-line behavior: outputs, exit codes, certificate files, oracle claims;
and what a command, or an import of the package, loads."""

import argparse
import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zfilterlab
from test_certificates import SCHEMA_9_CERTIFICATE, SCHEMA_10_CERTIFICATE
from zfilterlab import cli, space
from zfilterlab.certificates import Certificate
from zfilterlab.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)
from zfilterlab.formats import parse_registry

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


def _run_apart(argv, defer=False):
    """`main(argv)`'s exit code, stdout and stderr, run in an empty directory
    of its own; with `defer`, the plain reading hands every argv to argparse."""
    read_plain = (lambda parser, argv: None) if defer else cli._read_plain
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "_read_plain", read_plain), \
            mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: "."}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)
        try:
            code = main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _argvs(parser):
    """argvs for a command's `parser`, mostly of the plain shape: its exact
    option strings, each with a value its type and choices take, and its
    positionals, all or some, in any order.  Up to two other items go
    anywhere: an option, exact, abbreviated or unknown, without a value,
    joined to its value by ``=`` or directly, or with any value, one
    starting with ``-`` too; or any value as a positional."""
    words = ["", "a", "a=:1@0", "b=:2@1", "W", "c.json"]
    choices = [c for a in parser._actions if a.choices for c in a.choices]
    value = st.integers(0, 12).map(str) | st.sampled_from([*words, *choices])

    def fitting(action):
        if action.choices:
            return st.sampled_from(list(action.choices))
        return st.integers(0, 12).map(str) if action.type is int else st.sampled_from(words)

    options = [a for a in parser._actions if a.option_strings and a.nargs is None]
    positionals = [a for a in parser._actions if not a.option_strings]
    given = st.lists(st.one_of([st.tuples(st.sampled_from(a.option_strings), fitting(a)).map(list)
                                for a in options]), max_size=6 if options else 0)
    placed = st.tuples(*(fitting(a).map(lambda v: [v]) for a in positionals)).flatmap(
        lambda items: st.integers(0, len(items)).map(lambda n: list(items[:n]))
        | st.just(list(items)))
    strings = [s for a in parser._actions for s in a.option_strings]
    option = st.sampled_from(strings) | st.sampled_from([*strings, "--x"]).flatmap(
        lambda s: st.integers(min(3, len(s)), len(s)).map(lambda n: s[:n]))
    odd_value = st.integers(-3, -1).map(str) | st.sampled_from(["-", "--", "-h"])
    odd = st.one_of(
        st.tuples(option, value | odd_value).map(list),
        st.tuples(option, value).map(lambda t: ["=".join(t)]),
        st.tuples(option, value).map(lambda t: ["".join(t)]),
        option.map(lambda o: [o]),
        (value | odd_value).map(lambda v: [v]),
    )
    items = st.tuples(given, placed).flatmap(lambda t: st.permutations(t[0] + t[1]))
    return st.tuples(items, st.lists(odd, max_size=2), st.integers(0, 8)).map(
        lambda t: [token for item in t[0][:t[2]] + t[1] + t[0][t[2]:] for token in item])


def _append_defaults() -> list:
    return [a.default for p in cli._build_parser()[1].values() for a in p._actions
            if isinstance(a, argparse._AppendAction)]


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
        code, out, err = run(capsys, "family", "elements", ":1", "--count", "-1")
        assert (code, out, err) == (EXIT_USAGE, "", "error: count must be nonnegative\n")

    def test_intersect(self, capsys):
        code, out, _ = run(capsys, "family", "intersect", ":1", "1:2")
        assert code == EXIT_OK and out.strip() == "{1}"

    def test_intersect_of_one_word_is_refused(self, capsys):
        # 12:2 is 1:2 written with a longer preperiod
        code, out, err = run(capsys, "family", "intersect", "1:2", "12:2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: branches coincide; the intersection is infinite\n"

    def test_intersect_past_64_letters(self, capsys):
        # the two words share a 70-letter stem, past the 64 letters a branch
        # keeps as one word: the intersection is the codes of its prefixes
        stem = "12" * 35
        code, out, err = run(capsys, "family", "intersect", f"{stem}1:2", f"{stem}2:1")
        codes = [zfilterlab.branches.encode_string(stem[:n]) for n in range(1, 71)]
        assert (code, err) == (EXIT_OK, "")
        assert out == "{" + ",".join(map(str, codes)) + "}\n"

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
        ranks = {e.label: e.rank for e in parse_registry(cert.params["registry"])}
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
        assert [e.partition("=")[0] for e in cert.params["registry"]][:3] == ["b3", "x", "b3_2"]
        assert run(capsys, "verify", "--check", str(out_file))[1].strip() == "verified"

    @pytest.mark.parametrize(
        "argv",
        [
            ["family", "cover", "--l", "8193"],
            # a's separator is 16,384, the code of 1^13 2, so the cover up to
            # it is refused before anything is minted
            ["verify", "containment-dec", "--F", "a", "--G", "b",
             "-r", "a=1111111111111:2@0", "-r", "b=:1@1"],
        ],
        ids=["family-cover", "containment-dec"],
    )
    def test_a_cover_bound_past_the_cap_is_a_resource_cap(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "cert.json"))
        assert code == EXIT_RESOURCE and out == ""
        assert err == "error: resource cap: cover bound exceeds MAX_COVER_BOUND = 8192\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["elements", ":1", "--count", "60000"],
            ["intersect", f"{'12' * 2000}1:2", f"{'12' * 2000}2:1"],
        ],
        ids=["elements", "intersect"],
    )
    @pytest.mark.usefixtures("lowest_digit_limit")
    def test_a_list_past_the_digit_limit_is_refused_unbuilt(self, capsys, monkeypatch, argv):
        # the n-th element is at least 2**n - 1, so a list running to an n
        # past the limit is refused before any of it is built
        elements = zfilterlab.branches.BranchIndex.elements

        def bounded(branch, count):
            assert 1 << count < 10 ** DIGITS, f"{count} elements built past the limit"
            return elements(branch, count)

        monkeypatch.setattr(zfilterlab.branches.BranchIndex, "elements", bounded)
        code, out, err = run(capsys, "family", *argv)
        assert code == EXIT_RESOURCE and out == ""
        assert err == f"error: resource cap: {DIGIT_LIMIT_MESSAGE}\n"

    def test_only_the_digit_limit_is_a_resource_cap(self, monkeypatch):
        # a ValueError with any other cause is a fault, and stays one
        def fail(word):
            raise ValueError("Circular reference detected")

        monkeypatch.setattr(zfilterlab.branches, "encode_string", fail)
        with pytest.raises(ValueError, match="Circular reference"):
            main(["family", "encode", "22"])

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

    @pytest.mark.parametrize(
        "lemma",
        [["extendibility-a"], ["chain-inc", "--steps", "2"], ["chain-dec", "--steps", "2"],
         ["property-a", "--zset", "W"]],
        ids=["extendibility-a", "chain-inc", "chain-dec", "property-a"],
    )
    @pytest.mark.usefixtures("lowest_digit_limit")
    def test_an_engine_witness_past_the_digit_limit_is_a_resource_cap(
        self, capsys, tmp_path, lemma
    ):
        # the two words part past a's long prefix, so the engine's witness
        # points carry positions past the limit
        code, out, err = run(
            capsys, "verify", *lemma, "-r", f"a={LONG}:2@0", "-r", "b=:1@1",
            "--out", str(tmp_path / "cert.json"),
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

    def test_tampered_certificate_rejected(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "chain.json"
        run(
            capsys,
            "verify", "chain-dec", "--steps", "2",
            *_reg_flags(), "--T", "4", "--V", "6", "--out", str(out_file),
        )
        blob = out_file.read_bytes()
        mutated = blob.replace(b'"entries":["{', b'"entries":["{1:1,', 1)
        assert mutated != blob
        out_file.write_bytes(mutated)
        # the damaged bytes are parsed once: the parse error is the problem
        parses = []
        parse = Certificate.from_json.__func__
        monkeypatch.setattr(Certificate, "from_json",
                            classmethod(lambda cls, text: parses.append(text) or parse(cls, text)))
        code, out, err = run(capsys, "verify", "--check", str(out_file))
        assert code == EXIT_FAIL and out == "rejected\n"
        assert err == "problem: digest mismatch: certificate was altered\n"
        assert parses == [mutated]

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

    def test_check_refuses_a_schema_9_certificate(self, capsys, tmp_path):
        cert_file = tmp_path / "old.json"
        cert_file.write_text(SCHEMA_9_CERTIFICATE)
        code, out, err = run(capsys, "verify", "--check", str(cert_file))
        assert (code, out, err) == (EXIT_FAIL, "rejected\n", "problem: unsupported schema version 9\n")

    def test_check_refuses_a_schema_10_certificate(self, capsys, tmp_path):
        # its registry entries are objects, where schema 11 writes strings
        cert_file = tmp_path / "old.json"
        cert_file.write_text(SCHEMA_10_CERTIFICATE)
        code, out, err = run(capsys, "verify", "--check", str(cert_file))
        assert (code, out, err) == (EXIT_FAIL, "rejected\n", "problem: unsupported schema version 10\n")

    def test_a_certificate_its_checker_rejects_fails_the_run(self, capsys, tmp_path, monkeypatch):
        # an engine that swaps its two witness points: each point lies in
        # the zero set it should avoid, and the run says so and exits 1
        engine = zfilterlab.engines.check_extendibility_a

        def swapped(reg):
            cert = engine(reg)
            return Certificate(cert.kind, cert.params,
                               dict(cert.payload, entries=cert.payload["entries"][::-1]))

        monkeypatch.setattr(zfilterlab.engines, "check_extendibility_a", swapped)
        out_file = tmp_path / "a.json"
        code, out, err = run(capsys, "verify", "extendibility-a", "-r", "a=:1@0", "-r", "b=:2@1",
                             "--out", str(out_file))
        assert code == EXIT_FAIL and out == f"SeparatorWitness: rejected -> {out_file}\n"
        assert err == ("problem: point {2:2} fails to separate a from ['b']\n"
                       "problem: point {1:1} fails to separate b from ['a']\n")

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
        assert Certificate.read(str(out_file)).payload["separators"] == [2**21 - 1]
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

    def test_nine_pair_claim_is_refused_with_a_point(self, capsys, tmp_path):
        # ¬zset is nine two-atom unions over distinct atoms: a point in the
        # zero set of every entry but a, hitting one atom of each pair, is
        # outside zset ∪ Z(a)
        words = [f"{format(i, '05b').translate(str.maketrans('01', '12'))}:1" for i in range(18)]
        pairs = " ".join(f"(inter N:{a} N:{b})" for a, b in zip(words[::2], words[1::2]))
        code, out, err = run(
            capsys,
            "verify", "extendibility-b", "--zset", f"(union {pairs})", "--alpha", "a",
            *_reg_flags(), "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_FAIL and out == ""
        assert re.match(r"failed: no group intersection .*: \{\d+:\d+(,\d+:\d+)*\} lies", err)
        assert not (tmp_path / "x.json").exists()

    def test_split_bound_exit_code(self, capsys, tmp_path):
        # ¬zset puts each of six pigeons in one of five holes, no two in one
        # hole: impossible, but only shown after more than MAX_SPLITS splits
        words = ["".join(w) for w in itertools.product("12", repeat=5)]
        x = [[f"N:{words[5 * p + h]}:12" for h in range(5)] for p in range(6)]
        placed = " ".join(f"(union {' '.join(row)})" for row in x)
        shared = " ".join(
            f"(inter {x[p][h]} {x[q][h]})"
            for h in range(5)
            for p, q in itertools.combinations(range(6), 2)
        )
        code, out, err = run(
            capsys,
            "verify", "extendibility-b", "--zset", f"(union (diff W (inter {placed})) {shared})",
            "--alpha", "a", *_reg_flags(), "--out", str(tmp_path / "x.json"),
        )
        assert code == EXIT_RESOURCE and out == ""
        assert err.startswith("error: resource cap:") and "MAX_SPLITS = 256" in err
        assert not (tmp_path / "x.json").exists()

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
        assert [e.partition("=")[0] for e in cert.params["registry"]] == ["b1", "b1_2", "b2"]
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
        assert [e.partition("=")[0] for e in cert.params["registry"]] == labels

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
        # fresh parsers, read afresh, so that the command's handler can be
        # one that records the namespace it is given
        monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser.__wrapped__))
        monkeypatch.setattr(cli, "_plain_reading", functools.cache(cli._plain_reading.__wrapped__))
        parser, commands = cli._build_parser()
        top = vars(parser.parse_args(argv))
        words = tuple(argv[:2] if argv[0] == "family" else argv[:1])
        received = []

        def handler(args):
            received.append(vars(args))
            return EXIT_OK

        commands[words].set_defaults(func=handler)
        assert main(argv) == EXIT_OK
        # each of these argvs has the plain shape, so argparse did not read it
        assert cli._read_plain(commands[words], argv[len(words):]) is not None
        # the top-level parser also records the command words it consumed
        for key in ("command", "family_command"):
            top.pop(key, None)
        assert received == [dict(top, func=handler)]

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_plain_reading_is_argparses(self, data):
        commands = cli._build_parser()[1]
        parser = commands[data.draw(st.sampled_from(sorted(commands)), label="command")]
        argv = data.draw(_argvs(parser), label="argv")
        plain = cli._read_plain(parser, argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                want = vars(parser.parse_args(argv))
        except SystemExit:
            want = None
        if plain is not None:
            got = vars(plain)
            assert got == want
            assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
            # an option not given holds its default object itself
            assert all(got[k] is v for k, v in want.items() if v is parser.get_default(k))
        assert all(default == [] for default in _append_defaults())

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_main_reads_as_argparse_does(self, data):
        commands = cli._build_parser()[1]
        words = data.draw(st.sampled_from(sorted(commands)), label="command")
        argv = [*words, *data.draw(_argvs(commands[words]), label="argv")]
        assert _run_apart(argv) == _run_apart(argv, defer=True)
        assert all(default == [] for default in _append_defaults())

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


class TestErrorPaths:
    """Oracle claims and verify runs on paths no other test takes: each
    one's exit code, stdout and stderr, pinned whole."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"claim": "containment", "lhs": "W"}, "containment claims need lhs and rhs"),
            ({"claim": "equality", "lhs": "W"}, "equality claims need lhs and rhs"),
            ({"claim": "subset", "lhs": "W", "rhs": "W"}, "unknown claim kind 'subset'"),
            ([{"claim": "emptiness", "lhs": "W"}], "claim file {path} must hold a JSON object"),
        ],
        ids=["containment-without-rhs", "equality-without-rhs", "unknown-kind", "array"],
    )
    def test_oracle_refuses_a_claim(self, capsys, tmp_path, doc, message):
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps(doc))
        code, out, err = run(capsys, "oracle", str(claim), *_reg_flags())
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message.format(path=claim)}\n")

    @pytest.mark.parametrize(
        "lhs, want_code, want_out",
        [
            ("(union)", EXIT_OK, "holds on truncation (8,10)\n"),
            # 2 is the code of the word 2: in b = :2, not in a = :1
            ("(diff N:a N:b)", EXIT_FAIL,
             "counterexample: {2:2}\ncounterexample: {2:3}\ncounterexample: {2:4}\n"),
        ],
        ids=["empty", "nonempty"],
    )
    def test_oracle_emptiness(self, capsys, tmp_path, lhs, want_code, want_out):
        claim = tmp_path / "claim.json"
        claim.write_text(json.dumps({"claim": "emptiness", "lhs": lhs}))
        assert run(capsys, "oracle", str(claim), *_reg_flags()) == (want_code, want_out, "")

    @pytest.mark.parametrize(
        "argv, want_code, want_err",
        [
            (["extendibility-b", "--zset", "W"], EXIT_USAGE,
             "error: extendibility-b needs --zset and --alpha"),
            (["property-b", "--cover", "cover.json", "--gamma", "50"], EXIT_FAIL,
             "failed: a putative cover needs at least one set"),
            (["chain-inc", "--steps", "0"], EXIT_FAIL, "failed: a chain needs at least one step"),
            (["property-a"], EXIT_USAGE, "error: property-a needs --zset"),
            (["property-b", "--gamma", "50"], EXIT_USAGE, "error: property-b needs --cover FILE"),
        ],
        ids=["extendibility-b-without-alpha", "property-b-empty-cover", "chain-inc-no-steps",
             "property-a-without-zset", "property-b-without-cover"],
    )
    def test_verify_refuses_a_run(self, capsys, tmp_path, monkeypatch, argv, want_code, want_err):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cover.json").write_text(json.dumps({"afailures": []}))
        code, out, err = run(capsys, "verify", *argv, *_reg_flags(), "--out", "c.json")
        assert (code, out, err) == (want_code, "", want_err + "\n")
        # no certificate is written
        assert [p.name for p in tmp_path.iterdir()] == ["cover.json"]


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
            # no engine builds a filter base, the chain engines included
            (["verify", "extendibility-a", "-r", "a=1:2@0"], EXIT_FAIL, {"filters"}),
            (["verify", "chain-inc", *_reg_flags(), "--out", "new.json"], EXIT_OK, {"filters"}),
        ],
        ids=["oracle", "verify-check", "family-branch-error", "oracle-format-error",
             "oracle-resource-cap", "verify-engine-error", "verify-chain-inc"],
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

    @pytest.mark.parametrize(
        "argv, want_code",
        [
            (["verify", "chain-inc", *_reg_flags(), "--out", "new.json"], EXIT_OK),
            (["verify", "--check", "cert.json"], EXIT_OK),
            (["verify", "--check", "flipped.json"], EXIT_FAIL),
        ],
        ids=["verify-lemma", "verify-check", "verify-check-unparseable"],
    )
    def test_certificate_commands_load_no_dataclasses(self, capsys, tmp_path, argv, want_code):
        # `dataclasses` imports `inspect`, which imports `ast`, `dis` and
        # `tokenize`: once the largest part of loading the whole package.
        # A temporary file is named without `secrets`, and so without
        # `base64` and `hmac`.
        run(capsys, "verify", "chain-inc", *_reg_flags(), "--out", str(tmp_path / "cert.json"))
        text = (tmp_path / "cert.json").read_text()
        (tmp_path / "flipped.json").write_text(text.replace('"entries"', '"eNtries"', 1))
        code = """
import sys
before = set(sys.modules)
from zfilterlab import cli
code = cli.main(sys.argv[1:])
print(code, "zfilterlab.engines" in sys.modules,
      *sorted({"dataclasses", "inspect", "secrets", "base64", "hmac"} & set(sys.modules) - before))
"""
        (status, engines, *loaded), _ = _fresh(tmp_path, "-c", code, *argv)
        assert (int(status), loaded) == (want_code, [])
        # the engines, the largest package module, did load for a lemma
        assert engines == str(argv[1] == "chain-inc")
