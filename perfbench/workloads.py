"""Set-up program: generate one workload's inputs from a seed.

    python3 perfbench/workloads.py --workload NAME --seed N --dir DIR

Imports `zfilterlab.cli` (part of the set-up cost users pay), writes the
claim and cover files and a manifest of the operation list into DIR and,
for `check-replay`, produces the certificate corpus with the code under
test.  The same seed gives the same files, byte for byte.

Each operation carries the verdict it must produce.  Verdicts are known by
construction (the shape of each generated input decides it), never by
running the program first.  Paths inside the manifest start with `@/`,
which the runner replaces by DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("exact-sweep", "value-sensitive", "check-replay")
PERIODS = ("1", "2", "12", "21", "112", "121", "122", "211", "212", "221")


def import_cli():
    """Import the package from this checkout's `src`, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "zfilterlab", "__init__.py")):
        raise SystemExit(f"perfbench: no zfilterlab sources under {src}")
    sys.path.insert(0, src)
    import zfilterlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported zfilterlab from {cli.__file__}, not {src}")
    return cli


# ---------------------------------------------------------------------------
# Branch words, independent of the package
# ---------------------------------------------------------------------------

class Branch:
    """A canonical eventually periodic word `pre:period` with a registry label."""

    def __init__(self, label: str, pre: str, period: str, rank: int) -> None:
        self.label, self.pre, self.period, self.rank = label, pre, period, rank

    def flag(self) -> str:
        return f"{self.label}={self.pre}:{self.period}@{self.rank}"

    def prefix(self, n: int) -> str:
        word = self.pre
        while len(word) < n:
            word += self.period
        return word[:n]

    def elements_upto(self, bound: int) -> set[int]:
        """Codes of the prefixes that are <= bound (a length-n code is >= 2**n - 1)."""
        out = set()
        for n in range(1, bound.bit_length() + 1):
            word = self.prefix(n)
            code = (1 << n) - 1 + int(word.translate(str.maketrans("12", "01")), 2)
            if code <= bound:
                out.add(code)
        return out


def branches(rng: random.Random, n: int, heads=()) -> list[Branch]:
    """n distinct canonical words (primitive period, preperiod not ending like
    it); entry i's word starts with heads[i] where one is given.

    The seed draws the letters, never the lengths: entry i's preperiod is
    its head and i % 3 more letters, and its period has 1 + i // 3 % 3
    letters, so the work on a registry does not change with the seed.
    """
    seen: set[tuple[str, str]] = set()
    out: list[Branch] = []
    while len(out) < n:
        i = len(out)
        head = heads[i] if i < len(heads) else rng.choice("12")
        pre = head + "".join(rng.choice("12") for _ in range(i % 3))
        size = 1 + i // 3 % 3
        period = rng.choice([p for p in PERIODS if len(p) == size and p[-1] != pre[-1]])
        if (pre, period) not in seen:
            seen.add((pre, period))
            out.append(Branch(f"e{i}", pre, period, i))
    return out


def spread_heads(rng: random.Random, n: int) -> list[str]:
    """n distinct four-letter heads spread over the tree, in a seeded order.

    Separators are codes of prefixes one letter past the deepest common
    prefix, so fixed heads fix the separator depths, and with them the work
    of the registry-subset loops, for every seed.
    """
    words = ["".join(w) for w in itertools.product("12", repeat=4)]
    heads = sorted(words, key=lambda w: w[::-1])[:n]
    rng.shuffle(heads)
    return heads


def reg_flags(reg: list[Branch]) -> list[str]:
    return [x for b in reg for x in ("-r", b.flag())]


def trunc_flags(tv: tuple[int, int]) -> list[str]:
    return ["--T", str(tv[0]), "--V", str(tv[1])]


def point(rng: random.Random, positions, ambient: str, V: int, avoid=()) -> str:
    """A valid point literal on `positions` with values drawn up to V."""
    positions = sorted(positions)
    lo = positions[-1] if ambient == "xi" else 1
    while True:
        values = [rng.randint(lo, V) for _ in positions]
        text = "{" + ",".join(f"{p}:{v}" for p, v in zip(positions, values)) + "}"
        if text not in avoid:
            return text


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class OpList:
    """The operations of one workload, with the files they read."""

    def __init__(self, workload: str, seed: int, directory: str) -> None:
        self.rng = random.Random(f"{workload}/{seed}")
        self.dir = directory
        self.ops: list[dict] = []
        self.files = 0

    def write(self, stem: str, doc) -> str:
        self.files += 1
        name = f"{stem}{self.files}.json"
        with open(os.path.join(self.dir, name), "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        return "@/" + name

    def out_path(self, stem: str) -> str:
        self.files += 1
        return f"@/out/{stem}{self.files}.cert.json"

    def verify(self, name: str, lemma: str, args: list[str], kind: str) -> None:
        out = self.out_path(lemma)
        self.ops.append({
            "name": name,
            "type": "cli",
            "argv": ["verify", lemma, *args, "--out", out],
            "expect": {"exit": 0, "stdout": [f"{kind}: verified -> {out}"], "cert": out,
                       "kind": kind},
        })

    def cover(self, name: str, l: int, gamma: int, base: Branch, reg: list[Branch]) -> None:
        out = self.out_path("cover")
        self.ops.append({
            "name": name,
            "type": "cli",
            "argv": ["family", "cover", "--l", str(l), "--gamma", str(gamma),
                     "--base", base.label, *reg_flags(reg), "--out", out],
            "expect": {"exit": 0, "stdout_last": f"certificate: {out}", "cert": out,
                       "kind": "CoverSet"},
        })

    def oracle(self, name: str, claim: dict, reg: list[Branch], tv, *,
               holds: bool, counterexamples=None, count=None) -> None:
        """`counterexamples`: the exact list expected; `count`: only how many."""
        path = self.write("claim", claim)
        expect = {"exit": 0 if holds else 1, "claim": claim, "trunc": list(tv),
                  "registry": [b.flag() for b in reg]}
        if holds:
            expect["stdout"] = [f"holds on truncation ({tv[0]},{tv[1]})"]
        elif counterexamples is not None:
            expect["stdout"] = [f"counterexample: {p}" for p in counterexamples]
        else:
            expect["count"] = count
        self.ops.append({"name": name, "type": "cli",
                         "argv": ["oracle", path, *reg_flags(reg), *trunc_flags(tv)],
                         "expect": expect})

    def filter(self, name: str, reg: list[Branch], generators: list[str], zset: str,
               tv, ambient: str, expect: dict) -> None:
        self.ops.append({"name": name, "type": "filter",
                         "registry": [b.flag() for b in reg], "ambient": ambient,
                         "generators": generators, "zset": zset,
                         "trunc": list(tv) if tv else None, "expect": expect})

    def check(self, name: str, path: str, ok: bool) -> None:
        self.ops.append({"name": name, "type": "cli", "argv": ["verify", "--check", path],
                         "expect": {"exit": 0 if ok else 1,
                                    "stdout": ["verified" if ok else "rejected"]}})


CAP = (12, 16)
DEFAULT = (8, 10)


def exact_sweep(b: OpList) -> None:
    """Verdicts from support and branch-word reasoning; few points evaluated."""
    rng = b.rng
    for n, tv in ((4, DEFAULT), (6, CAP), (8, DEFAULT), (9, CAP), (12, CAP)):
        reg = branches(rng, n, spread_heads(rng, n))
        b.verify(f"extendibility-a n={n} {tv}", "extendibility-a",
                 [*reg_flags(reg), *trunc_flags(tv)], "SeparatorWitness")
    for tv in (DEFAULT, CAP):
        reg = branches(rng, 10)
        for lemma in ("chain-inc", "chain-dec"):
            b.verify(f"{lemma} steps=8 {tv}", lemma,
                     ["--steps", "8", *reg_flags(reg), *trunc_flags(tv)], "SeparatorWitness")
        # The subtracted words start with 1 and the kept ones with 211 and
        # 212 (containment-dec) or 12 (containment-full), so separators,
        # cover and the listed support classes have the same shape for
        # every seed.
        reg = branches(rng, 6, ("1", "1", "211", "212", "12", "2"))
        b.verify(f"containment-dec {tv}", "containment-dec",
                 ["--F", "e0", "--F", "e1", "--G", "e2", "--G", "e3", "--gamma", "10",
                  *reg_flags(reg), *trunc_flags(tv)], "InclusionChain")
        b.verify(f"containment-full pi {tv}", "containment-full",
                 ["--F", "e4", "--G", "e2", "--G", "e5",
                  *reg_flags(reg), *trunc_flags(tv), "--ambient", "pi"], "InclusionChain")
        b.cover(f"family cover {tv}", 40, 10, reg[0], reg)
    # exact filter queries: pure intersections decide by branch-set inclusion
    reg = branches(rng, 5)
    a, c, d, e, f = (x.label for x in reg)
    b.filter("filter exact proven", reg, [f"N:{a}", f"(inter N:{c} N:{d})", f"N:{e}"],
             f"(inter N:{d} N:{a})", None, "xi", {"status": "proven", "subset": [0, 1]})
    b.filter("filter exact refuted", reg, [f"N:{a}", f"(inter N:{c} N:{d})"],
             f"(inter N:{a} N:{f})", None, "xi", {"status": "refuted"})


def value_sensitive(b: OpList) -> None:
    """Claims whose sides hold singletons or differences: point-by-point classes.

    The work per point depends on which support positions hit each atom, so
    every atom is drawn from entries with a fixed first letter: `x` from
    words starting with 1 (position 1 hits), `y` from words starting with 2
    (position 1 misses, position 2 hits).  Class sizes are fixed by the
    positions and the truncation, which the seed does not choose.
    """
    rng = b.rng
    reg = branches(rng, 6, "121212")
    ones, twos = reg[0::2], reg[1::2]

    def x_y():
        return rng.choice(ones).label, rng.choice(twos).label

    def holds_equality(tv, ambient, positions):
        x, y = x_y()
        p = point(rng, positions, ambient, tv[1])
        claim = {"claim": "equality", "ambient": ambient,
                 "lhs": f"(union (inter N:{x} N:{y}) (pt {p}))",
                 "rhs": f"(union (pt {p}) (inter N:{y} N:{x}))"}
        b.oracle(f"equality holds {ambient} w={len(positions)} {tv}", claim, reg, tv, holds=True)

    # Positions 1 and 2 hit every branch, so the atoms are false on these
    # supports and the whole class is evaluated point by point.
    holds_equality(CAP, "xi", (1, 2, 3, 4))
    holds_equality(CAP, "pi", (1, 2, 7))
    holds_equality(DEFAULT, "xi", (1, 2, 3, 4, 5))
    holds_equality(DEFAULT, "pi", (1, 2, 6))
    holds_equality(DEFAULT, "pi", (1, 2))

    # difference containment: the only point of lhs outside rhs is q; the
    # positions avoid x, so (in pi) every position is tested against x
    for tv, width in ((CAP, 3), (DEFAULT, 3)):
        x = rng.choice(ones)
        free = [n for n in range(1, tv[0] + 1) if n not in x.elements_upto(tv[0])]
        positions = sorted(rng.sample(free, width))
        p = point(rng, positions, "pi", tv[1])
        q = point(rng, positions, "pi", tv[1], avoid=(p,))
        claim = {"claim": "containment", "ambient": "pi",
                 "lhs": f"(diff N:{x.label} (pt {p}))", "rhs": f"(diff N:{x.label} (pt {q}))"}
        b.oracle(f"difference containment refuted pi w={width} {tv}", claim, reg, tv,
                 holds=False, counterexamples=[q])

    # emptiness: two distinct singletons on one support never meet
    for tv, ambient, positions in ((DEFAULT, "pi", (1, 2, 5)), (CAP, "xi", (1, 2, 3))):
        p = point(rng, positions, ambient, tv[1])
        q = point(rng, positions, ambient, tv[1], avoid=(p,))
        b.oracle(f"emptiness holds {ambient} {tv}",
                 {"claim": "emptiness", "ambient": ambient, "lhs": f"(inter (pt {p}) (pt {q}))"},
                 reg, tv, holds=True)
    # emptiness refuted by exactly the singleton point
    x, _ = x_y()
    p = point(rng, (1, 2, 3), "xi", CAP[1])
    b.oracle(f"emptiness refuted xi {CAP}",
             {"claim": "emptiness", "ambient": "xi", "lhs": f"(diff (pt {p}) N:{x})"},
             reg, CAP, holds=False, counterexamples=[p])
    # equality refuted in both directions: p, then q
    x, _ = x_y()
    p = point(rng, (1, 2, 4), "pi", DEFAULT[1])
    q = point(rng, (1, 2, 4), "pi", DEFAULT[1], avoid=(p,))
    b.oracle(f"equality refuted pi {DEFAULT}",
             {"claim": "equality", "ambient": "pi",
              "lhs": f"(union N:{x} (pt {p}))", "rhs": f"(union N:{x} (pt {q}))"},
             reg, DEFAULT, holds=False, counterexamples=[p, q])

    # claims the support alone decides
    x, y = x_y()
    b.oracle(f"support-decided containment holds xi {CAP}",
             {"claim": "containment", "ambient": "xi", "lhs": f"(inter N:{x} N:{y})", "rhs": f"N:{y}"},
             reg, CAP, holds=True)
    # y starts with 2 and x with 1, so points on {2} lie in N:x but not in N:y
    b.oracle(f"support-decided containment refuted pi {DEFAULT}",
             {"claim": "containment", "ambient": "pi", "lhs": f"N:{x}", "rhs": f"N:{y}"},
             reg, DEFAULT, holds=False, count=3)

    # property-a: zset = N:d plus a point off d's elements, so zset lies in
    # N:d.  The other entries start with 2 and d with 1, so their separator
    # points are witnesses at once, and non-absorption fails at (F = {},
    # beta = d) after exactly one exhaustive scan of the truncation.
    tv = (7, 9)
    small = branches(rng, 4, "2221")
    d = small[3]
    free = [n for n in range(1, tv[0] + 1) if n not in d.elements_upto(tv[0])]
    p = point(rng, rng.sample(free, 1), "xi", tv[1])
    b.verify(f"property-a {tv}", "property-a",
             ["--zset", f"(union N:{d.label} (pt {p}))", *reg_flags(small), *trunc_flags(tv)],
             "InclusionChain")

    # extendibility-b: zset = N:e1 plus a point, so the group {e1} is the
    # hypothesis.  alpha starts with 1 and every other entry with 2, so alpha's
    # separator is position 1 and the cover and candidates are fixed.
    for n, tv in ((6, DEFAULT), (4, (10, 12))):
        small = branches(rng, n, "1" + "2" * (n - 1))
        p = point(rng, (1, 2), "xi", tv[1])
        b.verify(f"extendibility-b n={n} {tv}", "extendibility-b",
                 ["--zset", f"(union N:e1 (pt {p}))", "--alpha", "e0",
                  *reg_flags(small), *trunc_flags(tv)],
                 "ExceptionList")

    # filter_member on non-pure generators through the truncated route
    for tv, ambient in ((CAP, "xi"), (DEFAULT, "pi")):
        x, y = x_y()
        p = point(rng, (1, 2), ambient, tv[1])
        q = point(rng, (1, 2), ambient, tv[1], avoid=(p,))
        b.filter(f"filter truncated proven {ambient} {tv}", reg,
                 [f"(union N:{x} (pt {p}))", f"N:{y}"], f"(union N:{x} (pt {p}) (pt {q}))",
                 tv, ambient, {"status": "proven", "subset": [0]})
    # p sits on {1, m} with m off y's elements: it hits x (position 1) and
    # avoids y, so the core minus N:x is exactly {p}
    x, _ = x_y()
    y = rng.choice(twos)
    free = [m for m in range(3, CAP[0] + 1) if m not in y.elements_upto(CAP[0])]
    p = point(rng, (1, rng.choice(free)), "xi", CAP[1])
    b.filter(f"filter truncated refuted xi {CAP}", reg,
             [f"(union N:{x} (pt {p}))", f"N:{y.label}"], f"N:{x}", CAP, "xi",
             {"status": "refuted", "witness": p})


def check_replay(b: OpList, cli) -> None:
    """Certificates of all six kinds, written now by the code under test."""
    rng = b.rng

    reg12 = branches(rng, 12, spread_heads(rng, 12))
    b.verify("", "extendibility-a", [*reg_flags(reg12), *trunc_flags(CAP)], "SeparatorWitness")
    reg = branches(rng, 7, spread_heads(rng, 7))
    b.verify("", "extendibility-a", [*reg_flags(reg), *trunc_flags(DEFAULT)], "SeparatorWitness")
    reg10 = branches(rng, 10)
    b.verify("", "chain-inc", ["--steps", "8", *reg_flags(reg10), *trunc_flags(CAP)],
             "SeparatorWitness")
    b.verify("", "chain-dec", ["--steps", "8", *reg_flags(reg10), *trunc_flags(CAP)],
             "SeparatorWitness")
    reg = branches(rng, 6)
    b.verify("", "property-a", ["--zset", "W", *reg_flags(reg), *trunc_flags(DEFAULT)],
             "SeparatorWitness")
    b.cover("", 30 + rng.randint(0, 30), 10, reg[0], reg)
    small = branches(rng, 6, "122222")
    b.verify("", "extendibility-b",
             ["--zset", f"(union N:e1 (pt {point(rng, (1, 2), 'xi', 10)}))",
              "--alpha", "e0", *reg_flags(small), *trunc_flags(DEFAULT)], "ExceptionList")
    # same shapes as in exact-sweep and value-sensitive, for a seed-independent replay
    reg = branches(rng, 6, ("1", "1", "211", "212", "12", "2"))
    b.verify("", "containment-dec",
             ["--F", "e0", "--F", "e1", "--G", "e2", "--G", "e3", "--gamma", "10",
              *reg_flags(reg), *trunc_flags(CAP)], "InclusionChain")
    b.verify("", "containment-full",
             ["--F", "e4", "--G", "e2", "--G", "e5",
              *reg_flags(reg), *trunc_flags(CAP), "--ambient", "pi"], "InclusionChain")
    small = branches(rng, 4, "2221")
    free = [n for n in range(1, 7) if n not in small[3].elements_upto(6)]
    p = point(rng, rng.sample(free, 1), "xi", 8)
    b.verify("", "property-a", ["--zset", f"(union N:e3 (pt {p}))",
                                *reg_flags(small), *trunc_flags((6, 8))], "InclusionChain")
    # property-b: constraining branches through 111, 112, 12, 21, 22 cover
    # positions 1..8, so the whole space fails absorption and the replay ends
    # in a contradiction; two plain zero sets miss a point instead.
    covering = [
        Branch(f"c{i}", pre, rng.choice(("2", "12", "212") if pre[-1] == "1" else ("1", "21", "121")), i)
        for i, pre in enumerate(("111", "112", "12", "21", "22"))
    ]
    top = Branch("z", "", rng.choice(("1", "2")), 9)
    cover_file = b.write("cover", {"afailures": [
        {"zset": "W", "constraining": [c.label for c in covering], "absorbing": ["z"]}]})
    b.verify("", "property-b", ["--cover", cover_file, "--gamma", "50",
                                *reg_flags(covering + [top]), *trunc_flags(DEFAULT)],
             "Contradiction")
    reg = branches(rng, 3)
    cover_file = b.write("cover", {"afailures": [
        {"zset": f"N:{reg[0].label}", "constraining": [], "absorbing": [reg[0].label]},
        {"zset": f"N:{reg[1].label}", "constraining": [], "absorbing": [reg[1].label]}]})
    b.verify("", "property-b", ["--cover", cover_file, "--gamma", "50",
                                *reg_flags(reg), *trunc_flags(DEFAULT)], "CounterexamplePoint")

    corpus_ops, b.ops = b.ops, []
    paths = []
    for op in corpus_ops:
        argv = [a.replace("@/", b.dir + os.sep) for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        last = op["expect"].get("stdout", [op["expect"].get("stdout_last")])[-1]
        if code != 0 or out.getvalue().splitlines()[-1:] != [last.replace("@/", b.dir + os.sep)]:
            raise SystemExit(f"perfbench: corpus command gave {code} {out.getvalue()!r}: {argv}")
        paths.append(op["expect"]["cert"])

    # A fixed share (every fourth good file, one in five of all) gets one
    # letter or digit changed.
    for path in paths:
        b.check(f"check {os.path.basename(path)}", path, True)
    for path in paths[::4]:
        full = path.replace("@/", b.dir + os.sep)
        with open(full, "rb") as fh:
            data = bytearray(fh.read())
        spots = [i for i, c in enumerate(data) if chr(c).isalnum()]
        i = rng.choice(spots)
        pool = b"0123456789" if chr(data[i]).isdigit() else b"abcdefghijklmnopqrstuvwxyz"
        data[i] = rng.choice([c for c in pool if c != data[i]])
        bad = b.out_path("flipped")
        with open(bad.replace("@/", b.dir + os.sep), "wb") as fh:
            fh.write(data)
        b.check(f"check flipped {os.path.basename(path)}", bad, False)


def generate(workload: str, seed: int, directory: str) -> dict:
    cli = import_cli()
    os.makedirs(os.path.join(directory, "out"), exist_ok=True)
    b = OpList(workload, seed, directory)
    if workload == "exact-sweep":
        exact_sweep(b)
    elif workload == "value-sensitive":
        value_sensitive(b)
    else:
        check_replay(b, cli)
    manifest = {"workload": workload, "seed": seed, "ops": b.ops}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
