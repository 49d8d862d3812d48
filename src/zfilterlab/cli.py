"""Command-line front end.

Three command groups:

* ``family`` - direct branch-family computations (elements, intersections,
  separators, covers, density, codec).
* ``verify`` - run a lemma engine, write its certificate, re-check it with
  the independent checker; or re-validate an existing certificate file.
* ``oracle`` - exhaustively evaluate a containment/emptiness/equality claim
  over the truncated point universe.

Exit codes: 0 verified/holds, 1 refuted/failed, 3 usage error, 4 resource
cap, split bound or cover bound exceeded.  Certificates are written
atomically and carry no timestamps, so identical configurations reproduce
identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import TYPE_CHECKING

import zfilterlab

# the handlers reach the package's modules as attributes of the package, which
# imports each on first use: a command loads only the modules it runs, and
# ``import zfilterlab.cli`` loads none.  (An import statement in each handler
# would load as little, but costs microseconds on every call.)
if TYPE_CHECKING:
    from .branches import BranchIndex, Registry
    from .certificates import Certificate
    from .checking import CheckReport
    from .engines import AFailure
    from .space import Truncation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 3
EXIT_RESOURCE = 4

DEFAULT_T = 8
DEFAULT_V = 10
CAP_T = 12
CAP_V = 16

OUTPUT_DIR_ENV = "ZFILTERLAB_OUT"

# the ambients as `space` names them; written out, so that the parser is built
# without loading `space`
XI, PI = "xi", "pi"

# each lemma's engine decides, and records, this one ambient
LEMMAS = {
    "extendibility-a": XI,
    "extendibility-b": XI,
    "containment-dec": XI,
    "containment-full": PI,
    "property-a": XI,
    "property-b": XI,
    "chain-inc": XI,
    "chain-dec": XI,
}


class UsageError(Exception):
    pass


class ResourceCap(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; never raises SystemExit.

    A first word naming a command (``verify``, ``oracle``, or ``family``
    with its subcommand word) hands the rest of ``argv`` to that command's
    own parser; no arguments, ``-h``/``--help`` or an unknown word go to the
    top-level parser.  A command's ``argv`` of the plain shape - each option
    spelled out in full and followed by its one value, which does not start
    with ``-``, and the command's positionals, valid and each given once -
    is read directly (`_read_plain`), to the namespace argparse would make.
    Any other ``argv`` (``-h``, ``--opt=value``, ``-rVALUE``, an abbreviated
    option, ``--``, a value starting with ``-``, a value its type or choices
    refuse, a missing required argument, an extra positional) goes to
    argparse, so help, usage errors and exit codes are argparse's own.
    ``main`` may be called any number of times in one process.  The parsers
    are built on the first call and reused by every later one: each parse
    makes a fresh namespace, and argparse looks ``sys.stdout`` and
    ``sys.stderr`` up when it prints, so redirected streams still capture
    its help and usage errors.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    words = tuple(argv[:2] if argv[:1] == ["family"] else argv[:1])
    if words in commands:
        parser, argv = commands[words], argv[len(words):]
    args = _read_plain(parser, argv)
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # an except clause's classes are looked up only when an exception reaches it
    try:
        return args.func(args)
    except (UsageError, *_loaded("formats.FormatError", "branches.BranchError",
                                 "space.SpaceError")) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceCap, *_loaded("space.SplitBoundError", "branches.CoverBoundError")) as exc:
        print(f"error: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _loaded("engines.EngineError", "certificates.CertificateError") as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        # Python refuses to write an integer past its limit on decimal digits.
        # Every input is converted where it is parsed, so such an integer is
        # an output, printed, in a certificate or in an engine's witness: a
        # resource cap.  Any other ValueError is a fault, and stays one.
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: resource cap: {_digit_limit_message()}", file=sys.stderr)
        return EXIT_RESOURCE


def _digit_limit_message() -> str:
    return (f"an output integer has more than {sys.get_int_max_str_digits()} decimal digits,"
            " the interpreter's limit for writing one")


def _refuse_past_digit_limit(n: int) -> None:
    """Refuse, before it is built, a list that runs to a branch's ``n``-th
    element: that element is at least ``2**n - 1``, and past the digit limit
    Python would not write it (0 sets no limit).  ``10**limit < 2**(4 *
    limit)``, so a huge ``n`` is refused without building ``2**n``; a
    negative ``n`` is left to the codec to refuse."""
    limit = sys.get_int_max_str_digits()
    if limit and n > 0 and (n > 4 * limit or 1 << n > 10 ** limit):
        raise ResourceCap(_digit_limit_message())


def _loaded(*names: str) -> tuple[type, ...]:
    """The classes named ``module.Class`` whose package module is loaded.  A
    module not loaded raised nothing, so looking its classes up loads none."""
    classes = []
    for name in names:
        module, _, cls = name.partition(".")
        if f"{__package__}.{module}" in sys.modules:
            classes.append(getattr(sys.modules[f"{__package__}.{module}"], cls))
    return tuple(classes)


@functools.cache
def _build_parser() -> (
    tuple[argparse.ArgumentParser, dict[tuple[str, ...], argparse.ArgumentParser]]
):
    """The CLI's top-level parser, and each command's own parser under its
    command words, built once on first use (not at import, which would
    charge every ``import zfilterlab.cli`` for it)."""
    commands: dict[tuple[str, ...], argparse.ArgumentParser] = {}

    def command(subparsers, *words: str, **kwargs) -> argparse.ArgumentParser:
        commands[words] = subparsers.add_parser(words[-1], **kwargs)
        return commands[words]

    parser = argparse.ArgumentParser(
        prog="zfilterlab",
        description="almost-disjoint branch families and zero-set filter certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="branch-family computations")
    fam_sub = family.add_subparsers(dest="family_command", required=True)

    p = command(fam_sub, "family", "elements", help="first elements of a branch's set")
    p.add_argument("branch")
    p.add_argument("--count", type=int, default=8)
    p.set_defaults(func=_cmd_family_elements)

    p = command(fam_sub, "family", "intersect", help="exact intersection of two branches")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_family_intersect)

    p = command(fam_sub, "family", "separator", help="least element escaping a group")
    p.add_argument("branch")
    p.add_argument("--group", action="append", default=[])
    p.set_defaults(func=_cmd_family_separator)

    p = command(fam_sub, "family", "cover", help="rank-floored cover of an initial segment")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--gamma", type=int, default=0)
    p.add_argument("--base", action="append", default=[])
    _add_registry_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_family_cover)

    p = command(fam_sub, "family", "density", help="branches through a position at a depth")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_family_density)

    p = command(fam_sub, "family", "encode", help="code of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_family_encode)

    p = command(fam_sub, "family", "decode", help="word of a code")
    p.add_argument("code", type=int)
    p.set_defaults(func=_cmd_family_decode)

    verify = command(sub, "verify", help="run a lemma engine or re-check a certificate")
    verify.add_argument("lemma", nargs="?", choices=LEMMAS)
    verify.add_argument("--check", metavar="CERT", help="re-validate an existing certificate")
    _add_registry_options(verify)
    _add_truncation_options(verify)
    _add_output_options(verify)
    verify.add_argument("--zset", help="set expression (extendibility-b, property-a)")
    verify.add_argument("--alpha", help="distinguished entry label (extendibility-b)")
    verify.add_argument("--F", action="append", default=[], help="subtracted branches")
    verify.add_argument("--G", action="append", default=[], help="kept branches")
    verify.add_argument("--gamma", type=int, default=0, help="rank floor")
    verify.add_argument("--steps", type=int, default=2, help="chain length")
    verify.add_argument("--cover", help="putative cover file (property-b)")
    # --ambient defaults to the lemma's own ambient, or the certificate's
    verify.set_defaults(func=_cmd_verify, ambient=None)

    oracle = command(sub, "oracle", help="exhaustive truncated claim evaluation")
    oracle.add_argument("claim", help="claim file (JSON)")
    _add_registry_options(oracle)
    _add_truncation_options(oracle)
    oracle.add_argument("--max-counterexamples", type=int, default=3)
    oracle.set_defaults(func=_cmd_oracle)

    return parser, commands


def _add_registry_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--registry",
        "-r",
        action="append",
        default=[],
        metavar="ENTRY",
        help="registry entry label=pre:period@rank (repeatable)",
    )


def _add_truncation_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--T", type=int, default=DEFAULT_T, help="max support position")
    p.add_argument("--V", type=int, default=DEFAULT_V, help="max finite value")
    p.add_argument("--cap-T", type=int, default=CAP_T, help="raise the position cap")
    p.add_argument("--cap-V", type=int, default=CAP_V, help="raise the value cap")
    p.add_argument("--ambient", choices=[XI, PI], default=XI)


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="certificate output path")


@functools.cache
def _plain_reading(parser: argparse.ArgumentParser) -> tuple | None:
    """What `_read_plain` needs of a parser, derived from its actions on first
    use: each single-value store or append option under each of its option
    strings, the positionals in order, the namespace's defaults as argparse
    fills them in, and the required actions.  None for a parser whose
    positionals are not all of one value each, nor one optional value alone
    (the top-level parser's command word)."""
    options, positionals, defaults = {}, [], {}
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
        if not action.option_strings:
            positionals.append(action)
        elif action.nargs is None and isinstance(
                action, (argparse._StoreAction, argparse._AppendAction)):
            options.update(dict.fromkeys(action.option_strings, action))
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    # argparse hands the positional strings out in order to positionals of one
    # value each, and the first one to a lone optional positional; a mix of
    # the two it matches by pattern, differently across Python versions
    if [a.nargs for a in positionals] not in ([None] * len(positionals), ["?"]):
        return None
    return options, positionals, defaults, [a for a in parser._actions if a.required]


def _read_plain(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``parser.parse_args(argv)`` makes, for an ``argv`` of the
    plain shape `main` describes; None for any other, which argparse reads.
    An option not given keeps its default object; a given append option's
    values go to a new list, never into its default."""
    reading = _plain_reading(parser)
    if reading is None:
        return None
    options, positionals, defaults, required = reading
    args = argparse.Namespace()
    values = vars(args)
    values.update(defaults)
    seen = set()
    tokens = iter(argv)
    filled = 0
    for token in tokens:
        if token[:1] == "-":
            action, value = options.get(token), next(tokens, "-")
            if action is None or value[:1] == "-":
                return None
        elif filled < len(positionals):
            action, value = positionals[filled], token
            filled += 1
        else:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        if isinstance(action, argparse._AppendAction):
            if action not in seen:
                values[action.dest] = list(values[action.dest] or ())
            values[action.dest].append(value)
        else:
            values[action.dest] = value
        seen.add(action)
    return args if seen.issuperset(required) else None


def _registry(args) -> Registry:
    return zfilterlab.formats.parse_registry(args.registry)


def _truncation(args) -> Truncation:
    if args.T > args.cap_T or args.V > args.cap_V:
        raise ResourceCap(
            f"truncation ({args.T},{args.V}) exceeds caps ({args.cap_T},{args.cap_V}); "
            "raise --cap-T/--cap-V explicitly if you mean it"
        )
    return zfilterlab.space.Truncation(args.T, args.V)


def _output_path(args, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


def _write_certificate(cert: Certificate, path: str) -> None:
    try:
        cert.write(path)
    except OSError as exc:
        raise UsageError(f"cannot write certificate: {path}: {exc.strerror or exc}") from exc


def _resolve_branch(reg: Registry, text: str) -> BranchIndex:
    """The branch `formats.resolve_branch` reads; an unseen literal is
    registered one rank above every entry."""
    branch = zfilterlab.formats.resolve_branch(text, reg)
    if branch in reg:
        return branch
    return reg.add_unlabelled(branch.pre, branch.period, reg.max_rank() + 1)


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------

def _cmd_family_elements(args) -> int:
    branch = zfilterlab.formats.parse_branch_literal(args.branch)
    _refuse_past_digit_limit(args.count)
    print(",".join(map(str, zfilterlab.branches.branch_elements(branch, args.count))))
    return EXIT_OK


def _cmd_family_intersect(args) -> int:
    a = zfilterlab.formats.parse_branch_literal(args.first)
    b = zfilterlab.formats.parse_branch_literal(args.second, rank=1)
    if a == b:
        raise zfilterlab.branches.BranchError("branches coincide; the intersection is infinite")
    # the shared elements are the first lcp ones, which `elements` lists increasing
    n = a.lcp(b)
    _refuse_past_digit_limit(n)
    print("{" + ",".join(map(str, a.elements(n))) + "}")
    return EXIT_OK


def _cmd_family_separator(args) -> int:
    parse = zfilterlab.formats.parse_branch_literal
    branch = parse(args.branch)
    group = [parse(g, rank=i + 1) for i, g in enumerate(args.group)]
    print(zfilterlab.branches.find_separator(branch, group))
    return EXIT_OK


def _cmd_family_cover(args) -> int:
    reg = _registry(args)
    base = [_resolve_branch(reg, b) for b in args.base]
    cover, cert = zfilterlab.engines.cover_certificate(args.l, args.gamma, reg, base)
    path = _output_path(args, "cover.cert.json")
    _write_certificate(cert, path)
    for c in cover:
        print(f"{c.label} {c.literal()} rank={c.rank}")
    print(f"certificate: {path}")
    report = zfilterlab.checking.check_certificate(cert)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_family_density(args) -> int:
    print(zfilterlab.branches.density_count(args.n, args.depth))
    return EXIT_OK


def _cmd_family_encode(args) -> int:
    print(zfilterlab.branches.encode_string(args.word))
    return EXIT_OK


def _cmd_family_decode(args) -> int:
    print(zfilterlab.branches.decode_code(args.code))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    if args.check:
        report = _check_file(args)
        for problem in report.problems:
            print(f"problem: {problem}", file=sys.stderr)
        print("verified" if report.ok else "rejected")
        return EXIT_OK if report.ok else EXIT_FAIL
    if not args.lemma:
        raise UsageError("give a lemma name or --check CERT")

    cert = _run_engine(args, _registry(args))
    path = _output_path(args, f"{args.lemma}.cert.json")
    _write_certificate(cert, path)
    report = zfilterlab.checking.check_certificate(cert)
    for problem in report.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{cert.kind}: {'verified' if report.ok else 'rejected'} -> {path}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _check_file(args) -> CheckReport:
    """Replay a certificate file, refusing an ``--ambient`` other than the
    recorded one.  No replay walks a truncation, so the caps do not apply.
    A file that does not parse is reported ``unparseable``, its parse error
    the problem."""
    certificates, checking = zfilterlab.certificates, zfilterlab.checking
    text = _read_file(args.check, "certificate")
    try:
        cert = certificates.Certificate.from_json(text)
    except certificates.CertificateError as exc:
        return checking.CheckReport("unparseable", ok=False, problems=[str(exc)])
    recorded = cert.params.get("ambient", XI)
    if args.ambient not in (None, recorded):
        raise UsageError(f"the certificate is made in {recorded}, not in {args.ambient}")
    return checking.check_certificate(cert)


def _run_engine(args, reg: Registry) -> Certificate:
    """Run the lemma's engine.  Only property-b searches a truncation, so
    only it reads ``--T/--V`` and meets the caps; the other lemmas are exact
    and ignore those options."""
    engines, parse_setexpr = zfilterlab.engines, zfilterlab.formats.parse_setexpr
    lemma = args.lemma
    ambient = LEMMAS[lemma]
    if args.ambient not in (None, ambient):
        raise UsageError(f"{lemma} decides in {ambient} only, not in {args.ambient}")
    if lemma == "extendibility-a":
        return engines.check_extendibility_a(reg)
    if lemma == "extendibility-b":
        if not args.zset or not args.alpha:
            raise UsageError("extendibility-b needs --zset and --alpha")
        zset = parse_setexpr(args.zset, reg, ambient)
        alpha = _resolve_branch(reg, args.alpha)
        return engines.check_extendibility_b(zset, alpha, reg)
    if lemma == "containment-dec":
        subtracted = [_resolve_branch(reg, b) for b in args.F]
        kept = [_resolve_branch(reg, b) for b in args.G]
        return engines.containment_decreasing(subtracted, kept, args.gamma, reg)
    if lemma == "containment-full":
        kept = [_resolve_branch(reg, b) for b in args.F]
        subtracted = [_resolve_branch(reg, b) for b in args.G]
        return engines.containment_full_product(kept, subtracted)
    if lemma == "property-a":
        if not args.zset:
            raise UsageError("property-a needs --zset")
        zset = parse_setexpr(args.zset, reg, ambient)
        return engines.property_a_check(zset, reg)
    if lemma == "property-b":
        if not args.cover:
            raise UsageError("property-b needs --cover FILE")
        failures = _load_afailures(args.cover, reg, ambient)
        return engines.property_b_refute(failures, args.gamma, reg, _truncation(args)).certificate
    if lemma == "chain-inc":
        return engines.increasing_chain_engine(reg, args.steps)
    if lemma == "chain-dec":
        return engines.decreasing_chain_engine(reg, args.steps)
    raise UsageError(f"unknown lemma {lemma!r}")


def _read_file(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc


def _load_json_object(path: str, what: str) -> dict:
    try:
        doc = json.loads(_read_file(path, what))
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"{what} {path} must hold a JSON object")
    return doc


def _expr_field(doc: dict, key: str, what: str, reg: Registry, ambient: str):
    text = doc.get(key)
    if not isinstance(text, str):
        raise UsageError(f"{what} needs a set expression string under {key!r}")
    return zfilterlab.formats.parse_setexpr(text, reg, ambient)


def _load_afailures(path: str, reg: Registry, ambient: str) -> list[AFailure]:
    """A cover file's ``afailures``, in the shape a certificate records them."""
    doc = _load_json_object(path, "cover file")
    afailures = zfilterlab.formats.parse_afailures(doc.get("afailures", []), reg, ambient)
    return [
        zfilterlab.engines.AFailure(zset, tuple(constraining), tuple(absorbing))
        for zset, constraining, absorbing in afailures
    ]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _cmd_oracle(args) -> int:
    reg = _registry(args)
    trunc = _truncation(args)
    doc = _load_json_object(args.claim, "claim file")
    kind = doc.get("claim", "containment")
    ambient = doc.get("ambient", args.ambient)
    lhs = _expr_field(doc, "lhs", "a claim", reg, ambient)
    rhs = _expr_field(doc, "rhs", "a claim", reg, ambient) if "rhs" in doc else None
    # a refuted claim always shows at least one counterexample per direction
    limit = max(args.max_counterexamples, 1)

    def violations(left, right):
        found = zfilterlab.space.containment_violations(left, right, trunc, ambient)
        return list(itertools.islice(found, limit))

    if kind == "containment":
        if rhs is None:
            raise UsageError("containment claims need lhs and rhs")
        bad = violations(lhs, rhs)
    elif kind == "equality":
        if rhs is None:
            raise UsageError("equality claims need lhs and rhs")
        bad = violations(lhs, rhs) + violations(rhs, lhs)
    elif kind == "emptiness":
        bad = violations(lhs, zfilterlab.space.empty_expr())
    else:
        raise UsageError(f"unknown claim kind {kind!r}")

    if not bad:
        print(f"holds on truncation ({trunc.T},{trunc.V})")
        return EXIT_OK
    for p in bad:
        print(f"counterexample: {p.literal()}")
    return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
