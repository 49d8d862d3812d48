"""Text formats shared by the CLI and the certificate files.

* branch literal: ``pre:period`` over {1,2}, e.g. ``12:2`` or ``:1``
* registry entry: ``label=pre:period@rank`` (label and rank optional)
* point literal: ``{2:3,5:7}`` with ``{}`` for the all-infinite point
* set expression: s-expressions, e.g. ``(diff (inter N:a N:b) (union N:c))``
  with ``W`` for the whole space, ``N:<ref>`` for a branch atom (label or
  branch literal), and ``(pt {1:2})`` for a singleton
* absorption failure: ``{"zset": <set expression>, "constraining": [labels],
  "absorbing": [labels]}``, one item of a cover file's or a certificate's
  ``afailures`` list
"""

from __future__ import annotations

import re
import sys

from .branches import BranchError, BranchIndex, Registry, default_label
from .space import (
    Ambient,
    Atom,
    Diff,
    Inter,
    SetExpr,
    Singleton,
    Union,
    Whole,
    XI,
    XiPoint,
)


class FormatError(ValueError):
    """Raised when a literal or expression fails to parse."""


def _require_text(text, what: str) -> None:
    if not isinstance(text, str):
        raise FormatError(f"{what} must be a string, got {text!r}")


# ---------------------------------------------------------------------------
# Branch literals, registry specs and registry labels
# ---------------------------------------------------------------------------

def parse_branch_literal(text: str, rank: int = 0, label: str = "") -> BranchIndex:
    """Parse ``pre:period`` into a branch."""
    _require_text(text, "branch literal")
    if ":" not in text:
        raise FormatError(f"branch literal needs a colon: {text!r}")
    pre, _, period = text.partition(":")
    try:
        return BranchIndex(pre, period, rank, label)
    except BranchError as exc:
        raise FormatError(str(exc)) from exc


_ENTRY_RE = re.compile(
    r"^(?:(?P<label>[A-Za-z_][A-Za-z0-9_]*)=)?(?P<lit>[12]*:[12]+)(?:@(?P<rank>\d+))?$"
)


def parse_registry(entries: list[str]) -> Registry:
    """Build a registry from ``label=pre:period@rank`` strings, label and rank
    optional.  Unranked entries get 0,1,2,...; explicit labels are kept, and
    each unlabelled entry takes `default_label`'s label against them and the
    labels before it."""
    matches = [_ENTRY_RE.match(text.strip()) for text in entries]
    for text, m in zip(entries, matches):
        if not m:
            raise FormatError(f"bad registry entry {text!r}; expected label=pre:period@rank")
    taken = {m["label"] for m in matches if m["label"]}
    branches: list[BranchIndex] = []
    for m in matches:
        try:
            rank = int(m["rank"]) if m["rank"] else branches[-1].rank + 1 if branches else 0
        except ValueError as exc:  # the rank's digits run past Python's limit
            limit = sys.get_int_max_str_digits()
            raise FormatError(f"a registry rank has more than {limit} digits") from exc
        label = m["label"] or default_label(rank, taken)
        taken.add(label)
        branches.append(parse_branch_literal(m["lit"], rank, label))
    try:
        return Registry(branches)
    except BranchError as exc:
        raise FormatError(str(exc)) from exc


def parse_labels(labels, registry: Registry, what: str) -> list[BranchIndex]:
    """The registry entries a list of labels names, in its order."""
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FormatError(f"{what} must be a list of registry labels, got {labels!r}")
    return [registry.by_label(x) for x in labels]


# ---------------------------------------------------------------------------
# Point literals
# ---------------------------------------------------------------------------

def parse_point_literal(text: str, ambient: Ambient = XI) -> XiPoint:
    _require_text(text, "point literal")
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise FormatError(f"point literal must be braced: {text!r}")
    inner = text[1:-1].strip()
    mapping: dict[int, int] = {}
    if inner:
        for item in inner.split(","):
            pos_s, _, val_s = item.partition(":")
            try:
                pos, val = int(pos_s), int(val_s)
            except ValueError as exc:
                raise FormatError(f"bad coordinate {item!r} in {text!r}") from exc
            if pos in mapping:
                raise FormatError(f"repeated position {pos} in {text!r}")
            mapping[pos] = val
    try:
        return XiPoint.of(mapping, ambient)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Set-expression s-expressions
# ---------------------------------------------------------------------------

# Tokens split on any whitespace; every other character lands in a token.
_TOKEN_RE = re.compile(r"\(|\)|\{[^{}]*\}|[^\s()]+")

# Deepest accepted nesting of parentheses.  Parsing and every evaluator walk
# the tree recursively, so deeper input is refused here instead of exhausting
# the interpreter's recursion limit downstream.
MAX_SETEXPR_DEPTH = 200


def _resolve_atom(ref: str, registry: Registry | None) -> BranchIndex:
    if registry is not None:
        try:
            return registry.by_label(ref)
        except BranchError:
            pass
    if ":" in ref:
        branch = parse_branch_literal(ref)
        return registry.entry(branch) if registry is not None and branch in registry else branch
    raise FormatError(f"unknown branch reference {ref!r}")


def parse_setexpr(text: str, registry: Registry | None = None, ambient: Ambient = XI) -> SetExpr:
    _require_text(text, "set expression")
    tokens = _TOKEN_RE.findall(text.strip())
    pos = 0

    def parse_one(depth: int) -> SetExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if depth >= MAX_SETEXPR_DEPTH:
                raise FormatError(
                    f"set expression nests deeper than {MAX_SETEXPR_DEPTH} levels"
                )
            if pos >= len(tokens):
                raise FormatError("dangling '('")
            head = tokens[pos]
            pos += 1
            if head == "pt":
                if pos >= len(tokens) or not tokens[pos].startswith("{"):
                    raise FormatError("(pt ...) needs a point literal")
                point = parse_point_literal(tokens[pos], ambient)
                pos += 1
                _expect_close()
                return Singleton(point)
            parts: list[SetExpr] = []
            while pos < len(tokens) and tokens[pos] != ")":
                parts.append(parse_one(depth + 1))
            _expect_close()
            if head == "union":
                return Union(tuple(parts))
            if head == "inter":
                return Inter(tuple(parts))
            if head == "diff":
                if len(parts) != 2:
                    raise FormatError("(diff ...) takes exactly two arguments")
                return Diff(parts[0], parts[1])
            raise FormatError(f"unknown operator {head!r}")
        if tok == ")":
            raise FormatError("unexpected ')'")
        if tok == "W":
            return Whole()
        if tok.startswith("N:"):
            return Atom(_resolve_atom(tok[2:], registry))
        raise FormatError(f"unknown token {tok!r}")

    def _expect_close() -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != ")":
            raise FormatError("missing ')'")
        pos += 1

    expr = parse_one(0)
    if pos != len(tokens):
        raise FormatError(f"trailing tokens in {text!r}")
    return expr


# an absorption failure zset ∩ ⋂constraining ⊆ ∪absorbing, as parsed
AFailureParts = tuple[SetExpr, list[BranchIndex], list[BranchIndex]]


def parse_afailures(items, registry: Registry, ambient: Ambient = XI) -> list[AFailureParts]:
    """Parse an ``afailures`` list; each caller checks the rank shape."""
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise FormatError(f"afailures must be a list of objects, got {items!r}")
    return [
        (parse_setexpr(x.get("zset"), registry, ambient),
         parse_labels(x.get("constraining"), registry, "an afailure's 'constraining'"),
         parse_labels(x.get("absorbing"), registry, "an afailure's 'absorbing'"))
        for x in items
    ]


def setexpr_text(expr: SetExpr) -> str:
    """Canonical s-expression text; atoms print their branch literal."""
    if isinstance(expr, Whole):
        return "W"
    if isinstance(expr, Atom):
        return f"N:{expr.branch.literal()}"
    if isinstance(expr, Singleton):
        return f"(pt {expr.point.literal()})"
    if isinstance(expr, Union):
        return "(union" + "".join(" " + setexpr_text(p) for p in expr.parts) + ")"
    if isinstance(expr, Inter):
        return "(inter" + "".join(" " + setexpr_text(p) for p in expr.parts) + ")"
    if isinstance(expr, Diff):
        return f"(diff {setexpr_text(expr.left)} {setexpr_text(expr.right)})"
    raise FormatError(f"unknown expression node {expr!r}")
