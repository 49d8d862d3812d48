"""Almost-disjoint families of integer sets built from binary-tree branches.

A *branch* is an infinite word over the alphabet ``{1, 2}``, presented as an
eventually periodic pair (preperiod, period).  Finite nonempty words over the
same alphabet are identified with the positive integers through a fixed
length-monotone codec, and the element set of a branch is the set of codes of
its finite prefixes.  Two distinct branches share exactly the codes of their
common prefixes, so the element sets of distinct branches have finite
intersection while each is infinite: an almost-disjoint family at desk scale.

The code of a length-``n`` prefix is ``2**n - 1`` plus the prefix read in
binary (1 -> 0, 2 -> 1).  Each branch keeps its first 64 letters as one
integer below ``2**64``, first letter highest, built on first read: a code up
to length 64 is a shift of it, and two branches that part within 64 letters
part at the top set bit of their XOR.  A longer prefix is encoded from its
word on each call, so no stored value grows with a queried position, and a
list of elements builds each code past 64 letters from the one before it.

Everything here is exact integer combinatorics; no enumeration is truncated.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from math import gcd
from typing import Container, Iterable, Iterator, Sequence

from ._record import Frozen, Record

class BranchError(ValueError):
    """Raised for malformed words, duplicate branches, or bad arguments."""


class CoverBoundError(Exception):
    """A cover was asked for past `MAX_COVER_BOUND`, so none was built."""


# ---------------------------------------------------------------------------
# Word codec
# ---------------------------------------------------------------------------

_SYMBOLS = frozenset("12")
_TO_BITS = str.maketrans("12", "01")
_TO_WORD = str.maketrans("01", "12")


def _check_word(word: str, what: str) -> None:
    if not _SYMBOLS.issuperset(word):
        ch = next(ch for ch in word if ch not in _SYMBOLS)
        raise BranchError(f"bad symbol {ch!r} in {what}; alphabet is {{1,2}}")


def _bits(word: str) -> int:
    """A nonempty word read in binary, 1 -> 0 and 2 -> 1."""
    return int(word.translate(_TO_BITS), 2)


def encode_string(word: str) -> int:
    """Code of a nonempty word over {1,2}.

    A word of length ``n`` lands in ``[2**n - 1, 2**(n+1) - 2]``; the codec is
    a bijection onto the positive integers and strictly increases with word
    length.  The word read as binary (1 -> 0, 2 -> 1) is the offset.
    """
    if not word:
        raise BranchError("cannot encode the empty word")
    _check_word(word, "word")
    return (1 << len(word)) - 1 + _bits(word)


def decode_code(code: int) -> str:
    """Inverse of :func:`encode_string`."""
    if code < 1:
        raise BranchError(f"codes start at 1, got {code}")
    length = (code + 1).bit_length() - 1
    return format(code + 1 - (1 << length), f"0{length}b").translate(_TO_WORD)


def _codes_after(code: int, letters: str) -> Iterator[int]:
    """Codes of the word coded by ``code`` (0 for the empty word) extended by
    each successive prefix of ``letters``."""
    for ch in letters:
        code = 2 * code + (1 if ch == "1" else 2)
        yield code


# ---------------------------------------------------------------------------
# Branches
# ---------------------------------------------------------------------------

# each branch keeps this many leading letters as one integer below 2**64
_STORED_LENGTH = 64


def _canonicalize(pre: str, period: str) -> tuple[str, str]:
    """Minimal preperiod and minimal period for an eventually periodic word."""
    # the primitive root's length is the least nonzero rotation that maps the
    # period to itself: where the period next occurs in its own square
    period = period[:(period + period).find(period, 1)]
    while pre and pre[-1] == period[-1]:
        pre = pre[:-1]
        period = period[-1] + period[:-1]
    return pre, period


class BranchIndex(Frozen):
    """An eventually periodic branch with an ordinal stand-in rank.

    Equality and hashing are by the expanded infinite word (canonical form);
    rank and label are bookkeeping for the finite registry that stands in for
    the transfinite index set.
    """

    # ``_word``: the first 64 letters in binary, or None until `_head` first
    # reads them
    __slots__ = ("pre", "period", "rank", "label", "_word")

    def __init__(self, pre: str, period: str, rank: int, label: str = "") -> None:
        if not period:
            raise BranchError("period must be nonempty")
        _check_word(pre, "preperiod")
        _check_word(period, "period")
        if rank < 0:
            raise BranchError("rank must be a nonnegative integer")
        pre, period = _canonicalize(pre, period)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "label", label or f"b{rank}")
        object.__setattr__(self, "_word", None)

    # word access -----------------------------------------------------------

    def prefix(self, n: int) -> str:
        """First ``n`` symbols of the expanded word."""
        if n < 0:
            raise BranchError("positions are 1-based")
        if n <= len(self.pre):
            return self.pre[:n]
        reps = (n - len(self.pre)) // len(self.period) + 1
        return (self.pre + self.period * reps)[:n]

    def literal(self) -> str:
        """Canonical ``pre:period`` text form."""
        return f"{self.pre}:{self.period}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BranchIndex):
            return NotImplemented
        return self.pre == other.pre and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.pre, self.period))

    def __repr__(self) -> str:
        return f"BranchIndex({self.literal()!r}, rank={self.rank}, label={self.label!r})"

    # element set -----------------------------------------------------------

    def _head(self) -> int:
        """The first 64 letters in binary, first letter highest; built once."""
        word = self._word
        if word is None:
            word = _bits(self.prefix(_STORED_LENGTH))
            object.__setattr__(self, "_word", word)
        return word

    def element(self, n: int) -> int:
        """The ``n``-th element of the branch's set: the code of its length-``n`` prefix."""
        if n < 1:
            raise BranchError("positions are 1-based")
        if n <= _STORED_LENGTH:
            return (1 << n) - 1 + (self._head() >> (_STORED_LENGTH - n))
        return encode_string(self.prefix(n))

    def elements(self, count: int) -> list[int]:
        """First ``count`` elements, strictly increasing: shifts of the
        stored word, then each code from the one before it."""
        if count < 0:
            raise BranchError("count must be nonnegative")
        word = self._head()
        out = [(1 << n) - 1 + (word >> (_STORED_LENGTH - n))
               for n in range(1, min(count, _STORED_LENGTH) + 1)]
        if count > _STORED_LENGTH:
            out.extend(_codes_after(out[-1], self.prefix(count)[_STORED_LENGTH:]))
        return out

    def elements_upto(self, bound: int) -> list[int]:
        """All elements that are <= ``bound``.

        The length-``n`` prefix has code >= 2**n - 1, so only prefixes up to
        length ``bound.bit_length()`` can qualify.
        """
        out = self.elements(max(bound, 1).bit_length())
        del out[bisect_right(out, bound):]
        return out

    def lcp(self, other: "BranchIndex") -> int:
        """Length of the longest common prefix; raises if the words are equal."""
        diff = self._head() ^ other._head()
        if diff:
            return _STORED_LENGTH - diff.bit_length()
        # tails of periods p and q that agree on p + q - gcd(p, q) letters
        # agree everywhere (Fine and Wilf), so that many letters past both
        # preperiods settle it
        p, q = len(self.period), len(other.period)
        bound = max(len(self.pre), len(other.pre)) + p + q - gcd(p, q)
        diff = _bits(self.prefix(bound)) ^ _bits(other.prefix(bound))
        if diff:
            return bound - diff.bit_length()
        raise BranchError("branches are equal as infinite words")


def branch_member(alpha: BranchIndex, n: int) -> bool:
    """Whether code ``n`` belongs to the branch's element set: whether it is
    the code of the branch's prefix of the same length."""
    if n < 1:
        raise BranchError(f"codes start at 1, got {n}")
    return alpha.element((n + 1).bit_length() - 1) == n


def branch_elements(alpha: BranchIndex, count: int) -> list[int]:
    return alpha.elements(count)


def intersection_exact(alpha: BranchIndex, beta: BranchIndex) -> set[int]:
    """Exact intersection of two distinct branches' element sets.

    The shared elements are precisely the codes of the common prefixes, so
    the intersection has exactly ``lcp`` elements.
    """
    if alpha == beta:
        raise BranchError("branches coincide; the intersection is infinite")
    return set(alpha.elements(alpha.lcp(beta)))


def find_separator(alpha: BranchIndex, group: Iterable[BranchIndex]) -> int:
    """Least element of ``alpha``'s set avoiding every branch of ``group``.

    A length-``m`` prefix of ``alpha`` lies in another branch's set iff ``m``
    is at most their common-prefix length, so the answer is the prefix one
    symbol past the deepest agreement.  A group member with ``alpha``'s word
    has no common-prefix length: `BranchIndex.lcp` refuses it, and the
    refusal is raised as the target belonging to the group.
    """
    try:
        depth = max((alpha.lcp(beta) for beta in group), default=0)
    except BranchError:
        raise BranchError("separator target must not belong to the excluded group") from None
    return alpha.element(depth + 1)


def density_count(n: int, depth: int) -> int:
    """Number of depth-``depth`` words extending the word coded by ``n``."""
    word = decode_code(n)
    if depth < len(word):
        raise BranchError(f"depth {depth} is below the word length {len(word)}")
    return 1 << (depth - len(word))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

class Registry(Record):
    """Finite ordered stand-in for the transfinite branch index set.

    Entries keep strictly increasing ranks, pairwise distinct expanded words
    and pairwise distinct labels, each a name ``[A-Za-z_][A-Za-z0-9_]*`` that
    a ``-r`` entry and an ``N:<label>`` reference can spell; `add` holds
    these rules, and the constructor adds its entries through it.  Fresh
    branches can always be minted through any requested word, which is the
    finite shadow of the fact that continuum-many branches pass through
    every tree node.
    """

    # each entry under its word and under its label
    __slots__ = ("entries", "_by_word", "_by_label")

    def __init__(self, entries: Iterable[BranchIndex] | None = None) -> None:
        self.entries: list[BranchIndex] = []
        self._by_word: dict[BranchIndex, BranchIndex] = {}
        self._by_label: dict[str, BranchIndex] = {}
        for e in entries or ():
            self.add(e)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, branch: BranchIndex) -> bool:
        return branch in self._by_word

    def max_rank(self) -> int:
        return self.entries[-1].rank if self.entries else -1

    def by_label(self, label: str) -> BranchIndex:
        try:
            return self._by_label[label]
        except (KeyError, TypeError):  # a certificate may give a label of any JSON type
            raise BranchError(f"no branch labelled {label!r}") from None

    def entry(self, branch: BranchIndex) -> BranchIndex:
        """The entry with ``branch``'s word, whatever its rank and label."""
        try:
            return self._by_word[branch]
        except KeyError:
            raise BranchError(f"branch {branch.literal()} is not a registry entry") from None

    def add(self, branch: BranchIndex) -> BranchIndex:
        label = branch.label
        if not (isinstance(label, str) and label.isidentifier() and label.isascii()):
            raise BranchError(f"label {label!r} is not a name [A-Za-z_][A-Za-z0-9_]*")
        if self.entries and branch.rank <= self.entries[-1].rank:
            raise BranchError(
                f"registry ranks must be strictly increasing: {label} has rank "
                f"{branch.rank} after rank {self.entries[-1].rank}")
        if branch in self._by_word:
            raise BranchError(f"duplicate branch word {branch.literal()}")
        if label in self._by_label:
            raise BranchError(f"duplicate label {label!r}")
        self.entries.append(branch)
        self._by_word[branch] = self._by_label[label] = branch
        return branch

    def add_unlabelled(self, pre: str, period: str, rank: int) -> BranchIndex:
        """Register a new word at ``rank`` under `default_label`'s label."""
        return self.add(BranchIndex(pre, period, rank, default_label(rank, self._by_label)))

    def mint_through(self, word: str, min_rank: int) -> BranchIndex:
        """Register a fresh branch extending ``word`` with rank >= ``min_rank``.

        Candidate continuations are tried in a fixed order (all-1 tail, all-2
        tail, then 2...21-tails of growing length) until one differs from
        every registered word, so minting is deterministic.  Each candidate
        is built once, at its rank and under `default_label`'s label, and
        the first new one is the object registered.
        """
        _check_word(word, "word")
        if not word:
            raise BranchError("cannot mint a branch through the empty word")
        rank = max(min_rank, self.max_rank() + 1)
        label = default_label(rank, self._by_label)
        candidates = itertools.chain(
            [(word, "1"), (word, "2")],
            ((word + "2" * j, "1") for j in itertools.count(1)),
        )
        built = (BranchIndex(pre, period, rank, label) for pre, period in candidates)
        return self.add(next(b for b in built if b not in self))

    def to_payload(self) -> list[str]:
        """Each entry as ``label=pre:period@rank``, the text `formats.parse_registry` reads."""
        return [f"{e.label}={e.literal()}@{e.rank}" for e in self.entries]


def default_label(rank: int, taken: Container[str]) -> str:
    """``b<rank>``, else the first of ``b<rank>_2``, ``b<rank>_3``, ... not in ``taken``."""
    labels = itertools.chain([f"b{rank}"], (f"b{rank}_{n}" for n in itertools.count(2)))
    return next(x for x in labels if x not in taken)


# The largest cover bound `find_cover` accepts.  A cover of ``{1..l}`` mints
# about l/2 branches in time linear in ``l``: 4,097 branches in 0.1 s at this
# bound (Python 3.11, 2-core host), and each is written to the certificate.
MAX_COVER_BOUND = 8192


def find_cover(
    l: int,
    gamma: int,
    registry: Registry,
    base: Iterable[BranchIndex] = (),
) -> list[BranchIndex]:
    """Finite branch set of rank >= ``gamma`` covering ``{1..l}`` jointly with ``base``.

    Every integer up to ``l`` is the code of some word, and some branch through
    that word either already exists at an admissible rank or can be minted, so
    the cover always succeeds.  Scanning ``n`` upward and reusing branches
    already chosen keeps the result deterministic.  Only the entries that
    were admissible (rank >= ``gamma``) at the call are scanned: a branch
    chosen into the cover, minted or not, holds only covered codes, so it is
    never the answer for a later position.  A bound past
    `MAX_COVER_BOUND` raises `CoverBoundError` before anything is minted.
    """
    if l < 1:
        raise BranchError("cover bound must be >= 1")
    if l > MAX_COVER_BOUND:
        raise CoverBoundError(f"cover bound exceeds MAX_COVER_BOUND = {MAX_COVER_BOUND}")
    base = list(base)
    admissible = [e for e in registry if e.rank >= gamma]
    cover: list[BranchIndex] = []
    covered = set().union(*(b.elements_upto(l) for b in base))
    for n in range(1, l + 1):
        if n in covered:
            continue
        # the least-ranked admissible entry through n's word; no branch of
        # base or cover passes through it, or n would be covered
        length = (n + 1).bit_length() - 1
        chosen = next((e for e in admissible if e.element(length) == n), None)
        if chosen is None:
            chosen = registry.mint_through(decode_code(n), gamma)
        cover.append(chosen)
        covered.update(chosen.elements_upto(l))
    return cover


def make_registry(
    specs: Sequence[tuple[str, str] | tuple[str, str, int | None] | tuple[str, str, int | None, str]],
) -> Registry:
    """Build a registry from (pre, period[, rank[, label]]) tuples.

    A missing (or ``None``) rank is one above the previous entry's, 0 for the
    first.  Explicit labels are kept, and each unlabelled entry (a missing
    or empty label) takes `default_label`'s label against them and the
    labels before it.
    """
    taken = {spec[3] for spec in specs if len(spec) > 3}
    registry = Registry()
    for pre, period, *rest in specs:
        rank = rest[0] if rest and rest[0] is not None else registry.max_rank() + 1
        label = (rest[1] if len(rest) > 1 else "") or default_label(rank, taken)
        taken.add(label)
        registry.add(BranchIndex(pre, period, rank, label))
    return registry
