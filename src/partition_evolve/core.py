"""Canonical partition values, their text format, ordering, the member
encoding that levels and kernels work in, and the two kind tests on
lists of member strings that drive the successor rules.

Everything here is an immutable value; instances can be shared freely
across threads.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Iterable, Iterator


# The largest part a member string can hold: the last Unicode code point.
MAX_PART = 0x10FFFF

# Error messages quote at most this much of text they refuse.
_QUOTED_CHARS = 40


class InvalidPartitionError(ValueError):
    """Raised when input cannot be read as a partition."""


class NoPredecessorError(ValueError):
    """Raised when a partition has no predecessor under the chosen method."""


class Kind(enum.Enum):
    """Two-way split of the partitions of a weight.

    Each generation method defines its own split: partitions of the first
    kind grow exactly one successor (append a unit), partitions of the
    second kind grow two.
    """

    FIRST = "FirstKind"
    SECOND = "SecondKind"


@functools.total_ordering
class Partition:
    """A partition of a nonnegative integer: positive parts, non-increasing.

    The empty partition represents 0 and renders as ``"0"``; every other
    partition renders as the ``"+"``-joined parts, e.g. ``"3+2+1"``.
    Ordering is by weight first, then descending-lexicographic on the
    parts, which matches the conventional listing (``5`` before ``4+1``
    before ``3+2`` ...).
    """

    __slots__ = ("_parts", "_weight")

    def __init__(self, parts: Iterable[int] = ()) -> None:
        items = list(parts)
        for part in items:
            # type() and not isinstance(): bool is an int subclass, and
            # True must not pass for the part 1.
            if type(part) is not int or part < 1:
                raise InvalidPartitionError(
                    f"parts must be positive integers, got {part!r}")
        items.sort(reverse=True)
        self._parts = tuple(items)
        self._weight = sum(items)

    @classmethod
    def _from_canonical(cls, parts: tuple[int, ...],
                        weight: int | None = None) -> "Partition":
        # Fast path for trusted, already non-increasing part tuples.
        self = object.__new__(cls)
        self._parts = parts
        self._weight = sum(parts) if weight is None else weight
        return self

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return self._weight

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __getitem__(self, index):
        return self._parts[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        # The parts are swapped: within one weight, larger parts lead.
        return (self._weight, other._parts) < (other._weight, self._parts)

    def __str__(self) -> str:
        return format_parts(self._parts)

    def __repr__(self) -> str:
        return f"Partition('{self}')"


def format_parts(parts: tuple[int, ...]) -> str:
    """Canonical text of a part tuple: ``"3+2+1"``, or ``"0"`` when empty."""
    return "+".join(map(str, parts)) if parts else "0"


def encode_parts(parts: Iterable[int]) -> str:
    """The member string of a part sequence: one code point per part.

    ``3+2+1`` is held as ``"\\x03\\x02\\x01"`` and the empty partition as
    ``""``.  Code points compare like the ints they stand for, so members
    sort and compare exactly as their part tuples do, and NUL, never a
    part, is free to separate members.  Parts must lie in 1..MAX_PART;
    chr() refuses larger ones.
    """
    return "".join(map(chr, parts))


def partition_member(p: Partition) -> str:
    """The member string of ``p``, refusing a part no member can hold."""
    if p.parts and p.parts[0] > MAX_PART:
        raise InvalidPartitionError(
            f"part {p.parts[0]} is past the largest supported part "
            f"{MAX_PART}")
    return encode_parts(p.parts)


def decode_member(member: str) -> tuple[int, ...]:
    """The part tuple of a member string (inverse of ``encode_parts``)."""
    return tuple(map(ord, member))


def member_text(member: str) -> str:
    """Canonical text of a member string, as ``str`` of its Partition."""
    return format_parts(decode_member(member))


def parse_partition(text: str) -> Partition:
    """Parse the canonical text format: ``"a+b+c"`` with positive parts, or ``"0"``.

    Each part is ASCII decimal digits for a positive value, and the parts
    are non-increasing: ``1+2`` is refused, not read as ``2+1``.  Only
    whitespace around the whole text is ignored.
    """
    stripped = text.strip()
    if stripped == "0":
        return Partition()
    if not stripped:
        raise InvalidPartitionError(
            "empty partition text; the weight-0 partition is written '0'")
    values = list(map(decimal_value, stripped.split("+")))
    if None in values:
        raise InvalidPartitionError(
            f"cannot parse partition text {quote_text(text)}")
    if 0 in values:
        raise InvalidPartitionError(
            f"partition text {quote_text(text)} has a part 0; parts are "
            "positive, and the weight-0 partition is written '0'")
    partition = Partition(values)
    if list(partition.parts) != values:
        raise InvalidPartitionError(
            f"the parts of partition text {quote_text(text)} are not "
            "non-increasing")
    return partition


def decimal_value(text: str) -> int | None:
    """The value of ``text`` if it is ASCII decimal digits only, else None.

    ``int()`` alone would also take a sign, ``1_0``, non-ASCII digits and
    surrounding whitespace.  Digits past the interpreter's limit on
    integer length give None too.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _cut(text: str, shown: str) -> str:
    """``shown``, then the length of ``text`` if past 40 characters."""
    return (shown if len(text) <= _QUOTED_CHARS
            else f"{shown}... ({len(text)} characters)")


def quote_text(text: str) -> str:
    """``text`` quoted for an error message: its repr, cut to the first
    40 characters and followed by its length when longer."""
    return _cut(text, repr(text[:_QUOTED_CHARS]))


def quote_value(value: object) -> str:
    """``value``'s repr for an error message, cut as ``quote_text`` is."""
    text = repr(value)
    return _cut(text, text[:_QUOTED_CHARS])


def smallest_part_once(members: list[str]) -> list[str]:
    """The members of method 1's second kind, in order; Q(n) counts them
    in level n.  The smallest part occurs once: a single part, or a last
    part below the one before it.  The empty partition is not one, so
    that evolving weight 0 yields exactly the one partition of 1."""
    return [m for m in members if m[-1:] < m[-2:-1] or len(m) == 1]


def collectable(members: list[str]) -> list[str]:
    """The members of method 2's second kind, in order: u units, 1 <= u <
    the smallest non-unit part.  Partitions with no units, with nothing
    but units, and the empty partition are not."""
    return [m for m in members if (head := m.rstrip("\x01"))
            and 0 < len(m) - len(head) < ord(head[-1])]


def classify_m1(p: Partition) -> Kind:
    """Method-1 kind of ``p``: SECOND iff ``smallest_part_once``."""
    second = smallest_part_once([partition_member(p)])
    return Kind.SECOND if second else Kind.FIRST


def classify_m2(p: Partition) -> Kind:
    """Method-2 kind of ``p``: SECOND iff ``collectable``."""
    second = collectable([partition_member(p)])
    return Kind.SECOND if second else Kind.FIRST
