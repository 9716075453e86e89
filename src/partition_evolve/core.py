"""Canonical partition values, their text format, ordering, the two
kind classifiers that drive the successor rules, and the member encoding
that levels and kernels work in.

Everything here is an immutable value; instances can be shared freely
across threads.
"""

from __future__ import annotations

import enum
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

    def __lt__(self, other: "Partition") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Partition") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Partition") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Partition") -> bool:
        return compare(self, other) >= 0

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


def make_partition(raw: Iterable[int]) -> Partition:
    """Canonicalize any finite sequence of positive integers into a Partition."""
    return Partition(raw)


def parse_partition(text: str) -> Partition:
    """Parse the canonical text format: ``"a+b+c"`` with positive parts, or ``"0"``.

    Each part is ASCII decimal digits; only whitespace around the whole
    text is ignored.
    """
    stripped = text.strip()
    if stripped == "0":
        return Partition()
    if not stripped:
        raise InvalidPartitionError(
            "empty partition text; the weight-0 partition is written '0'")
    values = list(map(decimal_value, stripped.split("+")))
    if None not in values:
        return Partition(values)
    raise InvalidPartitionError(
        f"cannot parse partition text {quote_text(text)}")


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


def quote_text(text: str) -> str:
    """``text`` quoted for an error message: its repr, cut to the first
    40 characters and followed by its length when longer."""
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def compare(a: Partition, b: Partition) -> int:
    """Total order: weight ascending, then parts descending-lexicographic.

    Returns -1, 0 or 1.  Within one weight no parts tuple is a prefix of
    another (their sums would differ), so the lexicographic comparison
    always resolves.
    """
    if a._weight != b._weight:
        return -1 if a._weight < b._weight else 1
    if a._parts == b._parts:
        return 0
    return -1 if a._parts > b._parts else 1


def unit_count(p: Partition) -> int:
    """Number of parts equal to 1 (a trailing run, since parts are sorted)."""
    return p.parts.count(1)


def classify_m1(p: Partition) -> Kind:
    """Method-1 kind: SECOND iff single-part, or the last two parts differ.

    Equivalently, SECOND iff the smallest part occurs exactly once.  The
    empty partition is FIRST so that evolving weight 0 yields exactly the
    one partition of 1.
    """
    parts = p.parts
    k = len(parts)
    if k == 0:
        return Kind.FIRST
    if k == 1 or parts[k - 1] < parts[k - 2]:
        return Kind.SECOND
    return Kind.FIRST


def classify_m2(p: Partition) -> Kind:
    """Method-2 kind, by the unit count against the smallest non-unit part.

    With ``u`` units (parts equal to 1) and smallest non-unit part ``m``:
    SECOND iff 1 <= u < m.  Partitions with no units, with nothing but
    units, and the empty partition are all FIRST.
    """
    return kind_m2(p.parts, unit_count(p))


def kind_m2(parts: tuple[int, ...], units: int) -> Kind:
    """``classify_m2`` for parts whose unit count is already known."""
    if units == 0 or units == len(parts):
        return Kind.FIRST
    smallest_non_unit = parts[-units - 1]
    return Kind.SECOND if units < smallest_non_unit else Kind.FIRST
