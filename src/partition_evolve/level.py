"""Complete one-weight partition sets with provenance, and JSONL snapshots.

A snapshot file holds one JSON object per line::

    {"n": 6, "parts": [3, 2, 1], "tag": "AddedUnit"}

Tags record which rule emitted each partition; a snapshot written after an
evolution run is valid input for resuming it.
"""

from __future__ import annotations

import json
from itertools import islice, repeat
from operator import gt, itemgetter
from typing import IO, Iterable

from .core import (MAX_PART, Partition, decode_member, encode_parts,
                   member_text)

TAG_SEED = "Seed"
TAG_ADDED_UNIT = "AddedUnit"
TAG_AUGMENTED = "Augmented"
TAG_COLLECTED = "Collected"
TAG_EXPLICIT = "Explicit"

# Fixed display/reporting order for tag breakdowns.
TAG_ORDER = (TAG_SEED, TAG_ADDED_UNIT, TAG_AUGMENTED, TAG_COLLECTED, TAG_EXPLICIT)
SNAPSHOT_TAGS = frozenset(TAG_ORDER)

METHOD_TAGS = ("method1", "method2", "oracle")

# The tag a method's rule gives the members it grows from a complete level
# that are not appended-unit successors.  Explicit members (method 2's
# single part) are told apart by their length.
SECOND_KIND_TAG = {"method1": TAG_AUGMENTED, "method2": TAG_COLLECTED}

# Members per write when rendering a level; bounds the text held at once.
_WRITE_CHUNK = 8192


class SnapshotError(ValueError):
    """Raised for malformed snapshot input; messages name the offending line."""


class Level:
    """All partitions of one weight, unique and in canonical order.

    ``tags`` is parallel to ``partitions`` and records provenance;
    ``method_tag`` records which pipeline produced the level.

    Members are held as member strings, one code point per part (see
    ``core.encode_parts``).  ``partitions`` wraps them on first access.  A
    level built with tags (by this constructor, by ``seed`` or from a
    snapshot) keeps them; one grown by ``from_raw`` without tags derives
    them on first access from the rule that grew it: the appended-unit
    successors are exactly the members ending in 1, method 2's explicit
    member is the single part, and every other member is of the method's
    second kind.
    """

    __slots__ = ("_n", "_method_tag", "_raw", "_partitions", "_tags")

    def __init__(self, n: int, partitions: Iterable[Partition],
                 tags: Iterable[str], method_tag: str) -> None:
        partitions = tuple(partitions)
        self._setup(n, [encode_parts(p.parts) for p in partitions],
                    tuple(tags), method_tag)
        self._partitions = partitions

    @classmethod
    def _validated(cls, n: int, raw: list[str],
                   tags: tuple[str, ...] | None, method_tag: str) -> "Level":
        """A Level over ``raw``, which must already be in canonical order;
        the order is checked, not restored."""
        self = object.__new__(cls)
        self._setup(n, raw, tags, method_tag)
        self._partitions = None
        return self

    def _setup(self, n: int, raw: list[str],
               tags: tuple[str, ...] | None, method_tag: str) -> None:
        if n < 0:
            raise ValueError(f"level weight must be nonnegative, got {n}")
        if method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {method_tag!r}")
        if tags is not None and len(tags) != len(raw):
            raise ValueError("tags and partitions must be parallel")
        if not _canonical(n, raw):
            previous = None
            for member in raw:
                weight = sum(map(ord, member))
                if weight != n:
                    raise ValueError(
                        f"member {member_text(member)} has weight {weight}, "
                        f"level holds weight {n}")
                if previous is not None and not previous > member:
                    raise ValueError(
                        "members out of canonical order or duplicated near "
                        f"{member_text(member)}")
                previous = member
        self._n = n
        self._method_tag = method_tag
        self._raw = raw
        self._tags = tags

    @property
    def n(self) -> int:
        return self._n

    @property
    def method_tag(self) -> str:
        return self._method_tag

    @property
    def partitions(self) -> tuple[Partition, ...]:
        if self._partitions is None:
            self._partitions = tuple(map(
                Partition._from_canonical, map(decode_member, self._raw),
                repeat(self._n)))
        return self._partitions

    @property
    def tags(self) -> tuple[str, ...]:
        if self._tags is None:
            self._tags = self._derive_tags()
        return self._tags

    def _derive_tags(self) -> tuple[str, ...]:
        raw = self._raw
        if self._n == 0 or self._method_tag == "oracle":
            return (TAG_SEED,) * len(raw)
        second = SECOND_KIND_TAG[self._method_tag]
        if self._method_tag == "method1":
            return tuple([TAG_ADDED_UNIT if member[-1] == "\x01" else second
                          for member in raw])
        return tuple([TAG_ADDED_UNIT if member[-1] == "\x01"
                      else TAG_EXPLICIT if len(member) == 1 else second
                      for member in raw])

    def __len__(self) -> int:
        return len(self._raw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return (self._n == other._n and self._method_tag == other._method_tag
                and self._raw == other._raw and self.tags == other.tags)

    def __hash__(self) -> int:
        return hash((self._n, self._method_tag, len(self._raw)))

    def __repr__(self) -> str:
        return (f"Level(n={self._n}, members={len(self._raw)}, "
                f"method_tag={self._method_tag!r})")

    @classmethod
    def seed(cls, method_tag: str) -> "Level":
        """The weight-0 level: just the empty partition."""
        return cls._validated(0, [""], (TAG_SEED,), method_tag)

    @classmethod
    def from_raw(cls, n: int, members: Iterable[str],
                 tags: Iterable[str] | None, method_tag: str) -> "Level":
        """Sort raw kernel output into a validated Level.

        With ``tags`` None the level derives its tags from its parts (see
        the class docstring); otherwise each tag stays attached to its
        member through the sort.
        """
        if tags is None:
            return cls._validated(n, sorted(members, reverse=True), None,
                                  method_tag)
        pairs = sorted(zip(members, tags), key=itemgetter(0), reverse=True)
        return cls._validated(n, [member for member, _ in pairs],
                              tuple([tag for _, tag in pairs]), method_tag)

    def raw_members(self) -> list[str]:
        """Member strings in level order, the kernels' working
        representation."""
        return list(self._raw)

    def tag_counts(self) -> dict[str, int]:
        """Provenance breakdown in fixed TAG_ORDER, zero counts omitted."""
        tags = self.tags
        counts = {tag: tags.count(tag) for tag in TAG_ORDER}
        return {tag: count for tag, count in counts.items() if count}


def _canonical(n: int, raw: list[str]) -> bool:
    """Whether every member has weight n and the members strictly descend.

    Within one weight, strictly descending members are strictly canonical,
    which implies both sortedness and uniqueness.  The built-ins check the
    whole level in C: a member's weight is the byte sum of its Latin-1
    encoding, and the string comparisons are memcmp.  A part past 255 has
    no Latin-1 byte; such a level answers False here and is checked by the
    caller's per-member scan, which also names the first offender.
    """
    try:
        weights = set(map(sum, map(str.encode, raw, repeat("latin-1"))))
    except UnicodeEncodeError:
        return False
    return weights <= {n} and all(map(gt, raw, islice(raw, 1, None)))


def _render_table(n: int, first: str, rest: str) -> list[str]:
    # One entry per code point a member of weight n can hold: part k
    # renders as ``k`` followed by ``rest``, and the member separator
    # NUL (never a part) as ``first``.
    table = [f"{part}{rest}" for part in range(n + 1)]
    table[0] = first
    return table


def write_text(level: Level, stream: IO[str]) -> None:
    """Write one canonical text line per member (``3+2+1``, or ``0`` for
    the empty partition), in level order.

    Each chunk of members is joined with NUL and rendered by one
    ``str.translate``: part k becomes ``k+`` and the separator a newline,
    so a single ``replace`` of ``+`` before each newline finishes every
    line.
    """
    raw = level._raw
    if level.n == 0:
        stream.write("0\n" * len(raw))
        return
    table = _render_table(level.n, "\n", "+")
    for start in range(0, len(raw), _WRITE_CHUNK):
        chunk = raw[start:start + _WRITE_CHUNK]
        stream.write(("\0".join(chunk) + "\0").translate(table)
                     .replace("+\n", "\n"))


def write_snapshot(level: Level, stream: IO[str]) -> None:
    """Write one JSONL line per member, in level order.

    The lines are formatted directly; their bytes are those of
    ``json.dumps({"n": ..., "parts": [...], "tag": ...})``.  The parts
    lists are rendered as in ``write_text``, then joined with their tags.
    """
    raw = level._raw
    tags = level.tags
    head = '{"n": %d, "parts": [' % level.n
    tail = {tag: '], "tag": %s}\n' % json.dumps(tag) for tag in set(tags)}
    table = _render_table(level.n, "\0", ", ")
    for start in range(0, len(raw), _WRITE_CHUNK):
        stop = start + _WRITE_CHUNK
        parts = (("\0".join(raw[start:stop]) + "\0").translate(table)
                 .replace(", \0", "\0").split("\0"))
        stream.write("".join([head + text + tail[tag] for text, tag
                              in zip(parts, tags[start:stop])]))


def _tag_fits(tag: str, parts: list[int]) -> bool:
    """Whether some rule gives a member with these parts this tag, which
    is any but Seed (the caller accepts Seed first, in one comparison).

    An appended unit ends in 1.  An augmented, collected or explicit last
    part is at least 2; a collected one follows other parts, an explicit
    one stands alone.  A tag of either method fits: evolving a level grown
    by the other rule is valid.
    """
    if not parts:
        return False
    if tag == TAG_ADDED_UNIT:
        return parts[-1] == 1
    if parts[-1] < 2:
        return False
    if tag == TAG_COLLECTED:
        return len(parts) > 1
    if tag == TAG_EXPLICIT:
        return len(parts) == 1
    return True


def read_snapshot(stream: IO[str], *, method_tag: str,
                  expected_n: int | None = None) -> Level:
    """Read and validate a snapshot, returning the Level it describes.

    Every line must carry the same weight (and match ``expected_n`` when
    given), canonical non-increasing positive parts, and a known tag that
    some rule gives those parts (see ``_tag_fits``); no partition may
    repeat.  Violations raise SnapshotError naming the line.
    """
    members: list[str] = []
    tags: list[str] = []
    seen: set[str] = set()
    level_n = expected_n

    for lineno, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        # Besides JSONDecodeError: ValueError for an integer past the
        # interpreter's digit limit, RecursionError for deep nesting.
        except (ValueError, RecursionError) as exc:
            raise SnapshotError(f"line {lineno}: not valid JSON ({exc})") from None
        if not isinstance(record, dict):
            raise SnapshotError(f"line {lineno}: expected a JSON object")
        missing = {"n", "parts", "tag"} - record.keys()
        if missing:
            raise SnapshotError(
                f"line {lineno}: missing field(s) {sorted(missing)}")

        n = record["n"]
        parts = record["parts"]
        tag = record["tag"]
        # type() and not isinstance(): JSON true and false load as bool,
        # an int subclass, and must not pass for 1 and 0.
        if type(n) is not int or n < 0:
            raise SnapshotError(f"line {lineno}: bad weight {n!r}")
        if type(tag) is not str or tag not in SNAPSHOT_TAGS:
            raise SnapshotError(f"line {lineno}: unknown tag {tag!r}")
        if not isinstance(parts, list) or any(
                type(x) is not int or x < 1 for x in parts):
            raise SnapshotError(
                f"line {lineno}: parts must be a list of positive integers")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise SnapshotError(
                f"line {lineno}: parts {parts} are not non-increasing")
        if sum(parts) != n:
            raise SnapshotError(
                f"line {lineno}: parts {parts} sum to {sum(parts)}, not {n}")
        if tag != TAG_SEED and not _tag_fits(tag, parts):
            raise SnapshotError(
                f"line {lineno}: tag {tag!r} does not fit parts {parts}")
        if level_n is None:
            level_n = n
        elif n != level_n:
            raise SnapshotError(
                f"line {lineno}: weight {n} differs from expected {level_n}")

        if parts and parts[0] > MAX_PART:
            raise SnapshotError(
                f"line {lineno}: part {parts[0]} is past the largest "
                f"supported part {MAX_PART}")
        key = encode_parts(parts)
        if key in seen:
            raise SnapshotError(f"line {lineno}: duplicate partition {parts}")
        seen.add(key)
        members.append(key)
        tags.append(tag)

    if not members:
        raise SnapshotError("snapshot is empty")
    assert level_n is not None
    return Level.from_raw(level_n, members, tags, method_tag)
