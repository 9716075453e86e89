"""Complete one-weight partition sets with provenance, and JSONL snapshots.

A snapshot file holds one JSON object per line::

    {"n": 6, "parts": [3, 2, 1], "tag": "AddedUnit"}

Tags record which rule emitted each partition; a snapshot written after an
evolution run is valid input for resuming it.
"""

from __future__ import annotations

import json
from codecs import charmap_encode
from itertools import chain, filterfalse, islice, repeat
from operator import getitem, gt, itemgetter, lt
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
# json.loads builds a new string for every tag it reads; a read level
# holds these constants instead, one object per tag.
_SHARED_TAG = {tag: tag for tag in TAG_ORDER}.__getitem__

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

    ``tags`` is parallel to the members and records provenance;
    ``method_tag`` records which pipeline produced the level.

    Members are held as member strings, one code point per part (see
    ``core.encode_parts``).  ``partitions`` wraps them anew on each
    access.  A level built with tags (by ``seed`` or from a snapshot)
    keeps them; one built without (by ``from_raw`` after evolving, or by
    the oracle) derives them on first access from the rule that grew it:
    the appended-unit successors are exactly the members ending in 1,
    method 2's explicit member is the single part, and every other member
    is of the method's second kind.
    """

    __slots__ = ("_n", "_method_tag", "_raw", "_tags")

    def __init__(self, n: int, members: list[str],
                 tags: tuple[str, ...] | None, method_tag: str) -> None:
        """A Level over ``members``, which must already be in canonical
        order; the order is checked, not restored."""
        if n < 0:
            raise ValueError(f"level weight must be nonnegative, got {n}")
        if method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {method_tag!r}")
        if tags is not None and len(tags) != len(members):
            raise ValueError("tags and partitions must be parallel")
        check_members(n, members)
        self._n = n
        self._method_tag = method_tag
        self._raw = members
        self._tags = tags

    @property
    def n(self) -> int:
        return self._n

    @property
    def method_tag(self) -> str:
        return self._method_tag

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return tuple(map(Partition._from_canonical,
                         map(decode_member, self._raw), repeat(self._n)))

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
        return cls(0, [""], (TAG_SEED,), method_tag)

    @classmethod
    def from_raw(cls, n: int, members: Iterable[str],
                 tags: Iterable[str] | None, method_tag: str) -> "Level":
        """Sort raw kernel output into a validated Level.

        With ``tags`` None the level derives its tags from its parts (see
        the class docstring); otherwise each tag stays attached to its
        member through the sort.
        """
        if tags is None:
            return cls(n, sorted(members, reverse=True), None, method_tag)
        pairs = sorted(zip(members, tags), key=itemgetter(0), reverse=True)
        return cls(n, [member for member, _ in pairs],
                   tuple([tag for _, tag in pairs]), method_tag)

    def raw_members(self) -> list[str]:
        """Member strings in level order."""
        return list(self._raw)

    def tag_counts(self) -> dict[str, int]:
        """Provenance breakdown in fixed TAG_ORDER, zero counts omitted."""
        tags = self.tags
        counts = {tag: tags.count(tag) for tag in TAG_ORDER}
        return {tag: count for tag, count in counts.items() if count}


def check_members(n: int, members: list[str]) -> None:
    """Raise ValueError naming the first member that is not of weight n
    or breaks the strict descent of a level."""
    if _canonical(n, members):
        return
    previous = None
    for member in members:
        weight = sum(map(ord, member))
        if weight != n:
            raise ValueError(f"member {member_text(member)} has weight "
                             f"{weight}, level holds weight {n}")
        if previous is not None and not previous > member:
            raise ValueError("members out of canonical order or duplicated "
                             f"near {member_text(member)}")
        previous = member


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


def _render_table(n: int, first: bytes, rest: bytes) -> list[bytes]:
    # One entry per code point a member of weight n can hold: part k
    # renders as ``k`` followed by ``rest``, and the member separator
    # NUL (never a part) as ``first``.
    table = [b"%d%s" % (part, rest) for part in range(n + 1)]
    table[0] = first
    return table


def _render(chunk: list[str], table: list[bytes]) -> bytes:
    # charmap_encode, the function behind every stdlib charmap codec,
    # looks each code point up in a list table and may emit several bytes
    # for it, all in C.
    return charmap_encode("\0".join(chunk) + "\0", "strict", table)[0]


def write_text(level: Level, stream: IO[str]) -> None:
    """Write one canonical text line per member (``3+2+1``, or ``0`` for
    the empty partition), in level order.

    Each chunk of members is joined with NUL and rendered to bytes in one
    call: part k becomes ``k+`` and the separator a newline, so a single
    ``replace`` of ``+`` before each newline finishes every line.
    """
    raw = level._raw
    if level.n == 0:
        stream.write("0\n" * len(raw))
        return
    table = _render_table(level.n, b"\n", b"+")
    for start in range(0, len(raw), _WRITE_CHUNK):
        text = _render(raw[start:start + _WRITE_CHUNK], table)
        stream.write(text.replace(b"+\n", b"\n").decode("ascii"))


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
    table = _render_table(level.n, b"\0", b", ")
    for start in range(0, len(raw), _WRITE_CHUNK):
        stop = start + _WRITE_CHUNK
        parts = (_render(raw[start:stop], table).replace(b", \0", b"\0")
                 .decode("ascii").split("\0"))
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


# Nonblank lines per bulk pass of the snapshot reader.  Records are held
# one chunk at a time: held all at once, the garbage collector's passes
# over them cost what the bulk checks save, and they raise the peak RSS.
_READ_CHUNK = 2048

def read_snapshot(stream: Iterable[str], *, method_tag: str,
                  expected_n: int | None = None) -> Level:
    """Read and validate a snapshot, returning the Level it describes.

    Every line must be text with a UTF-8 form, and carry the same weight
    (and match ``expected_n`` when given), canonical non-increasing
    positive parts, and a known tag that some rule gives those parts (see
    ``_tag_fits``); no partition may repeat.  Violations raise
    SnapshotError naming the line.

    The lines are checked in bulk, a chunk at a time.  On any failure the
    per-line scan reruns over them; it alone words the error.
    """
    lines = list(stream)
    try:
        found = _read_chunks(lines, expected_n)
    # What malformed input raises on its way through json.loads, the field
    # lookups, set() and bytes(); the scan words the error.
    except (KeyError, RecursionError, TypeError, ValueError):
        found = None
    if found is None:
        return _scan_lines(lines, method_tag, expected_n)
    level_n, members, tags = found
    return Level.from_raw(level_n, members, tags, method_tag)


def _read_chunks(lines: list[str], expected_n: int | None
                 ) -> tuple[int, list[str], list[str]] | None:
    """The weight, members and tags of a snapshot that passes every check
    ``_scan_lines`` makes, checked a chunk at a time with whole-list
    built-ins; None, or an exception, when some check fails."""
    members: list[str] = []
    tags: list[str] = []
    level_n = expected_n
    nonblank = filterfalse(str.isspace, lines)
    while chunk := list(islice(nonblank, _READ_CHUNK)):
        text = "".join(chunk)
        # A lone surrogate, as the CLI reads an undecodable byte, has no
        # UTF-8 form.
        text.encode("utf-8")
        # JSON true and false load as bool, an int subclass that sum() and
        # bytes() take for 1 and 0.  Without either literal, no field
        # holds one.
        if "true" in text or "false" in text:
            return None
        records = list(map(json.loads, chunk))
        if set(map(type, records)) != {dict}:
            return None
        weights = list(map(itemgetter("n"), records))
        chunk_parts = list(map(itemgetter("parts"), records))
        chunk_tags = list(map(itemgetter("tag"), records))
        del records
        if level_n is None:
            level_n = weights[0]
        if (set(map(type, weights)) != {int} or set(weights) != {level_n}
                or not SNAPSHOT_TAGS.issuperset(chunk_tags)
                or set(map(type, chunk_parts)) != {list}):
            return None
        # Every member followed by NUL, never a part.  bytes() refuses a
        # part that is not an int or lies past 255, so a level with larger
        # parts is left to the scan, as in _canonical; a part 0 adds a NUL.
        joined = bytes(chain.from_iterable(chain.from_iterable(
            zip(chunk_parts, repeat((0,))))))
        if joined.count(0) != len(chunk_parts):
            return None
        # Positive parts summing to level_n also make it nonnegative.
        if set(map(sum, chunk_parts)) != {level_n}:
            return None
        # The parts descend when the only ascents are from each separator
        # into the next member's first part (none at weight 0, where every
        # member is empty).
        if sum(map(lt, joined, joined[1:])) != (
                len(chunk_parts) - 1 if level_n else 0):
            return None
        chunk_members = joined.decode("latin-1").split("\0")[:-1]
        # _tag_fits reads only a member's length and last part, so one
        # member of each (tag, length, last part) stands for the rest.
        shapes = dict(zip(zip(chunk_tags, map(len, chunk_members),
                              map(getitem, chunk_members,
                                  repeat(slice(-1, None)))),
                          chunk_members))
        if not all(tag == TAG_SEED or _tag_fits(tag, list(map(ord, member)))
                   for (tag, _, _), member in shapes.items()):
            return None
        members += chunk_members
        tags += map(_SHARED_TAG, chunk_tags)
    if not members or len(set(members)) != len(members):
        return None
    return level_n, members, tags


def _scan_lines(lines: Iterable[str], method_tag: str,
                expected_n: int | None) -> Level:
    """``read_snapshot`` one line at a time, raising SnapshotError at the
    first line that fails a check."""
    members: list[str] = []
    tags: list[str] = []
    seen: set[str] = set()
    level_n = expected_n

    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise SnapshotError(f"line {lineno}: not valid UTF-8") from None
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
        tags.append(_SHARED_TAG(tag))

    if not members:
        raise SnapshotError("snapshot is empty")
    assert level_n is not None
    return Level.from_raw(level_n, members, tags, method_tag)
