"""Complete one-weight partition sets with provenance, and JSONL snapshots.

A snapshot file holds one JSON object per line::

    {"n": 6, "parts": [3, 2, 1], "tag": "AddedUnit"}

Tags record which rule emitted each partition; a snapshot written after an
evolution run is valid input for resuming it.
"""

from __future__ import annotations

import json
from itertools import chain, filterfalse, islice, repeat
from operator import gt, itemgetter, lt
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

# Members per bulk pass of the snapshot writer, the weight check and the
# snapshot reader.  Each pass drops its buffers before the next, so a pass
# bounds the memory held at once; the speed barely changes from 1024 to
# 8192 members.  The writer joins each chunk's lines with one "".join, and
# the reader parses each chunk with one json.loads of its lines as a JSON
# array, guarded to prove that the records are exactly the lines (see
# ``_read_chunks``).  The reader holds its parsed records one chunk at a
# time: held all at once, the garbage collector's passes over them cost
# what the bulk checks save, and they raise the peak RSS.
_CHUNK = 2048
# Members per write of text: at weight 50 about 250 KB, several times a
# pipe's buffer, so that a reader finds the pipe full at each read.  With
# writes of 2048 members the reads came in assorted sizes, and the
# benchmark's reader, which allocates 1 MiB per read, grew by about 6 MiB.
_TEXT_CHUNK = 8192


class SnapshotError(ValueError):
    """Raised for malformed snapshot input; messages name the offending line."""


class Level:
    """All partitions of one weight, unique and in canonical order.

    ``tags`` is parallel to the members and records provenance;
    ``method_tag`` records which pipeline produced the level.

    Members are held as member strings, one code point per part (see
    ``core.encode_parts``).  ``partitions`` wraps them anew on each
    access.  The level checks each member's weight, that no part is 0,
    and the strict descent of the members; the order of the parts within
    each member is the caller's promise and is not checked.  A level built
    with tags (by ``seed`` or from a snapshot) keeps them; one built
    without (by ``from_raw`` after evolving, or by the oracle) derives
    them on each access with ``rule_tags``.
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
            return rule_tags(self._n, self._raw, self._method_tag)
        return self._tags

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


def rule_tags(n: int, members: list[str],
              method_tag: str) -> tuple[str, ...]:
    """The tags that the rule of ``method_tag`` gives the members of a
    level of weight n that it grew; Seed at weight 0 and for the oracle.

    The appended-unit successors are exactly the members ending in 1,
    method 2's explicit member is the single part, and every other member
    is of the method's second kind.
    """
    if n == 0 or method_tag == "oracle":
        return (TAG_SEED,) * len(members)
    second = SECOND_KIND_TAG[method_tag]
    if method_tag == "method1":
        return tuple([TAG_ADDED_UNIT if member[-1] == "\x01" else second
                      for member in members])
    return tuple([TAG_ADDED_UNIT if member[-1] == "\x01"
                  else TAG_EXPLICIT if len(member) == 1 else second
                  for member in members])


def check_members(n: int, members: list[str]) -> None:
    """Raise ValueError naming the first member that is not of weight n,
    holds a part 0, or breaks the strict descent of a level."""
    if _canonical(n, members):
        return
    previous = None
    for member in members:
        weight = sum(map(ord, member))
        if weight != n:
            raise ValueError(f"member {member_text(member)} has weight "
                             f"{weight}, level holds weight {n}")
        if "\0" in member:
            raise ValueError(f"member {member_text(member)} has a part 0")
        if previous is not None and not previous > member:
            raise ValueError("members out of canonical order or duplicated "
                             f"near {member_text(member)}")
        previous = member


def _canonical(n: int, raw: list[str]) -> bool:
    """Whether every member has weight n and the members strictly descend.

    Within one weight, strictly descending members are strictly canonical,
    which implies both sortedness and uniqueness.  The built-ins check the
    whole level in C, a chunk at a time: a member's weight is the byte sum
    of its piece of the chunk's Latin-1 encoding, joined and split at NUL,
    and the string comparisons are memcmp.  A member holding NUL splits
    into extra pieces and answers False, as does a part past 255, which
    has no Latin-1 byte; the caller's per-member scan then checks the
    level and names the first offender.
    """
    for start in range(0, len(raw), _CHUNK):
        chunk = raw[start:start + _CHUNK]
        try:
            pieces = "\0".join(chunk).encode("latin-1").split(b"\0")
        except UnicodeEncodeError:
            return False
        if len(pieces) != len(chunk) or not set(map(sum, pieces)) <= {n}:
            return False
    return all(map(gt, raw, islice(raw, 1, None)))


# The byte that never appears in output: padding inside a rendered cell.
_PAD = b"\xff"
# Translate table marking the member separator NUL with 1, parts with 0.
_IS_END = b"\x01" + bytes(255)


def _cell_tables(n: int, sep: bytes,
                 end: bytes) -> tuple[list[bytes], list[bytes]]:
    """``bytes.translate`` tables, one per byte of a rendered cell: those
    of its separator slot, looked up by a code's pair value (see
    ``_render``), then those of its digit slot, looked up by the code.

    The separator slot holds ``sep`` between two parts, ``end`` at each
    member separator NUL, and nothing before a member's first part.  The
    digit slot holds a part's digits, right-aligned to the largest part a
    member of weight n holds, and nothing for NUL.  Every unused byte of a
    cell is ``_PAD``.
    """
    width = len(sep)
    digits = len(str(min(n, 255)))
    # By pair value: a part after a part, a NUL after a part, a part after
    # a NUL, a NUL after a NUL (the empty member).
    slots = [sep, end.ljust(width, _PAD), _PAD * width, end.ljust(width, _PAD)]
    slots += [_PAD * width] * (256 - len(slots))
    parts = [_PAD * digits]
    parts += [(b"%d" % part).rjust(digits, _PAD) for part in range(1, 256)]
    return ([bytes(column) for column in zip(*slots)],
            [bytes(column) for column in zip(*parts)])


def _render(chunk: list[str],
            tables: tuple[list[bytes], list[bytes]]) -> str | None:
    """The members of ``chunk`` rendered with ``_cell_tables``, each
    followed by its end marker; None when some part is past 255.

    The chunk is encoded once, one Latin-1 code per part and a NUL after
    each member.  A code's pair value is 1 if it is a NUL, plus 2 if the
    code before it is (or it is the first).  The pair values come from one
    sum of big-endian integers, whose bytes are 0, 1 or 2 and never carry.
    Each byte position of the fixed-width cells is then filled by one
    strided slice assignment from the translated pair values or codes, and
    dropping the padding finishes the text.
    """
    try:
        codes = ("\0".join(chunk) + "\0").encode("latin-1")
    except UnicodeEncodeError:
        return None
    ends = int.from_bytes(codes.translate(_IS_END), "big")
    before = (ends >> 8) + (1 << 8 * (len(codes) - 1))
    pairs = (ends + 2 * before).to_bytes(len(codes), "big")
    slot_tables, part_tables = tables
    width = len(slot_tables) + len(part_tables)
    cells = bytearray(width * len(codes))
    for i, table in enumerate(slot_tables):
        cells[i::width] = pairs.translate(table)
    for i, table in enumerate(part_tables, len(slot_tables)):
        cells[i::width] = codes.translate(table)
    return cells.translate(None, _PAD).decode("ascii")


def write_text(level: Level, stream: IO[str]) -> None:
    """Write one canonical text line per member (``3+2+1``, or ``0`` for
    the empty partition), in level order.

    Each chunk of members is rendered in bulk (see ``_render``), with
    ``+`` between parts and a newline after each member; a chunk with a
    part past 255 is formatted a member at a time.
    """
    raw = level._raw
    if level.n == 0:
        stream.write("0\n" * len(raw))
        return
    tables = _cell_tables(level.n, b"+", b"\n")
    for start in range(0, len(raw), _TEXT_CHUNK):
        chunk = raw[start:start + _TEXT_CHUNK]
        stream.write(_render(chunk, tables) or "".join(
            [member_text(member) + "\n" for member in chunk]))


def write_snapshot(level: Level, stream: IO[str]) -> None:
    """Write one JSONL line per member, in level order.

    The lines are formatted directly; their bytes are those of
    ``json.dumps({"n": ..., "parts": [...], "tag": ...})``.  The parts
    lists are rendered as in ``write_text``, with ``, `` between parts.
    Each chunk's pieces (head, parts, tail by tag, three per line) are
    placed in one list by strided slice assignment and written with one
    join.
    """
    raw = level._raw
    tags = level.tags
    head = '{"n": %d, "parts": [' % level.n
    tail = {tag: '], "tag": %s}\n' % json.dumps(tag) for tag in set(tags)}
    tables = _cell_tables(level.n, b", ", b"\0")
    for start in range(0, len(raw), _CHUNK):
        stop = start + _CHUNK
        chunk = raw[start:stop]
        rendered = _render(chunk, tables)
        if rendered is None:
            parts = [", ".join(map(str, map(ord, member))) for member in chunk]
        else:
            parts = rendered.split("\0")[:-1]
        pieces = [head] * (3 * len(parts))
        pieces[1::3] = parts
        pieces[2::3] = map(tail.__getitem__, tags[start:stop])
        stream.write("".join(pieces))


def _tags_fit(n: int, members: list[str], tags: Iterable[str]) -> bool:
    """Whether each tag is Seed or the tag that either rule gives its
    member (see ``rule_tags``): evolving a level grown by the other rule
    is valid."""
    shapes = set(zip(tags, rule_tags(n, members, "method1"),
                     rule_tags(n, members, "method2")))
    return all(tag in (TAG_SEED, one, two) for tag, one, two in shapes)


def read_snapshot(stream: Iterable[str], *, method_tag: str,
                  expected_n: int | None = None) -> Level:
    """Read and validate a snapshot, returning the Level it describes.

    Every line must be text with a UTF-8 form, and carry the same weight
    (and match ``expected_n`` when given), canonical non-increasing
    positive parts, and a known tag that fits those parts (see
    ``_tags_fit``); no partition may repeat.  Violations raise
    SnapshotError naming the line.

    The lines are parsed in bulk, with one ``json.loads`` per chunk of
    ``_CHUNK`` nonblank lines, into a Level, which checks the weights and
    the uniqueness of its members; then its tags are checked.  A chunk is
    parsed whole only when a guard proves that its records are exactly its
    lines, one flat object per line (see ``_read_chunks``).  On any
    failure, the guard's included, the per-line scan reruns over the
    lines; it alone words the error.
    """
    lines = list(stream)
    try:
        level = Level.from_raw(*_read_chunks(lines, expected_n), method_tag)
    # What malformed input raises on its way through json.loads, the field
    # lookups, set(), bytes() and the level's own checks.
    except (KeyError, RecursionError, TypeError, ValueError):
        level = None
    if level is None or not _tags_fit(level.n, level._raw, level.tags):
        return _scan_lines(lines, method_tag, expected_n)
    return level


def _read_chunks(lines: list[str], expected_n: int | None
                 ) -> tuple[int, list[str], list[str]]:
    """The weight, members and tags of the nonblank lines, parsed a chunk
    at a time with whole-list built-ins.

    Each chunk is parsed by one ``json.loads`` of its lines joined into a
    JSON array, after a guard: each line starts with ``{`` and, stripped
    on the right, ends with ``}``, and the chunk holds as many of each
    brace as it has lines.  Each line's only braces are then its first
    and last characters, so every element of the array starts at a line's
    ``{``, and as many elements as lines are the lines themselves, one
    record each; the parse must give that many.  A record split across
    lines or sharing one, a brace in a string, a nested object or leading
    whitespace fails the guard, and whitespace that ``str.strip`` removes
    but JSON refuses fails the parse; the scan reads these.

    Each line must be a JSON object with the weight of the others (and
    ``expected_n``), a known tag, and non-increasing parts from 1 to 255;
    otherwise this raises ValueError, or what the malformed input raises
    on its way.  The members' weights and uniqueness are left to the
    Level, and the tags to ``_tags_fit``.
    """
    members: list[str] = []
    tags: list[str] = []
    level_n = expected_n
    nonblank = filterfalse(str.isspace, lines)
    while chunk := list(islice(nonblank, _CHUNK)):
        # The one copy of the chunk's text that the checks and the parse
        # share: two held at once raise the peak RSS.
        text = "[" + ",".join(chunk) + "]"
        # A lone surrogate, as the CLI reads an undecodable byte, has no
        # UTF-8 form.
        text.encode("utf-8")
        # JSON true and false load as bool, an int subclass that bytes()
        # takes for 1 and 0.  Without either literal, no field holds one.
        if "true" in text or "false" in text:
            raise ValueError("a JSON boolean")
        if (text.count("{") != len(chunk) or text.count("}") != len(chunk)
                or not all(map(str.startswith, chunk, repeat("{")))
                or not all(map(str.endswith, map(str.rstrip, chunk),
                               repeat("}")))):
            raise ValueError("not one flat object per line")
        records = json.loads(text)
        if len(records) != len(chunk):
            raise ValueError("not one JSON object per line")
        weights = list(map(itemgetter("n"), records))
        chunk_parts = list(map(itemgetter("parts"), records))
        chunk_tags = list(map(itemgetter("tag"), records))
        del records
        if level_n is None:
            level_n = weights[0]
        if (set(map(type, weights)) != {int} or set(weights) != {level_n}
                or not SNAPSHOT_TAGS.issuperset(chunk_tags)
                or set(map(type, chunk_parts)) != {list}):
            raise ValueError("a bad field")
        # Every member followed by NUL, never a part.  bytes() refuses a
        # part that is not an int or lies past 255, so a level with larger
        # parts is left to the scan, as in _canonical.  A part 0 adds a
        # NUL; the count keeps the members one per line.
        joined = bytes(chain.from_iterable(chain.from_iterable(
            zip(chunk_parts, repeat((0,))))))
        # The parts descend when the only ascents are from each separator
        # into the next member's first part.  An empty member breaks that
        # count only at weight 0, where every member is empty; at any
        # other weight the level refuses it.
        if joined.count(0) != len(chunk_parts) or sum(
                map(lt, joined, joined[1:])) != (
                    len(chunk_parts) - 1 if level_n else 0):
            raise ValueError("bad parts")
        members += joined.decode("latin-1").split("\0")[:-1]
        tags += map(_SHARED_TAG, chunk_tags)
    if not members:
        raise ValueError("no members")
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
        if parts and parts[0] > MAX_PART:
            raise SnapshotError(
                f"line {lineno}: part {parts[0]} is past the largest "
                f"supported part {MAX_PART}")
        key = encode_parts(parts)
        if not _tags_fit(n, [key], [tag]):
            raise SnapshotError(
                f"line {lineno}: tag {tag!r} does not fit parts {parts}")
        if level_n is None:
            level_n = n
        elif n != level_n:
            raise SnapshotError(
                f"line {lineno}: weight {n} differs from expected {level_n}")
        if key in seen:
            raise SnapshotError(f"line {lineno}: duplicate partition {parts}")
        seen.add(key)
        members.append(key)
        tags.append(_SHARED_TAG(tag))

    if not members:
        raise SnapshotError("snapshot is empty")
    assert level_n is not None
    return Level.from_raw(level_n, members, tags, method_tag)
