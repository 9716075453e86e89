"""Complete one-weight partition sets with provenance, and JSONL snapshots.

A snapshot file holds one JSON object per line::

    {"n": 6, "parts": [3, 2, 1], "tag": "AddedUnit"}

Tags record which rule emitted each partition.  One rule tags a whole
level (see ``rule_tags``), so a level stores no tags; a snapshot written
after an evolution run is valid input for resuming it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, filterfalse, islice, repeat
from operator import gt, itemgetter, lt
from struct import pack
from typing import IO, Callable, Iterable, Iterator, Sequence
from zlib import adler32

from .core import (MAX_PART, Partition, decode_member, encode_parts,
                   member_text, quote_text, quote_value)

TAG_SEED = "Seed"
TAG_ADDED_UNIT = "AddedUnit"
TAG_AUGMENTED = "Augmented"
TAG_COLLECTED = "Collected"
TAG_EXPLICIT = "Explicit"

# Fixed display/reporting order for tag breakdowns.
TAG_ORDER = (TAG_SEED, TAG_ADDED_UNIT, TAG_AUGMENTED, TAG_COLLECTED, TAG_EXPLICIT)

METHOD_TAGS = ("method1", "method2", "oracle")

# The tag a method's rule gives the members it grows from a complete level
# that are not appended-unit successors.  Explicit members (method 2's
# single part) are told apart by their length.
SECOND_KIND_TAG = {"method1": TAG_AUGMENTED, "method2": TAG_COLLECTED}

# Members per bulk pass of the snapshot writer, the weight check and the
# snapshot reader.  Each pass drops its buffers before the next, so a pass
# bounds the memory held at once; the speed barely changes from 1024 to
# 8192 members.  The writer renders each chunk with one ``_snapshot_lines``;
# the reader cuts each chunk's text into parts and tags with whole-chunk
# string methods, parses all its parts with one ``bytes`` of a C-level map,
# and takes the chunk only when ``_snapshot_lines`` writes the parsed
# members and tags back as its own text (see ``_read_chunks``).  The weight
# check sums each chunk's members with one adler32 each (see
# ``_canonical``).  A chunk of method 1's blocks holds about half as many
# members when the snapshot writer renders it, at most this many and one
# block (see ``_block_chunks``), and at most this many when blocks that
# fail their certificate are assembled and checked (see ``_walked``).
_CHUNK = 2048
# Members per render of text, and per write of a Level's text: at weight
# 50 about 250 KB, several times a pipe's buffer, so that a reader finds
# the pipe full at each read.  With writes of 2048 members the reads came
# in assorted sizes, and the benchmark's reader, which allocates 1 MiB per
# read, grew by about 6 MiB.
_TEXT_CHUNK = 8192
# Characters per write of blocks' text.  Each chunk of blocks renders to a
# text of its own size, and writing those as they came gave the reader
# assorted reads again: on evolve-m2-text the benchmark's child, which
# inherits its reader's peak, read 23.8 MiB against 22.1 MiB with slices
# of exactly this size (medians of 5 alternated pairs, 2-core host).
# Slices of 128 K characters raised the peak of ``evolve 0 60 --method
# 1`` to text by 0.36 MiB, where these left it unchanged.
_TEXT_SLICE = 1 << 16


class SnapshotError(ValueError):
    """Raised for malformed snapshot input; messages name the offending line."""


class Level:
    """All partitions of one weight, unique and in canonical order.

    ``method_tag`` records which pipeline produced the level, and so the
    rule whose tags ``tags`` derives from the parts on each access (see
    ``rule_tags``).  Levels are equal when their weights, members and
    tags are: at weights 0 and 1 several rules give the same tags.

    Members are held as member strings, one code point per part (see
    ``core.encode_parts``).  ``partitions`` wraps them anew on each
    access.  The level checks each member's weight, that no part is 0,
    and the strict descent of the members; the order of the parts within
    each member is the caller's promise and is not checked.
    """

    __slots__ = ("_n", "_method_tag", "_raw")

    def __init__(self, n: int, members: list[str], method_tag: str,
                 below: Joined | None = None) -> None:
        """A Level over ``members``, which must already be in canonical
        order; the order is checked, not restored.  With ``below``, level
        n-1 held as text, the members that end in a unit are proven by
        one comparison with it (see ``check_members``)."""
        if n < 0:
            raise ValueError(f"level weight must be nonnegative, got {n}")
        if method_tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {method_tag!r}")
        check_members(n, members, below)
        self._n = n
        self._method_tag = method_tag
        self._raw = members

    @classmethod
    def _proven(cls, n: int, members: list[str], method_tag: str) -> "Level":
        """A Level over ``members``, which a check has already proven to be
        one of weight n: they are not checked again."""
        level = cls.__new__(cls)
        level._n, level._method_tag, level._raw = n, method_tag, members
        return level

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
        return rule_tags(self._n, self._raw, self._method_tag)

    def __len__(self) -> int:
        return len(self._raw)

    def check(self) -> int:
        """The number of members, which the constructor checked."""
        return len(self._raw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Level):
            return NotImplemented
        return (self._n == other._n and self._raw == other._raw
                and (self._method_tag == other._method_tag
                     or self.tags == other.tags))

    def __hash__(self) -> int:
        return hash((self._n, len(self._raw)))

    def __repr__(self) -> str:
        return (f"Level(n={self._n}, members={len(self._raw)}, "
                f"method_tag={self._method_tag!r})")

    @classmethod
    def seed(cls, method_tag: str) -> "Level":
        """The weight-0 level: just the empty partition."""
        return cls(0, [""], method_tag)

    @classmethod
    def from_raw(cls, n: int, members: Iterable[str],
                 method_tag: str) -> "Level":
        """Sort raw kernel output into a validated Level.  A list is
        sorted in place and becomes the level's own, so that no second
        list of its members is held while it is sorted and checked."""
        members = members if isinstance(members, list) else list(members)
        members.sort(reverse=True)
        return cls(n, members, method_tag)

    def raw_members(self) -> list[str]:
        """The level's own list of member strings, in order; read-only."""
        return self._raw

    def tag_counts(self) -> dict[str, int]:
        """Provenance breakdown in fixed TAG_ORDER, zero counts omitted."""
        return _in_tag_order(Counter(self.tags))

    def tagged(self, method_tag: str) -> "Level":
        """The same members, tagged by ``method_tag``'s rule."""
        return Level._proven(self._n, self._raw, method_tag)


def _in_tag_order(counts: Counter) -> dict[str, int]:
    """``counts`` of tags in fixed TAG_ORDER, zero counts omitted."""
    return {tag: counts[tag] for tag in TAG_ORDER if counts[tag]}


def rule_tags(n: int, members: list[str], method_tag: str,
              prefixed: bool = False) -> tuple[str, ...]:
    """The tags that the rule of ``method_tag`` gives the members of a
    level of weight n that it grew; Seed at weight 0 and for the oracle.

    The appended-unit successors are exactly the members ending in 1,
    method 2's explicit member is the single part, and every other member
    is of the method's second kind.  With ``prefixed``, ``members`` are
    the ends of members that hold parts before them, so none is a single
    part: a block's table members after its prefix.
    """
    if n == 0 or method_tag == "oracle":
        return (TAG_SEED,) * len(members)
    second = SECOND_KIND_TAG[method_tag]
    single = (TAG_EXPLICIT if method_tag == "method2" and not prefixed
              else second)
    return tuple([TAG_ADDED_UNIT if member[-1] == "\x01"
                  else single if len(member) == 1 else second
                  for member in members])


def check_members(n: int, members: list[str],
                  below: Joined | None = None) -> None:
    """Raise ValueError naming the first member that is not of weight n,
    holds a part 0, or breaks the strict descent of a level.

    With ``below``, the members of a level of weight n-1 that this check
    passed, held as text, the members that end in a unit are proven by one
    comparison with ``below`` (see ``Joined.split``): level n-1 with a unit
    appended weighs n and holds no part 0.  Only the other members are
    weighed, and the strict descent of the whole list is checked.  When
    any of that fails, the level is checked as without ``below``, which
    words the refusal.
    """
    if below is not None:
        split = below.split(members)
        if (split is not None and _weighs(n, split[1])
                and all(map(gt, members, islice(members, 1, None)))):
            return
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


# The longest member whose adler32 holds its byte sum exactly: the
# checksum's low 16 bits are 1 plus the byte sum modulo 65521, and 1 plus
# 256 bytes of 255 is 65281.
_ADLER_BYTES = 256


def _canonical(n: int, raw: list[str]) -> bool:
    """Whether every member has weight n and the members strictly descend.

    Within one weight, strictly descending members are strictly canonical,
    which implies both sortedness and uniqueness.  The built-ins check the
    whole level in C, a chunk at a time.  A member's weight is the byte sum
    of its piece of the chunk's Latin-1 encoding, joined and split at NUL:
    the low 16 bits of the piece's adler32 are 1 plus that sum while the
    piece holds at most ``_ADLER_BYTES`` bytes.  The chunk's checksums are
    packed as little-endian 32-bit words, and two strides of their bytes
    are compared with the two bytes of 1 + n.  The string comparisons are
    memcmp.  A member holding NUL splits into extra pieces and answers
    False, as do a part past 255, which has no Latin-1 byte, a longer
    piece, and a weight of 65535 or more; the caller's per-member scan then
    checks the level and names the first offender.
    """
    return _weighs(n, raw) and all(map(gt, raw, islice(raw, 1, None)))


def _weighs(n: int, raw: list[str]) -> bool:
    """Whether every member has weight n and no part 0, as ``_canonical``
    weighs them, a chunk at a time."""
    for start in range(0, len(raw), _CHUNK):
        chunk = raw[start:start + _CHUNK]
        try:
            pieces = "\0".join(chunk).encode("latin-1").split(b"\0")
        except UnicodeEncodeError:
            return False
        if len(pieces) != len(chunk) or not _weigh(n, pieces):
            return False
    return True


def _weigh(n: int, pieces: list[bytes]) -> bool:
    """Whether each of ``pieces``, the Latin-1 codes of a member, has the
    byte sum n, by the adler32 of each (see ``_canonical``)."""
    if not 0 <= n < 0xFFFF or max(map(len, pieces), default=0) > _ADLER_BYTES:
        return False
    low, high = (1 + n).to_bytes(2, "little")
    sums = pack("<%dI" % len(pieces), *map(adler32, pieces))
    return (sums[0::4] == bytes([low]) * len(pieces)
            and sums[1::4] == bytes([high]) * len(pieces))


class Joined:
    """A list of member strings held as text, ``size`` members to a chunk:
    each member with a unit appended, NUL-joined.  A level of weight n-1
    held so is the text of the members of level n that end in a unit,
    which ``split`` compares with them in one pass.

    Each chunk's NULs are counted once, as it is joined, and must be only
    its separators: a chunk with a NUL inside a member (a part 0) is held
    empty, which no list of members joins to.  Then a list with as many
    members as a chunk, joined alike, is the chunk's members exactly when
    the texts are equal: its separators fall where the chunk's do.
    """

    __slots__ = ("size", "count", "chunks", "_split")

    def __init__(self, members: list[str], size: int) -> None:
        self.size = size
        self.count = len(members)
        self.chunks = [_checked_text(members[start:start + size])
                       for start in range(0, len(members), size)]
        self._split: tuple[list[str], tuple | None] | None = None

    def members(self) -> list[str]:
        """The members as strings, in order."""
        return [member for chunk in self.chunks
                for member in chunk[:-1].split("\x01\0")]

    def holds(self, members: list[str],
              convert: Callable[[list[str]], list[str]] | None = None
              ) -> bool:
        """Whether ``members`` are these members, in order; with
        ``convert``, whether ``convert`` maps each chunk's worth of
        ``members`` onto that chunk's members, so that no list as long as
        ``members`` is made."""
        if len(members) != self.count:
            return False
        for start, chunk in zip(range(0, self.count, self.size),
                                self.chunks):
            given = members[start:start + self.size]
            out = given if convert is None else convert(given)
            if len(out) != len(given) or _text(out) != chunk:
                return False
        return True

    def split(self, members: list[str]
              ) -> tuple[list[str], list[str]] | None:
        """The members of ``members``, a level of weight n, that end in a
        unit and the others, when the former are these members, level
        n-1, with a unit appended, member for member; otherwise None.
        Computed once for the list last asked about, which the level's
        check and the suite (``verify``) both ask."""
        if self._split is None or self._split[0] is not members:
            units, tops = _unit_split(members)
            size = self.size
            same = len(units) == self.count and all(
                "\0".join(units[start:start + size]) == chunk
                for start, chunk in zip(range(0, self.count, size),
                                        self.chunks))
            self._split = members, (units, tops) if same else None
        return self._split[1]


def _text(members: list[str]) -> str:
    """``members`` each with a unit appended, NUL-joined."""
    return "\x01\0".join(members) + "\x01"


def _checked_text(members: list[str]) -> str:
    """``_text`` of ``members``, or empty when a member holds NUL."""
    text = _text(members)
    return text if text.count("\0") == len(members) - 1 else ""


def _unit_split(members: list[str]) -> tuple[list[str], list[str]]:
    """The members that end in a unit, and the rest, each in order."""
    # One pass over the level: over the 45 splits of ``verify.run_suite(45)``
    # it took 33 ms against 56 ms for two comprehensions (median of 8
    # alternated runs, 2-core host, CPython 3.11).
    units: list[str] = []
    tops: list[str] = []
    for m in members:
        (units if m[-1:] == "\x01" else tops).append(m)
    return units, tops


# The byte that never appears in output: padding inside a rendered cell.
_PAD = b"\xff"
# Translate table marking the member separator NUL with 1, parts with 0.
_IS_END = b"\x01" + bytes(255)
# What ``_render`` formats with: ``_cell_tables``'s translate tables, then
# its separator, end marker and lead as text.
_Tables = tuple[list[bytes], list[bytes], str, str, str]


def _cell_tables(n: int, sep: bytes, end: bytes, lead: bytes = b"") -> _Tables:
    """``bytes.translate`` tables, one per byte of a rendered cell: those
    of its separator slot, looked up by a code's pair value (see
    ``_render``), then those of its digit slot, looked up by the code;
    then ``sep``, ``end`` and ``lead`` decoded.

    The separator slot holds ``sep`` between two parts, ``end`` at each
    member separator NUL, and ``lead`` before a member's first part.  The
    digit slot holds a part's digits, right-aligned to the largest part a
    member of weight n holds, and nothing for NUL.  Every unused byte of a
    cell is ``_PAD``; with an empty lead the slot is as wide as ``sep``.
    """
    width = max(len(sep), len(lead))
    digits = len(str(min(n, 255)))
    # By pair value: a part after a part, a NUL after a part, a part after
    # a NUL, a NUL after a NUL (the empty member).
    slots = [slot.ljust(width, _PAD) for slot in (sep, end, lead, end)]
    slots += [_PAD * width] * (256 - len(slots))
    parts = [_PAD * digits]
    parts += [(b"%d" % part).rjust(digits, _PAD) for part in range(1, 256)]
    return ([bytes(column) for column in zip(*slots)],
            [bytes(column) for column in zip(*parts)],
            sep.decode("ascii"), end.decode("ascii"), lead.decode("ascii"))


def _render(chunk: list[str], tables: _Tables) -> str:
    """The members of ``chunk`` rendered with ``_cell_tables``: each
    member's lead, then its parts in decimal with the separator between
    them, then the end marker.  A chunk with some part past 255 has no
    Latin-1 form, and its members are formatted one at a time, to the same
    text.

    Otherwise the chunk is encoded once, one Latin-1 code per part and a
    NUL after each member.  A code's pair value is 1 if it is a NUL, plus
    2 if the code before it is (or it is the first).  The pair values come
    from one sum of big-endian integers, whose bytes are 0, 1 or 2 and
    never carry.  Each byte position of the fixed-width cells is then
    filled by one strided slice assignment from the translated pair values
    or codes, and dropping the padding finishes the text.
    """
    slot_tables, part_tables, sep, end, lead = tables
    try:
        codes = ("\0".join(chunk) + "\0").encode("latin-1")
    except UnicodeEncodeError:
        return "".join([lead + sep.join(map(str, map(ord, member))) + end
                        for member in chunk])
    ends = int.from_bytes(codes.translate(_IS_END), "big")
    before = (ends >> 8) + (1 << 8 * (len(codes) - 1))
    pairs = (ends + 2 * before).to_bytes(len(codes), "big")
    width = len(slot_tables) + len(part_tables)
    cells = bytearray(width * len(codes))
    for i, table in enumerate(slot_tables):
        cells[i::width] = pairs.translate(table)
    for i, table in enumerate(part_tables, len(slot_tables)):
        cells[i::width] = codes.translate(table)
    return cells.translate(None, _PAD).decode("ascii")


def _snapshot_lines(head: str, tables: _Tables, members: list[str],
                    tags: Sequence[str]) -> str:
    """The snapshot lines of ``members``, tagged by ``tags``: the one
    definition of the line layout, with the bytes of ``json.dumps({"n":
    ..., "parts": [...], "tag": ...})`` and a newline per member, after
    ``head``, ``'{"n": %d, "parts": ['`` with the weight.

    The parts are rendered by ``_render`` with ``tables``,
    ``_cell_tables(n, b", ", b"\\0")``.  The pieces (head, parts, tail
    by tag) are placed by strided slice assignment and joined once.
    """
    parts = _render(members, tables).split("\0")[:-1]
    tail = {tag: '], "tag": %s}\n' % json.dumps(tag) for tag in set(tags)}
    pieces = [head] * (3 * len(parts))
    pieces[1::3] = parts
    pieces[2::3] = map(tail.__getitem__, tags)
    return "".join(pieces)


# How the block writers render: each line's head, the separator between
# parts, and the lines of a table's members given as strings, each after
# the separator when ``after`` (a part of the block's prefix comes first).
_Layout = tuple[str, bytes, Callable[[list[str], bool], list[str]]]


class LevelBlocks:
    """The members of a level of weight n that ``method_tag``'s rule grew,
    in canonical order, as blocks that no check has seen yet.

    Each member m of ``members``, a canonical level of a lower weight,
    gives one block: ``m[:-1]`` followed by each member of its last
    part's canonical table ``table(m[-1])`` whose first part is at most
    ``m[-2]`` (every member, for a single part).  A rule tags a member by
    its last part and by whether it is a single part (see ``rule_tags``),
    so a table member is tagged as the member it ends: as itself in a
    single part's block, and after a prefix as no single part, so that
    method 2's explicit heads of a table are Collected there.  The blocks
    count the keys of ``members`` (``ends``: a member's last two parts,
    or its single part) once, ask ``table`` only for the last parts that
    the keys name, and derive each key's cut: where, as first parts
    descend, the table's first parts fall to at most the key's first.

    ``check`` certifies the level from ``members`` and the tables, not
    member by member.  With k' the weight of the first member of
    ``members``, the certificate holds when ``members`` passes
    ``_canonical(k', ...)``, and each table T_l passes ``_canonical(l + n
    - k', T_l)`` and its last member's first part is at least l (so every
    member's is, as the table descends).  Then every member of the blocks
    weighs (k' - l) + (l + n - k') = n and holds no part 0.  Within a
    block the members descend, as they share a prefix and the table
    descends.  Across blocks they descend too: take consecutive members a
    > b of ``members``, first differing at index i.  Equal weights with
    positive parts rule out i = len(b) - 1 < len(a) - 1.  If i is below
    both prefix lengths, index i decides; if i = len(a) - 1, then b[i] <
    a[-1], which is at most every first part of T_{a[-1]}.  The count is
    the sum over the keys of their counts times their slice lengths.  When
    ``members`` is given as a Level, whose constructor checked it, that
    check stands for the first condition.  When the certificate fails,
    the blocks are assembled a chunk at a time and checked by
    ``check_members`` after the last member of the chunk before, so that
    a refusal is worded as the check of the whole level words it.

    The level is never held: the writers certify the blocks, then render
    them a chunk at a time (see ``_block_chunks``).  They render only what
    a block reads, each table from its lowest cut, so a table member that
    no block reads needs no check.  ``level`` checks before it assembles,
    so a level that fails is refused before it is held.
    """

    __slots__ = ("n", "method_tag", "members", "ends", "tables", "cuts",
                 "_start", "_count")

    def __init__(self, n: int, method_tag: str, members: list[str] | Level,
                 table: Callable[[str], list[str]]) -> None:
        self.n = n
        self.method_tag = method_tag
        self._start = isinstance(members, Level)
        self.members = members.raw_members() if self._start else members
        self.ends = Counter(map(_KEY, self.members))
        lasts = dict.fromkeys(key[-1] for key in self.ends)
        self.tables = {last: table(last) for last in lasts}
        self.cuts = {key: first_at_most(self.tables[key[-1]], ord(key[0]))
                     if len(key) > 1 else 0 for key in self.ends}
        # A member whose block is empty heads no line: no block reads it.
        empty = {key for key, cut in self.cuts.items()
                 if cut == len(self.tables[key[-1]])}
        if empty:
            self.members = [member for member in self.members
                            if member[-2:] not in empty]
        self._count: int | None = None

    def certified(self) -> int | None:
        """The number of members when the certificate holds (or ``check``
        has passed), which ``check`` then returns as it is; otherwise
        None."""
        if self._count is None:
            self._count = _certified(self)
        return self._count

    def check(self) -> int:
        """Raise ValueError as ``check_members`` does for the whole level;
        return the number of members."""
        if self.certified() is None:
            self._count = _walked(self)
        return self._count

    def level(self) -> Level:
        """The members, proven by ``check`` before any is assembled, as a
        Level that does not check them again."""
        self.check()
        return Level._proven(self.n, _assemble(self.members, self.tables,
                                               self.cuts), self.method_tag)

    def __len__(self) -> int:
        """The number of members, from ``check``."""
        return self.check()

    def tag_counts(self) -> dict[str, int]:
        """Provenance breakdown in fixed TAG_ORDER, zero counts omitted:
        each key's count of blocks times the tags of its suffix."""
        counts: Counter = Counter()
        for key, count in self.ends.items():
            suffix = self.tables[key[-1]][self.cuts[key]:]
            for tag, times in Counter(rule_tags(
                    self.n, suffix, self.method_tag,
                    prefixed=len(key) > 1)).items():
                counts[tag] += count * times
        return _in_tag_order(counts)

    def tagged(self, method_tag: str) -> "LevelBlocks":
        """The same blocks, tagged by ``method_tag``'s rule."""
        blocks = LevelBlocks.__new__(LevelBlocks)
        for name in LevelBlocks.__slots__:
            setattr(blocks, name, getattr(self, name))
        blocks.method_tag = method_tag
        return blocks


def first_at_most(members: list[str], part: int) -> int:
    """Where the members of a canonical level whose first part is at most
    ``part`` begin, as first parts descend."""
    return bisect_left(members, -part, key=lambda member: -ord(member[0]))


# The key of a block, its member's last two parts (or its one), and its
# prefix, all parts but the last.
_KEY = itemgetter(slice(-2, None))
_PREFIX = itemgetter(slice(None, -1))


def _certified(blocks: LevelBlocks) -> int | None:
    """The number of members of ``blocks`` when the certificate of
    ``LevelBlocks`` holds; otherwise None."""
    n, members, tables = blocks.n, blocks.members, blocks.tables
    if not members:
        return 0
    k = sum(map(ord, members[0]))
    if not (blocks._start or _canonical(k, members)):
        return None
    # A member is at least ``last`` exactly when its first part is.
    for last, table in tables.items():
        if table and not (table[-1] >= last
                          and _canonical(ord(last) + n - k, table)):
            return None
    return sum(count * (len(tables[key[-1]]) - blocks.cuts[key])
               for key, count in blocks.ends.items())


def _walked(blocks: LevelBlocks) -> int:
    """Check the members of ``blocks`` by ``check_members``, assembled a
    chunk at a time, each after the last member of the chunk before;
    return their number.  A chunk at a time, so that a faulty level is
    refused at its first bad chunk and never held whole: under a kernel
    that repeats a head, the blocks hold many times P(n) members, and
    the check of the assembled level took over ten times as long and
    held over twenty times the memory."""
    members, tables = blocks.members, blocks.tables
    width = max(1, _CHUNK // max([1, *map(len, tables.values())]))
    count = 0
    last: list[str] = []
    for start in range(0, len(members), width):
        chunk = _assemble(members[start:start + width], tables, blocks.cuts)
        check_members(blocks.n, last + chunk)
        count += len(chunk)
        last = chunk[-1:] or last
    return count


def _assemble(members: list[str], tables: dict[str, list[str]],
              cuts: dict[str, int]) -> list[str]:
    """The members of the blocks of ``members``, one string each."""
    return [member[:-1] + rest for member in members
            for rest in tables[member[-1]][cuts[member[-2:]]:]]


def _block_chunks(blocks: LevelBlocks, layout: _Layout,
                  size: int = _CHUNK) -> Iterator[str]:
    """The text of each chunk of the members of ``blocks``, rendered by
    ``layout``.

    A chunk is the blocks of a slice of ``blocks.members``, as wide as the
    chunk before would have had to be to hold half of ``size`` members,
    and cut there when it could hold more than ``size``: half of ``size``
    on average, at most ``size`` and one block.  Its text is whole lines,
    one ``str.join`` per block: the prefix's parts rendered by
    ``_render``, joined over its suffix's items, each table rendered once.
    """
    n, members = blocks.n, blocks.members
    head, sep, table_lines = layout
    prefix_tables = _cell_tables(n, sep, b"\0")

    def items(table: list[str], after: bool) -> list[str]:
        # Each line but a table's last ends with the next one's head, so
        # that a block's text is its prefix's parts joined over the head
        # and its suffix's lines.
        lines = table_lines(table, after)
        return [line + head for line in lines[:-1]] + lines[-1:]

    lines = _keyed(blocks, head, items)
    largest = max([1, *map(len, blocks.tables.values())])
    width = max(1, size // 2 // largest)
    start = 0
    while start < len(members):
        ms = members[start:start + width]
        suffixes = list(map(lines.__getitem__, map(_KEY, ms)))
        if len(ms) * largest > size:
            # Each suffix's list holds one item more than its members.
            del ms[bisect_left(list(accumulate(map(len, suffixes))),
                               size // 2) + 1:]
            del suffixes[len(ms):]
        start += len(ms)
        heads = _render(list(map(_PREFIX, ms)),
                        prefix_tables)[:-1].split("\0")
        yield "".join(map(str.join, heads, suffixes))
        count = sum(map(len, suffixes)) - len(ms)
        width = max(1, len(ms) * (size // 2) // max(1, count))


def _keyed(blocks: LevelBlocks, first: str,
           items: Callable[[list[str], bool], list[str]]
           ) -> dict[str, list[str]]:
    """For each block key: ``first``, then the items of the key's suffix,
    so that a join over them puts a block's prefix before each.
    ``items(members, after)`` gives the items of table members, each after
    a separator when ``after`` (the key has two parts), and is called once
    per table and ``after``, on the table from the lowest cut of its keys;
    keys with the same suffix share its list."""
    lowest: dict[tuple[str, bool], int] = {}
    for key, cut in blocks.cuts.items():
        table = key[-1], len(key) > 1
        lowest[table] = min(cut, lowest.get(table, cut))
    read: dict[tuple[str, bool], list[str]] = {}
    for (last, after), low in lowest.items():
        rows = blocks.tables[last][low:]
        # ``_render`` would render no member as one empty member.
        read[last, after] = items(rows, after) if rows else []
    suffixes: dict[tuple[str, bool, int], list[str]] = {}
    keyed = {}
    for key, cut in blocks.cuts.items():
        table = key[-1], len(key) > 1
        if table + (cut,) not in suffixes:
            suffixes[table + (cut,)] = [first] + read[table][
                cut - lowest[table]:]
        keyed[key] = suffixes[table + (cut,)]
    return keyed


def write_text(level: Level | LevelBlocks, stream: IO[str],
               lead: str = "") -> None:
    """Write one canonical text line per member (``3+2+1``, or ``0`` for
    the empty partition), in level order, each after ``lead``.

    Each chunk of a level's members is rendered by ``_render``, with
    ``lead`` before each member, ``+`` between parts and a newline after
    each.  ``LevelBlocks`` are certified first (see ``LevelBlocks.check``),
    then rendered a chunk of blocks at a time (see ``_block_chunks``) and
    written in slices of ``_TEXT_SLICE`` characters, so that no byte is
    written before the whole level is checked.
    """
    n = level.n
    if isinstance(level, LevelBlocks):
        level.check()

        def lines(table: list[str], after: bool) -> list[str]:
            return _render(table, _cell_tables(
                n, b"+", b"\n", b"+" if after else b"")).splitlines(True)

        # writelines drops each slice once written.
        stream.writelines(_sliced(_block_chunks(level, (lead, b"+", lines),
                                                _TEXT_CHUNK), _TEXT_SLICE))
        return
    raw = level._raw
    if n == 0:
        stream.write(f"{lead}0\n" * len(raw))
        return
    tables = _cell_tables(n, b"+", b"\n", lead.encode("ascii"))
    for start in range(0, len(raw), _TEXT_CHUNK):
        stream.write(_render(raw[start:start + _TEXT_CHUNK], tables))


def _sliced(texts: Iterable[str], size: int) -> Iterator[str]:
    """``texts`` joined and cut into slices of exactly ``size``
    characters, the last one shorter.  Each text is sliced where it lies;
    only the characters left over at its end are copied again, before the
    next text's first characters."""
    rest = ""
    for text in texts:
        start = size - len(rest)
        if start > len(text):
            rest += text
            continue
        yield rest + text[:start]
        end = len(text) - (len(text) - start) % size
        yield from (text[at:at + size] for at in range(start, end, size))
        rest = text[end:]
    if rest:
        yield rest


def write_snapshot(level: Level | LevelBlocks, stream: IO[str]) -> int:
    """Write one JSONL line per member, in level order (see
    ``_snapshot_texts``); return the number of lines written.

    ``LevelBlocks`` are certified first (see ``LevelBlocks.check``), and
    a level that fails raises ValueError before any line is written.
    """
    count = level.check()
    for text in _snapshot_texts(level, level.method_tag):
        stream.write(text)
    return count


def _snapshot_texts(level: Level | LevelBlocks, method_tag: str
                    ) -> Iterator[str]:
    """The snapshot lines of ``level`` tagged by ``method_tag``'s rule (see
    ``_snapshot_lines``), a chunk of lines at a time: ``_CHUNK`` members of
    a Level, with their tags derived a chunk at a time, or a chunk of
    blocks (see ``_block_chunks``)."""
    n = level.n
    head = '{"n": %d, "parts": [' % n
    if isinstance(level, LevelBlocks):

        def lines(table: list[str], after: bool) -> list[str]:
            tags = rule_tags(n, table, method_tag, prefixed=after)
            return _snapshot_lines("", _cell_tables(
                n, b", ", b"\0", b", " if after else b""), table,
                tags).splitlines(True)

        yield from _block_chunks(level, (head, b", ", lines))
        return
    tables = _cell_tables(n, b", ", b"\0")
    raw = level._raw
    for start in range(0, len(raw), _CHUNK):
        chunk = raw[start:start + _CHUNK]
        yield _snapshot_lines(head, tables, chunk,
                              rule_tags(n, chunk, method_tag))


def read_snapshot(stream: Iterable[str], *,
                  expected_n: int | None = None,
                  level: Level | LevelBlocks | None = None
                  ) -> Level | LevelBlocks:
    """Read and validate a snapshot, returning the level it describes: a
    Level, or ``level`` when the snapshot is proven to be its lines.

    Every line must be text with a UTF-8 form, and carry the same weight
    (and match ``expected_n`` when given), canonical non-increasing
    positive parts, and a known tag; no partition may repeat.  The tags
    must all be those that one rule of ``METHOD_TAGS`` gives the members
    (see ``rule_tags``), and the level carries the first such rule: at
    weight 0 every rule gives Seed, and at weight 1 both methods give
    AddedUnit.  Violations raise SnapshotError naming the line.

    With ``level``, the complete level of weight ``expected_n``, already
    certified and counted against P(n), ``stream`` is a text file, and a
    seekable one is first proven instead of parsed (see ``_proven_rule``):
    when it holds the lines that the writer gives ``level`` under one
    rule, in any order, ``level`` is returned tagged by that rule, with
    no member parsed or held.  By the paper's lemma a
    weight has exactly one complete, duplicate-free level, so a file that
    the parse would accept as complete can only be those lines.  The
    proof compares the file with a level that the blocks' certificate
    and the count vouch for, which is no weaker than the parse with its
    count.  Any other stream is read from its start as without ``level``,
    so every accepted layout and every refusal stays as it was.

    The lines are parsed in bulk, a chunk of ``_CHUNK`` nonblank lines at
    a time, without a JSON record per line, into a Level, which checks the
    weights and the uniqueness of its members.  A chunk is taken only when
    its tags are those of a rule that the chunks before it left, and the
    writer writes it back byte for byte (see ``_read_chunks``).  On any
    failure, the per-line scan reruns over the lines; it alone words
    errors and reads the other layouts JSON allows.
    """
    if level is not None and stream.seekable():
        rule = _proven_rule(stream, level)
        if rule is not None:
            return level.tagged(rule)
        stream.seek(0)
    lines = list(stream)
    try:
        return Level.from_raw(*_read_chunks(lines, expected_n))
    except ValueError:
        pass
    return _scan_lines(lines, expected_n)


# The rule that each tag but AddedUnit names past weight 0 (see
# ``rule_tags``).
_TAG_RULE = {TAG_SEED: "oracle", TAG_AUGMENTED: "method1",
             TAG_COLLECTED: "method2", TAG_EXPLICIT: "method2"}
# Characters per read of a file out of the writer's order.
_READ_HINT = 1 << 20


def _proven_rule(stream: IO[str], level: Level | LevelBlocks) -> str | None:
    """The rule under which ``stream``, from its start, holds exactly the
    snapshot lines that the writer gives ``level``, in any order; None
    when it holds anything else.

    The rule is the reader's: AddedUnit is both methods', so the first
    line with another tag names it, and with none it is the first rule,
    method 1, as at weight 0, where every rule gives Seed.  While the
    file keeps the writer's order, each chunk of the writer's text is
    compared with as much of the file, and no line is held.  From the
    first difference on, the writer's lines not yet matched are held as a
    set (they are distinct, as the level's members are).  Each of the rest
    of the file's lines must take one line out of the set, and none may be
    left: then the file's lines are the writer's in some order.
    """
    rule = METHOD_TAGS[0]
    while level.n and (line := stream.readline()):
        tag = line.rpartition(_TAG_KEY)[2][:-len('"}\n')]
        if tag != TAG_ADDED_UNIT:
            rule = _TAG_RULE.get(tag)
            break
    if rule is None:
        return None
    stream.seek(0)
    texts = _snapshot_texts(level, rule)
    for text in texts:
        read = stream.read(len(text))
        if read != text:
            break
    else:
        return None if stream.read(1) else rule
    left = set(text.splitlines(True))
    for text in texts:
        left.update(text.splitlines(True))
    # The line that the last read cut, finished.
    lines = (read + stream.readline()).splitlines(True)
    while lines:
        held = len(left)
        left.difference_update(lines)
        if held - len(left) != len(lines):
            return None
        lines = stream.readlines(_READ_HINT)
    return None if left else rule


# The text of each part the bulk reader reads, to its code; the member
# separator is read as part 0.
_PART_CODE = {str(part): part for part in range(256)}.__getitem__
# What the writer writes between a line's parts and its tag.
_TAG_KEY = '], "tag": "'


def _read_chunks(lines: list[str], expected_n: int | None
                 ) -> tuple[int, list[str], str]:
    """The weight, members and method tag of the nonblank lines, parsed a
    chunk at a time with whole-chunk built-ins.

    The weight is ``expected_n``, or the first line's.  Each chunk's text
    is cut into its lines' parts and tags by one ``replace`` and one
    ``split``: where a line meets the next, its tag's close and the next
    line's head become one more ``_TAG_KEY``.  The lines' parts, joined
    with a part 0 after each line and split at ``", "`` once, are parsed
    by one ``bytes`` of a ``_PART_CODE`` lookup per part for the whole
    chunk.
    Each line must give one member and its parts descend.  The rules of
    ``METHOD_TAGS`` whose ``rule_tags`` are the chunk's tags remain, and
    the chunk is taken only when one does and ``_snapshot_lines`` writes
    the parsed members and tags back as exactly its text (its last line
    may lack the newline), so its lines are canonical records, one to a
    line.  The method tag is the first rule left after the last chunk.
    Any failure raises ValueError.  The members' weights and uniqueness
    are left to the Level.
    """
    members: list[str] = []
    rules = METHOD_TAGS
    level_n = expected_n
    tables = None
    nonblank = filterfalse(str.isspace, lines)
    while chunk := list(islice(nonblank, _CHUNK)):
        if level_n is None:
            level_n = int(chunk[0].partition(",")[0].removeprefix('{"n": '))
        head = '{"n": %d, "parts": [' % level_n
        text = "".join(chunk)
        if not text.endswith("\n"):
            text += "\n"
        fields = text[len(head):-len('"}\n')].replace(
            '"}\n' + head, _TAG_KEY).split(_TAG_KEY)
        # Every member's parts followed by a separator 0, by one split.  At
        # weight 0 each member is empty, and the codes are the separators
        # alone.
        parts = (", 0, ".join(fields[0::2]) + ", 0").split(", ")
        try:
            codes = (bytes(map(_PART_CODE, parts)) if level_n
                     else bytes(len(chunk)))
        except KeyError:
            raise ValueError("a part that the writer never writes") from None
        chunk_members = codes.decode("latin-1").split("\0")[:-1]
        tags = tuple(fields[1::2])
        # The parts descend when the only ascents are from each separator
        # into the next member's first part (a level of weight 0 holds one
        # member); with a tag a line, no member past weight 0 is empty.
        if not len(chunk) == len(chunk_members) == len(tags) or sum(
                map(lt, codes, codes[1:])) != len(chunk) - 1:
            raise ValueError("not one descending member and tag a line")
        rules = [rule for rule in rules
                 if rule_tags(level_n, chunk_members, rule) == tags]
        if not rules:
            raise ValueError("not the tags of one rule")
        tables = tables or _cell_tables(level_n, b", ", b"\0")
        if _snapshot_lines(head, tables, chunk_members, tags) != text:
            raise ValueError("not the lines the writer writes")
        members += chunk_members
    if not members:
        raise ValueError("no members")
    return level_n, members, rules[0]


class _RepeatedName(Exception):
    """A JSON object of a snapshot line gives one name twice."""


def _unique_names(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """The object that ``json.loads`` reads as ``pairs``.  Raises
    _RepeatedName for the first name given twice, where a plain ``dict``
    would keep the last value."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen: set[str] = set()
        for name, _ in pairs:
            if name in seen:
                raise _RepeatedName(name)
            seen.add(name)
    return record


def _scan_lines(lines: Iterable[str], expected_n: int | None) -> Level:
    """``read_snapshot`` one line at a time, raising SnapshotError at the
    first line that fails a check; messages quote values cut short."""
    members: list[str] = []
    seen: set[str] = set()
    rules = METHOD_TAGS
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
            record = json.loads(text, object_pairs_hook=_unique_names)
        except _RepeatedName as exc:
            raise SnapshotError(f"line {lineno}: field "
                                f"{quote_text(exc.args[0])} appears twice"
                                ) from None
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
            raise SnapshotError(f"line {lineno}: bad weight {quote_value(n)}")
        if type(tag) is not str or tag not in TAG_ORDER:
            raise SnapshotError(
                f"line {lineno}: unknown tag {quote_value(tag)}")
        if not isinstance(parts, list) or any(
                type(x) is not int or x < 1 for x in parts):
            raise SnapshotError(
                f"line {lineno}: parts must be a list of positive integers")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise SnapshotError(f"line {lineno}: parts {quote_value(parts)} "
                                "are not non-increasing")
        if sum(parts) != n:
            raise SnapshotError(
                f"line {lineno}: parts {quote_value(parts)} sum to "
                f"{quote_value(sum(parts))}, not {quote_value(n)}")
        if parts and parts[0] > MAX_PART:
            raise SnapshotError(
                f"line {lineno}: part {quote_value(parts[0])} is past the "
                f"largest supported part {MAX_PART}")
        key = encode_parts(parts)
        fits = [rule for rule in METHOD_TAGS
                if rule_tags(n, [key], rule) == (tag,)]
        if not fits:
            raise SnapshotError(f"line {lineno}: tag {tag!r} does not fit "
                                f"parts {quote_value(parts)}")
        if level_n is None:
            level_n = n
        elif n != level_n:
            raise SnapshotError(
                f"line {lineno}: weight {n} differs from expected {level_n}")
        if key in seen:
            raise SnapshotError(
                f"line {lineno}: duplicate partition {quote_value(parts)}")
        rules = [rule for rule in rules if rule in fits]
        if not rules:
            raise SnapshotError(f"line {lineno}: tag {tag!r} is not of the "
                                "rule that tags the lines before it")
        seen.add(key)
        members.append(key)

    if not members:
        raise SnapshotError("snapshot is empty")
    assert level_n is not None
    return Level.from_raw(level_n, members, rules[0])
