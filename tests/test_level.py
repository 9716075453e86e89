"""Level integrity rules and the JSONL snapshot format."""

import functools
import io
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_evolve import (Level, SnapshotError, TAG_ORDER,
                              enumerate_oracle, evolve_m1, evolve_m2,
                              read_snapshot, write_snapshot)
import partition_evolve.level
from partition_evolve.core import encode_parts, member_text
from partition_evolve.level import (_CHUNK, METHOD_TAGS, Joined, LevelBlocks,
                                    _canonical, _read_chunks, _scan_lines,
                                    _snapshot_texts,
                                    check_members, rule_tags, write_text)
from partition_evolve.method1 import evolve_m1_chunks
from partition_evolve.method2 import evolve_m2_chunks


def _level(n, raw, method_tag="oracle"):
    members = [encode_parts(parts) for parts in raw]
    return Level(n=n, members=members, method_tag=method_tag)


def test_seed_level():
    level = Level.seed("method1")
    assert level.n == 0
    assert len(level) == 1
    assert str(level.partitions[0]) == "0"
    assert level.tags == ("Seed",)


def test_level_value_semantics():
    level = evolve_m2(Level.seed("method2"), 6)
    assert repr(level) == "Level(n=6, members=11, method_tag='method2')"
    # Equal levels hash alike.
    same = Level(6, level.raw_members(), "method2")
    assert same == level and hash(same) == hash(level)
    assert len({level, same}) == 1
    assert same != Level(6, level.raw_members(), "oracle")
    assert level.__eq__(level.raw_members()) is NotImplemented
    assert level != level.raw_members()
    # Levels of different rules are equal where their tags are: every rule
    # gives Seed at weight 0, and both methods give AddedUnit at weight 1.
    for n, distinct in ((0, 1), (1, 2), (2, 3)):
        members = enumerate_oracle(n).raw_members()
        levels = {Level(n, members, rule) for rule in METHOD_TAGS}
        assert len(levels) == distinct


def test_level_rejects_bad_shapes():
    with pytest.raises(ValueError, match="weight"):
        _level(3, [(2, 2)])
    with pytest.raises(ValueError, match="order"):
        _level(3, [(2, 1), (3,)])
    with pytest.raises(ValueError, match="order"):
        _level(3, [(3,), (3,)])
    # Parts past 255 have no Latin-1 byte; the per-member scan checks them.
    with pytest.raises(ValueError, match=r"member 299\+2 has weight 301"):
        _level(300, [(300,), (299, 2)])
    with pytest.raises(ValueError, match=r"duplicated near 299\+1"):
        _level(300, [(299, 1), (299, 1)])
    with pytest.raises(ValueError, match="method tag"):
        _level(2, [(2,)], method_tag="bogus")
    with pytest.raises(ValueError, match="nonnegative"):
        _level(-1, [])


def test_from_raw_sorts():
    level = Level.from_raw(
        3, iter(["\x01\x01\x01", "\x03", "\x02\x01"]), "method2")
    assert [str(p) for p in level.partitions] == ["3", "2+1", "1+1+1"]
    assert level.tags == ("Explicit", "AddedUnit", "AddedUnit")


def test_snapshot_parts_must_fit_a_member():
    text = '{"n": 1114112, "parts": [1114112], "tag": "Seed"}\n'
    with pytest.raises(SnapshotError,
                       match="line 1: part 1114112 is past the largest"):
        read_snapshot(io.StringIO(text))


def test_tag_counts_follow_fixed_order():
    level = evolve_m2(Level.seed("method2"), 6)
    counts = level.tag_counts()
    assert counts == {"AddedUnit": 7, "Collected": 3, "Explicit": 1}
    assert list(counts) == [t for t in TAG_ORDER if t in counts]


def test_snapshot_roundtrip():
    level = evolve_m2(Level.seed("method2"), 7)
    buffer = io.StringIO()
    write_snapshot(level, buffer)
    buffer.seek(0)
    back = read_snapshot(buffer, expected_n=7)
    assert back == level and back.method_tag == "method2"


def test_snapshot_roundtrip_weight_zero():
    buffer = io.StringIO()
    write_snapshot(Level.seed("oracle"), buffer)
    assert buffer.getvalue() == '{"n": 0, "parts": [], "tag": "Seed"}\n'
    buffer.seek(0)
    # Every rule gives Seed at weight 0: the reader takes the first.
    back = read_snapshot(buffer)
    assert back == Level.seed("oracle") and back.method_tag == "method1"


@pytest.mark.parametrize("n", [0, 1, 2, 10])
@pytest.mark.parametrize("rule", METHOD_TAGS)
def test_a_read_level_writes_back_and_reads_equal(rule, n):
    level = Level(n, enumerate_oracle(n).raw_members(), rule)
    first = io.StringIO()
    write_snapshot(level, first)
    back = read_snapshot(first.getvalue().splitlines(keepends=True))
    again = io.StringIO()
    write_snapshot(back, again)
    assert again.getvalue() == first.getvalue()
    assert back == level
    assert read_snapshot(again.getvalue().splitlines(keepends=True)) == level


def test_the_bulk_reader_narrows_the_rules_across_chunks():
    # Each read chunk alone holds one rule's tags, the first method 1's
    # and the second the oracle's, but no one rule gives the file's tags.
    members = evolve_m1(Level.seed("method1"), 26).raw_members()
    assert _CHUNK < len(members)
    buffer = io.StringIO()
    write_snapshot(Level(26, members[:_CHUNK], "method1"), buffer)
    write_snapshot(Level(26, members[_CHUNK:], "oracle"), buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    with pytest.raises(ValueError, match="^not the tags of one rule$"):
        _read_chunks(lines, 26)
    for read in (read_snapshot, lambda lines: _scan_lines(lines, None)):
        with pytest.raises(SnapshotError) as refused:
            read(lines)
        assert str(refused.value) == (
            f"line {_CHUNK + 1}: tag 'Seed' is not of the rule that tags "
            "the lines before it")


def _reference_snapshot(level):
    """The snapshot of ``level`` as json.dumps writes it, line by line."""
    return "".join(
        json.dumps({"n": level.n, "parts": list(p.parts), "tag": tag}) + "\n"
        for p, tag in zip(level.partitions, level.tags))


def _assert_writers_match_their_reference_formats(level):
    text = io.StringIO()
    write_text(level, text)
    assert text.getvalue() == "".join(f"{p}\n" for p in level.partitions)
    snapshot = io.StringIO()
    write_snapshot(level, snapshot)
    assert snapshot.getvalue() == _reference_snapshot(level)
    # The bulk reader takes every snapshot it can hold (parts up to 255)
    # as the writer wrote it, with or without a newline on the last line,
    # so none of them falls to the per-line scan.  It reads the first rule
    # that gives the level's tags.
    if all(member[:1] <= "\xff" for member in level.raw_members()):
        rule = next(rule for rule in METHOD_TAGS if rule_tags(
            level.n, level.raw_members(), rule) == level.tags)
        lines = snapshot.getvalue().splitlines(keepends=True)
        for copy in (lines, lines[:-1] + [lines[-1].rstrip("\n")]):
            assert _read_chunks(copy, None) == (
                level.n, level.raw_members(), rule)


# Weight 35 holds 14,883 members, several write chunks, in a level of each
# rule.  At weight 1 both methods give AddedUnit, and a level of method 2
# reads back as method 1's.  The hand-built levels are of every rule, and
# with the others give all five tags.  Weights 231 and 303
# take parts past code points 127 and 255; a chunk holding a part past 255
# is formatted a member at a time, and the second level of weight 300
# mixes such a member with members that the bulk rendering could take.
# Weights 9, 10, 99, 100 and 255 are the edges of the rendered cell
# widths, and 300 renders parts of up to 255 in cells three digits wide.
@pytest.mark.parametrize("make", [
    lambda: enumerate_oracle(35),
    lambda: evolve_m2(Level.seed("method2"), 1),
    lambda: evolve_m1(Level.seed("method1"), 13),
    lambda: evolve_m2(Level.seed("method2"), 13),
    lambda: evolve_m1(Level.seed("method1"), 35),
    lambda: evolve_m2(Level.seed("method2"), 35),
    lambda: Level.seed("method2"),
    lambda: _level(3, [(3,), (2, 1)], "method2"),
    lambda: _level(231, [(120, 100, 11), (99, 99, 33), (10,) * 23 + (1,)],
                   "method1"),
    lambda: evolve_m2(Level(300, [chr(300)], "oracle"), 303),
    lambda: enumerate_oracle(9),
    lambda: enumerate_oracle(10),
    lambda: _level(99, [(99,), (90, 9), (10,) * 9 + (9,), (1,) * 99],
                   "method2"),
    lambda: _level(100, [(100,), (99, 1), (10,) * 10, (1,) * 100],
                   "method1"),
    lambda: _level(255, [(255,), (128, 127), (100, 100, 55), (1,) * 255],
                   "method2"),
    lambda: _level(300, [(255, 45), (255,) + (1,) * 45, (100,) * 3]),
    lambda: _level(300, [(300,), (255, 45), (255,) + (1,) * 45, (100,) * 3],
                   "method1"),
])
def test_writers_match_their_reference_formats(make):
    _assert_writers_match_their_reference_formats(make())


@pytest.mark.parametrize("lead", ["", "  "])
def test_text_lead_comes_before_every_member(lead):
    # A part of 300 has no Latin-1 byte, so that level is formatted a
    # member at a time; weight 0 is written without rendering.
    for level in (Level(301, ["\u012c\x01", "\xff\x2e"], "oracle"),
                  Level.seed("oracle"), enumerate_oracle(12)):
        text = io.StringIO()
        write_text(level, text, lead=lead)
        assert text.getvalue() == "".join(
            f"{lead}{member_text(member)}\n" for member in level.raw_members())


def test_writer_derives_tags_a_chunk_at_a_time(monkeypatch):
    level = evolve_m1(Level.seed("method1"), 35)
    assert len(level) == 14_883
    expected = _reference_snapshot(level)
    lengths = []

    def recording(n, members, method_tag):
        lengths.append(len(members))
        return rule_tags(n, members, method_tag)

    monkeypatch.setattr(partition_evolve.level, "rule_tags", recording)
    snapshot = io.StringIO()
    write_snapshot(level, snapshot)
    assert snapshot.getvalue() == expected
    assert sum(lengths) == len(level) and max(lengths) <= _CHUNK


def _fill(parts, n):
    """A partition of n: the parts that fit, in turn, then units."""
    kept = []
    for part in parts:
        if sum(kept) + part <= n:
            kept.append(part)
    return sorted(kept + [1] * (n - sum(kept)), reverse=True)


@st.composite
def _small_levels(draw):
    """A valid level of a few members with parts in 1..300, of any rule."""
    parts = st.lists(st.integers(1, 300), max_size=5)
    n = sum(draw(parts))
    members = {encode_parts(_fill(draw(parts), n))
               for _ in range(draw(st.integers(1, 6)))}
    members = sorted(members, reverse=True)
    return Level(n, members, draw(st.sampled_from(METHOD_TAGS)))


@given(_small_levels())
def test_writers_match_their_reference_formats_on_small_levels(level):
    _assert_writers_match_their_reference_formats(level)


def test_a_member_holding_nul_never_passes_the_weight_check():
    assert not _canonical(2, ["\x02\x00"])
    assert not _canonical(4, ["\x02\x00\x02"])
    assert not _canonical(3, ["\x03", "\x02\x00\x01"])
    with pytest.raises(ValueError, match=r"member 2\+0\+2 has weight 4"):
        check_members(2, ["\x02\x00\x02"])
    # With the right weight, the scan names the part 0.
    with pytest.raises(ValueError, match=r"^member 2\+0 has a part 0$"):
        Level(2, ["\x02\x00"], "oracle")
    with pytest.raises(ValueError, match=r"^member 300\+0 has a part 0$"):
        check_members(300, [chr(300) + "\x00"])


_CODES = "\x00\x01\x02\x03\x04\x05\u0100"


@st.composite
def _member_lists(draw):
    """A weight and members near a level of it: its members, any strings
    over a few codes (NUL and one past 255 among them), and its members
    with NUL put in."""
    n = draw(st.integers(0, 6))
    level = enumerate_oracle(n).raw_members()
    with_nul = st.sampled_from(level).flatmap(
        lambda member: st.integers(0, len(member)).map(
            lambda i: member[:i] + "\0" + member[i:]))
    members = draw(st.lists(st.one_of(
        st.sampled_from(level), st.text(_CODES, max_size=5), with_nul),
        max_size=8))
    if draw(st.booleans()):
        members.sort(reverse=True)
    return n, members


@given(_member_lists())
def test_weight_check_passes_only_what_the_scan_passes(case):
    n, members = case
    if _canonical(n, members):
        check_members(n, members)


def test_weight_check_passes_whole_levels():
    for n in (0, 1, 12, 30):
        assert _canonical(n, enumerate_oracle(n).raw_members())


def _wrong_weight_in_the_second_chunk():
    """The weight-30 level with a part 1 appended to one member of its
    second check chunk: the members still descend."""
    members = enumerate_oracle(30).raw_members()
    assert len(members) > 2 * _CHUNK
    members[_CHUNK + 5] += "\x01"
    return members


# The weight check reads a member's byte sum from its adler32, whose low 16
# bits are 1 plus the byte sum modulo 65521: exact up to 256 bytes of 255.
# 257 bytes of 255 sum to 65535 = 65521 + 14, which the checksum cannot
# tell from 14; the scan, which words every error, must refuse it.
@pytest.mark.parametrize("n,members,message", [
    (14, ["\xff" * 257], r"member (255\+){256}255 has weight 65535, "
     "level holds weight 14"),
    (65279, ["\xff" * 256], r"member (255\+){255}255 has weight 65280, "
     "level holds weight 65279"),
    # 1 + n past 16 bits: 65550 is 14 modulo 65536.
    (65549, ["\x0d"], "member 13 has weight 13, level holds weight 65549"),
    (0, ["\x01"], "member 1 has weight 1, level holds weight 0"),
    (0, ["", ""], "members out of canonical order or duplicated near 0"),
    (0, ["\x00"], "member 0 has a part 0"),
    (2, ["\x02", "\x01\x00\x01"], r"member 1\+0\+1 has a part 0"),
    (30, _wrong_weight_in_the_second_chunk(),
     r"member 10\+10\+2\+2(\+1){7} has weight 31, level holds weight 30"),
])
def test_weight_check_edges_are_worded_by_the_scan(n, members, message):
    assert not _canonical(n, members)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_members(n, members)


_BELOW_FAULTS = ("drop", "repeat", "swap", "overweight", "zero",
                 "not-appended")


def _unit_ending_not_appended(member):
    """Unit-ending members of the same length as ``member`` that no member
    of the level below gives with a unit appended: a part raised, the
    parts before the unit reversed (out of order), or a part 0 before the
    unit (after 1^n, the level's last member, that sorts last)."""
    yield chr(ord(member[0]) + 1) + member[1:]
    if member[:-1] != member[-2::-1]:
        yield member[-2::-1] + member[-1]
    yield member[:-1] + "\0\x01"


@st.composite
def _levels_with_faults(draw):
    """A level of weight n, with up to three faults, and the level below
    held as text.  Each fault is drawn on one side of the boundary between
    the members that end in a unit and the rest."""
    n = draw(st.integers(1, 12), label="n")
    members = list(enumerate_oracle(n).raw_members())
    size = draw(st.sampled_from([1, 2, 5, 8192]), label="size")
    below = Joined(enumerate_oracle(n - 1).raw_members(), size)
    for fault in draw(st.lists(st.sampled_from(_BELOW_FAULTS), max_size=3),
                      label="faults"):
        units = fault == "not-appended" or (
            fault not in ("overweight", "zero") and draw(st.booleans()))
        side = [i for i, member in enumerate(members)
                if (member[-1:] == "\x01") == units]
        if not side:
            continue
        i = draw(st.sampled_from(side))
        if fault == "drop":
            del members[i]
        elif fault == "repeat":
            members.insert(i, members[i])
        elif fault == "swap":
            j = draw(st.integers(0, len(members) - 1))
            members[i], members[j] = members[j], members[i]
        elif fault == "overweight":
            members[i] = chr(ord(members[i][0]) + 1) + members[i][1:]
        elif fault == "zero":
            at = draw(st.integers(0, len(members[i])))
            members[i] = members[i][:at] + "\0" + members[i][at:]
        else:
            wrong = draw(st.sampled_from(
                list(_unit_ending_not_appended(members[i]))))
            if draw(st.booleans()):
                members.insert(i, wrong)
            else:
                members[i] = wrong
            if draw(st.booleans()):
                # Sorted into place: a level that passes, but whose
                # unit-ending members are not the level below's.
                members.sort(reverse=True)
    return n, members, below


def _refusal(n, members, below=None):
    try:
        check_members(n, members, below)
    except ValueError as exc:
        return str(exc)
    return None


@given(_levels_with_faults())
def test_the_check_given_the_level_below_refuses_as_the_plain_check(case):
    n, members, below = case
    assert _refusal(n, members, below) == _refusal(n, members)


@pytest.mark.parametrize("size", [1, 7, 8192])
def test_a_unit_ending_member_past_the_level_below_is_weighed(size):
    # It sorts after 1^6, the last of level 5's members with a unit
    # appended: level 5's 7 members fill whole chunks of 1 and 7 members,
    # so only the count tells it apart.
    members = [*enumerate_oracle(6).raw_members(), "\x01" * 5 + "\0\x01"]
    below = Joined(enumerate_oracle(5).raw_members(), size)
    assert below.split(members) is None
    assert _refusal(6, members, below) == _refusal(6, members) == (
        "member 1+1+1+1+1+0+1 has a part 0")


def test_the_level_below_proves_the_unit_ending_members(monkeypatch):
    # Given level n-1, only level n's unit-free members are weighed, and
    # the split they come from is made once for the list.
    below = Joined(enumerate_oracle(19).raw_members(), 64)
    members = enumerate_oracle(20).raw_members()
    weighed = []
    weighs = partition_evolve.level._weighs

    def counted(n, members):
        weighed.append(len(members))
        return weighs(n, members)

    monkeypatch.setattr(partition_evolve.level, "_weighs", counted)
    Level(20, members, "oracle", below)
    assert weighed == [627 - 490]
    split = below.split(members)
    assert split is below.split(members)
    assert split[1] == [m for m in members if m[-1] != "\x01"]
    assert below.members() == enumerate_oracle(19).raw_members()


def test_weight_check_takes_members_up_to_256_bytes():
    assert _canonical(65280, ["\xff" * 256])
    assert _canonical(510, ["\xff" * 2, "\xff" + "\x01" * 255])


def test_snapshot_tolerates_blank_lines():
    text = '{"n": 2, "parts": [2], "tag": "Seed"}\n\n' \
           '{"n": 2, "parts": [1, 1], "tag": "Seed"}\n'
    level = read_snapshot(io.StringIO(text))
    assert len(level) == 2


@pytest.mark.parametrize("line,complaint", [
    ('{"n": 2, "parts": [2]', "line 2: not valid JSON"),
    ('[1, 2]', "line 2: expected a JSON object"),
    ('{"n": 2, "parts": [2]}', "line 2: missing field"),
    ('{"n": -2, "parts": [2], "tag": "Seed"}', "line 2: bad weight"),
    ('{"n": true, "parts": [1], "tag": "Seed"}', "line 2: bad weight"),
    ('{"n": 2, "parts": [2], "tag": "Odd"}', "line 2: unknown tag"),
    ('{"n": 2, "parts": 2, "tag": "Seed"}', "line 2: parts must be"),
    ('{"n": 2, "parts": [2, 0], "tag": "Seed"}', "line 2: parts must be"),
    ('{"n": 2, "parts": [true, true], "tag": "Seed"}',
     "line 2: parts must be"),
    ('{"n": 3, "parts": [1, 2], "tag": "Seed"}', "line 2: .*not non-increasing"),
    ('{"n": 2, "parts": [3], "tag": "Seed"}', "line 2: .*sum to 3, not 2"),
    ('{"n": 3, "parts": [3], "tag": "Seed"}', "line 2: weight 3 differs"),
    ('{"n": 2, "parts": [1, 1], "tag": "Seed"}', "line 2: duplicate"),
    # A repeated field name is refused, not read with the last value.
    ('{"n": 3, "n": 2, "parts": [1, 1], "tag": "Seed"}',
     "^line 2: field 'n' appears twice$"),
    ('{"n": 2, "parts": [2], "parts": [1, 1], "tag": "Seed"}',
     "^line 2: field 'parts' appears twice$"),
    ('{"n": 2, "parts": [2], "tag": "Seed", "tag": "Seed"}',
     "^line 2: field 'tag' appears twice$"),
    ('{"n": 2, "parts": [2], "tag": "Seed", "extra": {"a": 1, "a": 1}}',
     "^line 2: field 'a' appears twice$"),
    # A tag must be one that some rule gives those parts.
    ('{"n": 2, "parts": [2], "tag": "AddedUnit"}',
     r"line 2: tag 'AddedUnit' does not fit parts \[2\]"),
    ('{"n": 2, "parts": [1, 1], "tag": "Augmented"}',
     r"line 2: tag 'Augmented' does not fit parts \[1, 1\]"),
    ('{"n": 2, "parts": [2], "tag": "Collected"}',
     r"line 2: tag 'Collected' does not fit parts \[2\]"),
    ('{"n": 2, "parts": [1, 1], "tag": "Collected"}',
     r"line 2: tag 'Collected' does not fit parts \[1, 1\]"),
    ('{"n": 2, "parts": [1, 1], "tag": "Explicit"}',
     r"line 2: tag 'Explicit' does not fit parts \[1, 1\]"),
    ('{"n": 1, "parts": [1], "tag": "Explicit"}',
     r"line 2: tag 'Explicit' does not fit parts \[1\]"),
    ('{"n": 0, "parts": [], "tag": "AddedUnit"}',
     r"line 2: tag 'AddedUnit' does not fit parts \[\]"),
    # Lines in the writer's layout that the bulk reader cuts at its fixed
    # texts, with a part or tag that the writer never writes.
    ('{"n": 2, "parts": [02], "tag": "Seed"}', "line 2: not valid JSON"),
    ('{"n": 2, "parts": [256], "tag": "Seed"}', "line 2: .*sum to 256, not 2"),
    ('{"n": 2, "parts": [2], "tag": "x], \\"tag\\": \\"Seed"}',
     r"line 2: unknown tag 'x\], \"tag\": \"Seed'"),
    ('{"n": 2, "parts": [2], "tag": "Seed\\"}\\n{\\"n\\": 2, \\"parts\\": ["}',
     r"line 2: unknown tag 'Seed\"}\\n{\"n\": 2, \"parts\": \['"),
])
def test_snapshot_errors_name_the_line(line, complaint):
    text = '{"n": 2, "parts": [1, 1], "tag": "Seed"}\n' + line + "\n"
    with pytest.raises(SnapshotError, match=complaint):
        read_snapshot(io.StringIO(text))


def _second_chunk_fault(fault):
    """A real level of more than one read chunk, with blank lines before
    the first line of the second chunk, where ``fault`` rewrites that line
    from its record and the first line's."""
    buffer = io.StringIO()
    write_snapshot(enumerate_oracle(30), buffer)
    lines = buffer.getvalue().splitlines(keepends=True)
    assert len(lines) > 2 * _CHUNK
    first = json.loads(lines[0])
    record = json.loads(lines[_CHUNK])
    lines[_CHUNK] = json.dumps(fault(record, first)) + "\n"
    lines[_CHUNK:_CHUNK] = ["\n", "  \n", "\t\n"]
    return lines, _CHUNK + 4


def test_multi_chunk_snapshot_with_blank_lines_reads_back():
    level = enumerate_oracle(30)
    lines, _ = _second_chunk_fault(lambda record, first: record)
    # The bulk checks pass it whole, with no rerun of the scan.
    assert _read_chunks(lines, 30) is not None
    assert read_snapshot(lines, expected_n=30) == level


@pytest.mark.parametrize("fault,complaint", [
    (lambda record, first: {**record, "n": "30"}, "bad weight '30'"),
    (lambda record, first: {**record, "parts": record["parts"] + [1]},
     "sum to 31, not 30"),
    (lambda record, first: {**record, "tag": (
        "Augmented" if record["parts"][-1] == 1 else "AddedUnit")},
     "does not fit parts"),
    (lambda record, first: first, r"duplicate partition \[30\]"),
    # The level leaves the order of the parts within a member to its
    # caller: the bulk reader checks it.
    (lambda record, first: {**record, "parts": record["parts"][::-1]},
     r"parts \[1, 1, 1, 1, 1, 2, 3, 10, 10\] are not non-increasing"),
])
def test_snapshot_errors_at_a_chunk_boundary_name_the_line(fault, complaint):
    lines, lineno = _second_chunk_fault(fault)
    with pytest.raises(SnapshotError, match=f"^line {lineno}: .*{complaint}"
                       ) as bulk:
        read_snapshot(lines, expected_n=30)
    with pytest.raises(SnapshotError) as scan:
        _scan_lines(lines, 30)
    assert str(bulk.value) == str(scan.value)


@pytest.mark.parametrize("read", [
    lambda lines: read_snapshot(lines),
    lambda lines: _scan_lines(lines, None),
], ids=["bulk", "scan"])
def test_read_levels_share_the_tag_constants(run_cli, read):
    code, listing, _ = run_cli("list", 12, "--format", "jsonl")
    assert code == 0
    level = read(listing.splitlines(keepends=True))
    assert len(level) == 77
    assert len(set(map(id, level.tags))) <= len(TAG_ORDER)


@pytest.mark.parametrize("evolve,method_tag", [
    (evolve_m1, "method1"), (evolve_m2, "method2")])
def test_snapshot_tags_of_either_rule_are_read_under_both(evolve, method_tag):
    # The level read back carries the rule that wrote it, and evolving a
    # level grown by the other rule is valid, so either method resumes it.
    level = evolve(Level.seed(method_tag), 9)
    buffer = io.StringIO()
    write_snapshot(level, buffer)
    buffer.seek(0)
    back = read_snapshot(buffer, expected_n=9)
    assert back.method_tag == method_tag and back.tags == level.tags
    for resume in (evolve_m1, evolve_m2):
        assert resume(back, 11) == resume(level, 11)


def test_snapshot_expected_weight_is_enforced():
    text = '{"n": 2, "parts": [2], "tag": "Seed"}\n'
    with pytest.raises(SnapshotError, match="line 1: weight 2 differs"):
        read_snapshot(io.StringIO(text), expected_n=3)


def test_empty_snapshot_is_an_error():
    with pytest.raises(SnapshotError, match="empty"):
        read_snapshot(io.StringIO(""))


# A first line that gives the bulk reader no weight to render lines with:
# an empty line parses to no record, and "%d" refuses a weight of NaN or
# infinity.  The scan words the error.
@pytest.mark.parametrize("line,message", [
    ("", "snapshot is empty"),
    ('{"n": Infinity, "parts": [], "tag": "Seed"}', "line 1: bad weight inf"),
    ('{"n": NaN, "parts": [], "tag": "Seed"}', "line 1: bad weight nan"),
])
def test_a_first_line_without_a_weight_to_render_falls_to_the_scan(
        line, message):
    with pytest.raises(SnapshotError) as refused:
        read_snapshot([line])
    assert str(refused.value) == message


# A weight-0 file, whose members the bulk reader reads without parsing a
# part: a second empty member or a part is still refused.
@pytest.mark.parametrize("lines,message", [
    (['{"n": 0, "parts": [], "tag": "Seed"}\n'] * 2,
     "line 2: duplicate partition []"),
    (['{"n": 0, "parts": [0], "tag": "Seed"}\n'],
     "line 1: parts must be a list of positive integers"),
    (['{"n": 0, "parts": [], "tag": "Seed"}\n',
      '{"n": 0, "parts": [1], "tag": "Seed"}'],
     "line 2: parts [1] sum to 1, not 0"),
])
def test_weight_zero_snapshot_errors_name_the_line(lines, message):
    with pytest.raises(SnapshotError) as refused:
        read_snapshot(lines)
    assert str(refused.value) == message


def _holds_a_record(value):
    """Whether a decoded JSON value is or holds an object."""
    return isinstance(value, dict) or isinstance(value, list) and any(
        map(_holds_a_record, value))


@pytest.mark.parametrize("expected_n", [None, 26])
def test_a_written_snapshot_is_read_without_json_records(monkeypatch,
                                                         expected_n):
    # Two read chunks of the writer's lines: the bulk reader takes them
    # both, decoding no JSON object and never entering the per-line scan.
    level = evolve_m1(Level.seed("method1"), 26)
    assert _CHUNK < len(level) <= 2 * _CHUNK
    buffer = io.StringIO()
    write_snapshot(level, buffer)
    loaded = []

    def loads(*args, **kwargs):
        loaded.append(json_loads(*args, **kwargs))
        return loaded[-1]

    def scan(*args):
        raise AssertionError("the per-line scan ran")

    json_loads = partition_evolve.level.json.loads
    monkeypatch.setattr(partition_evolve.level.json, "loads", loads)
    monkeypatch.setattr(partition_evolve.level, "_scan_lines", scan)
    buffer.seek(0)
    back = read_snapshot(buffer, expected_n=expected_n)
    assert back == level and back.method_tag == "method1"
    assert not _holds_a_record(loaded)


def _candidate(method_tag, n):
    """Level n grown from the seed by ``method_tag``'s blocks, checked."""
    evolve = evolve_m1_chunks if method_tag == "method1" else evolve_m2_chunks
    level = evolve(Level.seed(method_tag), n)
    level.check()
    return level


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 30])
@pytest.mark.parametrize("method_tag", ["method1", "method2"])
def test_a_snapshot_is_proven_in_any_order_without_a_parse(monkeypatch, n,
                                                           method_tag):
    # Each rule's snapshot, in the writer's order and shuffled, is proven
    # against the recomputed level: the level returned carries the rule
    # that the parse gives it, and neither reader runs.
    candidate = _candidate(method_tag, n)
    texts = {}
    for rule in METHOD_TAGS:
        buffer = io.StringIO()
        write_snapshot(Level(n, enumerate_oracle(n).raw_members(), rule),
                       buffer)
        lines = buffer.getvalue().splitlines(keepends=True)
        random.Random(n).shuffle(lines)
        for text in (buffer.getvalue(), "".join(lines)):
            texts[text] = read_snapshot(io.StringIO(text))

    def never(*args):
        raise AssertionError("the snapshot was parsed")

    monkeypatch.setattr(partition_evolve.level, "_read_chunks", never)
    monkeypatch.setattr(partition_evolve.level, "_scan_lines", never)
    for text, parsed in texts.items():
        proven = read_snapshot(io.StringIO(text), expected_n=n,
                               level=candidate)
        assert proven.method_tag == parsed.method_tag
        assert len(proven) == len(parsed)
        assert proven.tag_counts() == parsed.tag_counts()
        written = io.StringIO()
        write_snapshot(proven, written)
        assert sorted(written.getvalue().splitlines()) == sorted(
            text.splitlines())


@pytest.mark.parametrize("method_tag", ["method1", "method2"])
def test_blocks_render_whole_lines_and_count_tags_as_their_level(method_tag):
    # Each chunk of the writer's text is whole lines, and blocks count
    # each rule's tags as the level they assemble to.
    blocks = _candidate(method_tag, 30)
    assert isinstance(blocks, LevelBlocks)
    for rule in METHOD_TAGS:
        tagged = blocks.tagged(rule)
        assert tagged.tag_counts() == blocks.level().tagged(
            rule).tag_counts()
        for text in _snapshot_texts(tagged, rule):
            assert text.startswith('{"n": 30, ') and text.endswith("}\n")


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 9),
                          st.floats(allow_nan=True), st.text(max_size=4))
_RECORDS = st.fixed_dictionaries(
    {"n": st.one_of(st.integers(0, 6), _JSON_SCALARS),
     "parts": st.one_of(st.lists(st.integers(0, 6), max_size=6),
                        st.lists(_JSON_SCALARS, max_size=3), _JSON_SCALARS),
     "tag": st.one_of(st.sampled_from(TAG_ORDER), _JSON_SCALARS,
                      st.lists(st.text(max_size=2), max_size=2))},
    optional={"extra": _JSON_SCALARS})
_LINES = st.lists(st.one_of(
    _RECORDS.map(json.dumps),
    _RECORDS.map(lambda record: json.dumps(record)[:-1]),
    st.sampled_from(["", "   ", "[]", "{}", "null", "1" * 5000, "[" * 5000]),
    st.text(max_size=12)), max_size=6)


@given(_LINES)
def test_snapshot_reader_fails_only_with_snapshot_errors(lines):
    # Lines never hold a newline: the reader would split them further.
    lines = [line.replace("\n", " ") + "\n" for line in lines]
    try:
        level = read_snapshot(lines)
    except SnapshotError as exc:
        message = str(exc)
        if message == "snapshot is empty":
            assert not "".join(lines).strip()
            return
        lineno = int(message.split(":")[0].removeprefix("line "))
        assert lines[lineno - 1].strip()
        # The complaint is about that line: reading only the lines up to
        # it gives the same error.
        with pytest.raises(SnapshotError) as again:
            read_snapshot(lines[:lineno])
        assert str(again.value) == message
    else:
        assert 0 < len(level) == len(set(level.partitions))


def _outcome(read):
    """What a reader makes of some lines: the level's weight, members,
    tags and method tag, or its error text."""
    try:
        level = read()
    except SnapshotError as exc:
        return str(exc)
    return level.n, level.raw_members(), level.tags, level.method_tag


def _mostly(common, rare):
    """Values of ``common``, and one time in eight of ``rare``."""
    return st.sampled_from([common] * 7 + [rare]).flatmap(lambda pick: pick)


@st.composite
def _records(draw, n, rule, faults=True):
    """A JSON record near one of weight n, tagged mostly as ``rule`` tags
    its parts: with ``faults``, parts 0 and past 255 among its parts, and
    now and then a junk weight, parts list or tag."""
    mostly = _mostly if faults else lambda common, rare: common
    part = st.one_of(st.integers(1, 5), st.integers(250, 300))
    parts = draw(st.lists(mostly(part, st.just(0)), max_size=4))
    if draw(mostly(st.just(True), st.just(False))):
        parts = _fill(parts, n)
        # Or the units as one part, so that members end in other parts.
        units = parts.count(1)
        if units > 1 and draw(st.booleans()):
            parts = sorted(parts[:-units] + [units], reverse=True)
    # The rule's tag; or a random one, which may be another rule's.
    member = "".join(map(chr, parts))
    own = rule_tags(n, [member], rule)[0] if member else "Seed"
    tags = _mostly(st.just(own), st.sampled_from(TAG_ORDER))
    # Tags holding the texts at which the bulk reader cuts a line.
    cut = st.sampled_from(['x], "tag": "Seed', 'Seed"}\n{"n": %d, "parts": ['
                           % n, "Seed\"}\n"])
    return json.dumps({
        "n": draw(mostly(st.just(n), st.one_of(st.just(n + 1),
                                               _JSON_SCALARS))),
        "parts": draw(mostly(st.just(parts), _JSON_SCALARS)),
        "tag": draw(mostly(tags, st.one_of(st.just("Odd"), cut,
                                           _JSON_SCALARS)))})


@st.composite
def _misaligned(draw, n, rule):
    """Lines near records of weight n that are not one canonical record per
    line, the layout the bulk reader takes a chunk at a time: a record
    split across two lines beside a line of two records, and a brace in a
    string that joins two lines into one record, each with as many
    records or braces as lines; a nested object; a brace in a string;
    leading spaces; trailing whitespace that str.strip removes but JSON
    refuses; a first part with a leading zero, which JSON refuses."""
    record = draw(_records(n, rule))
    other = draw(_records(n, rule))
    cut = record.index(', "tag"')
    return draw(st.sampled_from([
        [record[:cut], record[cut + 2:], other + ", " + other],
        ['{"extra": "}', '{", ' + record[1:]],
        ['{"extra": "}', '{", ' + record[1:] + ", " + other],
        [record[:-1] + ', "extra": {"n": 1}}'],
        [record[:-1] + ', "extra": "}{"}'],
        ["  " + record],
        [record + "\x1c"],
        [record + "\x85"],
        [record.replace("[", "[0", 1)],
    ]))


@st.composite
def _snapshots(draw):
    """A few lines near a snapshot of one weight and rule, and the weight
    the reader expects.  One file in two has faults: records with faults,
    and lines that are no record at all or not one canonical record per
    line.  The lines end in a newline, or in nothing, as a caller may pass
    them; only then can a string run from one line into the next.  Or
    only the last line lacks its newline, as in a file cut short."""
    n = draw(st.sampled_from([0, 1, 3, 5, 300]))
    rule = draw(st.sampled_from(METHOD_TAGS))
    junk = st.sampled_from(["{}", "[]", "null", "", "7"]).map(
        lambda line: [line])
    if draw(st.booleans()):
        groups = draw(st.lists(_mostly(
            _records(n, rule).map(lambda line: [line]),
            st.one_of(junk, _misaligned(n, rule))), max_size=6))
    else:
        groups = [[line] for line in draw(st.lists(
            _records(n, rule, faults=False), min_size=1, max_size=6,
            unique_by=lambda line: line[:line.index("]")]))]
    end = draw(st.sampled_from(["\n", ""]))
    lines = [line + end for group in groups for line in group]
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].removesuffix("\n")
    return lines, draw(st.sampled_from([None, n, n + 1]))


@given(_snapshots())
def test_bulk_reader_and_scan_agree(snapshot):
    # Most lines carry their file's rule's tag, so that files of each rule
    # are accepted; tags of more than one rule are refused by both, with
    # one message.
    lines, expected_n = snapshot
    assert _outcome(lambda: read_snapshot(
        lines, expected_n=expected_n)) == _outcome(
        lambda: _scan_lines(lines, expected_n))


# Lines whose records do not fall one to a line, though the lines joined
# into one JSON array parse, with the message the per-line scan has always
# given them: the writer writes none of these chunks back, so the scan
# reads them.  The lines come without line ends, as a caller may pass
# them: JSON refuses a newline inside a string, so with them the last two
# would not parse.
@pytest.mark.parametrize("lines,message", [
    (['{"n": 3, "parts": [2, 1]', '"tag": "AddedUnit"}',
      '{"n": 3, "parts": [3], "tag": "Seed"}, '
      '{"n": 3, "parts": [1, 1, 1], "tag": "Seed"}'],
     "line 1: not valid JSON (Expecting ',' delimiter: line 1 column 25 "
     "(char 24))"),
    (['{"extra": "}', '{", "n": 1, "parts": [1], "tag": "Seed"}'],
     "line 1: not valid JSON (Unterminated string starting at: line 1 "
     "column 11 (char 10))"),
    (['{"extra": "}', '{", "n": 2, "parts": [2], "tag": "Seed"}, '
      '{"n": 2, "parts": [1, 1], "tag": "AddedUnit"}'],
     "line 1: not valid JSON (Unterminated string starting at: line 1 "
     "column 11 (char 10))"),
])
def test_records_not_one_to_a_line_are_refused_by_the_scan(lines, message):
    # The lines joined into an array parse: the bulk reader refuses them.
    json.loads("[" + ",".join(lines) + "]")
    with pytest.raises(SnapshotError) as refused:
        read_snapshot(lines)
    assert str(refused.value) == message


# A part 0 splits line 1 into two members, and line 2's text after its
# head reads as line 1's tag: as many members as lines, but one tag.  The
# bulk reader must refuse it before it derives the tags of the empty
# member, which ``rule_tags`` cannot at a weight past 0.
_MEMBER_WITHOUT_A_TAG = ['{"n": 3, "parts": [1, 2, 0"}\n',
                         '{"n": 3, "parts": [x"}\n']


def test_a_member_without_a_tag_is_refused_by_both_readers():
    with pytest.raises(ValueError):
        _read_chunks(_MEMBER_WITHOUT_A_TAG, None)
    message = ("line 1: not valid JSON (Expecting ',' delimiter: line 1 "
               "column 27 (char 26))")
    for read in (read_snapshot, lambda lines: _scan_lines(lines, None)):
        with pytest.raises(SnapshotError) as refused:
            read(_MEMBER_WITHOUT_A_TAG)
        assert str(refused.value) == message


# Which tags a reader accepts on the one line of a snapshot, by the shape
# of its member: Seed always, and the tag that either method's rule gives
# the member.
_ACCEPTED_TAGS = [
    ([], {"Seed"}),
    ([2, 1], {"Seed", "AddedUnit"}),
    ([299, 1], {"Seed", "AddedUnit"}),
    ([3], {"Seed", "Augmented", "Explicit"}),
    ([300], {"Seed", "Augmented", "Explicit"}),
    ([2, 2], {"Seed", "Augmented", "Collected"}),
    ([298, 2], {"Seed", "Augmented", "Collected"}),
]


@pytest.mark.parametrize("parts,accepted", _ACCEPTED_TAGS)
@pytest.mark.parametrize("method_tag", METHOD_TAGS)
def test_readers_accept_the_tags_a_rule_gives(parts, accepted, method_tag):
    # The tag that the rule of ``method_tag`` gives is accepted, and the
    # level read carries that rule, or one before it in METHOD_TAGS that
    # gives the same tag.
    own = rule_tags(sum(parts), [encode_parts(parts)], method_tag)[0]
    assert own in accepted
    for tag in TAG_ORDER:
        line = json.dumps({"n": sum(parts), "parts": parts, "tag": tag})
        for read in (read_snapshot, lambda lines: _scan_lines(lines, None)):
            try:
                level = read([line + "\n"])
            except SnapshotError as exc:
                assert tag not in accepted
                assert str(exc) == (
                    f"line 1: tag {tag!r} does not fit parts {parts}")
            else:
                assert tag in accepted and level.tags == (tag,)
                if tag == own:
                    assert (METHOD_TAGS.index(level.method_tag)
                            <= METHOD_TAGS.index(method_tag))


def test_blocks_word_a_part_0_as_the_level_check_does():
    # A part 0 in a member of the lower level splits it into two pieces,
    # which fail the certificate's ``_canonical``; the scan of the
    # assembled members words the member.  A part 0 in a table member
    # that a block reads is worded as the member it makes.
    blocks = LevelBlocks(2, "method1", ["\x02\x00\x01\x01"],
                         {"\x01": ["\x01"]}.__getitem__)
    with pytest.raises(ValueError,
                       match=r"^member 2\+0\+1\+1 has weight 4, level "
                             r"holds weight 2$"):
        blocks.check()
    blocks = LevelBlocks(4, "method1", ["\x02"],
                         {"\x02": ["\x02\x00\x02"]}.__getitem__)
    with pytest.raises(ValueError, match=r"^member 2\+0\+2 has a part 0$"):
        blocks.check()


def test_a_table_member_no_block_reads_is_neither_checked_nor_rendered():
    # Level 2's member 1+1 reads the members of T_1 grown 2 weights whose
    # first part is at most 1: 1+1+1 alone.  The member 2+0+1 above it
    # breaks the table's certificate, but no block reads it, so the
    # assembled level passes and the writers never render it.
    table = ["\x03", "\x02\x00\x01", "\x01\x01\x01"]
    blocks = LevelBlocks(4, "method1", ["\x01\x01"],
                         {"\x01": table}.__getitem__)
    assert blocks.check() == 1
    text, snapshot = io.StringIO(), io.StringIO()
    write_text(blocks, text)
    write_snapshot(blocks, snapshot)
    assert text.getvalue() == "1+1+1+1\n"
    assert snapshot.getvalue() == (
        '{"n": 4, "parts": [1, 1, 1, 1], "tag": "AddedUnit"}\n')
    # Nor is a prefix whose block is empty: 1+0+1 reads no member of T_1.
    blocks = LevelBlocks(3, "method1", ["\x01\x00\x01", "\x01\x01"],
                         {"\x01": ["\x02", "\x01\x01"]}.__getitem__)
    assert blocks.check() == 1
    text = io.StringIO()
    write_text(blocks, text)
    assert text.getvalue() == "1+1+1\n"
    # A table that no block reads a member of renders no line.
    blocks = LevelBlocks(2, "method1", ["\x00\x01"],
                         {"\x01": ["\x02", "\x01\x01"]}.__getitem__)
    assert blocks.check() == 0
    for write in (write_text, write_snapshot):
        written = io.StringIO()
        write(blocks, written)
        assert written.getvalue() == ""


def test_certified_blocks_are_neither_assembled_nor_scanned(monkeypatch):
    # The certificate reads level k and the tables alone.
    blocks = evolve_m1_chunks(Level.seed("method1"), 30)

    def never(*args):
        raise AssertionError("the blocks were checked member by member")

    monkeypatch.setattr(partition_evolve.level, "check_members", never)
    monkeypatch.setattr(partition_evolve.level, "_assemble", never)
    assert blocks.check() == 5604


@pytest.mark.parametrize("evolve,method_tag", [
    (evolve_m1_chunks, "method1"), (evolve_m2_chunks, "method2")])
def test_blocks_text_is_written_in_slices_of_one_size(monkeypatch, evolve,
                                                      method_tag):
    # Every write but the last holds exactly _TEXT_SLICE characters,
    # whatever the sizes of the chunks of blocks it is cut from.
    monkeypatch.setattr(partition_evolve.level, "_TEXT_SLICE", 1000)
    blocks = evolve(Level.seed(method_tag), 30)
    assert isinstance(blocks, LevelBlocks)
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    written = Recording()
    write_text(blocks, written)
    assert written.getvalue() == "".join(
        f"{member_text(member)}\n"
        for member in enumerate_oracle(30).raw_members())
    assert len(writes) > 2 and set(writes[:-1]) == {1000}
    assert 0 < writes[-1] <= 1000


def test_the_assembled_level_is_not_checked_again(monkeypatch):
    # The certificate proved the blocks; the Level assembled from them is
    # not checked member by member a second time.
    expected = enumerate_oracle(30).raw_members()
    checked = []
    check = partition_evolve.level.check_members

    def counted(n, members, *below):
        checked.append(n)
        check(n, members, *below)

    monkeypatch.setattr(partition_evolve.level, "check_members", counted)
    level = evolve_m1(Level.seed("method1"), 30)
    assert level.raw_members() == expected
    assert checked and 30 not in checked


@functools.lru_cache(maxsize=None)
def _oracle_members(n):
    return tuple(enumerate_oracle(n).raw_members())


def _true_blocks(n, k, top):
    """Method 1's blocks of level n from level k: level k, and the table
    of each last part l of 1..top, the members of weight l + n - k whose
    first part is at least l."""
    tables = {chr(last): [member for member in _oracle_members(last + n - k)
                          if ord(member[0]) >= last]
              for last in range(1, top + 1)}
    return list(_oracle_members(k)), tables


_BLOCK_FAULTS = ("swap", "drop", "repeat", "overweight", "zero", "below",
                 "zero-in-a-table")


@given(st.data())
def test_blocks_are_refused_exactly_as_their_members(data):
    # Faults in level k and the tables: a swap, a drop or a repeat of a
    # member, a unit more on a first part, a part 0 before a member of
    # level k or after the first part of a table member, and a member
    # below its table's last part at the end of the table.  At most three
    # faults raise a part by at most 3, so every key the faults make has
    # a table.  Blocks that pass are written as their members are.
    n = data.draw(st.integers(2, 12), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    members, tables = _true_blocks(n, k, n + 3)
    # Mostly the tables that level k's members name.
    lasts = st.sampled_from(sorted({member[-1] for member in members}))
    lasts = st.one_of(lasts, lasts, st.sampled_from(sorted(tables)))
    lists = st.one_of(st.just(members), lasts.map(tables.__getitem__))
    for fault in data.draw(st.lists(st.sampled_from(_BLOCK_FAULTS),
                                    max_size=3), label="faults"):
        if fault == "below":
            last = ord(data.draw(lasts))
            tables[chr(last)].append("\x01" * (last + n - k))
            continue
        items = (members if fault == "zero" else tables[data.draw(lasts)]
                 if fault == "zero-in-a-table" else data.draw(lists))
        if not items:
            continue
        i = data.draw(st.integers(0, len(items) - 1))
        if fault == "swap":
            j = data.draw(st.integers(0, len(items) - 1))
            items[i], items[j] = items[j], items[i]
        elif fault == "drop":
            del items[i]
        elif fault == "repeat":
            items.insert(i, items[i])
        elif fault == "overweight":
            items[i] = chr(ord(items[i][0]) + 1) + items[i][1:]
        elif fault == "zero":
            items[i] = "\0" + items[i]
        else:
            items[i] = items[i][:1] + "\0" + items[i][1:]
    blocks = LevelBlocks(n, "method1", members, tables.__getitem__)
    assembled = [member[:-1] + rest for member in members
                 for rest in tables[member[-1]][blocks.cuts[member[-2:]]:]]
    try:
        check_members(n, assembled)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            blocks.check()
        assert str(refused.value) == str(exc)
        return
    assert blocks.check() == len(assembled)
    level = Level(n, assembled, "method1")
    for write in (write_text, write_snapshot):
        written, expected = io.StringIO(), io.StringIO()
        write(blocks, written)
        write(level, expected)
        assert written.getvalue() == expected.getvalue()
