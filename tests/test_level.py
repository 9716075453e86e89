"""Level integrity rules and the JSONL snapshot format."""

import io
import json
from itertools import cycle, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_evolve import (Level, SnapshotError, TAG_ORDER,
                              enumerate_oracle, evolve_m1, evolve_m2,
                              read_snapshot, write_snapshot)
import partition_evolve.level
from partition_evolve.core import encode_parts
from partition_evolve.level import (_CHUNK, METHOD_TAGS, _canonical,
                                    _read_chunks, _scan_lines, check_members,
                                    rule_tags, write_text)


def _level(n, raw, tags=None, method_tag="oracle"):
    members = [encode_parts(parts) for parts in raw]
    if tags is None:
        tags = ("Seed",) * len(members)
    return Level(n=n, members=members, tags=tuple(tags),
                 method_tag=method_tag)


def test_seed_level():
    level = Level.seed("method1")
    assert level.n == 0
    assert len(level) == 1
    assert str(level.partitions[0]) == "0"
    assert level.tags == ("Seed",)


def test_level_value_semantics():
    level = evolve_m2(Level.seed("method2"), 6)
    assert repr(level) == "Level(n=6, members=11, method_tag='method2')"
    # Equal levels hash alike: the tags derived from the parts and the
    # same tags stored count as equal.
    stored = Level(6, level.raw_members(), level.tags, "method2")
    assert stored == level and hash(stored) == hash(level)
    assert len({level, stored}) == 1
    assert stored != Level(6, level.raw_members(), None, "oracle")
    assert level.__eq__(level.raw_members()) is NotImplemented
    assert level != level.raw_members()


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
    with pytest.raises(ValueError, match="parallel"):
        _level(2, [(2,)], tags=("Seed", "Seed"))
    with pytest.raises(ValueError, match="method tag"):
        _level(2, [(2,)], method_tag="bogus")
    with pytest.raises(ValueError, match="nonnegative"):
        _level(-1, [])


def test_from_raw_sorts_and_keeps_tags_attached():
    level = Level.from_raw(
        3, ["\x01\x01\x01", "\x03", "\x02\x01"], ["a3", "a1", "a2"],
        "oracle")
    assert [str(p) for p in level.partitions] == ["3", "2+1", "1+1+1"]
    assert level.tags == ("a1", "a2", "a3")


def test_snapshot_parts_must_fit_a_member():
    text = '{"n": 1114112, "parts": [1114112], "tag": "Seed"}\n'
    with pytest.raises(SnapshotError,
                       match="line 1: part 1114112 is past the largest"):
        read_snapshot(io.StringIO(text), method_tag="oracle")


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
    back = read_snapshot(buffer, method_tag="method2", expected_n=7)
    assert back == level


def test_snapshot_roundtrip_weight_zero():
    buffer = io.StringIO()
    write_snapshot(Level.seed("oracle"), buffer)
    assert buffer.getvalue() == '{"n": 0, "parts": [], "tag": "Seed"}\n'
    buffer.seek(0)
    assert read_snapshot(buffer, method_tag="oracle") == Level.seed("oracle")


def _with_cycled_tags(level):
    """``level`` with stored tags that cycle through TAG_ORDER."""
    members = level.raw_members()
    tags = tuple(islice(cycle(TAG_ORDER), len(members)))
    return Level(level.n, members, tags, level.method_tag)


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
    # The bulk reader takes every snapshot it can hold (parts up to 255,
    # known tags) as the writer wrote it, with or without a newline on the
    # last line, so none of them falls to the per-line scan.
    if set(level.tags) <= set(TAG_ORDER) and all(
            member[:1] <= "\xff" for member in level.raw_members()):
        lines = snapshot.getvalue().splitlines(keepends=True)
        for copy in (lines, lines[:-1] + [lines[-1].rstrip("\n")]):
            assert _read_chunks(copy, None) == (
                level.n, level.raw_members(), list(level.tags))


# Weight 35 holds 14,883 members, several write chunks; the evolved levels
# of weight 35 derive their tags, and the oracle's level with tags cycling
# through TAG_ORDER stores tags that no rule gives.  Weights 231 and 303
# take parts past code points 127 and 255; a part past 255 is formatted a
# member at a time.
# Weights 9, 10, 99, 100 and 255 are the edges of the rendered cell
# widths, and 300 renders parts of up to 255 in cells three digits wide.
@pytest.mark.parametrize("make", [
    lambda: enumerate_oracle(35),
    lambda: _with_cycled_tags(enumerate_oracle(35)),
    lambda: evolve_m1(Level.seed("method1"), 13),
    lambda: evolve_m2(Level.seed("method2"), 13),
    lambda: evolve_m1(Level.seed("method1"), 35),
    lambda: evolve_m2(Level.seed("method2"), 35),
    lambda: Level.seed("method2"),
    lambda: _level(3, [(3,), (2, 1)], tags=('odd "tag"', "t\u00e4g")),
    lambda: _level(231, [(120, 100, 11), (99, 99, 33), (10,) * 23 + (1,)]),
    lambda: evolve_m2(Level(300, [chr(300)], ("Seed",), "method2"), 303),
    lambda: enumerate_oracle(9),
    lambda: enumerate_oracle(10),
    lambda: _level(99, [(99,), (90, 9), (10,) * 9 + (9,), (1,) * 99]),
    lambda: _level(100, [(100,), (99, 1), (10,) * 10, (1,) * 100]),
    lambda: _level(255, [(255,), (128, 127), (100, 100, 55), (1,) * 255]),
    lambda: _level(300, [(255, 45), (255,) + (1,) * 45, (100,) * 3]),
])
def test_writers_match_their_reference_formats(make):
    _assert_writers_match_their_reference_formats(make())


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
    """A valid level of a few members with parts in 1..300."""
    parts = st.lists(st.integers(1, 300), max_size=5)
    n = sum(draw(parts))
    members = {encode_parts(_fill(draw(parts), n))
               for _ in range(draw(st.integers(1, 6)))}
    members = sorted(members, reverse=True)
    tags = draw(st.lists(st.sampled_from(TAG_ORDER), min_size=len(members),
                         max_size=len(members)))
    return Level(n, members, tuple(tags), "oracle")


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
        Level(2, ["\x02\x00"], None, "oracle")
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


def test_snapshot_tolerates_blank_lines():
    text = '{"n": 2, "parts": [2], "tag": "Seed"}\n\n' \
           '{"n": 2, "parts": [1, 1], "tag": "Seed"}\n'
    level = read_snapshot(io.StringIO(text), method_tag="oracle")
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
])
def test_snapshot_errors_name_the_line(line, complaint):
    text = '{"n": 2, "parts": [1, 1], "tag": "Seed"}\n' + line + "\n"
    with pytest.raises(SnapshotError, match=complaint):
        read_snapshot(io.StringIO(text), method_tag="oracle")


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
    assert read_snapshot(lines, method_tag="oracle", expected_n=30) == level


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
        read_snapshot(lines, method_tag="oracle", expected_n=30)
    with pytest.raises(SnapshotError) as scan:
        _scan_lines(lines, "oracle", 30)
    assert str(bulk.value) == str(scan.value)


@pytest.mark.parametrize("read", [
    lambda lines: read_snapshot(lines, method_tag="oracle"),
    lambda lines: _scan_lines(lines, "oracle", None),
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
    # Every tag a rule writes fits its parts, and evolving a level grown
    # by the other rule is valid, so either method reads it back.
    level = evolve(Level.seed(method_tag), 9)
    buffer = io.StringIO()
    write_snapshot(level, buffer)
    for reader_tag in ("method1", "method2"):
        buffer.seek(0)
        back = read_snapshot(buffer, method_tag=reader_tag, expected_n=9)
        assert back.tags == level.tags


def test_snapshot_expected_weight_is_enforced():
    text = '{"n": 2, "parts": [2], "tag": "Seed"}\n'
    with pytest.raises(SnapshotError, match="line 1: weight 2 differs"):
        read_snapshot(io.StringIO(text), method_tag="oracle", expected_n=3)


def test_empty_snapshot_is_an_error():
    with pytest.raises(SnapshotError, match="empty"):
        read_snapshot(io.StringIO(""), method_tag="oracle")


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
        read_snapshot([line], method_tag="oracle")
    assert str(refused.value) == message


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
        level = read_snapshot(lines, method_tag="oracle")
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
            read_snapshot(lines[:lineno], method_tag="oracle")
        assert str(again.value) == message
    else:
        assert 0 < len(level) == len(set(level.partitions))


def _outcome(read):
    """What a reader makes of some lines: the level's weight, members and
    tags, or its error text."""
    try:
        level = read()
    except SnapshotError as exc:
        return str(exc)
    return level.n, level.raw_members(), level.tags


def _mostly(common, rare):
    """Values of ``common``, and one time in eight of ``rare``."""
    return st.sampled_from([common] * 7 + [rare]).flatmap(lambda pick: pick)


@st.composite
def _records(draw, n):
    """A JSON record near one of weight n: parts 0 and past 255 among its
    parts, and now and then a junk weight, parts list or tag."""
    part = st.one_of(st.integers(1, 5), st.integers(250, 300))
    parts = draw(st.lists(_mostly(part, st.just(0)), max_size=4))
    if draw(_mostly(st.just(True), st.just(False))):
        parts = _fill(parts, n)
    # Seed fits every member, and one tag in two fits a given member.
    tags = st.one_of(st.just("Seed"), st.sampled_from(TAG_ORDER))
    return json.dumps({
        "n": draw(_mostly(st.just(n), st.one_of(st.just(n + 1),
                                                _JSON_SCALARS))),
        "parts": draw(_mostly(st.just(parts), _JSON_SCALARS)),
        "tag": draw(_mostly(tags, st.one_of(st.just("Odd"),
                                            _JSON_SCALARS)))})


@st.composite
def _misaligned(draw, n):
    """Lines near records of weight n that are not one canonical record per
    line, the layout the bulk reader takes a chunk at a time: a record
    split across two lines beside a line of two records, and a brace in a
    string that joins two lines into one record, each with as many
    records or braces as lines; a nested object; a brace in a string;
    leading spaces; trailing whitespace that str.strip removes but JSON
    refuses."""
    record = draw(_records(n))
    other = draw(_records(n))
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
    ]))


@st.composite
def _snapshots(draw):
    """A few lines near a snapshot of one weight, some of them no record
    at all or not one canonical record per line, and the weight the reader
    expects.  The lines end in a newline, or in nothing, as a caller may
    pass them; only then can a string run from one line into the next."""
    n = draw(st.sampled_from([0, 1, 3, 5, 300]))
    junk = st.sampled_from(["{}", "[]", "null", "", "7"]).map(
        lambda line: [line])
    groups = draw(st.lists(_mostly(_records(n).map(lambda line: [line]),
                                   st.one_of(junk, _misaligned(n))),
                           max_size=6))
    end = draw(st.sampled_from(["\n", ""]))
    return [line + end for group in groups for line in group], draw(
        st.sampled_from([None, n, n + 1]))


@given(_snapshots(), st.sampled_from(METHOD_TAGS))
def test_bulk_reader_and_scan_agree(snapshot, method_tag):
    lines, expected_n = snapshot
    assert _outcome(lambda: read_snapshot(
        lines, method_tag=method_tag, expected_n=expected_n)) == _outcome(
        lambda: _scan_lines(lines, method_tag, expected_n))


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
        read_snapshot(lines, method_tag="method1")
    assert str(refused.value) == message


# Which tags a reader accepts on a member of each shape: Seed always, and
# the tag that either rule gives the member.
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
    for tag in TAG_ORDER:
        line = json.dumps({"n": sum(parts), "parts": parts, "tag": tag})
        for read in (lambda lines: read_snapshot(lines, method_tag=method_tag),
                     lambda lines: _scan_lines(lines, method_tag, None)):
            try:
                read([line + "\n"])
            except SnapshotError as exc:
                assert tag not in accepted
                assert str(exc) == (
                    f"line 1: tag {tag!r} does not fit parts {parts}")
            else:
                assert tag in accepted
