"""Command-line behavior: outputs, exit codes, cap handling, snapshots."""

import hashlib
import io
import json
import os
import random
import re
import shlex
import stat
import subprocess
import sys
import threading
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

import pytest

import partition_evolve.level
from partition_evolve import (Level, _pure, cli, core, count_oracle,
                              enumerate_oracle, evolve_m1, method1, method2,
                              write_snapshot)
from partition_evolve.engine import split_heads
from partition_evolve.level import (_CHUNK, LevelBlocks, _read_chunks,
                                    check_members, write_text)

from golden import (CLASSIFY_20_SHA256, CLASSIFY_42_SHA256,
                    EVOLVE_50_M2_TEXT_SHA256,
                    M1_GROUP1_5, M1_GROUP2_5, M2_GROUP1_5, M2_GROUP2_5, P_AT,
                    P_SMALL, PARTITIONS_5, PARTITIONS_6,
                    RESUME_38_50_M1_SNAPSHOT_SHA256, VERIFY_34_REPORT_SHA256)

from support import dropping, duplicating, overweight, shuffled, zeroed


def classify_text(group1, group2):
    lines = [f"Group 1 (FirstKind): {len(group1)} partitions"]
    lines += [f"  {t}" for t in group1]
    lines += [f"Group 2 (SecondKind): {len(group2)} partitions"]
    lines += [f"  {t}" for t in group2]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["series", "oracle", "evolve1", "evolve2"])
def test_count_sources_agree_on_golden_values(run_cli, source):
    for n, expected in ((5, "7"), (6, "11"), (0, "1")):
        code, out, _ = run_cli("count", n, "--source", source)
        assert code == 0
        assert out == expected + "\n"


def test_count_series_reaches_past_the_cap(run_cli):
    code, out, _ = run_cli("count", 200, "--source", "series")
    assert code == 0
    assert out == f"{P_AT[200]}\n"


def test_count_table(run_cli):
    code, out, _ = run_cli("count", 5, "--source", "series", "--table")
    assert code == 0
    assert out.splitlines() == [
        "n,P,Q", "0,1,0", "1,1,1", "2,2,1", "3,3,2", "4,5,2", "5,7,4"]
    code, _, err = run_cli("count", 5, "--source", "oracle", "--table")
    assert code == 2
    assert "--table" in err


def test_list_golden_and_empty(run_cli):
    code, out, _ = run_cli("list", 5)
    assert code == 0
    assert out.splitlines() == PARTITIONS_5
    code, out, _ = run_cli("list", 0)
    assert out == "0\n"
    code, out, _ = run_cli("list", 6)
    assert len(out.splitlines()) == 11


def test_list_jsonl_round_trips_through_the_parser(run_cli):
    code, out, _ = run_cli("list", 4, "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["parts"] for r in records] == [
        [4], [3, 1], [2, 2], [2, 1, 1], [1, 1, 1, 1]]
    assert all(r["n"] == 4 and r["tag"] == "Seed" for r in records)


@pytest.mark.parametrize("source", ["series", "oracle", "evolve1", "evolve2"])
def test_list_line_count_equals_count_output(run_cli, source):
    _, listing, _ = run_cli("list", 9)
    _, counted, _ = run_cli("count", 9, "--source", source)
    assert len(listing.splitlines()) == int(counted)


def test_classify_golden_output(run_cli):
    code, out, _ = run_cli("classify", 5, "--method", 1)
    assert code == 0
    assert out == classify_text(M1_GROUP1_5, M1_GROUP2_5)
    code, out, _ = run_cli("classify", 5, "--method", 2)
    assert code == 0
    assert out == classify_text(M2_GROUP1_5, M2_GROUP2_5)


def test_classify_weight_one(run_cli):
    code, out, _ = run_cli("classify", 1, "--method", 1)
    assert code == 0
    assert out == classify_text([], ["1"])


@pytest.mark.parametrize("method", [1, 2])
def test_classify_weight_zero_prints_the_empty_member_as_0(run_cli, method):
    code, out, _ = run_cli("classify", 0, "--method", method)
    assert code == 0
    assert out == classify_text(["0"], [])


@pytest.mark.parametrize("method", [1, 2])
def test_classify_output_matches_its_digest(run_cli, method):
    # At weight 42 each group passes one write of text.
    for n, digests in ((20, CLASSIFY_20_SHA256), (42, CLASSIFY_42_SHA256)):
        code, out, err = run_cli("classify", n, "--method", method)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digests[method]


@pytest.mark.parametrize("method", [1, 2])
def test_classify_formats_no_member_alone(run_cli, monkeypatch, method):
    # Both groups go through the level text writer, which renders whole
    # chunks; a per-member formatter would call format_parts 627 times.
    calls = []
    format_parts = core.format_parts

    def counting(parts):
        calls.append(parts)
        return format_parts(parts)

    monkeypatch.setattr(core, "format_parts", counting)
    code, out, _ = run_cli("classify", 20, "--method", method)
    assert (code, len(out.splitlines())) == (0, 629)
    assert calls == []


def test_evolve_from_seed(run_cli):
    for method in (1, 2):
        code, out, err = run_cli("evolve", 0, 6, "--method", method)
        assert code == 0
        assert out.splitlines() == PARTITIONS_6
        assert "level 0: 1 partitions (Seed=1)" in err
        assert "level 6: 11 partitions" in err
    code, out, _ = run_cli("evolve", 0, 0, "--method", 1)
    assert code == 0
    assert out == "0\n"


def test_evolve_progress_shows_tag_breakdown(run_cli):
    _, _, err = run_cli("evolve", 0, 6, "--method", 1)
    assert "level 6: 11 partitions (AddedUnit=7, Augmented=4)" in err
    _, _, err = run_cli("evolve", 0, 6, "--method", 2)
    assert "level 6: 11 partitions (AddedUnit=7, Collected=3, Explicit=1)" \
        in err


def _progress_lines(method, start, to_n, start_counts):
    """The stderr of ``evolve start to_n``, computed from P alone: level n
    holds P(n-1) appended-unit successors, one explicit single part under
    method 2 from weight 2 up, and the rest of the second kind."""
    p = count_oracle(to_n, every_weight=True)
    second_tag = "Augmented" if method == 1 else "Collected"
    lines = [f"level {start}: {p[start]} partitions ({start_counts})"]
    for n in range(start + 1, to_n + 1):
        explicit = 1 if method == 2 and n >= 2 else 0
        counts = {"AddedUnit": p[n - 1],
                  second_tag: p[n] - p[n - 1] - explicit,
                  "Explicit": explicit}
        breakdown = ", ".join(f"{tag}={count}"
                              for tag, count in counts.items() if count)
        lines.append(f"level {n}: {p[n]} partitions ({breakdown})")
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("method", [1, 2])
def test_evolve_progress_stream_is_pinned_to_the_counts(run_cli, method):
    code, _, err = run_cli("evolve", 0, 20, "--method", method)
    assert code == 0
    assert err == _progress_lines(method, 0, 20, "Seed=1")


@pytest.mark.parametrize("method", [1, 2])
def test_resumed_progress_stream_is_pinned_to_the_counts(run_cli, tmp_path,
                                                         method):
    # Under method 1, levels 13 and 14 are stepped and levels 15 to 20 are
    # counted from the tables' sizes.
    code, listing, _ = run_cli("list", 12, "--format", "jsonl")
    assert code == 0
    lines = listing.splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    snapshot = tmp_path / "level12.jsonl"
    snapshot.write_text("".join(lines))
    code, _, err = run_cli("evolve", 12, 20, "--method", method,
                           "--snapshot-in", snapshot)
    assert code == 0
    assert err == _progress_lines(method, 12, 20, "Seed=77")


@pytest.mark.parametrize("start,to_n", [(0, 50), (0, 60), (38, 50)])
def test_method1_progress_past_level_k_is_pinned_to_the_counts(
        run_cli, tmp_path, start, to_n):
    # Past level k the lines are counted from the tables grown, and the
    # sizes of the tables of last parts above k/2 from T_steps.
    arguments = ()
    if start:
        snapshot = tmp_path / f"level{start}.jsonl"
        snapshot.write_text(run_cli("list", start, "--format", "jsonl")[1])
        arguments = ("--snapshot-in", snapshot)
    code, _, err = run_cli("evolve", start, to_n, "--method", 1, *arguments)
    assert code == 0
    assert err == _progress_lines(1, start, to_n,
                                  f"Seed={count_oracle(start)}")


def test_evolve_snapshot_roundtrip(run_cli, tmp_path):
    first = tmp_path / "level5.jsonl"
    second = tmp_path / "level8.jsonl"
    direct = tmp_path / "level8_direct.jsonl"

    code, out, _ = run_cli("evolve", 0, 5, "--method", 1,
                           "--snapshot-out", first)
    assert code == 0
    assert out == ""

    code, _, _ = run_cli("evolve", 5, 8, "--method", 1,
                         "--snapshot-in", first, "--snapshot-out", second)
    assert code == 0
    code, _, _ = run_cli("evolve", 0, 8, "--method", 1,
                         "--snapshot-out", direct)
    assert code == 0
    resumed = [json.loads(line)["parts"]
               for line in second.read_text().splitlines()]
    straight = [json.loads(line)["parts"]
                for line in direct.read_text().splitlines()]
    assert resumed == straight

    # Zero further steps reproduce the snapshot byte for byte.
    third = tmp_path / "again.jsonl"
    code, _, _ = run_cli("evolve", 5, 5, "--method", 1,
                         "--snapshot-in", first, "--snapshot-out", third)
    assert code == 0
    assert third.read_bytes() == first.read_bytes()


def test_failed_snapshot_write_leaves_the_target_untouched(run_cli, tmp_path,
                                                          monkeypatch):
    target = tmp_path / "level6.jsonl"
    target.write_text("previous\n")

    def fail_partway(level, stream):
        stream.write('{"n": 6, "parts": [6], "tag": "Aug')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_snapshot", fail_partway)
    code, _, err = run_cli("evolve", 0, 6, "--method", 1,
                           "--snapshot-out", target)
    assert code == 2
    assert "disk full" in err
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["level6.jsonl"]

    monkeypatch.undo()
    code, _, _ = run_cli("evolve", 0, 6, "--method", 1,
                         "--snapshot-out", target)
    assert code == 0
    assert len(target.read_text().splitlines()) == 11
    assert [p.name for p in tmp_path.iterdir()] == ["level6.jsonl"]


def test_bad_snapshot_directory_fails_before_evolving(run_cli, tmp_path):
    target = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli("evolve", 0, 3, "--method", 1,
                             "--snapshot-out", target)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    # The error names the path given, not the hidden temporary beside it.
    assert repr(str(target)) in err
    assert ".tmp" not in err
    assert "level " not in err
    assert list(tmp_path.iterdir()) == []


def test_snapshot_target_that_is_a_directory_fails_before_evolving(
        run_cli, tmp_path):
    target = tmp_path / "level.jsonl"
    target.mkdir()
    code, out, err = run_cli("evolve", 0, 3, "--method", 1,
                             "--snapshot-out", target)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert repr(str(target)) in err
    assert ".tmp" not in err
    assert "level " not in err
    assert target.is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["level.jsonl"]


def test_snapshot_target_that_is_a_fifo_is_refused(run_cli, tmp_path):
    target = tmp_path / "pipe"
    os.mkfifo(target)
    code, out, err = run_cli("evolve", 0, 3, "--method", 1,
                             "--snapshot-out", target)
    assert (code, out) == (2, "")
    assert repr(str(target)) in err
    assert "level " not in err
    assert stat.S_ISFIFO(os.lstat(target).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


def test_snapshot_written_through_a_symlink(run_cli, tmp_path):
    real = tmp_path / "real.jsonl"
    real.write_text("previous\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    direct = tmp_path / "direct.jsonl"
    for target in (link, direct):
        code, _, _ = run_cli("evolve", 0, 6, "--method", 2,
                             "--snapshot-out", target)
        assert code == 0
    assert link.is_symlink()
    assert os.readlink(link) == str(real)
    assert real.read_bytes() == direct.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "direct.jsonl", "link.jsonl", "real.jsonl"]


def test_snapshot_out_keeps_the_mode_of_the_file_it_replaces(run_cli,
                                                            tmp_path):
    private = tmp_path / "private.jsonl"
    private.write_text("previous\n")
    private.chmod(0o600)
    fresh = tmp_path / "fresh.jsonl"
    for target in (private, fresh):
        code, _, _ = run_cli("evolve", 0, 2, "--method", 1,
                             "--snapshot-out", target)
        assert code == 0
    assert private.read_bytes() == fresh.read_bytes()
    assert stat.S_IMODE(private.stat().st_mode) == 0o600
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~umask


def test_failure_while_evolving_removes_the_temporary_file(run_cli, tmp_path,
                                                         monkeypatch):
    def fail(start, to_n, **kwargs):
        assert [p.name for p in tmp_path.iterdir()] == [
            f".x.jsonl.{os.getpid()}.tmp"]
        raise ValueError("evolution failed")

    # Method 1 evolves to the blocks of evolve_m1_chunks.
    monkeypatch.setattr(cli, "evolve_m1_chunks", fail)
    code, _, err = run_cli("evolve", 0, 3, "--method", 1,
                           "--snapshot-out", tmp_path / "x.jsonl")
    assert code == 2
    assert "evolution failed" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Either module would add several milliseconds to every CLI process.
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, partition_evolve.cli; "
         "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, env=env, check=True, text=True)
    assert result.stdout == "[]\n"


def _cli_bytes(*argv):
    """Run the CLI as a child process; returns its stdout bytes."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "partition_evolve", *argv],
                            capture_output=True, env=env, check=True)
    return result.stdout


def test_evolved_levels_are_byte_identical_to_the_listing(tmp_path):
    listing = _cli_bytes("list", "30")
    assert listing.count(b"\n") == 5604
    for method in ("1", "2"):
        assert _cli_bytes("evolve", "0", "30", "--method", method) == listing
    # The snapshot is the oracle's JSONL listing with every tag replaced by
    # the first rule's: Augmented when the last part exceeds 1.
    expected = b""
    for line in _cli_bytes("list", "30", "--format", "jsonl").splitlines():
        record = json.loads(line)
        record["tag"] = ("Augmented" if record["parts"][-1] > 1
                         else "AddedUnit")
        expected += (json.dumps(record) + "\n").encode()
    target = tmp_path / "level30.jsonl"
    _cli_bytes("evolve", "0", "30", "--method", "1", "--snapshot-out",
               str(target))
    assert target.read_bytes() == expected


@pytest.mark.parametrize("argv", [("list", "40"),
                                  ("evolve", "0", "40", "--method", "2")])
def test_closed_pipe_stops_quietly(argv):
    # 37,338 lines overflow any pipe buffer, so the child is still
    # writing when the reader goes away after the first line.
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.Popen(
        [sys.executable, "-m", "partition_evolve", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"40\n"
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0
    # Only evolve's progress lines: no error and no "Exception ignored".
    assert all(line.startswith("level ") for line in err.splitlines()), err


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sabotage,code", [("", 0),
                                           ("_pure.step_m1 = _no_heads", 1)],
                         ids=["passing", "failing"])
def test_closed_pipe_keeps_the_verify_verdict(sabotage, code, unbuffered):
    # The reader is gone before the report is written, at the final flush
    # (PYTHONUNBUFFERED is dropped for that) or, with -u, at the print
    # itself; the run still ends quietly, with the exit code of its
    # verdict.  The same run to an open stdout shows the verdict reached.
    script = ("import sys\n"
              "from partition_evolve import _pure, cli\n"
              "def _no_heads(heads):\n"
              "    return [], 0\n"
              f"{sabotage}\n"
              "sys.exit(cli.main(['verify', '12']))\n")
    argv = [sys.executable, *(["-u"] if unbuffered else []), "-c", script]
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    shown = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    verdict = "OVERALL FAIL" if code else "OVERALL PASS"
    assert shown.returncode == code and verdict in shown.stdout.decode()
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE,
                                env=env, timeout=120)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (code, b"")


@pytest.mark.parametrize("argv,code", [
    (("evolve", "0", "5", "--method", "1"), 2),
    (("evolve", "0", "5", "--method", "1", "--snapshot-out", "F"), 2),
    (("list", "5", "--cap", "1"), 3),
], ids=["progress", "progress-snapshot", "cap-refusal"])
def test_a_stderr_with_no_reader_is_not_taken_for_stdout(tmp_path, argv,
                                                        code):
    # Only a closed stdout ends a run quietly with 0.  A progress line that
    # cannot be written fails the run and leaves no file; a refusal keeps
    # its code when its message cannot be written.
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "partition_evolve", *argv], cwd=tmp_path,
            stdout=subprocess.PIPE, stderr=write, env=env, timeout=120)
    finally:
        os.close(write)
    assert (result.returncode, result.stdout) == (code, b"")
    assert list(tmp_path.iterdir()) == []


def test_a_duplicating_kernel_is_refused_with_exit_2(run_cli, monkeypatch):
    # A duplicate head keeps its unit tail, so the level's validation
    # refuses it at any target weight.
    monkeypatch.setattr(_pure, "step_m1", duplicating(_pure.step_m1))
    code, out, err = run_cli("evolve", 0, 2, "--method", 1)
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: members out of canonical order or duplicated near 2\n")


# A part 0 at weight 20 reaches the members that head the blocks; at 28,
# past them, only the tables.
@pytest.mark.parametrize("sabotage,message", [
    (duplicating, "members out of canonical order or duplicated near 30"),
    (overweight, "member 59 has weight 59, level holds weight 30"),
    (lambda step: zeroed(step, 20), "member 20+0+2+2+2+2+2 has a part 0"),
    (lambda step: zeroed(step, 28), "member 28+0+2 has a part 0"),
], ids=["duplicating", "overweight", "part-0-heading", "part-0-in-a-table"])
def test_a_faulty_kernel_is_refused_in_text_and_in_a_streamed_snapshot(
        run_cli, tmp_path, monkeypatch, sabotage, message):
    # The snapshot's chunk check words the fault as the text path's check
    # of the whole level does.
    monkeypatch.setattr(_pure, "step_m1", sabotage(_pure.step_m1))
    for output in ((), ("--snapshot-out", tmp_path / "x.jsonl")):
        code, out, err = run_cli("evolve", 0, 30, "--method", 1, *output)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method,to_n,held", [(1, 8, 21), (2, 10, 40)])
@pytest.mark.parametrize("snapshot", [False, True], ids=["text", "snapshot"])
def test_an_incomplete_evolution_is_refused(run_cli, tmp_path, monkeypatch,
                                            method, to_n, held, snapshot):
    # A kernel that loses a head of weight 8 grows a level that passes
    # every check of its members; only the count against P(n) refuses it.
    kernel = f"step_m{method}"
    monkeypatch.setattr(_pure, kernel, dropping(getattr(_pure, kernel), 8))
    output = ("--snapshot-out", tmp_path / "x.jsonl") if snapshot else ()
    code, out, err = run_cli("evolve", 0, to_n, "--method", method, *output)
    assert (code, out) == (2, "")
    assert err.endswith(
        f"error: evolved level is incomplete for weight {to_n}: holds "
        f"{held} of {P_SMALL[to_n]} partitions\n")
    assert list(tmp_path.iterdir()) == []


def _evolve_m2_runs(run_cli, tmp_path, snapshot):
    """Exit code, stdout, stderr and snapshot bytes of ``evolve --method
    2`` from weight 0 to each of 0..20, and of the resumes 5 to 6 and 12
    to 20."""
    runs = []
    for start, target in [(0, n) for n in range(21)] + [(5, 6), (12, 20)]:
        given = ()
        if start:
            given = ("--snapshot-in", tmp_path / f"level{start}.jsonl")
        output = tmp_path / "out.jsonl"
        code, out, err = run_cli("evolve", start, target, "--method", 2,
                                 *given, *(("--snapshot-out", output)
                                           if snapshot else ()))
        runs.append((code, out, err,
                     output.read_bytes() if snapshot else None))
        output.unlink(missing_ok=True)
    return runs


@pytest.mark.parametrize("snapshot", [False, True], ids=["text", "snapshot"])
def test_a_batch_per_first_part_writes_what_the_whole_level_writes(
        run_cli, tmp_path, monkeypatch, snapshot):
    # The certified blocks over level k, from weight 0 and on resumes,
    # against the whole level grown, sorted and checked at once.
    for start in (5, 12):
        (tmp_path / f"level{start}.jsonl").write_text(
            run_cli("list", start, "--format", "jsonl")[1])
    blocks = _evolve_m2_runs(run_cli, tmp_path, snapshot)
    monkeypatch.setattr(cli, "evolve_m2_chunks", method2.evolve_m2)
    assert blocks == _evolve_m2_runs(run_cli, tmp_path, snapshot)


def _doubling_first_part_2(step):
    """``step`` with its first new head of first part 2, if any,
    repeated, as a head of the second kind."""
    def doubled(heads):
        new, second = step(heads)
        twos = [head for head in new if head[:1] == "\x02"][:1]
        return new + twos, second + len(twos)
    return doubled


# What the whole level's check prints for the sabotage below.
_DOUBLED_TWOS_STDERR = """\
level 0: 1 partitions (Seed=1)
level 1: 1 partitions (AddedUnit=1)
level 2: 3 partitions (AddedUnit=1, Collected=1, Explicit=1)
level 3: 4 partitions (AddedUnit=3, Explicit=1)
level 4: 8 partitions (AddedUnit=4, Collected=3, Explicit=1)
level 5: 10 partitions (AddedUnit=8, Collected=1, Explicit=1)
level 6: 17 partitions (AddedUnit=10, Collected=6, Explicit=1)
level 7: 21 partitions (AddedUnit=17, Collected=3, Explicit=1)
level 8: 32 partitions (AddedUnit=21, Collected=10, Explicit=1)
level 9: 40 partitions (AddedUnit=32, Collected=7, Explicit=1)
level 10: 57 partitions (AddedUnit=40, Collected=16, Explicit=1)
level 11: 71 partitions (AddedUnit=57, Collected=13, Explicit=1)
level 12: 98 partitions (AddedUnit=71, Collected=26, Explicit=1)
error: members out of canonical order or duplicated near 2+2+2+2+2+2
"""


@pytest.mark.parametrize("snapshot", [False, True], ids=["text", "snapshot"])
def test_a_fault_in_a_late_batch_is_refused_as_the_whole_level_was(
        run_cli, tmp_path, monkeypatch, snapshot):
    # Only the members of first part 2 are grown twice; the blocks fail
    # their certificate, and the whole level's progress and refusal are
    # printed.
    monkeypatch.setattr(_pure, "step_m2",
                        _doubling_first_part_2(_pure.step_m2))
    output = ("--snapshot-out", tmp_path / "x.jsonl") if snapshot else ()
    assert run_cli("evolve", 0, 12, "--method", 2, *output) == (
        2, "", _DOUBLED_TWOS_STDERR)
    assert list(tmp_path.iterdir()) == []


def _miscounted(step):
    """``step`` with its explicit head counted among the second kind."""
    def counted(heads):
        new, _ = step(heads)
        return new, len(new)
    return counted


def _losing_a_head(step):
    """``step`` with the last of its second-kind heads of weight 8, if
    any, dropped: each table that grows some loses one, and the whole
    level loses one."""
    def lost(heads):
        new, second = step(heads)
        if len(heads) == 8 and second:
            return new[:-1], second - 1
        return new, second
    return lost


@pytest.mark.parametrize("sabotage", [
    duplicating, overweight, lambda step: dropping(step, 8),
    _losing_a_head, lambda step: zeroed(step, 10), shuffled, _miscounted,
    _doubling_first_part_2,
], ids=["duplicating", "overweight", "dropping", "losing", "part-0",
        "shuffled", "miscounted", "doubled-twos"])
@pytest.mark.parametrize("snapshot", [False, True], ids=["text", "snapshot"])
def test_faulty_kernels_print_what_the_whole_level_printed(
        run_cli, tmp_path, monkeypatch, sabotage, snapshot):
    # Blocks that fail their certificate, or hold other than P(12)
    # members, give way to the whole level, whose progress, output and
    # refusal are printed.
    monkeypatch.setattr(_pure, "step_m2", sabotage(_pure.step_m2))
    output = tmp_path / "x.jsonl"
    runs = []
    for evolve in (method2.evolve_m2_chunks, method2.evolve_m2):
        monkeypatch.setattr(cli, "evolve_m2_chunks", evolve)
        runs.append((run_cli("evolve", 0, 12, "--method", 2, *(
            ("--snapshot-out", output) if snapshot else ())),
            output.read_bytes() if output.exists() else None))
        output.unlink(missing_ok=True)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("sabotage", [
    duplicating, overweight, lambda step: dropping(step, 8),
    lambda step: zeroed(step, 10), shuffled, _losing_a_head, _miscounted,
    _doubling_first_part_2,
], ids=["duplicating", "overweight", "dropping", "part-0", "shuffled",
        "losing", "miscounted", "doubled-twos"])
@pytest.mark.parametrize("method", [1, 2])
def test_a_count_under_a_faulty_kernel_is_the_whole_levels(
        run_cli, monkeypatch, sabotage, method):
    # Counted from blocks, without holding the level, the count prints
    # what the whole level's count prints: its size, or its refusal.
    kernel = f"step_m{method}"
    monkeypatch.setattr(_pure, kernel, sabotage(getattr(_pure, kernel)))
    argv = ("count", 12, "--source", f"evolve{method}")
    counted = run_cli(*argv)
    # A Level's check is its length.
    monkeypatch.setattr(cli, "evolve_m1_chunks", evolve_m1)
    monkeypatch.setattr(cli, "evolve_m2_chunks", method2.evolve_m2)
    assert counted == run_cli(*argv)


@pytest.mark.parametrize("argv,listing", [
    (("evolve", 0, 30, "--method", 2), True),
    (("count", 30, "--source", "evolve2"), False),
], ids=["default", "count"])
def test_method2_evolution_enters_no_layer_its_benchmark_bypasses(
        run_cli, monkeypatch, argv, listing):
    # The layers that perfbench's evolve-m2-text workload must not enter;
    # the count goes through the same blocks.
    expected = run_cli("list", 30)[1] if listing else "5604\n"

    def never(*args, **kwargs):
        raise AssertionError("a bypassed layer was entered")

    for module, name in [(_pure, "step_m1"), (_pure, "enumerate_level"),
                         (cli, "enumerate_oracle"), (cli, "count_oracle"),
                         (cli, "read_snapshot"), (cli, "write_snapshot"),
                         (cli, "run_suite")]:
        monkeypatch.setattr(module, name, never)
    code, out, _ = run_cli(*argv)
    assert (code, out) == (0, expected)


def _blocks_with(fault, built):
    """``LevelBlocks`` over the level and the tables of its last parts,
    which ``fault`` changes in place; appends the members they assemble
    to ``built``."""
    def build(n, method_tag, members, table):
        tables = {last: table(last)
                  for last in dict.fromkeys(member[-1] for member in members)}
        fault(members, tables)
        blocks = LevelBlocks(n, method_tag, members, tables.__getitem__)
        built.append([member[:-1] + rest for member in members
                      for rest in tables[member[-1]][
                          blocks.cuts[member[-2:]]:]])
        return blocks
    return build


def _head_of_second_chunk(members, tables):
    """Where the level members of the second chunk that the snapshot
    writer renders begin."""
    writes = []
    blocks = LevelBlocks(30, "method1", members, tables.__getitem__)
    write_snapshot(blocks, SimpleNamespace(write=writes.append))
    sizes = accumulate(len(tables[member[-1]]) - blocks.cuts[member[-2:]]
                       for member in members)
    return list(sizes).index(writes[0].count("\n")) + 1


def _misordered_at_a_boundary(members, tables):
    """The blocks either side of the first render chunk's end swapped:
    each chunk descends, the boundary does not."""
    i = _head_of_second_chunk(members, tables)
    members[i - 1], members[i] = members[i], members[i - 1]


def _misordered_at_the_end(members, tables):
    members[-2], members[-1] = members[-1], members[-2]


def _dropped(members, tables):
    """The single part's table, which only the single part's block reads,
    loses its first member."""
    del tables[members[0]][0]


def _overweight(members, tables):
    """The first member of the table of last part 1 gains a unit."""
    table = tables["\x01"]
    table[0] = chr(ord(table[0][0]) + 1) + table[0][1:]


@pytest.mark.parametrize("fault,message", [
    (_misordered_at_a_boundary, "members out of canonical order or "
                                "duplicated near "),
    (_misordered_at_the_end, "members out of canonical order or "
                             "duplicated near 2" + "+1" * 28),
    (_dropped, "evolved level is incomplete for weight 30: holds 5603 of "
               "5604 partitions"),
    (_overweight, "member 22+9 has weight 31, level holds weight 30"),
], ids=["boundary", "end", "dropped", "overweight"])
@pytest.mark.parametrize("snapshot", [False, True], ids=["text", "snapshot"])
def test_faulty_blocks_are_refused_and_write_nothing(run_cli, tmp_path,
                                                      monkeypatch, fault,
                                                      message, snapshot):
    # Each fault is worded as the check of the whole assembled level words
    # it, and neither stdout nor a snapshot gets a byte.
    built = []
    monkeypatch.setattr(method1, "LevelBlocks", _blocks_with(fault, built))
    output = ("--snapshot-out", tmp_path / "x.jsonl") if snapshot else ()
    code, out, err = run_cli("evolve", 0, 30, "--method", 1, *output)
    assert (code, out) == (2, "")
    assert message in err
    if "incomplete" not in message:
        with pytest.raises(ValueError) as whole:
            check_members(30, built[0])
        assert err.endswith(f"error: {whole.value}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("snapshot", [False, True], ids=["text", "snapshot"])
def test_a_table_below_its_last_part_is_refused(run_cli, tmp_path,
                                                monkeypatch, snapshot):
    # Each table descends and has the right weight, but the table of last
    # part 2 ends in 1+1+1: the first block's last member is the second
    # block's first, which only the premise on first parts rules out.
    members = ["\x05\x02", "\x05\x01\x01"]
    tables = {"\x02": ["\x03", "\x01\x01\x01"], "\x01": ["\x02", "\x01\x01"]}

    def blocks(n, method_tag, level, table):
        # The run grows these last parts' tables for its progress lines.
        for last in tables:
            table(last)
        return LevelBlocks(8, method_tag, members, tables.__getitem__)

    monkeypatch.setattr(method1, "LevelBlocks", blocks)
    output = ("--snapshot-out", tmp_path / "x.jsonl") if snapshot else ()
    code, out, err = run_cli("evolve", 0, 8, "--method", 1, *output)
    assert (code, out) == (2, "")
    assert err.endswith("error: members out of canonical order or "
                        "duplicated near 5+1+1+1\n")
    assert list(tmp_path.iterdir()) == []


def _written_without_its_level(run_cli, tmp_path, monkeypatch, snapshot):
    """``evolve 0 30 --method 1``, as text or a snapshot, builds no Level of
    weight 30 and enumerates nothing, and writes what the writers write
    for the checked level."""
    whole = io.StringIO()
    (write_snapshot if snapshot else write_text)(
        evolve_m1(Level.seed("method1"), 30), whole)
    built = []
    init = Level.__init__

    def counted(self, n, *args):
        built.append(n)
        init(self, n, *args)

    def never(n):
        raise AssertionError("the enumerator was called")

    monkeypatch.setattr(Level, "__init__", counted)
    monkeypatch.setattr(_pure, "enumerate_level", never)
    target = tmp_path / "level30.jsonl"
    output = ("--snapshot-out", target) if snapshot else ()
    code, out, _ = run_cli("evolve", 0, 30, "--method", 1, *output)
    assert code == 0
    assert built and max(built) < 30
    assert (target.read_text() if snapshot else out) == whole.getvalue()


def test_a_method1_snapshot_is_streamed_without_its_level(run_cli, tmp_path,
                                                         monkeypatch):
    # The blocks are written a checked chunk at a time.
    _written_without_its_level(run_cli, tmp_path, monkeypatch, True)


def test_method1_text_is_checked_and_written_without_its_level(
        run_cli, tmp_path, monkeypatch):
    # Every chunk of blocks is checked, then the blocks are rendered.
    _written_without_its_level(run_cli, tmp_path, monkeypatch, False)


@pytest.mark.parametrize("method", [1, 2])
def test_the_kernels_order_within_a_last_part_is_for_speed_only(
        run_cli, monkeypatch, method):
    # The level's sort puts shuffled heads in order again; its check, not
    # the kernels' order, carries correctness.
    kernel = f"step_m{method}"
    real = getattr(_pure, kernel)
    heads = split_heads(19, enumerate_oracle(19).raw_members())
    new, second = shuffled(real)(heads)
    expected, expected_second = real(heads)
    assert new != expected
    assert (sorted(new), second) == (sorted(expected), expected_second)
    monkeypatch.setattr(_pure, kernel, shuffled(real))
    code, out, _ = run_cli("evolve", 0, 20, "--method", method)
    assert code == 0
    assert out == run_cli("list", 20)[1]


# The messages are those the CLI printed before the weight check was
# chunked.  At weight 30 the level spans three check chunks.
@pytest.mark.parametrize("method, to_n, message", [
    (1, 2, "member 3 has weight 3, level holds weight 2"),
    (2, 2, "member 3 has weight 3, level holds weight 2"),
    (1, 30, "member 59 has weight 59, level holds weight 30"),
    (2, 30, "member 31 has weight 31, level holds weight 30"),
])
def test_a_wrong_weight_kernel_is_refused_with_exit_2(run_cli, monkeypatch,
                                                      method, to_n, message):
    kernel = f"step_m{method}"
    monkeypatch.setattr(_pure, kernel, overweight(getattr(_pure, kernel)))
    code, out, err = run_cli("evolve", 0, to_n, "--method", method)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {message}\n")


def test_headline_output_matches_its_digest(run_cli):
    code, out, _ = run_cli("evolve", 0, 50, "--method", 2)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVOLVE_50_M2_TEXT_SHA256


def test_listing_above_the_enumerator_table_matches_the_headline(run_cli):
    # Level 50 is enumerated mostly from the table's suffixes; it must be
    # the headline's output byte for byte.
    code, out, _ = run_cli("list", 50)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EVOLVE_50_M2_TEXT_SHA256


def test_verify_report_matches_its_digest(run_cli):
    code, out, err = run_cli("verify", 34)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_34_REPORT_SHA256


def test_resumed_snapshot_matches_its_digest(run_cli, tmp_path):
    code, listing, _ = run_cli("list", 38, "--format", "jsonl")
    assert code == 0
    lines = listing.splitlines(keepends=True)
    random.Random(0).shuffle(lines)
    start = tmp_path / "start.jsonl"
    start.write_text("".join(lines))
    out = tmp_path / "out.jsonl"
    code, _, _ = run_cli("evolve", 38, 50, "--method", 1,
                         "--snapshot-in", start, "--snapshot-out", out)
    assert code == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == RESUME_38_50_M1_SNAPSHOT_SHA256)


@pytest.mark.parametrize("method", [1, 2])
def test_resuming_from_a_reformatted_snapshot_prints_the_same(run_cli,
                                                              tmp_path,
                                                              method):
    canonical = tmp_path / "level20.jsonl"
    code, _, _ = run_cli("evolve", 0, 20, "--method", method,
                         "--snapshot-out", canonical)
    assert code == 0
    # Reordered keys, compact separators, leading spaces and CRLF: lines
    # that the bulk reader leaves to the per-line scan.
    reformatted = tmp_path / "reformatted.jsonl"
    reformatted.write_bytes(b"".join(
        b"  " + json.dumps({"tag": record["tag"], "parts": record["parts"],
                            "n": record["n"]},
                           separators=(",", ":")).encode() + b"\r\n"
        for record in map(json.loads, canonical.read_text().splitlines())))
    with pytest.raises(ValueError):
        _read_chunks(reformatted.read_text().splitlines(keepends=True), 20)
    resumed = run_cli("evolve", 20, 24, "--method", method,
                      "--snapshot-in", reformatted)
    assert resumed[0] == 0 and resumed[1]
    assert resumed == run_cli("evolve", 20, 24, "--method", method,
                              "--snapshot-in", canonical)


def _reformatted(text):
    """Snapshot lines with their keys reordered, compact separators and
    leading spaces: lines that only the per-line scan reads."""
    return "".join(
        "  " + json.dumps({"tag": record["tag"], "parts": record["parts"],
                           "n": record["n"]}, separators=(",", ":")) + "\n"
        for record in map(json.loads, text.splitlines()))


def _rule_snapshots(run_cli, tmp_path, n):
    """Files of level n for each rule (method 1's and method 2's
    snapshots, and the listing), each in the writer's order, shuffled
    and reformatted."""
    files = []
    for rule, write in [("method1", ("evolve", 0, n, "--method", 1)),
                        ("method2", ("evolve", 0, n, "--method", 2)),
                        ("oracle", ("list", n, "--format", "jsonl"))]:
        written = tmp_path / "written.jsonl"
        if write[0] == "list":
            written.write_text(run_cli(*write)[1])
        else:
            assert run_cli(*write, "--snapshot-out", written)[0] == 0
        text = written.read_text()
        lines = text.splitlines(keepends=True)
        random.Random(n).shuffle(lines)
        for layout, laid in [("canonical", text), ("shuffled", "".join(lines)),
                             ("reformatted", _reformatted(text))]:
            path = tmp_path / f"{rule}-{layout}-{n}.jsonl"
            path.write_text(laid)
            files.append((layout, path))
    return files


def _resumed(run_cli, tmp_path, argv, text=True):
    """Exit code, stdout, stderr and snapshot bytes of ``evolve`` run to
    a snapshot, and with ``text`` to text."""
    output = tmp_path / "out.jsonl"
    runs = [run_cli(*argv)] if text else []
    runs.append((run_cli(*argv, "--snapshot-out", output),
                 output.read_bytes() if output.exists() else None))
    output.unlink(missing_ok=True)
    return runs


def _parsed(monkeypatch):
    """Count the bulk reader's calls; returns the list it appends to."""
    calls = []
    read_chunks = partition_evolve.level._read_chunks

    def counted(*args):
        calls.append(args)
        return read_chunks(*args)

    monkeypatch.setattr(partition_evolve.level, "_read_chunks", counted)
    return calls


@pytest.mark.parametrize("start,to_n", [(5, 5), (5, 6), (6, 9), (12, 20),
                                        (38, 50)])
@pytest.mark.parametrize("method", [1, 2])
def test_a_proven_resume_prints_what_the_parsed_one_printed(
        run_cli, tmp_path, monkeypatch, start, to_n, method):
    # Each rule's file in the writer's order or shuffled is proven, not
    # parsed, and the run prints and writes what it printed when the file
    # was parsed.  A reformatted file is parsed (near misses below compare
    # runs that fall back).  At weight 38 the reformatted files and the
    # text of level 50 are left out for time: the scan reads those files
    # whole, and the text is written from the same level as the snapshot.
    parsed = _parsed(monkeypatch)
    text = to_n < 50
    runs = {}
    for layout, path in _rule_snapshots(run_cli, tmp_path, start):
        if layout == "reformatted" and not text:
            continue
        parsed.clear()
        argv = ("evolve", start, to_n, "--method", method,
                "--snapshot-in", path)
        run = _resumed(run_cli, tmp_path, argv, text)
        assert run[-1][0][0] == 0
        assert bool(parsed) == (layout == "reformatted"), path.name
        if not parsed:
            runs[argv] = run
    monkeypatch.setattr(cli, "_recomputed", lambda *args: None)
    for argv, proven in runs.items():
        assert proven == _resumed(run_cli, tmp_path, argv, text)


def test_a_shuffled_method2_file_led_by_added_unit_is_proven(
        run_cli, tmp_path, monkeypatch):
    # AddedUnit is both methods' tag: the first line of another tag names
    # the rule.
    snapshot = tmp_path / "level12.jsonl"
    assert run_cli("evolve", 0, 12, "--method", 2,
                   "--snapshot-out", snapshot)[0] == 0
    lines = snapshot.read_text().splitlines(keepends=True)
    random.Random(0).shuffle(lines)
    lines.sort(key=lambda line: '"AddedUnit"' not in line)
    assert '"AddedUnit"' in lines[0] and '"AddedUnit"' not in lines[-1]
    random.Random(1).shuffle(lines[1:-1])
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines))
    expected = [_resumed(run_cli, tmp_path, ("evolve", 12, to_n, "--method",
                                             method, "--snapshot-in",
                                             snapshot))
                for to_n in (12, 20) for method in (1, 2)]

    def never(*args):
        raise AssertionError("the snapshot was parsed")

    monkeypatch.setattr(partition_evolve.level, "_read_chunks", never)
    monkeypatch.setattr(partition_evolve.level, "_scan_lines", never)
    assert expected == [
        _resumed(run_cli, tmp_path, ("evolve", 12, to_n, "--method", method,
                                     "--snapshot-in", shuffled))
        for to_n in (12, 20) for method in (1, 2)]


def _near_misses(lines):
    """Each way of spoiling ``lines``, a level's snapshot lines: its name,
    its lines, and whether it still holds the level's lines."""
    other = json.loads(lines[3])
    retagged = json.dumps({**other, "tag": "Seed"}) + "\n"
    lighter = json.dumps({**other, "n": other["n"] - 1,
                          "parts": other["parts"][1:]}) + "\n"
    return [
        ("duplicated", lines[:4] + [lines[2]] + lines[5:], False),
        ("dropped", lines[:4] + lines[5:], False),
        ("extra", lines + [lines[4]], False),
        ("other-weight", lines[:3] + [lighter] + lines[4:], False),
        ("other-tag", lines[:3] + [retagged] + lines[4:], False),
        ("blank", lines[:5] + ["\n"] + lines[5:], False),
        ("no-final-newline", lines[:-1] + [lines[-1][:-1]], False),
        # The file is opened in universal newlines mode: CRLF reads as LF.
        ("crlf", [line[:-1] + "\r\n" for line in lines], True),
    ]


@pytest.mark.parametrize("order", ["canonical", "shuffled"])
@pytest.mark.parametrize("case", range(8), ids=[
    "duplicated", "dropped", "extra", "other-weight", "other-tag", "blank",
    "no-final-newline", "crlf"])
def test_near_miss_snapshots_are_read_as_before(run_cli, tmp_path,
                                                monkeypatch, order, case):
    # A file that is not the level's lines in some order gives way to
    # the parse, which prints the refusal or output it always printed.
    snapshot = tmp_path / "level12.jsonl"
    assert run_cli("evolve", 0, 12, "--method", 1,
                   "--snapshot-out", snapshot)[0] == 0
    lines = snapshot.read_text().splitlines(keepends=True)
    if order == "shuffled":
        random.Random(2).shuffle(lines)
    name, spoiled, holds = _near_misses(lines)[case]
    snapshot.write_bytes("".join(spoiled).encode())
    parsed = _parsed(monkeypatch)
    argv = ("evolve", 12, 14, "--method", 1, "--snapshot-in", snapshot)
    runs = _resumed(run_cli, tmp_path, argv)
    assert bool(parsed) != holds, name
    monkeypatch.setattr(cli, "_recomputed", lambda *args: None)
    assert runs == _resumed(run_cli, tmp_path, argv)


def test_a_faulty_kernel_during_the_proof_falls_back(run_cli, tmp_path,
                                                     monkeypatch):
    # The recomputed level fails its check: the file is parsed, and the
    # run is refused as it was.
    snapshot = tmp_path / "level12.jsonl"
    snapshot.write_text(run_cli("list", 12, "--format", "jsonl")[1])
    monkeypatch.setattr(_pure, "step_m1", duplicating(_pure.step_m1))
    recomputed = []
    recompute = cli._recomputed
    monkeypatch.setattr(cli, "_recomputed", lambda *args: recomputed.append(
        recompute(*args)) or recomputed[-1])
    parsed = _parsed(monkeypatch)
    argv = ("evolve", 12, 20, "--method", 1, "--snapshot-in", snapshot)
    runs = _resumed(run_cli, tmp_path, argv)
    assert recomputed == [None, None] and parsed
    assert runs[0][:2] == (2, "")
    assert runs[0][2].endswith("error: members out of canonical order or "
                               "duplicated near 20\n")
    monkeypatch.setattr(cli, "_recomputed", lambda *args: None)
    assert runs == _resumed(run_cli, tmp_path, argv)


def test_a_snapshot_from_a_fifo_is_parsed_as_before(run_cli, tmp_path,
                                                    monkeypatch):
    # A stream that cannot be read twice is parsed, and no level is
    # grown to prove it against.
    snapshot = tmp_path / "level12.jsonl"
    snapshot.write_text(run_cli("list", 12, "--format", "jsonl")[1])
    argv = ("evolve", 12, 20, "--method", 1, "--snapshot-out",
            tmp_path / "out.jsonl", "--snapshot-in")
    monkeypatch.setattr(cli, "_recomputed", lambda *args: None)
    expected = run_cli(*argv, snapshot), (tmp_path / "out.jsonl").read_bytes()
    monkeypatch.undo()
    grown = []
    evolve = cli.evolve_m1_chunks
    monkeypatch.setattr(cli, "evolve_m1_chunks", lambda start, to_n, **kw: (
        grown.append((start.n, to_n)) or evolve(start, to_n, **kw)))
    parsed = _parsed(monkeypatch)
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text,
                              args=(snapshot.read_text(),))
    writer.start()
    try:
        run = run_cli(*argv, fifo), (tmp_path / "out.jsonl").read_bytes()
    finally:
        writer.join(timeout=60)
    assert run == expected and run[0][0] == 0
    assert grown == [(12, 20)] and parsed


def test_a_file_too_short_for_its_level_is_parsed_without_growing_it(
        run_cli, tmp_path, monkeypatch):
    # P(40) lines take more bytes than this file holds, so no level is
    # grown to prove it against.
    snapshot = tmp_path / "level40.jsonl"
    snapshot.write_text('{"n": 40, "parts": [40], "tag": "Seed"}\n')

    def never(*args, **kwargs):
        raise AssertionError("a level was grown")

    monkeypatch.setattr(cli, "evolve_m1_chunks", never)
    code, out, err = run_cli("evolve", 40, 41, "--method", 1,
                             "--snapshot-in", snapshot)
    assert (code, out) == (2, "")
    assert err == ("error: snapshot is incomplete for weight 40: holds 1 "
                   f"of {P_AT[40]} partitions\n")


def test_the_benchmarked_resume_enters_no_layer_its_benchmark_bypasses(
        run_cli, tmp_path, monkeypatch):
    # perfbench's resume workload reads a shuffled listing: it is proven,
    # so neither reader runs, and no layer the workload bypasses is
    # entered.
    code, listing, _ = run_cli("list", 38, "--format", "jsonl")
    lines = listing.splitlines(keepends=True)
    random.Random(0).shuffle(lines)
    start = tmp_path / "start.jsonl"
    start.write_text("".join(lines))

    def never(*args, **kwargs):
        raise AssertionError("a bypassed layer was entered")

    for module, name in [(_pure, "step_m2"), (_pure, "enumerate_level"),
                         (cli, "enumerate_oracle"), (cli, "run_suite"),
                         (partition_evolve.level, "_read_chunks"),
                         (partition_evolve.level, "_scan_lines")]:
        monkeypatch.setattr(module, name, never)
    out = tmp_path / "out.jsonl"
    code, _, _ = run_cli("evolve", 38, 50, "--method", 1,
                         "--snapshot-in", start, "--snapshot-out", out)
    assert code == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == RESUME_38_50_M1_SNAPSHOT_SHA256)


def test_downward_run_is_refused_before_the_snapshot_is_read(
        run_cli, tmp_path, monkeypatch):
    snap = tmp_path / "level20000.jsonl"
    snap.write_text('{"n": 20000, "parts": [20000], "tag": "Seed"}\n')

    def never(*args, **kwargs):
        raise AssertionError("the snapshot was read or counted")

    monkeypatch.setattr(cli, "read_snapshot", never)
    monkeypatch.setattr(cli, "count_oracle", never)
    code, out, err = run_cli("evolve", 20000, 5, "--method", 1,
                             "--snapshot-in", snap)
    assert (code, out) == (2, "")
    assert err == ("error: cannot evolve downward: start weight 20000, "
                   "target 5\n")


def test_downward_run_without_a_snapshot_names_the_direction(run_cli):
    code, out, err = run_cli("evolve", 7, 5, "--method", 2)
    assert (code, out) == (2, "")
    assert err == "error: cannot evolve downward: start weight 7, target 5\n"


def test_evolve_above_zero_requires_a_snapshot(run_cli):
    code, _, err = run_cli("evolve", 3, 6, "--method", 1)
    assert code == 2
    assert "snapshot" in err


def test_evolve_rejects_incomplete_snapshots(run_cli, tmp_path):
    snap = tmp_path / "partial.jsonl"
    lines = [json.dumps({"n": 5, "parts": [int(x) for x in t.split("+")],
                         "tag": "Seed"})
             for t in PARTITIONS_5[:4]]
    snap.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli("evolve", 5, 6, "--method", 2,
                           "--snapshot-in", snap)
    assert code == 2
    assert "holds 4 of 7" in err


def test_evolve_rejects_malformed_snapshots(run_cli, tmp_path):
    snap = tmp_path / "broken.jsonl"
    snap.write_text('{"n": 2, "parts": [2], "tag": "Seed"}\n'
                    '{"n": 2, "parts": [1, 2], "tag": "Seed"}\n')
    code, _, err = run_cli("evolve", 2, 4, "--method", 1,
                           "--snapshot-in", snap)
    assert code == 2
    assert "line 2" in err


def test_snapshot_that_is_not_utf8_names_the_line(run_cli, tmp_path):
    snap = tmp_path / "bad.jsonl"
    snap.write_bytes(b'{"n": 1, "parts": [1], "tag": "Seed"}\n'
                     b'{"n": 1, "parts": [1], "tag": "Se\xffed"}\n')
    code, out, err = run_cli("evolve", 1, 3, "--method", 1,
                             "--snapshot-in", snap)
    assert (code, out) == (2, "")
    assert err == "error: line 2: not valid UTF-8\n"


_ONE_RULE = "is not of the rule that tags the lines before it"


@pytest.mark.parametrize("to_n", [3, 2])
def test_a_snapshot_of_two_rules_is_refused(run_cli, tmp_path, to_n):
    # A seeded line beside a grown one: no one rule grew that level.
    snap = tmp_path / "mixed.jsonl"
    snap.write_text('{"n": 2, "parts": [2], "tag": "Seed"}\n'
                    '{"n": 2, "parts": [1, 1], "tag": "AddedUnit"}\n')
    out_file = tmp_path / "out.jsonl"
    code, out, err = run_cli("evolve", 2, to_n, "--method", 1,
                             "--snapshot-in", snap, "--snapshot-out", out_file)
    assert (code, out) == (2, "")
    assert err == f"error: line 2: tag 'AddedUnit' {_ONE_RULE}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["mixed.jsonl"]


def test_a_member_without_a_tag_is_refused(run_cli, tmp_path):
    # A part 0 splits line 1 into two members, with line 2's text after
    # its head read as line 1's tag: one tag for two members.
    snap = tmp_path / "cut.jsonl"
    snap.write_text('{"n": 3, "parts": [1, 2, 0"}\n'
                    '{"n": 3, "parts": [x"}\n')
    code, out, err = run_cli("evolve", 3, 4, "--method", 1,
                             "--snapshot-in", snap)
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: not valid JSON")


def test_a_rule_broken_past_the_first_read_chunk_is_refused(run_cli,
                                                            tmp_path):
    snap = tmp_path / "level26.jsonl"
    code, _, _ = run_cli("evolve", 0, 26, "--method", 1,
                         "--snapshot-out", snap)
    assert code == 0
    lines = snap.read_text().splitlines(keepends=True)
    assert len(lines) == 2436 > _CHUNK
    lineno = _CHUNK + 100
    record = json.loads(lines[lineno - 1])
    assert record["tag"] != "Seed"
    lines[lineno - 1] = json.dumps({**record, "tag": "Seed"}) + "\n"
    snap.write_text("".join(lines))
    code, out, err = run_cli("evolve", 26, 27, "--method", 1,
                             "--snapshot-in", snap,
                             "--snapshot-out", tmp_path / "out.jsonl")
    assert (code, out) == (2, "")
    assert err == f"error: line {lineno}: tag 'Seed' {_ONE_RULE}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["level26.jsonl"]


@pytest.mark.parametrize("write", [
    ("list", 9, "--format", "jsonl"),
    ("evolve", 0, 9, "--method", 1),
    ("evolve", 0, 9, "--method", 2),
], ids=["oracle", "method1", "method2"])
def test_a_snapshot_is_written_back_byte_for_byte(run_cli, tmp_path, write):
    snap = tmp_path / "level9.jsonl"
    if write[0] == "list":
        code, listing, _ = run_cli(*write)
        snap.write_text(listing)
    else:
        code, _, _ = run_cli(*write, "--snapshot-out", snap)
    assert code == 0
    # The level read carries the snapshot's rule, whichever method runs.
    for method in (1, 2):
        again = tmp_path / f"again{method}.jsonl"
        code, _, _ = run_cli("evolve", 9, 9, "--method", method,
                             "--snapshot-in", snap, "--snapshot-out", again)
        assert code == 0
        assert again.read_bytes() == snap.read_bytes()


# Values of 100,000 characters, and 5,000 parts: each error message quotes
# a cut text of the value, and still names the line.
@pytest.mark.parametrize("record,complaint", [
    ({"n": 2, "parts": [2], "tag": "x" * 100_000}, "unknown tag 'xxx"),
    ({"n": "9" * 100_000, "parts": [2], "tag": "Seed"}, "bad weight '999"),
    ({"n": 2, "parts": [1] * 5000, "tag": "Seed"}, "parts [1, 1, 1"),
])
def test_snapshot_errors_quote_long_values_cut(run_cli, tmp_path, record,
                                               complaint):
    snap = tmp_path / "long.jsonl"
    snap.write_text('{"n": 2, "parts": [2], "tag": "Seed"}\n'
                    + json.dumps(record) + "\n")
    code, out, err = run_cli("evolve", 2, 3, "--method", 1,
                             "--snapshot-in", snap)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line 2: {complaint}")
    assert "characters)" in err and len(err.encode()) < 200


def test_evolve_rejects_weight_mismatch_and_downward_runs(run_cli, tmp_path):
    snap = tmp_path / "level2.jsonl"
    code, _, _ = run_cli("evolve", 0, 2, "--method", 1,
                         "--snapshot-out", snap)
    assert code == 0
    code, _, err = run_cli("evolve", 3, 4, "--method", 1,
                           "--snapshot-in", snap)
    assert code == 2
    assert "line 1" in err
    code, _, err = run_cli("evolve", 2, 1, "--method", 1,
                           "--snapshot-in", snap)
    assert code == 2
    assert "downward" in err


@pytest.mark.parametrize("flag", ["--snapshot-in", "--snapshot-out"])
def test_an_empty_snapshot_file_name_is_refused_before_evolving(
        run_cli, tmp_path, monkeypatch, flag):
    # An empty name would resolve to the working directory.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("evolve", 0, 3, "--method", 1, flag, "")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: the file name is empty\n")
    assert "level " not in err
    assert list(tmp_path.iterdir()) == []


def test_missing_snapshot_file_is_a_usage_error(run_cli, tmp_path):
    code, _, err = run_cli("evolve", 5, 6, "--method", 1,
                           "--snapshot-in", tmp_path / "nope.jsonl")
    assert code == 2
    assert "error" in err


def test_predecessor_examples(run_cli):
    code, out, _ = run_cli("predecessor", "3+3", "--method", 2)
    assert (code, out) == (0, "3+1+1\n")
    code, out, _ = run_cli("predecessor", "6", "--method", 1)
    assert (code, out) == (0, "5\n")
    code, out, _ = run_cli("predecessor", "1", "--method", 2)
    assert (code, out) == (0, "0\n")


def test_predecessor_errors(run_cli):
    code, _, err = run_cli("predecessor", "6", "--method", 2)
    assert code == 2
    assert "explicitly" in err
    code, _, err = run_cli("predecessor", "0", "--method", 1)
    assert code == 2
    code, _, err = run_cli("predecessor", "3+", "--method", 1)
    assert code == 2
    assert "parse" in err
    code, _, err = run_cli("predecessor", "1_0+2", "--method", 1)
    assert code == 2
    assert "'1_0+2'" in err
    # Not read as 2+1, whose predecessor is 2 under method 1.
    code, out, err = run_cli("predecessor", "1+2", "--method", 1)
    assert (code, out, err) == (2, "", "error: the parts of partition text "
                                "'1+2' are not non-increasing\n")
    for text in ("1+0", "0+1", "00"):
        code, out, err = run_cli("predecessor", text, "--method", 2)
        assert (code, out, err) == (
            2, "", f"error: partition text {text!r} has a part 0; parts "
            "are positive, and the weight-0 partition is written '0'\n")


@pytest.mark.parametrize("method", [1, 2])
def test_predecessor_refuses_a_part_no_member_holds(run_cli, method):
    code, out, err = run_cli("predecessor", "1114112+1", "--method", method)
    assert (code, out) == (2, "")
    assert "part 1114112 is past the largest supported part 1114111" in err
    code, out, _ = run_cli("predecessor", "1114111+1114111", "--method", 1)
    assert (code, out) == (0, "1114111+1114110\n")


def test_verify_command(run_cli):
    code, out, _ = run_cli("verify", 8)
    assert code == 0
    assert "OVERALL PASS (7 checks)" in out
    code, _, _ = run_cli("verify", 0)
    assert code == 2


def test_cap_flag_and_env(run_cli, monkeypatch):
    code, _, err = run_cli("list", 10, "--cap", 5)
    assert code == 3
    assert "exceeds cap 5" in err
    monkeypatch.setenv("PARTITION_EVOLVE_CAP", "4")
    code, _, _ = run_cli("list", 10)
    assert code == 3
    # The flag outranks the environment.
    code, _, _ = run_cli("list", 10, "--cap", 20)
    assert code == 0
    monkeypatch.setenv("PARTITION_EVOLVE_CAP", "not-a-number")
    code, _, err = run_cli("list", 3)
    assert code == 2
    assert "PARTITION_EVOLVE_CAP" in err
    for text in ("1_0", " 2", "-1", "\u0663", "+4"):
        monkeypatch.setenv("PARTITION_EVOLVE_CAP", text)
        code, out, err = run_cli("list", 3)
        assert (code, out) == (2, "")
        assert f"PARTITION_EVOLVE_CAP is not a nonnegative decimal " \
               f"integer: {text!r}" in err
    monkeypatch.delenv("PARTITION_EVOLVE_CAP")
    for text in (" 2", "1_0", "-1"):
        code, out, err = run_cli("list", 3, "--cap", text)
        assert (code, out) == (2, "")
        assert f"{text!r} is not a nonnegative decimal integer" in err


def test_cap_applies_to_every_enumerating_command(run_cli):
    # Every refusal names both ways to raise the cap.
    refusal = (3, "", "error: weight 9 exceeds cap 5; raise it with --cap "
               "or $PARTITION_EVOLVE_CAP\n")
    assert run_cli("list", 9, "--cap", 5) == refusal
    assert run_cli("count", 9, "--source", "oracle", "--cap", 5) == refusal
    assert run_cli("count", 9, "--source", "evolve1", "--cap", 5) == refusal
    assert run_cli("count", 9, "--source", "series", "--cap", 5)[0] == 0
    assert run_cli("classify", 9, "--method", 1, "--cap", 5) == refusal
    assert run_cli("evolve", 0, 9, "--method", 2, "--cap", 5) == refusal


def test_stdout_is_deterministic(run_cli):
    for argv in (("list", 12), ("classify", 9, "--method", 2),
                 ("evolve", 0, 12, "--method", 1), ("verify", 10),
                 ("count", 30, "--source", "series")):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_readme_synopsis_names_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.findall(r"^partition-evolve <(.*)> \[args\] \[--flags\]$",
                          readme, re.MULTILINE)
    usage = re.search(r"\{(.*?)\}", cli.build_parser().format_usage())
    assert len(synopsis) == 1
    assert synopsis[0].split("|") == usage.group(1).split(",")


def _readme_examples():
    """The ``$ partition-evolve`` examples of the README's CLI section as
    (arguments, output) pairs, from the blocks that show their output in
    full: a block with a line ``...`` is elided and left out, as is one
    that shows no prompt."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", section,
                            re.MULTILINE | re.DOTALL):
        lines = block.splitlines()
        if "..." in lines or not lines[0].startswith("$ "):
            continue
        for line in lines:
            if line.startswith("$ "):
                argv = shlex.split(line[2:], comments=True)
                assert argv[0] == "partition-evolve"
                examples.append((argv[1:], []))
            else:
                examples[-1][1].append(line + "\n")
    return [(argv, "".join(output)) for argv, output in examples]


def test_readme_examples_print_what_they_show(run_cli):
    # An example that shows an error shows stderr, and its run exits 2.
    examples = _readme_examples()
    assert {argv[0] for argv, _ in examples} == {
        "count", "list", "classify", "predecessor"}
    assert len(examples) == 9
    for argv, shown in examples:
        expected = ((2, "", shown) if shown.startswith("error: ")
                    else (0, shown, ""))
        assert run_cli(*argv) == expected, argv


def test_usage_errors(run_cli):
    assert run_cli("nonsense", 3)[0] == 2
    assert run_cli("classify", 5)[0] == 2
    assert run_cli("count", -1)[0] == 2
    code, _, err = run_cli("bench", 4, 2)
    assert code == 2 and "invalid choice: 'bench'" in err
    # Integers are ASCII decimal digits only; int() would read each of
    # these as a number.
    for text in ("1_0", "\u0663", "+3", " 3", "3 "):
        code, out, err = run_cli("list", text)
        assert (code, out) == (2, "")
        assert f"{text!r} is not a nonnegative decimal integer" in err
    assert run_cli("evolve", 0, 3, "--method", " 1")[0] == 2
    code, _, err = run_cli("list", "9" * 5000)
    assert code == 2
    assert "'9999999999999999999999999999999999999999'... (5000 characters)" \
        in err
    assert "9" * 41 not in err
    assert run_cli("--help")[0] == 0
    assert run_cli("evolve", "--help")[0] == 0
