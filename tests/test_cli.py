"""Command-line behavior: outputs, exit codes, cap handling, snapshots."""

import hashlib
import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from partition_evolve import _pure, cli, count_oracle

from golden import (EVOLVE_50_M2_TEXT_SHA256, M1_GROUP1_5, M1_GROUP2_5,
                    M2_GROUP1_5, M2_GROUP2_5, P_AT, PARTITIONS_5,
                    PARTITIONS_6)

from support import duplicating, overweight


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


def test_resumed_progress_stream_is_pinned_to_the_counts(run_cli, tmp_path):
    code, listing, _ = run_cli("list", 12, "--format", "jsonl")
    assert code == 0
    lines = listing.splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    snapshot = tmp_path / "level12.jsonl"
    snapshot.write_text("".join(lines))
    code, _, err = run_cli("evolve", 12, 20, "--method", 2,
                           "--snapshot-in", snapshot)
    assert code == 0
    assert err == _progress_lines(2, 12, 20, "Seed=77")


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

    monkeypatch.setattr(cli, "evolve_m1", fail)
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


def test_a_duplicating_kernel_is_refused_with_exit_2(run_cli, monkeypatch):
    # A duplicate head keeps its unit tail, so the level's validation
    # refuses it at any target weight.
    monkeypatch.setattr(_pure, "step_m1", duplicating(_pure.step_m1))
    code, out, err = run_cli("evolve", 0, 2, "--method", 1)
    assert (code, out) == (2, "")
    assert err.endswith(
        "error: members out of canonical order or duplicated near 2\n")


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
    assert run_cli("count", 9, "--source", "oracle", "--cap", 5)[0] == 3
    assert run_cli("count", 9, "--source", "evolve1", "--cap", 5)[0] == 3
    assert run_cli("count", 9, "--source", "series", "--cap", 5)[0] == 0
    assert run_cli("classify", 9, "--method", 1, "--cap", 5)[0] == 3
    assert run_cli("evolve", 0, 9, "--method", 2, "--cap", 5)[0] == 3
    assert run_cli("bench", 9, 1, "--cap", 5)[0] == 3


def test_bench_csv_shape(run_cli):
    code, out, _ = run_cli("bench", 4, 2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,method,wall_time_ns,partitions_emitted"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5 * 3 * 2
    expected_counts = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5}
    for n, method, wall, emitted in rows:
        assert method in ("method1", "method2", "oracle")
        assert int(wall) >= 0
        assert int(emitted) == expected_counts[int(n)]
    assert [r[1] for r in rows[:6]] == [
        "method1", "method1", "method2", "method2", "oracle", "oracle"]


def test_bench_zero_weight(run_cli):
    code, out, _ = run_cli("bench", 0, 1)
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 4
    assert all(line.endswith(",1") for line in lines[1:])


def test_stdout_is_deterministic(run_cli):
    for argv in (("list", 12), ("classify", 9, "--method", 2),
                 ("evolve", 0, 12, "--method", 1), ("verify", 10),
                 ("count", 30, "--source", "series")):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_usage_errors(run_cli):
    assert run_cli("nonsense", 3)[0] == 2
    assert run_cli("classify", 5)[0] == 2
    assert run_cli("count", -1)[0] == 2
    assert run_cli("bench", 3, 0)[0] == 2
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
