"""The benchmark's tracer runs the CLI as it is: same output, spans seen.

``perfbench/tracer.py`` replaces package attributes by name and calls them
positionally, so a change to a traced signature shows here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(argv, cwd):
    result = subprocess.run([sys.executable, *argv], capture_output=True,
                            env=_ENV, cwd=cwd)
    return result.returncode, result.stdout, result.stderr


# Each case's spans, and the spans it must not enter: for the benchmark's
# three workloads, those the workload bypasses.
@pytest.mark.parametrize("argv,spans,bypassed", [
    (["evolve", "0", "12", "--method", "2"],
     ["kernel.step_m2", "engine.evolve"],
     ["kernel.step_m1", "level.from_raw", "kernel.enumerate_level",
      "oracle.enumerate_oracle", "oracle.count_oracle",
      "level.read_snapshot", "level.write_snapshot", "verify.run_suite"]),
    # The writer's file is proven against the recomputed level, not
    # parsed into one; a reformatted file is parsed.
    (["evolve", "6", "9", "--method", "1", "--snapshot-in", "in.jsonl",
      "--snapshot-out", "out.jsonl"],
     ["kernel.step_m1", "level.read_snapshot", "level.write_snapshot",
      "engine.evolve"],
     ["kernel.step_m2", "level.from_raw", "kernel.enumerate_level",
      "oracle.enumerate_oracle", "verify.run_suite"]),
    (["evolve", "6", "9", "--method", "1", "--snapshot-in", "compact.jsonl",
      "--snapshot-out", "out.jsonl"],
     ["kernel.step_m1", "level.from_raw", "level.read_snapshot",
      "level.write_snapshot", "engine.evolve"],
     ["kernel.step_m2", "kernel.enumerate_level", "oracle.enumerate_oracle",
      "verify.run_suite"]),
    (["verify", "8"],
     ["kernel.step_m1", "kernel.step_m2", "oracle.enumerate_oracle",
      "verify.run_suite"],
     ["level.read_snapshot", "level.write_snapshot"]),
    (["count", "12", "--source", "evolve2"],
     ["kernel.step_m2", "engine.evolve"],
     ["kernel.step_m1", "level.from_raw", "kernel.enumerate_level",
      "oracle.enumerate_oracle", "oracle.count_oracle",
      "level.read_snapshot", "level.write_snapshot", "verify.run_suite"]),
    (["count", "12", "--source", "evolve1"],
     ["kernel.step_m1", "engine.evolve"],
     ["kernel.step_m2", "level.from_raw", "kernel.enumerate_level",
      "oracle.enumerate_oracle", "oracle.count_oracle",
      "level.read_snapshot", "level.write_snapshot", "verify.run_suite"]),
], ids=["evolve-m2", "resume-m1", "resume-m1-reformatted", "verify",
        "count-evolve2", "count-evolve1"])
def test_the_tracer_runs_the_cli_unchanged(tmp_path, argv, spans, bypassed):
    code, _, _ = _run(["-m", "partition_evolve", "evolve", "0", "6",
                       "--method", "1", "--snapshot-out", "in.jsonl"],
                      tmp_path)
    assert code == 0
    (tmp_path / "compact.jsonl").write_text("".join(
        json.dumps(json.loads(line), separators=(",", ":")) + "\n"
        for line in (tmp_path / "in.jsonl").read_text().splitlines()))
    plain = _run(["-m", "partition_evolve", *argv], tmp_path)
    plain_file = (tmp_path / "out.jsonl").read_bytes() if (
        "out.jsonl" in argv) else None
    traced = _run([str(ROOT / "perfbench" / "tracer.py"), "stats.json",
                   *argv], tmp_path)
    assert traced[0] == 0
    assert traced == plain
    if plain_file is not None:
        assert (tmp_path / "out.jsonl").read_bytes() == plain_file
    stats = json.loads((tmp_path / "stats.json").read_text())["spans"]
    for name in [*spans, "cli.main"]:
        assert stats[name]["calls"] >= 1, name
    for name in bypassed:
        assert stats[name]["calls"] == 0, name
