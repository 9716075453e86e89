"""Tests of the benchmark itself, at small sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SMALL_EVOLVE_N, SMALL_RESUME_FROM, SMALL_VERIFY_N = 12, 8, 6


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    return tmp_path


def small_workloads(tmp_path, **wrong) -> dict[str, bench.Workload]:
    """The workloads at small sizes, with references from the oracle."""
    reference = {
        "evolve-m2-text": bench.oracle_text_digest(SMALL_EVOLVE_N, tmp_path),
        "resume-m1-jsonl": bench.oracle_m1_snapshot_digest(SMALL_EVOLVE_N,
                                                           tmp_path),
        "verify": hashlib.sha256(bench.expected_verify_report(
            SMALL_VERIFY_N).encode()).hexdigest(),
    }
    reference.update(wrong)
    return bench.workloads(SMALL_EVOLVE_N, SMALL_RESUME_FROM, SMALL_VERIFY_N,
                           reference)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.workloads())


def test_pinned_evolve_references_derive_from_the_oracle(tmp_path):
    assert bench.REFERENCE["evolve-m2-text"] == bench.oracle_text_digest(
        bench.EVOLVE_N, tmp_path)
    assert bench.REFERENCE["resume-m1-jsonl"] == (
        bench.oracle_m1_snapshot_digest(bench.EVOLVE_N, tmp_path))


@pytest.mark.parametrize("name", list(bench.workloads()))
def test_small_workload_passes_and_reports_end_to_end_metrics(tmp_path, name):
    out = io.StringIO()
    result = bench.run_workload(small_workloads(tmp_path)[name], 1, 0, False,
                                out)
    assert result["correct"], out.getvalue()
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: (metric["unit"], metric["value"] > 0)
            for name, metric in result["metrics"].items()} == {
        spec["name"]: (spec["unit"], True) for spec in SPEC["end_to_end"]}
    assert re.search(r"error_rate +0\.0000 ", out.getvalue())


@pytest.mark.parametrize("name", list(bench.workloads()))
def test_wrong_reference_fails_every_run(tmp_path, name):
    out = io.StringIO()
    workloads = small_workloads(tmp_path, **{name: "0" * 64})
    result = bench.run_workload(workloads[name], 1, 0, False, out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert re.search(r"error_rate +1\.0000 ", out.getvalue())


@pytest.mark.parametrize("name", list(bench.workloads()))
def test_traced_run_reports_every_layer_and_skips_bypassed_ones(tmp_path,
                                                                name):
    out = io.StringIO()
    result = bench.run_workload(small_workloads(tmp_path)[name], 1, 0, True,
                                out)
    assert result["correct"], out.getvalue()
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in SPEC["per_layer"]}
    for layer in bench.workloads()[name].bypassed:
        assert result["metrics"][f"{layer}.self_s"]["value"] == 0


def test_entering_a_bypassed_layer_fails_the_traced_run(tmp_path):
    workload = small_workloads(tmp_path)["evolve-m2-text"]
    workload = bench.Workload(workload.name, workload.args,
                              workload.reference, ("kernel.step_m2",))
    out = io.StringIO()
    result = bench.run_workload(workload, 1, 0, True, out)
    assert not result["correct"]
    assert result["failed"] == 0
    assert "kernel.step_m2 was entered" in out.getvalue()


def test_verify_distinct_ratio_counts_shared_enumerations(tmp_path):
    result = bench.run_workload(small_workloads(tmp_path)["verify"], 1, 0,
                                True, io.StringIO())
    metrics = result["metrics"]
    calls = metrics["oracle.enumerate_oracle.calls"]["value"]
    assert calls > SMALL_VERIFY_N + 1
    assert metrics["oracle.enumerate_oracle.distinct_ratio"]["value"] == (
        (SMALL_VERIFY_N + 1) / calls)


def test_peak_rss_is_each_childs_own(tmp_path):
    big = bench.run_child(
        [sys.executable, "-c", "x = bytearray(200 << 20); x[::4096] = "
         "b'1' * len(x[::4096])"], tmp_path)
    small = bench.run_child([sys.executable, "-c", "pass"], tmp_path)
    assert big.exit_code == small.exit_code == 0
    assert big.peak_rss_mib > 200
    assert small.peak_rss_mib < 100


def test_seed_only_reorders_the_resume_input(tmp_path):
    workload = small_workloads(tmp_path)["resume-m1-jsonl"]
    inputs = []
    for seed in (1, 2):
        bench.prepare_input(workload, seed, tmp_path)
        inputs.append((tmp_path / "in.jsonl").read_bytes())
    assert inputs[0] != inputs[1]
    assert sorted(inputs[0].splitlines()) == sorted(inputs[1].splitlines())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
