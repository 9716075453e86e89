"""Acceptance gate: one test per criterion, exact tolerances, timed where
a budget applies.  The conftest summary hook prints one line per
criterion at the end of the run."""

import json
import time

from partition_evolve import (Kind, classify_m1, enumerate_oracle,
                              euler_p_coeffs, q_coeffs)

from golden import (M1_FROM_GROUP1, M1_FROM_GROUP2, M1_GROUP1_5, M1_GROUP2_5,
                    M2_EXPLICIT_6, M2_FROM_GROUP1, M2_FROM_GROUP2,
                    M2_GROUP1_5, M2_GROUP2_5, PARTITIONS_5, PARTITIONS_6)

from support import (assert_m1_bijection, assert_m2_bijection,
                     assert_method_equivalence)


def _group_block(label, kind, members):
    lines = [f"{label} ({kind}): {len(members)} partitions"]
    lines += [f"  {t}" for t in members]
    return lines


def _classify_output(group1, group2):
    lines = _group_block("Group 1", "FirstKind", group1)
    lines += _group_block("Group 2", "SecondKind", group2)
    return "\n".join(lines) + "\n"


def _seed_snapshot(path, texts, n):
    lines = [json.dumps({"n": n, "parts": [int(x) for x in t.split("+")],
                         "tag": "Seed"}) for t in texts]
    path.write_text("\n".join(lines) + "\n")


def test_criterion_1_method1_worked_example(run_cli, tmp_path):
    started = time.perf_counter()

    code, out, _ = run_cli("classify", 5, "--method", 1)
    assert code == 0
    assert out == _classify_output(M1_GROUP1_5, M1_GROUP2_5)

    snapshot = tmp_path / "level5.jsonl"
    _seed_snapshot(snapshot, PARTITIONS_5, 5)
    code, out, _ = run_cli("evolve", 5, 6, "--method", 1,
                           "--snapshot-in", snapshot)
    assert code == 0
    produced = out.splitlines()
    assert len(produced) == 11
    assert set(produced) == set(M1_FROM_GROUP1) | set(M1_FROM_GROUP2)
    assert set(produced) == set(PARTITIONS_6)

    assert time.perf_counter() - started < 1.0


def test_criterion_2_method2_worked_example(run_cli, tmp_path):
    started = time.perf_counter()

    code, out, _ = run_cli("classify", 5, "--method", 2)
    assert code == 0
    assert out == _classify_output(M2_GROUP1_5, M2_GROUP2_5)

    snapshot = tmp_path / "level5.jsonl"
    result = tmp_path / "level6.jsonl"
    _seed_snapshot(snapshot, PARTITIONS_5, 5)
    code, _, _ = run_cli("evolve", 5, 6, "--method", 2,
                         "--snapshot-in", snapshot,
                         "--snapshot-out", result)
    assert code == 0
    records = [json.loads(line) for line in result.read_text().splitlines()]
    produced = {"+".join(map(str, r["parts"])): r["tag"] for r in records}
    assert len(produced) == 11
    assert set(produced) == (set(M2_FROM_GROUP1) | set(M2_FROM_GROUP2)
                             | set(M2_EXPLICIT_6))
    # The single-part member enters through the explicit step alone.
    assert [t for t, tag in produced.items() if tag == "Explicit"] == ["6"]

    assert time.perf_counter() - started < 1.0


def test_criterion_3_count_identities(run_cli):
    started = time.perf_counter()

    for source in ("series", "oracle", "evolve1", "evolve2"):
        assert run_cli("count", 5, "--source", source)[1] == "7\n"
        assert run_cli("count", 6, "--source", source)[1] == "11\n"

    p = euler_p_coeffs(201)
    q = q_coeffs(200)
    for n in range(201):
        assert p[n + 1] == p[n] + q[n], f"n={n}"

    assert time.perf_counter() - started < 30.0


def test_criterion_4_method1_bijection():
    started = time.perf_counter()
    assert_m1_bijection(30)
    assert time.perf_counter() - started < 60.0


def test_criterion_5_method2_bijection():
    assert_m2_bijection(30)


def test_criterion_6_q_semantics():
    q = q_coeffs(40)
    p = euler_p_coeffs(41)
    for n in range(41):
        once = sum(1 for member in enumerate_oracle(n).partitions
                   if classify_m1(member) is Kind.SECOND)
        assert q[n] == once, f"n={n}"
        assert q[n] == p[n + 1] - p[n], f"n={n}"


def test_criterion_7_method_equivalence():
    assert_method_equivalence(40)


def test_criterion_8_determinism(run_cli):
    first = run_cli("verify", 30)
    second = run_cli("verify", 30)
    assert first[0] == second[0] == 0
    assert first == second

    for method in (1, 2):
        first = run_cli("evolve", 0, 20, "--method", method)
        second = run_cli("evolve", 0, 20, "--method", method)
        assert first[0] == second[0] == 0
        assert first == second
