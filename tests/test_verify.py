"""The self-check suite: green on the real code, loud on a sabotaged
classifier, deterministic output."""

import pytest

from partition_evolve import (CheckResult, Kind, Partition,
                              VerificationReport, run_suite)
from partition_evolve import _pure, method1, verify


EXPECTED_CHECK_NAMES = [
    "count-recurrence P(n+1)=P(n)+Q(n)",
    "count-identity series vs counting recurrence",
    "q-semantics Q(n) counts smallest-part-once partitions",
    "method1 successor bijection and round-trip",
    "method2 successor bijection and round-trip",
    "method equivalence with enumeration",
    "mixed-method evolution matches enumeration",
]


def test_suite_passes_and_lists_checks_in_fixed_order():
    report = run_suite(25)
    assert report.overall
    assert [c.name for c in report.checks] == EXPECTED_CHECK_NAMES
    assert all(c.counterexample is None for c in report.checks)
    assert report.format_text().endswith("OVERALL PASS (7 checks)")


def test_degenerate_range_passes():
    report = run_suite(1)
    assert report.overall


def test_max_n_must_be_positive():
    with pytest.raises(ValueError):
        run_suite(0)


def test_cap_bounds_the_enumeration_checks():
    report = run_suite(10, cap=4)
    scopes = {c.name: c.scope for c in report.checks}
    assert scopes["count-recurrence P(n+1)=P(n)+Q(n)"] == "n=0..9"
    assert scopes["q-semantics Q(n) counts smallest-part-once partitions"] \
        == "n=0..4"
    assert scopes["method1 successor bijection and round-trip"] == "n=0..3"
    assert report.overall


def test_report_is_deterministic():
    assert run_suite(12).format_text() == run_suite(12).format_text()


def test_sabotaged_classifier_is_reported_with_a_counterexample(monkeypatch):
    # Misclassify everything as FirstKind: the rule stops producing the
    # augmented successors, so coverage of level n+1 breaks.
    monkeypatch.setattr(method1, "classify_m1", lambda p: Kind.FIRST)
    report = run_suite(8)
    assert not report.overall
    by_name = {c.name: c for c in report.checks}
    broken = by_name["method1 successor bijection and round-trip"]
    assert not broken.passed
    assert broken.counterexample is not None
    assert "missing" in broken.counterexample
    # The sabotage sits in method1's lookup; the series-side checks and
    # the direct classifier uses elsewhere stay green.
    assert by_name["count-recurrence P(n+1)=P(n)+Q(n)"].passed
    assert by_name[
        "q-semantics Q(n) counts smallest-part-once partitions"].passed
    assert "FAIL" in report.format_text()


def test_check_result_shape_is_enforced():
    with pytest.raises(ValueError):
        CheckResult("x", "n=0..1", True, "should not be here")
    with pytest.raises(ValueError):
        CheckResult("x", "n=0..1", False)
    ok = CheckResult("x", "n=0..1", True)
    assert ok.format_line() == "PASS  x [n=0..1]"
    bad = CheckResult("x", "n=0..1", False, "n=1: off by one")
    assert bad.format_line() == \
        "FAIL  x [n=0..1]  counterexample: n=1: off by one"


def test_report_formatting_counts_failures():
    report = VerificationReport((
        CheckResult("a", "n=0..1", True),
        CheckResult("b", "n=0..1", False, "n=0: wrong"),
    ))
    assert not report.overall
    assert report.format_text().endswith("OVERALL FAIL (2 checks, 1 failed)")


def _drop_last_second_kind(step, weight):
    # The kernels list the second-kind successors last.
    def sabotaged(members):
        out, second = step(members)
        if sum(map(ord, members[0])) + 1 == weight:
            return out[:-1], second - 1
        return out, second
    return sabotaged


def _omit_member(enumerate_level, weight, member):
    def sabotaged(n):
        out = enumerate_level(n)
        return [m for m in out if m != member] if n == weight else out
    return sabotaged


def _added_unit_only(tagged_successors, weight):
    def sabotaged(p):
        successors = tagged_successors(p)
        return successors[:1] if p.weight == weight else successors
    return sabotaged


def _wrong_predecessor(predecessor, weight):
    def sabotaged(p):
        if p.weight == weight and len(p) > 1:
            return Partition([1] * (weight - 1))
        return predecessor(p)
    return sabotaged


_ALL_PASS = [
    "PASS  count-recurrence P(n+1)=P(n)+Q(n) [n=0..11]",
    "PASS  count-identity series vs counting recurrence [n=0..12]",
    "PASS  q-semantics Q(n) counts smallest-part-once partitions [n=0..12]",
    "PASS  method1 successor bijection and round-trip [n=0..11]",
    "PASS  method2 successor bijection and round-trip [n=0..11]",
    "PASS  method equivalence with enumeration [n=0..12]",
    "PASS  mixed-method evolution matches enumeration [n=0..12]",
]


def _report(failures):
    """The full run_suite(12) text with the given check lines failing,
    keyed by their index in _ALL_PASS."""
    lines = [("FAIL" + line[4:] + "  counterexample: " + failures[i])
             if i in failures else line for i, line in enumerate(_ALL_PASS)]
    lines.append(f"OVERALL FAIL (7 checks, {len(failures)} failed)")
    return "\n".join(lines)


@pytest.mark.parametrize("module,name,sabotage,failures", [
    (_pure, "step_m2", lambda real: _drop_last_second_kind(real, 7), {
        5: "n=7: method2 vs enumeration, index 8: 3+2+1+1 vs 3+2+2"}),
    (_pure, "step_m2", lambda real: _drop_last_second_kind(real, 8), {
        5: "n=8: method2 vs enumeration, index 17: 2+2+2+1+1 vs 2+2+2+2",
        6: "n=8: index 17: 2+2+2+1+1 vs 2+2+2+2"}),
    (_pure, "step_m1", lambda real: _drop_last_second_kind(real, 7), {
        5: "n=7: method1 vs enumeration, index 8: 3+2+1+1 vs 3+2+2",
        6: "n=7: index 8: 3+2+1+1 vs 3+2+2"}),
    (verify, "predecessor_m2", lambda real: _wrong_predecessor(real, 6), {
        4: "n=5: predecessor(5+1)=1+1+1+1+1 but it was produced by 5"}),
    # 5 and 3+2 both go missing; the report names the first in order.
    (verify, "tagged_successors_m1", lambda real: _added_unit_only(real, 4), {
        3: "n=4: successor union is missing 5"}),
    (_pure, "enumerate_level",
     lambda real: _omit_member(real, 6, "\x05\x01"), {
         2: "n=6: Q(n)=4 but enumeration finds 3 second-kind partitions",
         3: "n=5: successor union is extra 5+1",
         4: "n=5: successor union is extra 5+1",
         5: "n=6: method1 vs enumeration, index 1: 5+1 vs 4+2",
         6: "n=6: index 1: 5+1 vs 4+2"}),
], ids=["step_m2-odd", "step_m2-even", "step_m1-odd", "predecessor_m2",
        "successors_m1", "enumerate_level"])
def test_sabotage_reports_are_pinned(monkeypatch, module, name, sabotage,
                                     failures):
    # Each check stops at its own first failure; the method-2 fault at an
    # odd weight stays invisible to the mixed run, which uses method 1
    # there.
    monkeypatch.setattr(module, name, sabotage(getattr(module, name)))
    report = run_suite(12)
    assert report.format_text() == _report(failures)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("max_n,cap,weights", [
    (15, 60, list(range(16))),
    (10, 4, list(range(5))),
])
def test_each_weight_is_enumerated_once(monkeypatch, max_n, cap, weights):
    calls = _counting(monkeypatch, "enumerate_oracle")
    assert run_suite(max_n, cap=cap).overall
    assert calls == weights


@pytest.mark.parametrize("name", [
    "enumerate_oracle", "count_oracle", "coefficient_rows",
    "tagged_successors_m1", "predecessor_m1",
    "tagged_successors_m2", "predecessor_m2",
])
def test_suite_calls_the_module_globals_it_is_traced_through(monkeypatch,
                                                              name):
    # perfbench/tracer.py replaces these attributes of the verify module,
    # so the suite must look them up when it runs.
    calls = _counting(monkeypatch, name)
    assert run_suite(6).overall
    assert calls
