"""The self-check suite: green on the real code, loud on sabotaged
kernels and inverses, deterministic output."""

import pytest

from partition_evolve import (CheckResult, Level, NoPredecessorError,
                              VerificationReport, run_suite)
import partition_evolve.cli
from partition_evolve import _pure, backend, verify


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
    # Cap 0 leaves no step to check, and the bijection checks say so.
    report = run_suite(5, cap=0)
    assert report.format_text().splitlines()[2:5] == [
        "PASS  q-semantics Q(n) counts smallest-part-once partitions [n=0..0]",
        "PASS  method1 successor bijection and round-trip [no step checked]",
        "PASS  method2 successor bijection and round-trip [no step checked]",
    ]


def test_report_is_deterministic():
    assert run_suite(12).format_text() == run_suite(12).format_text()


def test_sabotaged_classifier_is_reported_with_a_counterexample(monkeypatch):
    # Treat every partition as FirstKind: the method-1 step grows no
    # augmented heads, so coverage of level n+1 breaks.
    monkeypatch.setattr(_pure, "step_m1", lambda heads: ([], 0))
    report = run_suite(8)
    assert not report.overall
    by_name = {c.name: c for c in report.checks}
    broken = by_name["method1 successor bijection and round-trip"]
    assert not broken.passed
    assert broken.counterexample is not None
    assert "missing" in broken.counterexample
    # The sabotage sits in the method-1 kernel; the series-side checks and
    # the string predicate of the q-semantics check stay green.
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


def test_results_are_immutable_values():
    ok = CheckResult("x", "n=0..1", True)
    bad = CheckResult("x", "n=0..1", False, "n=1: off by one")
    assert ok == CheckResult("x", "n=0..1", True) and ok != bad
    assert hash(ok) == hash(CheckResult("x", "n=0..1", True))
    assert len({ok, bad, CheckResult("x", "n=0..1", True)}) == 2
    # Only a record of the same class compares equal.
    assert ok.__eq__(("x", "n=0..1", True, None)) is NotImplemented
    assert ok != VerificationReport((ok,))
    assert repr(ok) == ("CheckResult(name='x', scope='n=0..1', passed=True, "
                        "counterexample=None)")
    report = VerificationReport((ok, bad))
    assert report == VerificationReport((ok, bad))
    assert hash(report) == hash(VerificationReport((ok, bad)))
    assert repr(report) == f"VerificationReport(checks=({ok!r}, {bad!r}))"
    with pytest.raises(AttributeError, match="^cannot assign to field 'name'$"):
        ok.name = "y"
    with pytest.raises(AttributeError,
                       match="^cannot assign to field 'extra'$"):
        ok.extra = 1
    with pytest.raises(AttributeError,
                       match="^cannot delete field 'checks'$"):
        del report.checks
    assert ok.name == "x" and report.checks == (ok, bad)


def test_report_formatting_counts_failures():
    report = VerificationReport((
        CheckResult("a", "n=0..1", True),
        CheckResult("b", "n=0..1", False, "n=0: wrong"),
    ))
    assert not report.overall
    assert report.format_text().endswith("OVERALL FAIL (2 checks, 1 failed)")


def _drop_last_second_kind(step, weight):
    # The kernels list the new heads of the second kind last; a step from
    # heads of weights 0..n grows weight n+1.
    def sabotaged(heads):
        out, second = step(heads)
        if len(heads) == weight:
            return out[:-1], second - 1
        return out, second
    return sabotaged


def _omit_member(enumerate_level, weight, member):
    def sabotaged(n):
        out = enumerate_level(n)
        return [m for m in out if m != member] if n == weight else out
    return sabotaged


def _added_unit_only(step, weight):
    # Grows no second-kind heads from the partitions of ``weight``.
    def sabotaged(heads):
        return ([], 0) if len(heads) == weight + 1 else step(heads)
    return sabotaged


def _changed_at(step, weight, change):
    # ``change(out, second)`` replaces what the step growing ``weight``
    # returns.
    def sabotaged(heads):
        out, second = step(heads)
        return change(out, second) if len(heads) == weight else (out, second)
    return sabotaged


def _refusing(pred, weight, applies):
    def sabotaged(member):
        if sum(map(ord, member)) == weight and applies(member):
            raise NoPredecessorError("sabotaged")
        return pred(member)
    return sabotaged


def _grows_the_single_part(pred, weight):
    def sabotaged(member):
        return chr(weight - 1) if member == chr(weight) else pred(member)
    return sabotaged


def _wrong_predecessor(pred, weight, applies):
    # Members of ``weight`` that ``applies`` picks map to all units.
    def sabotaged(member):
        if sum(map(ord, member)) == weight and applies(member):
            return "\x01" * (weight - 1)
        return pred(member)
    return sabotaged


def _count_off_by_one(count_oracle, weight):
    def sabotaged(n, **kwargs):
        counts = count_oracle(n, **kwargs)
        counts[weight] += 1
        return counts
    return sabotaged


def _q_off_by_one(coefficient_rows, weight):
    def sabotaged(n_max):
        return [(n, p, q + 1 if n == weight else q)
                for n, p, q in coefficient_rows(n_max)]
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
        4: "n=6: successor union is missing 3+2+2",
        5: "n=7: method2 vs enumeration, index 8: 3+2+1+1 vs 3+2+2"}),
    (_pure, "step_m2", lambda real: _drop_last_second_kind(real, 8), {
        4: "n=7: successor union is missing 2+2+2+2",
        5: "n=8: method2 vs enumeration, index 17: 2+2+2+1+1 vs 2+2+2+2",
        6: "n=8: index 17: 2+2+2+1+1 vs 2+2+2+2"}),
    (_pure, "step_m1", lambda real: _drop_last_second_kind(real, 7), {
        3: "n=6: successor union is missing 3+2+2",
        5: "n=7: method1 vs enumeration, index 8: 3+2+1+1 vs 3+2+2",
        6: "n=7: index 8: 3+2+1+1 vs 3+2+2"}),
    (_pure, "pred_m2",
     lambda real: _wrong_predecessor(real, 6, lambda m: len(m) > 1), {
        4: "n=5: predecessor(5+1)=1+1+1+1+1 but it was produced by 5"}),
    # 5 and 3+2 both go missing; the report names the first in order.
    (_pure, "step_m1", lambda real: _added_unit_only(real, 4), {
        3: "n=4: successor union is missing 5",
        5: "n=5: method1 vs enumeration, index 0: 4+1 vs 5",
        6: "n=5: index 0: 4+1 vs 5"}),
    (_pure, "enumerate_level",
     lambda real: _omit_member(real, 6, "\x05\x01"), {
         2: "n=6: Q(n)=4 but enumeration finds 3 second-kind partitions",
         3: "n=5: successor union is extra 5+1",
         4: "n=5: successor union is extra 5+1",
         5: "n=6: method1 vs enumeration, index 1: 5+1 vs 4+2",
         6: "n=6: index 1: 5+1 vs 4+2"}),
    # The level that evolution grows repeats 6 too, and fails validation.
    (_pure, "step_m1", lambda real: _changed_at(
        real, 6, lambda out, second: (out + out[:1], second + 1)), {
        3: "n=5: 5 and 5 both produce 6",
        5: "n=6: method1 vs enumeration, members out of canonical order or "
           "duplicated near 6"}),
    # The level is unchanged; only the step's own account of it is wrong.
    (_pure, "step_m2", lambda real: _changed_at(
        real, 6, lambda out, second: (out, second + 1)), {
        4: "n=5: rule produced the excluded single-part 6 from 5"}),
    (_pure, "pred_m1",
     lambda real: _wrong_predecessor(real, 8, lambda m: m[-1] != "\x01"), {
        3: "n=7: predecessor(8)=1+1+1+1+1+1+1 but it was produced by 7"}),
    (_pure, "pred_m1",
     lambda real: _refusing(real, 8, lambda m: m[-1] != "\x01"), {
        3: "n=7: predecessor(8) refused but it was produced by 7"}),
    (_pure, "pred_m2", lambda real: _grows_the_single_part(real, 6), {
        4: "n=5: predecessor(6) gave 5, expected a refusal"}),
    (_pure, "step_m2", lambda real: _changed_at(
        real, 6, lambda out, second: (out[1:], second)), {
        4: "n=5: the step grew 0 explicit heads [], expected [6]",
        5: "n=6: method2 vs enumeration, index 0: 5+1 vs 6",
        6: "n=6: index 0: 5+1 vs 6"}),
    # The first new head, 6 (5 raised), becomes 5 with a unit appended,
    # which the inverse still maps back to 5.
    (_pure, "step_m1", lambda real: _changed_at(
        real, 6, lambda out, second: (["\x05\x01", *out[1:]], second)), {
        3: "n=5: 5 and 5 both produce 5+1",
        5: "n=6: method1 vs enumeration, members out of canonical order or "
           "duplicated near 5+1"}),
    # The members that end in a unit still map onto a prefix of level 5.
    (_pure, "enumerate_level",
     lambda real: _omit_member(real, 6, "\x01" * 6), {
         3: "n=5: successor union is extra 1+1+1+1+1+1",
         4: "n=5: successor union is extra 1+1+1+1+1+1",
         5: "n=6: method1 vs enumeration, lengths differ: 11 vs 10",
         6: "n=6: lengths differ: 11 vs 10"}),
    # The first new head, 6, gains a unit: the grown level holds 6+1, of
    # weight 7, which fails its own validation.
    (_pure, "step_m2", lambda real: _changed_at(
        real, 6, lambda out, second: (
            [head + "\x01" for head in out[:1]] + out[1:], second)), {
        4: "n=5: the step grew 1 explicit heads [6+1], expected [6]",
        5: "n=6: method2 vs enumeration, member 6+1 has weight 7, level "
           "holds weight 6",
        6: "n=6: member 6+1 has weight 7, level holds weight 6"}),
    (verify, "count_oracle", lambda real: _count_off_by_one(real, 7), {
        1: "n=7: series P(n)=15 but counting recurrence gives 16"}),
    (verify, "coefficient_rows", lambda real: _q_off_by_one(real, 5), {
        0: "n=5: P(n+1)=11 but P(n)+Q(n)=12",
        2: "n=5: Q(n)=5 but enumeration finds 4 second-kind partitions"}),
], ids=["step_m2-odd", "step_m2-even", "step_m1-odd", "predecessor_m2",
        "successors_m1", "enumerate_level", "step_m1-duplicate",
        "step_m2-explicit-in-second-block", "pred_m1-round-trip",
        "pred_m1-refusal", "pred_m2-no-refusal", "step_m2-no-explicit-head",
        "step_m1-unit-ending-head", "enumerate_level-all-units",
        "step_m2-wrong-weight", "count_oracle", "coefficient_rows"])
def test_sabotage_reports_are_pinned(monkeypatch, module, name, sabotage,
                                     failures):
    # Each check stops at its own first failure; the method-2 fault at an
    # odd weight stays invisible to the mixed run, which uses method 1
    # there.
    monkeypatch.setattr(module, name, sabotage(getattr(module, name)))
    report = run_suite(12)
    assert report.format_text() == _report(failures)


def _counting(monkeypatch, name, module=verify):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("max_n,cap,weights", [
    (15, 60, list(range(16))),
    (10, 4, list(range(5))),
])
def test_each_weight_is_enumerated_once(monkeypatch, max_n, cap, weights):
    calls = _counting(monkeypatch, "enumerate_oracle")
    assert run_suite(max_n, cap=cap).overall
    assert calls == weights


def test_each_weight_is_split_and_stepped_once_per_method(monkeypatch):
    # The bijection, equivalence and mixed checks share one split of level
    # n-1 and one step per method, n = 1..15.
    calls = {name: _counting(monkeypatch, name, module)
             for module, name in ((verify, "split_heads"),
                                  (_pure, "step_m1"), (_pure, "step_m2"))}
    assert run_suite(15).overall
    assert {name: len(args) for name, args in calls.items()} == {
        "split_heads": 15, "step_m1": 15, "step_m2": 15}


def test_the_suite_builds_only_the_oracle_levels(monkeypatch):
    # The checks work on member lists; the only Levels are the ones
    # enumerate_oracle returns, one per weight.
    built = []
    init = Level.__init__

    def counted(self, n, *args):
        built.append(n)
        init(self, n, *args)

    monkeypatch.setattr(Level, "__init__", counted)
    calls = _counting(monkeypatch, "enumerate_oracle")
    assert run_suite(15).overall
    assert built == calls == list(range(16))


@pytest.mark.parametrize("module,name", [
    pytest.param(module, name, id=name)
    for module, names in ((verify, ["enumerate_oracle", "count_oracle",
                                    "coefficient_rows"]),
                          (_pure, ["step_m1", "step_m2", "pred_m1",
                                   "pred_m2"]))
    for name in names
])
def test_suite_calls_the_module_globals_it_is_traced_through(monkeypatch,
                                                              module, name):
    # perfbench/tracer.py replaces module attributes such as these, and the
    # sabotage tests above replace the kernels and inverses, so the suite
    # must look them up when it runs.
    calls = _counting(monkeypatch, name, module)
    assert run_suite(6).overall
    assert calls


# Every attribute perfbench/tracer.py replaces, and the package function
# perfbench/bench.py calls.  "kernel" stands for the module that
# backend.get_backend() returns, which the tracer patches.
BENCHMARK_HOOKS = [
    "backend.get_backend",
    "kernel.step_m1", "kernel.step_m2", "kernel.enumerate_level",
    "level.Level.from_raw",
    "method1.run_evolution", "method2.run_evolution",
    "cli.main", "cli.enumerate_oracle", "cli.count_oracle",
    "cli.read_snapshot", "cli.write_snapshot", "cli.run_suite",
    "verify.enumerate_oracle", "verify.count_oracle",
    "verify.coefficient_rows",
    "verify.tagged_successors_m1", "verify.predecessor_m1",
    "verify.tagged_successors_m2", "verify.predecessor_m2",
    "default_backend_name",
]


@pytest.mark.parametrize("path", BENCHMARK_HOOKS)
def test_benchmark_hooks_resolve(path):
    # The benchmark looks these up by name; the suite no longer calls some
    # of them, but each must still resolve to a callable.
    target = partition_evolve
    for name in path.split("."):
        target = (backend.get_backend() if name == "kernel"
                  else getattr(target, name))
    assert callable(target)
