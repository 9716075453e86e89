"""The self-check suite: green on the real code, loud on sabotaged
kernels and inverses, deterministic output."""

import pytest

from partition_evolve import (CheckResult, Level, NoPredecessorError,
                              VerificationReport, run_suite)
import partition_evolve.cli
from partition_evolve import _pure, backend, verify
from partition_evolve.core import collectable, smallest_part_once
from partition_evolve.engine import grown_members, split_heads
from partition_evolve.level import Joined

from support import shuffled


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


def test_cap_must_be_nonnegative():
    # A negative cap would enumerate nothing and still report PASS.
    with pytest.raises(ValueError, match="cap"):
        run_suite(5, cap=-1)


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


def _each(pred, fault):
    # The list inverse ``pred`` with ``fault(member)`` in place of the
    # inverse of each member it picks, in order: ``fault`` returns None to
    # keep the member's own inverse, a wrong predecessor, or raises.
    def one(member):
        wrong = fault(member)
        return pred([member])[0] if wrong is None else wrong
    return lambda members: list(map(one, members))


def _refusing(pred, weight, applies):
    def fault(member):
        if sum(map(ord, member)) == weight and applies(member):
            raise NoPredecessorError("sabotaged")
    return _each(pred, fault)


def _grows_the_single_part(pred, weight):
    return _each(pred, lambda member: chr(weight - 1)
                 if member == chr(weight) else None)


def _wrong_predecessor(pred, weight, applies):
    # Members of ``weight`` that ``applies`` picks map to all units.
    return _each(pred, lambda member: "\x01" * (weight - 1)
                 if sum(map(ord, member)) == weight and applies(member)
                 else None)


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


def _last_head_repeated(out, second):
    # The last new head becomes a copy of the one before it, so the block
    # keeps its length; a step that grows one head keeps it.
    return (out[:-1] + out[-2:-1] if len(out) > 1 else out), second


_SABOTAGE = [
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
    (_pure, "step_m1",
     lambda real: _changed_at(real, 8, _last_head_repeated), {
        3: "n=7: 3+3+1 and 3+3+1 both produce 3+3+2",
        5: "n=8: method1 vs enumeration, members out of canonical order or "
           "duplicated near 3+3+2"}),
    (_pure, "step_m2",
     lambda real: _changed_at(real, 8, _last_head_repeated), {
        4: "n=7: level 7 and level 7 both produce 3+3+2",
        5: "n=8: method2 vs enumeration, members out of canonical order or "
           "duplicated near 3+3+2",
        6: "n=8: members out of canonical order or duplicated near 3+3+2"}),
    # The oracle's level lacks the single part 6, which method 2's step
    # grows explicitly: both steps grow it extra.
    (_pure, "enumerate_level", lambda real: _omit_member(real, 6, "\x06"), {
        2: "n=6: Q(n)=4 but enumeration finds 3 second-kind partitions",
        3: "n=5: successor union is extra 6",
        4: "n=5: successor union is extra 6",
        5: "n=6: method1 vs enumeration, index 0: 6 vs 5+1",
        6: "n=6: index 0: 6 vs 5+1"}),
    # Only the inverse of the unit-ending members is wrong.
    (_pure, "pred_m1",
     lambda real: _wrong_predecessor(real, 6, lambda m: m[-1] == "\x01"), {
        3: "n=5: predecessor(5+1)=1+1+1+1+1 but it was produced by 5"}),
    # Level 0 is empty: one evolution check at weight 0 finds it for
    # equivalence, and the mixed run, which starts at weight 1, fails there.
    (_pure, "enumerate_level", lambda real: (
        lambda n: [] if n == 0 else real(n)), {
        3: "n=0: successor union is missing 1",
        4: "n=0: successor union is missing 1",
        5: "n=0: method1 vs enumeration, lengths differ: 1 vs 0",
        6: "n=1: lengths differ: 0 vs 1"}),
    # The kind test drops 3+1 while the step still grows level 5: only the
    # inverse's image of the new heads disagrees.
    (verify, "collectable",
     lambda real: lambda members: [m for m in real(members)
                                   if m != "\x03\x01"], {
        4: "n=4: the new heads' predecessors are not the second-kind "
           "partitions of 4"}),
]
_SABOTAGE_IDS = [
    "step_m2-odd", "step_m2-even", "step_m1-odd", "predecessor_m2",
    "successors_m1", "enumerate_level", "step_m1-duplicate",
    "step_m2-explicit-in-second-block", "pred_m1-round-trip",
    "pred_m1-refusal", "pred_m2-no-refusal", "step_m2-no-explicit-head",
    "step_m1-unit-ending-head", "enumerate_level-all-units",
    "step_m2-wrong-weight", "count_oracle", "coefficient_rows",
    "step_m1-repeated-last-head", "step_m2-repeated-last-head",
    "enumerate_level-no-single-part", "pred_m1-unit-ending",
    "enumerate_level-empty-level-0", "collectable"]


@pytest.mark.parametrize("module,name,sabotage,failures", _SABOTAGE,
                         ids=_SABOTAGE_IDS)
def test_sabotage_reports_are_pinned(monkeypatch, module, name, sabotage,
                                     failures):
    # Each check stops at its own first failure; the method-2 fault at an
    # odd weight stays invisible to the mixed run, which uses method 1
    # there.
    monkeypatch.setattr(module, name, sabotage(getattr(module, name)))
    report = run_suite(12)
    assert report.format_text() == _report(failures)


@pytest.mark.parametrize("chunk", [1, 2, 8192])
@pytest.mark.parametrize("name,sabotage,failures", [
    ("pred_m1", lambda real: _refusing(real, 6, lambda m: m == "\x01" * 6),
     {3: "n=5: predecessor(1+1+1+1+1+1) refused but it was produced by "
         "1+1+1+1+1"}),
    ("pred_m2", lambda real: _wrong_predecessor(
        real, 6, lambda m: m == "\x02\x01\x01\x01\x01"),
     {4: "n=5: predecessor(2+1+1+1+1)=1+1+1+1+1 but it was produced by "
         "2+1+1+1"}),
], ids=["pred_m1-last-unit-ending", "pred_m2-late-unit-ending"])
def test_every_chunk_of_the_unit_ending_block_is_inverted(monkeypatch, chunk,
                                                          name, sabotage,
                                                          failures):
    # The fault sits on one of the last unit-ending members of weight 6,
    # past the first chunk when chunks are small.
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    monkeypatch.setattr(_pure, name, sabotage(getattr(_pure, name)))
    assert run_suite(12).format_text() == _report(failures)


def test_the_pinned_sabotage_cases_cover_every_report_line():
    failed = {case: failures.keys()
              for case, (*_, failures) in zip(_SABOTAGE_IDS, _SABOTAGE)}
    assert set().union(*failed.values()) == set(range(len(_ALL_PASS)))
    # Some case fails a bijection line while equivalence passes, so the
    # bijection verdict cannot be folded into the equivalence verdict
    # unnoticed.
    assert [case for case, lines in failed.items()
            if lines & {3, 4} and 5 not in lines]


def test_suite_passes_with_each_block_of_new_heads_shuffled(monkeypatch):
    # Neither the bijection checks nor the block comparison may depend on
    # the order within a block of new heads, only on the heads.
    for name in ("step_m1", "step_m2"):
        monkeypatch.setattr(_pure, name, shuffled(getattr(_pure, name)))
    assert run_suite(12).format_text() == "\n".join(
        [*_ALL_PASS, "OVERALL PASS (7 checks)"])


def _faulty_heads(new):
    """``new`` with one fault each: a repeated, missing, unit-ending or
    wrong-weight head, or the last head a copy of the one before it; and,
    faultless, reversed."""
    first = new[0]
    yield new + new[:1]
    yield new[1:]
    yield new[:-1]
    yield [first + "\x01", *new[1:]]
    yield [chr(ord(first[0]) + 1) + first[1:], *new[1:]]
    if first[-1] > "\x01":
        lowered = first[:-1] + chr(ord(first[-1]) - 1)
        yield [lowered + "\x01", *new[1:]]
        yield [lowered, *new[1:]]
    if len(new) > 1:
        yield new[:-1] + new[-2:-1]
    yield new[::-1]


def _set_based_bijection(pred, new, second, previous, units, tops, explicit,
                         sources):
    # The reference bijection condition, with the block and the unit-free
    # members compared as sets.
    cut = len(new) - second
    if cut != len(explicit) or new[:cut] != explicit:
        return False
    block = new[cut:]
    unique = set(block)
    try:
        return (len(unique) == len(block)
                and unique == set(tops).difference(explicit)
                and len(previous) == len(units)
                and all(verify._back(pred, single) is None
                        for single in explicit)
                and pred(units) == previous
                and sorted(pred(block), reverse=True) == sources)
    except NoPredecessorError:
        return False


@pytest.mark.parametrize("method", [1, 2], ids=["step_m1", "step_m2"])
def test_block_comparison_agrees_with_the_rendered_level(method):
    # The suite's verdicts for each faulty block agree with the grown
    # level, rendered and compared, and with the set-based bijection
    # condition.
    step, pred, kind = ((_pure.step_m1, _pure.pred_m1, smallest_part_once)
                        if method == 1 else
                        (_pure.step_m2, _pure.pred_m2, collectable))
    for n in range(2, 15):
        previous = _pure.enumerate_level(n - 1)
        members = _pure.enumerate_level(n)
        below = Joined(previous, verify._CHUNK)
        split = below.split(members)
        units, tops = split
        sources = kind(previous)
        explicit = [chr(n)] if method == 2 else []
        new, second = step(split_heads(n - 1, previous))
        cut = len(new) - second
        for heads in [new, *_faulty_heads(new)]:
            # The explicit heads keep their count, so that the block's
            # own faults decide.
            second = len(heads) - cut
            mismatch = verify._level_mismatch(
                n, grown_members(n - 1, previous, [heads]), members)
            grows = verify._grows_level(split, heads)
            assert grows is (mismatch is None), (n, heads)
            assert (grows and verify._inverts(
                pred, heads, second, below, units, explicit,
                Joined(sources, verify._CHUNK))) is \
                _set_based_bijection(pred, heads, second, previous, units,
                                     tops, explicit, sources), (n, heads)


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
    # The bijection, equivalence and mixed checks share one step per method,
    # n = 1..15.  Level 0 alone is split into heads; each level after it
    # carries them on.
    calls = {name: _counting(monkeypatch, name, module)
             for module, name in ((verify, "split_heads"),
                                  (_pure, "step_m1"), (_pure, "step_m2"))}
    assert run_suite(15).overall
    assert {name: len(args) for name, args in calls.items()} == {
        "split_heads": 1, "step_m1": 15, "step_m2": 15}


def _grown_by_both_steps(member, weight):
    # Sets ``_pure.step_m1`` and ``_pure.step_m2`` to grow ``member`` as one
    # more head of ``weight``.
    def sabotage(step):
        def sabotaged(heads):
            out, second = step(heads)
            if len(heads) == weight:
                return out + [member], second + 1
            return out, second
        return sabotaged
    return sabotage


# 1+4+1 weighs 6 and ends in a unit, but its parts do not descend, which a
# level's check does not read.
_OUT_OF_ORDER = "\x01\x04\x01"


@pytest.mark.parametrize("sabotage,report,split", [
    # Level 6 lacks 1^6: every step check fails there, so no weight steps
    # on from it and nothing is split again.
    ({"enumerate_level": lambda real: _omit_member(real, 6, "\x01" * 6)},
     _report({3: "n=5: successor union is extra 1+1+1+1+1+1",
              4: "n=5: successor union is extra 1+1+1+1+1+1",
              5: "n=6: method1 vs enumeration, lengths differ: 11 vs 10",
              6: "n=6: lengths differ: 11 vs 10"}),
     [0]),
    # Level 6 holds 1+4+1 too, and both steps grow it: the grown levels
    # match the oracle's, so equivalence and mixed stay open, but level 6's
    # unit-ending members are not level 5's with a unit appended.  Level 6
    # is split afresh for weight 7; heads carried from level 5 would lack
    # the head 1+4 and grow 1+4+1+1 in place of 1+4+2.
    ({"enumerate_level": lambda real: (lambda n: sorted(
         real(n) + [_OUT_OF_ORDER], reverse=True) if n == 6 else real(n)),
      "step_m1": _grown_by_both_steps(_OUT_OF_ORDER, 6),
      "step_m2": _grown_by_both_steps(_OUT_OF_ORDER, 6)},
     _report({2: "n=6: Q(n)=4 but enumeration finds 5 second-kind "
                 "partitions",
              3: "n=5: predecessor(1+4+1)=1+4 but it was produced by 5",
              4: "n=5: predecessor(1+4+1)=1+4 but it was produced by 5",
              5: "n=7: method1 vs enumeration, index 14: 1+4+2 vs "
                 "1+1+1+1+1+1+1",
              6: "n=7: index 14: 1+4+2 vs 1+1+1+1+1+1+1"}),
     [0, 6]),
], ids=["all-units-omitted", "unit-ending-member-added"])
def test_heads_are_split_afresh_after_the_unit_block_breaks(
        monkeypatch, sabotage, report, split):
    # The heads carry from level n-1 to level n only while level n's
    # unit-ending members are level n-1's with a unit appended.  The weights
    # of the whole levels split; a failing bijection check splits single
    # members of level n-1 to name producers, which are not counted.
    for name, change in sabotage.items():
        monkeypatch.setattr(_pure, name, change(getattr(_pure, name)))
    levels = []
    real = verify.split_heads

    def counted(n, members):
        if n == 0 or len(members) > 1:
            levels.append(n)
        return real(n, members)

    monkeypatch.setattr(verify, "split_heads", counted)
    assert run_suite(12).format_text() == report
    assert levels == split


def test_the_inverses_are_asked_about_blocks_not_members(monkeypatch):
    # Per step checked, each inverse is asked about level n's unit-ending
    # members a chunk at a time (one chunk up to weight 20), its block of
    # second-kind heads once and each explicit head once: at most three
    # calls per weight, where one call per member would make thousands.
    calls = {name: _counting(monkeypatch, name, _pure)
             for name in ("pred_m1", "pred_m2")}
    assert run_suite(20).overall
    assert all(1 <= len(args) <= 3 * 20 for args in calls.values()), {
        name: len(args) for name, args in calls.items()}


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
