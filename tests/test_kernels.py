"""The kernel module: its head kernels, inverses and enumerator, and the
contract that callers look its kernels up when they run."""

from operator import gt

import pytest

from partition_evolve import (Level, NoPredecessorError, Partition, _pure,
                              backend, count_oracle, default_backend_name,
                              enumerate_oracle, evolve_m1, evolve_m2,
                              tagged_successors_m1, tagged_successors_m2)
from partition_evolve.core import encode_parts
from partition_evolve.engine import split_heads


def test_python_backend_is_always_available():
    assert backend.get_backend() is _pure
    assert default_backend_name() == "python"


@pytest.mark.parametrize("name,run", [
    ("step_m1", lambda: evolve_m1(Level.seed("method1"), 4)),
    ("step_m2", lambda: evolve_m2(Level.seed("method2"), 4)),
    ("enumerate_level", lambda: enumerate_oracle(4)),
])
def test_callers_call_the_kernel_module_globals_they_are_traced_through(
        monkeypatch, name, run):
    # perfbench/tracer.py replaces these attributes of the module that
    # backend.get_backend() returns, so each caller must look them up when
    # it runs.
    calls = []
    real = getattr(_pure, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_pure, name, counted)
    assert len(run()) == 5
    assert calls


def test_pure_enumeration_is_canonical_and_complete():
    assert _pure.enumerate_level(0) == [""]
    assert _pure.enumerate_level(4) == [
        "\x04", "\x03\x01", "\x02\x02", "\x02\x01\x01",
        "\x01\x01\x01\x01"]
    with pytest.raises(ValueError):
        _pure.enumerate_level(-2)


def _first_parts(out, prefix, remainder, bound):
    if remainder == 0:
        out.append(prefix)
    for part in range(min(remainder, bound), 0, -1):
        _first_parts(out, prefix + chr(part), remainder - part, part)


def first_part_recursion(n):
    """The partitions of n by plain recursion on the first part, from the
    largest down: canonical order, with no table."""
    out = []
    _first_parts(out, "", n, n)
    return out


def test_table_backed_enumeration_equals_the_plain_recursion():
    top = _pure._TABLE_TOP
    weights = range(46)
    # Just below, at and above the table's top, and 2*top + 1, the first
    # weight at which every first part up to the top leaves a remainder
    # above the table.
    assert {top - 1, top, top + 1, 2 * top + 1} <= set(weights)
    for n in weights:
        assert _pure.enumerate_level(n) == first_part_recursion(n), n


def test_each_enumeration_is_a_new_list():
    top = _pure._TABLE_TOP
    for n in (0, 5, top, top + 3):
        out = _pure.enumerate_level(n)
        out[0] = "changed"
        out.append("added")
        assert _pure.enumerate_level(n) == first_part_recursion(n), n


@pytest.mark.parametrize("weight", [3, _pure._TABLE_TOP, _pure._TABLE_TOP + 2])
def test_a_sabotaged_enumerator_leaves_other_weights_complete(monkeypatch,
                                                              weight):
    # The table is built afresh under the sabotage; it must not read the
    # sabotaged module attribute, or the fault would spread to every level
    # built from the sabotaged one.
    monkeypatch.setattr(_pure, "_table", [])
    real = _pure.enumerate_level
    omitted = "\x02" + "\x01" * (weight - 2)

    def sabotaged(n):
        out = real(n)
        return [m for m in out if m != omitted] if n == weight else out

    monkeypatch.setattr(_pure, "enumerate_level", sabotaged)
    for n in range(_pure._TABLE_TOP + 6):
        want = first_part_recursion(n)
        if n == weight:
            want.remove(omitted)
        assert _pure.enumerate_level(n) == want, n
    assert _pure._table


def in_kernel_order(heads):
    """Descending last parts and, within one last part, strictly
    descending heads: the order the step kernels take and return."""
    keys = [(head[-1], head) for head in heads]
    return all(map(gt, keys, keys[1:]))


@pytest.mark.parametrize("name", ["step_m1", "step_m2"])
def test_step_kernels_grow_ordered_unit_free_heads(name):
    step = getattr(_pure, name)
    heads = [[""]]
    for n in range(20):
        new, second = step(heads)
        assert all(sum(map(ord, head)) == n + 1 and "\x01" not in head
                   for head in new), n
        assert in_kernel_order(new), n
        # Only method 2 adds an explicit head, its single part n+1.
        explicit = 1 if name == "step_m2" and n >= 1 else 0
        assert new[:explicit] == [chr(n + 1)] * explicit, n
        assert second == len(new) - explicit, n
        heads.append(new)
    grown = [head for group in heads for head in group]
    assert len(set(grown)) == len(grown) == count_oracle(20)


def test_split_heads_meets_the_kernel_order_and_steps_keep_it():
    # The resume path: a start level split into heads, then stepped.
    for k in range(26):
        heads = split_heads(k, enumerate_oracle(k).raw_members())
        assert all(map(in_kernel_order, heads[1:])), k
        for step in (_pure.step_m1, _pure.step_m2):
            grown = list(heads)
            for _ in range(4):
                grown.append(step(grown)[0])
                assert in_kernel_order(grown[-1]), (k, step.__name__)


@pytest.mark.parametrize("evolve,method_tag,tagged_successors", [
    (evolve_m1, "method1", tagged_successors_m1),
    (evolve_m2, "method2", tagged_successors_m2),
])
def test_head_kernels_grow_the_complete_level_from_any_start(
        evolve, method_tag, tagged_successors):
    # A start level is split into heads once; six steps later the level
    # must equal the oracle's, with the tags the per-partition rules give
    # the last step.
    for k in range(21):
        level = evolve(enumerate_oracle(k), k + 6)
        assert level.raw_members() == enumerate_oracle(k + 6).raw_members()
        expected = {successor: tag
                    for member in enumerate_oracle(k + 5).partitions
                    for successor, tag in tagged_successors(member)}
        if method_tag == "method2":
            expected[Partition((k + 6,))] = "Explicit"
        assert level.tags == tuple(expected[member]
                                   for member in level.partitions), k


@pytest.mark.parametrize("pred,tagged_successors", [
    (_pure.pred_m1, tagged_successors_m1),
    (_pure.pred_m2, tagged_successors_m2),
])
def test_string_inverses_undo_the_per_partition_rules(pred, tagged_successors):
    # Every member of levels 1..20 that a rule grows, inverted one level
    # at a time.
    for n in range(20):
        sources, successors = [], []
        for member in enumerate_oracle(n).partitions:
            for successor, _tag in tagged_successors(member):
                sources.append(encode_parts(member.parts))
                successors.append(encode_parts(successor.parts))
        assert pred(successors) == sources, n


@pytest.mark.parametrize("pred,member", [
    (_pure.pred_m1, ""), (_pure.pred_m2, ""),
    (_pure.pred_m2, "\x02"), (_pure.pred_m2, "\x09"),
])
def test_string_inverses_refuse_what_no_rule_grows(pred, member):
    with pytest.raises(NoPredecessorError):
        pred([member])


_NO_PREDECESSOR = "the empty partition has no predecessor"
_SINGLE_5 = ("5 is the single-part partition of 5; it is added explicitly "
             "at its weight, not grown from a predecessor")


@pytest.mark.parametrize("pred,members,message", [
    (_pure.pred_m2, ["\x03\x01", "\x05", "\x02\x01"], _SINGLE_5),
    (_pure.pred_m1, ["\x03\x01", "", "\x02\x01"], _NO_PREDECESSOR),
    (_pure.pred_m2, ["\x03\x01", "", "\x02\x01"], _NO_PREDECESSOR),
    # The first member without a predecessor names the refusal.
    (_pure.pred_m2, ["\x02\x01", "\x05", ""], _SINGLE_5),
    (_pure.pred_m2, ["\x02\x01", "", "\x05"], _NO_PREDECESSOR),
])
def test_a_refusing_member_inside_a_list_names_itself(pred, members,
                                                      message):
    with pytest.raises(NoPredecessorError) as refused:
        pred(members)
    assert str(refused.value) == message


@pytest.mark.parametrize("pred", [_pure.pred_m1, _pure.pred_m2])
def test_string_inverses_of_no_members_are_no_members(pred):
    assert pred([]) == []
