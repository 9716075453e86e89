"""The kernel module: its head kernels and enumerator, and the contract
that callers look its kernels up when they run."""

import pytest

from partition_evolve import (Level, Partition, _pure, backend, count_oracle,
                              default_backend_name, enumerate_oracle,
                              evolve_m1, evolve_m2, tagged_successors_m1,
                              tagged_successors_m2)


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


@pytest.mark.parametrize("name", ["step_m1", "step_m2"])
def test_step_kernels_grow_ordered_unit_free_heads(name):
    step = getattr(_pure, name)
    heads = [[""]]
    for n in range(20):
        new, second = step(heads)
        assert all(sum(map(ord, head)) == n + 1 and "\x01" not in head
                   for head in new), n
        last_parts = [head[-1] for head in new]
        assert last_parts == sorted(last_parts, reverse=True), n
        # Only method 2 adds an explicit head, its single part n+1.
        explicit = 1 if name == "step_m2" and n >= 1 else 0
        assert new[:explicit] == [chr(n + 1)] * explicit, n
        assert second == len(new) - explicit, n
        heads.append(new)
    grown = [head for group in heads for head in group]
    assert len(set(grown)) == len(grown) == count_oracle(20)


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
