"""Evolution loop mechanics: duplicate assertion, progress reporting, and
provenance derived from the parts."""

import pytest

from partition_evolve import (Level, Partition, _pure, enumerate_oracle,
                              evolve_m1, evolve_m2, tagged_successors_m1,
                              tagged_successors_m2)


def test_identity_evolution_returns_the_start_level():
    level = evolve_m1(Level.seed("method1"), 9)
    assert evolve_m1(level, 9) is level


def test_downward_evolution_is_rejected():
    level = evolve_m1(Level.seed("method1"), 4)
    with pytest.raises(ValueError, match="downward"):
        evolve_m1(level, 2)


def test_check_mode_passes_on_honest_kernels():
    level = evolve_m2(Level.seed("method2"), 10, check=True)
    assert len(level) == 42


def _duplicating(members):
    return ["\x01", "\x01"], 0


def test_check_mode_catches_a_duplicating_kernel(monkeypatch):
    monkeypatch.setattr(_pure, "step_m1", _duplicating)
    with pytest.raises(RuntimeError, match="duplicate partition 1"):
        evolve_m1(Level.seed("method1"), 1, check=True)


def test_without_check_a_duplicate_surfaces_at_level_construction(monkeypatch):
    monkeypatch.setattr(_pure, "step_m1", _duplicating)
    with pytest.raises(ValueError, match="order or duplicated"):
        evolve_m1(Level.seed("method1"), 1)


def test_progress_reports_every_level_including_the_start():
    seen = []
    evolve_m2(Level.seed("method2"), 3,
              progress=lambda n, counts: seen.append((n, counts)))
    assert seen == [
        (0, {"Seed": 1}),
        (1, {"AddedUnit": 1}),
        (2, {"AddedUnit": 1, "Explicit": 1}),
        (3, {"AddedUnit": 2, "Explicit": 1}),
    ]


@pytest.mark.parametrize("evolve,method_tag,tagged_successors", [
    (evolve_m1, "method1", tagged_successors_m1),
    (evolve_m2, "method2", tagged_successors_m2),
])
def test_derived_tags_match_the_per_partition_rules(evolve, method_tag,
                                                    tagged_successors):
    # The kernels record no provenance; the level derives it from the
    # parts.  Pin that derivation against the per-partition rules, which
    # share no code with the kernels, applied to the oracle's level.
    for n in range(1, 26):
        expected = {}
        for member in enumerate_oracle(n - 1).partitions:
            for successor, tag in tagged_successors(member):
                expected[successor] = tag
        if method_tag == "method2" and n >= 2:
            expected[Partition((n,))] = "Explicit"
        level = evolve(Level.seed(method_tag), n)
        assert level.tags == tuple(expected[member]
                                   for member in level.partitions), n
