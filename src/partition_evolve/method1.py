"""First successor rule: append a unit, or augment the last part.

Every partition of n grows the partition of n+1 with an extra unit
appended; a second-kind partition (single part, or last two parts
strictly different) additionally grows the one with its last part
incremented.  Each partition of n+1 arises exactly once this way, and
its source is recovered by ``predecessor_m1``.
"""

from __future__ import annotations

from . import _pure
from .core import (Kind, Partition, classify_m1, decode_member,
                   partition_member)
from .engine import ProgressFn, run_evolution
from .level import TAG_ADDED_UNIT, TAG_AUGMENTED, Level


def tagged_successors_m1(p: Partition) -> tuple[tuple[Partition, str], ...]:
    """Successors of ``p`` with the rule that produced each one."""
    parts = p.parts
    added = Partition._from_canonical(parts + (1,), p.weight + 1)
    if classify_m1(p) is Kind.FIRST:
        return ((added, TAG_ADDED_UNIT),)
    augmented = Partition._from_canonical(
        parts[:-1] + (parts[-1] + 1,), p.weight + 1)
    return ((added, TAG_ADDED_UNIT), (augmented, TAG_AUGMENTED))


def successors_m1(p: Partition) -> frozenset[Partition]:
    """The one or two partitions of ``p.weight + 1`` grown from ``p``."""
    return frozenset(successor for successor, _ in tagged_successors_m1(p))


def predecessor_m1(p: Partition) -> Partition:
    """The unique partition this rule grew ``p`` from (``_pure.pred_m1``).

    Last part 1: drop it.  Last part above 1: decrement it.  Only the
    empty partition has no predecessor.
    """
    return Partition._from_canonical(
        decode_member(_pure.pred_m1(partition_member(p))), p.weight - 1)


def evolve_m1(start: Level, target_n: int, *, check: bool = False,
              progress: ProgressFn | None = None) -> Level:
    """Evolve a complete level to ``target_n`` under the first rule.

    ``start`` must be complete (hold every partition of its weight).
    ``check=True`` asserts the no-duplicate guarantee after every step.
    """
    return run_evolution(start, target_n, method_tag="method1",
                         step=_pure.step_m1, check=check,
                         progress=progress)
