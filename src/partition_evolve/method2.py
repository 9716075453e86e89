"""Second successor rule: append a unit, or collect all units into one part.

Every partition of n grows the partition of n+1 with an extra unit
appended; a second-kind partition (u units with 1 <= u < its smallest
non-unit part) additionally grows the one where the u units are replaced
by the single part u+1.  This never produces the single-part partition of
n+1, so evolution adds it explicitly at every weight above 1.
"""

from __future__ import annotations

from . import _pure
from .core import (Kind, Partition, classify_m2, decode_member,
                   partition_member)
from .engine import ProgressFn, run_evolution
from .level import TAG_ADDED_UNIT, TAG_COLLECTED, Level


def tagged_successors_m2(p: Partition) -> tuple[tuple[Partition, str], ...]:
    """Successors of ``p`` with the rule that produced each one."""
    parts = p.parts
    added = Partition._from_canonical(parts + (1,), p.weight + 1)
    if classify_m2(p) is Kind.FIRST:
        return ((added, TAG_ADDED_UNIT),)
    units = parts.count(1)
    head = parts[:len(parts) - units]
    # u+1 <= smallest non-unit part, so appending keeps canonical order.
    assert not head or head[-1] >= units + 1
    collected = Partition._from_canonical(head + (units + 1,), p.weight + 1)
    return ((added, TAG_ADDED_UNIT), (collected, TAG_COLLECTED))


def successors_m2(p: Partition) -> frozenset[Partition]:
    """The one or two partitions of ``p.weight + 1`` grown from ``p``."""
    return frozenset(successor for successor, _ in tagged_successors_m2(p))


def predecessor_m2(p: Partition) -> Partition:
    """The unique partition the second rule grew ``p`` from:
    ``_pure.pred_m2`` on the one-member list of ``p``'s member, which
    states the rule and its refusals (NoPredecessorError)."""
    return Partition._from_canonical(
        decode_member(_pure.pred_m2([partition_member(p)])[0]),
        p.weight - 1)


def evolve_m2(start: Level, target_n: int, *,
              progress: ProgressFn | None = None) -> Level:
    """Evolve a complete level to ``target_n`` under the second rule.

    Adds the single-part partition explicitly at every weight above 1.
    Contract otherwise as for ``evolve_m1``.
    """
    grown = run_evolution(start, target_n, method_tag="method2",
                          step=_pure.step_m2, progress=progress)
    if target_n == start.n:
        return start
    return Level.from_raw(target_n, grown, "method2")
