"""Second successor rule: append a unit, or collect all units into one part.

Every partition of n grows the partition of n+1 with an extra unit
appended; a second-kind partition (u units with 1 <= u < its smallest
non-unit part) additionally grows the one where the u units are replaced
by the single part u+1.  This never produces the single-part partition of
n+1, so evolution adds it explicitly at every weight above 1.

Evolution assembles the target as method 1 does, from blocks over a
lower level k (see ``method1``).  Level N splits by the members m of
level k into blocks whatever the rule: each block is ``m[:-1]`` followed
by the partitions of ``m[-1] + N - k`` whose first part lies between
``m[-1]`` and ``m[-2]``.  The rule keeps the first part of every member
with two or more parts, so the single part l grown s weights, with the
explicit head ``chr(w)`` that the kernel adds at each weight w, is table
T_l: every partition of l + s whose first part is at least l.  After a
prefix, the explicit heads that a block's cut keeps end members with
two or more parts, which are Collected (see ``level.rule_tags``).

``evolve_m2_chunks`` is ``method1.evolve_m1_chunks`` with
``_pure.step_m2`` as its kernel and this rule's tag: level k and the
tables are grown, and progress reported, as for method 1.  The blocks
are certified and counted where method 1's are, by the writers and
``count`` (see ``level.LevelBlocks.check``) and against P(N) by the CLI,
so a faulty kernel is refused as a faulty ``step_m1`` is.  ``evolve_m2``
checks the blocks and then assembles them into a Level, as ``evolve_m1``
does.
"""

from __future__ import annotations

from . import _pure
from .core import (Kind, Partition, classify_m2, decode_member,
                   partition_member)
from .engine import ProgressFn
# perfbench/tracer.py wraps run_evolution as an attribute of this module,
# so the name stays bound here; the growth runs through method 1's.
from .engine import run_evolution  # noqa: F401
from .level import TAG_ADDED_UNIT, TAG_COLLECTED, Level, LevelBlocks
from .method1 import evolve_m1_chunks


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
    """Evolve a complete level to ``target_n`` under the second rule: the
    blocks of ``evolve_m2_chunks``, checked and then assembled, as a
    Level.

    Adds the single-part partition explicitly at every weight above 1.
    ``start`` must be complete (hold every partition of its weight).
    """
    grown = evolve_m2_chunks(start, target_n, progress=progress)
    return grown if isinstance(grown, Level) else grown.level()


def evolve_m2_chunks(start: Level, target_n: int, *,
                     progress: ProgressFn | None = None
                     ) -> Level | LevelBlocks:
    """The level of ``target_n`` grown from ``start`` under the second
    rule, as ``evolve_m1_chunks`` grows it under the first: blocks that no
    check has seen yet, or a Level when no step is left after level k."""
    # Read at call time, so that a patched kernel is the one that runs.
    return evolve_m1_chunks(start, target_n, progress=progress,
                            step=_pure.step_m2, method_tag="method2")
