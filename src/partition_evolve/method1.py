"""First successor rule: append a unit, or augment the last part.

Every partition of n grows the partition of n+1 with an extra unit
appended; a second-kind partition (single part, or last two parts
strictly different) additionally grows the one with its last part
incremented.  Each partition of n+1 arises exactly once this way, and
its source is recovered by ``predecessor_m1``.

Evolution assembles the target level from prefixes.  The rule only ever
touches a member's last part: it appends a unit after it, or raises it
while it stays below the part before it.  So the descendants of a member
``m`` of level k, r weights on, are ``m[:-1]`` followed by each
descendant of the single part ``m[-1]`` whose first part is at most
``m[-2]`` (any, for a single part).  The rule's inverse never rises along
a canonical level, so these blocks, read in level k's canonical order,
are level k+r in canonical order.

``evolve_m1_chunks`` grows the start to weight k = max(n, N - N//4), and
one table T_l per last part l of 1..k, the one-member level ``[chr(l)]``
evolved N - k weights, both with ``engine.run_evolution`` and
``_pure.step_m1``.  Each member of level k then heads one block: its
prefix followed by the suffix of its last part's table whose first part
is within the bound, where a bisection cuts the table.  That slice bound
is all the assembly knows of the rule; the steps are the kernel's.  No
member of the target is sorted, and no head of it is built.  The blocks
(``level.LevelBlocks``: level k, the tables and the cuts) are what it
hands on.  The same tree proves the target canonical: the writers
certify the blocks from level k, the tables and the cuts, without a
check of each member (see ``level.LevelBlocks``), then render each table
once and the blocks a chunk at a time (see ``level._block_chunks``).

k is set by n and N alone.  Level k grows as k rises and the tables
(about k times the sum of P(r) for r <= N - k members) as it falls, and
the writers hold both, each rendered table member costing about three
times its string.  N - N//4 keeps both small: k = 42 at N = 56, where
the blocks hold 9,892 table members against level k's 53,174, and k = 45
at N = 60 (13,888 against 89,134); from weight 38, k = 38 at N = 50
(4,847 against 26,015).  The tables of the last parts above k/2, which
no member of level k but the single part ends in, are grown only for the
progress counts.

``evolve_m1`` assembles the blocks into a Level, which checks them.
``evolve --method 1`` hands the blocks to the writers instead, which
certify them before they write a byte; the CLI compares the count with
P(N) before the file replaces its target or the first byte of text is
written.  The certificate and the count certify the run, so the whole
level is never held.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import itemgetter

from . import _pure
from .core import (Kind, Partition, classify_m1, decode_member,
                   partition_member)
from .engine import ProgressFn, check_upward, run_evolution
from .level import (TAG_ADDED_UNIT, TAG_AUGMENTED, Level, LevelBlocks,
                    _assemble)

# A member's last two parts, or its single part: the key of its suffix.
_END = itemgetter(slice(-2, None))


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
    """The unique partition this rule grew ``p`` from: ``_pure.pred_m1``
    on the one-member list of ``p``'s member, which states the rule and
    its refusals."""
    return Partition._from_canonical(
        decode_member(_pure.pred_m1([partition_member(p)])[0]),
        p.weight - 1)


def evolve_m1(start: Level, target_n: int, *,
              progress: ProgressFn | None = None) -> Level:
    """Evolve a complete level to ``target_n`` under the first rule: the
    blocks of ``evolve_m1_chunks``, assembled, as a checked Level.

    ``start`` must be complete (hold every partition of its weight).
    """
    grown = evolve_m1_chunks(start, target_n, progress=progress)
    return grown if isinstance(grown, Level) else grown.level()


def evolve_m1_chunks(start: Level, target_n: int, *,
                     progress: ProgressFn | None = None
                     ) -> Level | LevelBlocks:
    """The level of ``target_n`` grown from ``start`` under the first rule,
    as blocks in canonical order that no check has seen yet (see the
    module docstring); a Level when no step is left after level k.

    The steps run, and ``progress`` hears of every weight, before this
    returns.
    """
    check_upward(start.n, target_n)
    k = max(start.n, target_n - target_n // 4)
    level = run_evolution(start, k, method_tag="method1",
                          step=_pure.step_m1, progress=progress)
    if k > start.n:
        level.sort(reverse=True)
    steps = target_n - k
    if not steps:
        # No step keeps the start's rule and its tags.
        return start if k == start.n else Level(k, level, "method1")
    ends = Counter(map(_END, level))
    # One table per last part of 1..k, and per any other last part that a
    # faulty kernel put in level k, so that the target's check words it.
    tables: dict[str, list[str]] = {}
    sizes: dict[tuple[int, int], int] = {}
    for last in set(map(chr, range(1, k + 1))).union(
            end[-1] for end in ends):
        part = ord(last)
        counted: list[int] = []
        tables[last] = sorted(run_evolution(
            Level(part, [last], "method1"), part + steps,
            method_tag="method1", step=_pure.step_m1,
            progress=lambda n, counts: counted.append(sum(counts.values()))),
            reverse=True)
        sizes.update(((part, s), size) for s, size in enumerate(counted))
    if progress is not None:
        _report(progress, ends, len(level), k, steps, sizes)
    cuts = {end: _cut(tables[end[-1]], end) for end in ends}
    try:
        # The start's own members need no second check.
        return LevelBlocks(target_n, "method1",
                           start if k == start.n else level, tables, cuts)
    except ValueError:
        # A faulty kernel put a part 0 in a table, whose lines cannot be
        # told apart: the level is assembled and checked whole.
        return Level(target_n, _assemble(level, tables, cuts), "method1")


def _report(progress: ProgressFn, ends: Counter, previous: int, k: int,
            steps: int, sizes: dict[tuple[int, int], int]) -> None:
    """Report weights k+1..k+steps from the sizes |T_l(s)| of the tables
    alone.  s weights on, each of the ``ends[chr(b) + chr(l)]`` members of
    level k that end in parts (b, l) has |T_l(s)| - |T_{b+1}(s - (b+1-l))|
    descendants, those of T_l(s) whose first part exceeds b being the
    descendants of the single part b+1; a single part l has |T_l(s)|.
    ``previous`` is the size of level k."""
    for s in range(1, steps + 1):
        size = 0
        for end, count in ends.items():
            last = ord(end[-1])
            size += count * sizes[last, s]
            if len(end) == 2:
                above = ord(end[0]) + 1
                size -= count * sizes.get((above, s - above + last), 0)
        counts = {TAG_ADDED_UNIT: previous, TAG_AUGMENTED: size - previous}
        progress(k + s, {tag: count for tag, count in counts.items()
                         if count})
        previous = size



def _neg_first(member: str) -> int:
    return -ord(member[0])


def _cut(table: list[str], end: str) -> int:
    """The slice bound: where the members of the table of ``end``'s last
    part whose first part is at most the part before it (all, for a
    single part) begin, as first parts descend."""
    if len(end) == 1:
        return 0
    return bisect_left(table, -ord(end[0]), key=_neg_first)
