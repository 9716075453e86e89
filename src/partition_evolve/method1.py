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

``evolve_m1_chunks`` grows the start to weight k = max(n, N - N//3), and
one table T_l per last part l of 1..k, the one-member level ``[chr(l)]``
evolved N - k weights, both with ``engine.run_evolution`` and
``_pure.step_m1``.  Each member of level k then contributes its prefix
followed by the suffix of its last part's table whose first part is
within the bound, found by bisection.  That slice bound is all the
assembly knows of the rule; the steps are the kernel's.  No member of
the target is sorted, and no head of it is built.  k is set by n and N
alone: the tables grow fast as k falls and level k grows as k rises.  At
k = N - N//3 the tables hold 4.8% of level 50 from weight 38 and 10.2% of
level 60 from weight 40; from weight 25 they would hold 94% of level 50,
and from weight 20, 210%.

``evolve_m1`` checks the assembled level whole and returns it, so text
output is checked before it is written, as before.  ``evolve --method 1
--snapshot-out`` writes the chunks as they come instead:
``write_snapshot`` checks each one against the last member before it,
and the CLI compares the count with P(N) before the file replaces its
target.  The check and the count certify the run, so the whole level is
never held.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Iterator
from operator import itemgetter

from . import _pure
from .core import (Kind, Partition, classify_m1, decode_member,
                   partition_member)
from .engine import ProgressFn, check_upward, run_evolution
from .level import (_CHUNK, TAG_ADDED_UNIT, TAG_AUGMENTED, Level,
                    LevelChunks)

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
    members of ``evolve_m1_chunks``, checked whole.

    ``start`` must be complete (hold every partition of its weight).
    """
    grown = evolve_m1_chunks(start, target_n, progress=progress)
    if target_n == start.n:
        return start
    members: list[str] = []
    for chunk in grown.chunks:
        members += chunk
    return Level(target_n, members, "method1")


def evolve_m1_chunks(start: Level, target_n: int, *,
                     progress: ProgressFn | None = None) -> LevelChunks:
    """The level of ``target_n`` grown from ``start`` under the first rule,
    as canonical chunks that are assembled as they are read and that no
    check has seen yet (see the module docstring).

    The steps run, and ``progress`` hears of every weight, before this
    returns.
    """
    check_upward(start.n, target_n)
    k = max(start.n, target_n - target_n // 3)
    level = run_evolution(start, k, method_tag="method1",
                          step=_pure.step_m1, progress=progress)
    if k > start.n:
        level.sort(reverse=True)
    steps = target_n - k
    if not steps:
        # No step keeps the start's rule and its tags.
        tag = "method1" if target_n > start.n else start.method_tag
        return LevelChunks(target_n, tag, (level,))
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
    suffixes = {end: _bounded(tables[end[-1]], end) for end in ends}
    return LevelChunks(target_n, "method1", _assemble(level, suffixes))


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


def _bounded(table: list[str], end: str) -> list[str]:
    """The slice bound: the members of the table of ``end``'s last part
    whose first part is at most the part before it (all, for a single
    part), a suffix, as first parts descend."""
    if len(end) == 1:
        return table
    return table[bisect_left(table, -ord(end[0]), key=_neg_first):]


def _assemble(level: list[str],
              suffixes: dict[str, list[str]]) -> Iterator[list[str]]:
    """Each member of ``level`` in turn, its prefix followed by each member
    of the suffix of its last two parts; chunks of at least ``_CHUNK``
    members.  The members are taken a slice at a time, as many as cannot
    grow more than ``_CHUNK`` members, so that short suffixes (one step
    from a large level) cost one comprehension per slice, not per member.
    """
    largest = max(map(len, suffixes.values()))
    width = max(1, _CHUNK // max(1, largest))
    chunk: list[str] = []
    for start in range(0, len(level), width):
        chunk += [prefix + rest for member in level[start:start + width]
                  for prefix in (member[:-1],)
                  for rest in suffixes[member[-2:]]]
        if len(chunk) >= _CHUNK:
            yield chunk
            chunk = []
    if chunk:
        yield chunk
