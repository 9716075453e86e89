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

``evolve_m1_chunks`` grows the start to weight k = max(n, N - N//4),
and then, for each last part l of a member of level k, the table T_l:
the one-member level ``[chr(l)]`` evolved N - k weights, both with
``engine.run_evolution`` and ``_pure.step_m1``.  Each member of level k
then heads one block: its prefix followed by the suffix of its last
part's table whose first part is within the bound.  That slice bound is
all the assembly knows of the rule; the steps are the kernel's.  No
member of the target is sorted, and no head of it is built.  The blocks
(``level.LevelBlocks``: level k and the tables, from which they derive
each block's cut) are what it hands on.  The same tree proves the target
canonical: the writers certify the blocks from level k and the tables,
without a check of each member (see ``level.LevelBlocks``), then render
each table once and the blocks a chunk at a time (see
``level._block_chunks``).  The tables are every partition of l + N - k
whose first part is at least l, under either rule, so method 2 runs
the same builder with its own kernel and tag (see ``method2``).

k is set by n and N alone.  Level k grows as k rises and the tables
(about k/2 times the sum of P(r) for r <= N - k members) as it falls,
and the writers hold both, each rendered table member costing about
three times its string.  N - N//4 keeps both small: k = 42 at N = 56,
where the blocks hold 9,892 table members against level k's 53,174, and
k = 45 at N = 60 (13,888 against 89,134); from weight 38, k = 38 at N =
50 (4,847 against 26,015).

No member of a complete level k but the single part k ends in a part
above k/2, and those tables are not grown.  The progress lines still
need their sizes, and take them from T_steps, steps = N - k: for l >= s,
T_l grown s weights holds exactly the partitions of l + s whose first
part is at least l, which number the sum of P(j) for j <= s whatever l
is, and each such l is above k/2 >= steps >= s.  T_steps is grown, as
the member (k - steps, steps) of level k ends in steps.

``evolve_m1`` checks the blocks as the writers do, and only then
assembles them into a Level.  ``evolve --method 1`` hands the blocks to
the writers instead, which certify them before they write a byte; the
CLI compares the count with P(N) before the file replaces its target or
the first byte of text is written.  The certificate and the count
certify the run, so the whole level is never held.
"""

from __future__ import annotations

from collections import Counter

from . import _pure
from .core import (Kind, Partition, classify_m1, decode_member,
                   partition_member)
from .engine import ProgressFn, StepFn, check_upward, run_evolution
from .level import (SECOND_KIND_TAG, TAG_ADDED_UNIT, TAG_AUGMENTED,
                    TAG_EXPLICIT, Level, LevelBlocks)


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
    blocks of ``evolve_m1_chunks``, checked and then assembled, as a
    Level.

    ``start`` must be complete (hold every partition of its weight).
    """
    grown = evolve_m1_chunks(start, target_n, progress=progress)
    return grown if isinstance(grown, Level) else grown.level()


def evolve_m1_chunks(start: Level, target_n: int, *,
                     progress: ProgressFn | None = None,
                     step: StepFn | None = None,
                     method_tag: str = "method1") -> Level | LevelBlocks:
    """The level of ``target_n`` grown from ``start`` under the first rule,
    as blocks in canonical order that no check has seen yet (see the
    module docstring); a Level when no step is left after level k.  With
    ``step`` and ``method_tag``, the same under that kernel's rule, whose
    tables hold the same members (see ``method2``).

    The steps run, and ``progress`` hears of every weight, before this
    returns.
    """
    step = step or _pure.step_m1
    check_upward(start.n, target_n)
    k = max(start.n, target_n - target_n // 4)
    level = run_evolution(start, k, method_tag=method_tag, step=step,
                          progress=progress)
    if k > start.n:
        level.sort(reverse=True)
    steps = target_n - k
    if not steps:
        # No step keeps the start's rule and its tags.
        return start if k == start.n else Level(k, level, method_tag)
    sizes: dict[tuple[int, int], int] = {}
    explicit: dict[int, int] = {}

    def table(last: str) -> list[str]:
        """T_last: the single part ``last`` grown ``steps`` weights, sorted;
        its size at each weight goes to ``sizes``, and T_k's explicit
        heads to ``explicit``."""
        part = ord(last)
        counted: list[dict[str, int]] = []
        grown = run_evolution(
            Level(part, [last], method_tag), part + steps,
            method_tag=method_tag, step=step,
            progress=lambda n, counts: counted.append(counts))
        for s, counts in enumerate(counted):
            sizes[part, s] = sum(counts.values())
            if part == k:
                explicit[s] = counts.get(TAG_EXPLICIT, 0)
        return sorted(grown, reverse=True)

    # The start's own members need no second check.
    blocks = LevelBlocks(target_n, method_tag,
                         start if k == start.n else level, table)
    if progress is not None:
        _report(progress, blocks.ends, len(level), k, steps, sizes,
                SECOND_KIND_TAG[method_tag], explicit)
    return blocks


def _report(progress: ProgressFn, ends: Counter, previous: int, k: int,
            steps: int, sizes: dict[tuple[int, int], int], second_tag: str,
            explicit: dict[int, int]) -> None:
    """Report weights k+1..k+steps from the sizes |T_l(s)| of the tables
    alone.  s weights on, each of the ``ends[chr(b) + chr(l)]`` members of
    level k that end in parts (b, l) has |T_l(s)| - |T_{b+1}(s - (b+1-l))|
    descendants, those of T_l(s) whose first part exceeds b being the
    descendants of the single part b+1; a single part l has |T_l(s)|.
    A table that no member reads was not grown, and its sizes are those
    of T_steps (see the module docstring).  ``previous`` is the size of
    level k.  Of each weight's new members, ``explicit[s]`` are the
    explicit heads that the kernel counted growing T_k, which holds the
    level's single part, and the rest are of ``second_tag``'s kind."""
    for s in range(1, steps + 1):
        size = 0
        for end, count in ends.items():
            last = ord(end[-1])
            size += count * sizes[last, s]
            if len(end) == 2:
                above = ord(end[0]) + 1
                at = s - above + last
                size -= count * sizes.get((above, at),
                                          sizes.get((steps, at), 0))
        heads = explicit.get(s, 0)
        counts = {TAG_ADDED_UNIT: previous,
                  second_tag: size - previous - heads, TAG_EXPLICIT: heads}
        progress(k + s, {tag: count for tag, count in counts.items()
                         if count})
        previous = size
