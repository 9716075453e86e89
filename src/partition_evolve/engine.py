"""Level-by-level evolution loop shared by both successor methods.

The loop holds unit-free heads grouped by weight (see ``_pure``): every
partition of n is a head h followed by n - |h| units, and the
appended-unit successor keeps its head, so a step only adds the new heads
of weight n+1.  The start level is split into heads once; at the target
weight each head is rendered with its units, and the level is sorted once
and validated.  Its members are wrapped and tagged only when asked for.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter

from .core import member_text
from .level import SECOND_KIND_TAG, TAG_ADDED_UNIT, TAG_EXPLICIT, Level

# step(heads) -> (new, second_count): heads[w] lists the heads of weight w
# for w = 0..n in descending order of last part; new lists the heads of
# weight n+1 in that order, explicit ones first, then second_count of the
# method's second kind (``_pure.step_m1``, ``_pure.step_m2``).
StepFn = Callable[[list], tuple[list, int]]
ProgressFn = Callable[[int, dict[str, int]], None]


def run_evolution(start: Level, target_n: int, *, method_tag: str,
                  step: StepFn, check: bool = False,
                  progress: ProgressFn | None = None) -> Level:
    """Evolve a complete level up to ``target_n``, one weight at a time."""
    if target_n < start.n:
        raise ValueError(
            f"cannot evolve downward: start weight {start.n}, target {target_n}")
    if progress is not None:
        progress(start.n, start.tag_counts())
    if target_n == start.n:
        return start

    second_tag = SECOND_KIND_TAG[method_tag]
    heads = split_heads(start)
    # Every member grows exactly one appended-unit successor.
    added = len(start)
    for weight in range(start.n + 1, target_n + 1):
        new, second = step(heads)
        # Old heads keep distinct unit tails, so only new heads can collide.
        if check:
            _assert_no_duplicates(new, weight, method_tag)
        heads.append(new)
        if progress is not None:
            counts = {TAG_ADDED_UNIT: added, second_tag: second,
                      TAG_EXPLICIT: len(new) - second}
            progress(weight, {tag: count for tag, count in counts.items()
                              if count})
        added += len(new)
    # Each weight's heads are released once rendered with their units.
    members: list[str] = []
    while heads:
        tail = "\x01" * (target_n + 1 - len(heads))
        members += [head + tail for head in heads.pop()]
    return Level.from_raw(target_n, members, None, method_tag)


def split_heads(level: Level) -> list[list[str]]:
    """The level's members split into heads, grouped by weight, each
    weight's heads in descending order of last part."""
    n = level.n
    heads: list[list[str]] = [[] for _ in range(n + 1)]
    for member in level.raw_members():
        head = member.rstrip("\x01")
        heads[n - len(member) + len(head)].append(head)
    # Only weight 0 holds the empty head, and it holds nothing else.
    for group in heads[1:]:
        group.sort(key=itemgetter(-1), reverse=True)
    return heads


def _assert_no_duplicates(members: list, weight: int, method_tag: str) -> None:
    # The successor maps are bijective, so a duplicate is a bug, not data.
    if len(set(members)) == len(members):
        return
    seen: set = set()
    for member in members:
        if member in seen:
            raise RuntimeError(
                f"{method_tag} produced duplicate partition "
                f"{member_text(member)} at weight {weight}")
        seen.add(member)
