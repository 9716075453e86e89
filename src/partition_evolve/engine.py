"""Level-by-level evolution loop shared by both successor methods.

The loop holds unit-free heads grouped by weight (see ``_pure``): every
partition of n is a head h followed by n - |h| units, and the
appended-unit successor keeps its head, so a step only adds the new heads
of weight n+1.  The start level is split into heads once; at the target
weight the start's members and each new head are rendered with their
units.  The loop neither sorts nor checks what it grows; the builder
that both methods share does (see ``method1``).  A step works on any
canonical level, complete or not: part of a level, one member, or none.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter

from .level import SECOND_KIND_TAG, TAG_ADDED_UNIT, TAG_EXPLICIT, Level

# A step kernel, ``_pure.step_m1`` or ``_pure.step_m2``; the ``_pure``
# module docstring states the contract.
StepFn = Callable[[list], tuple[list, int]]
ProgressFn = Callable[[int, dict[str, int]], None]


def run_evolution(start: Level, target_n: int, *, method_tag: str,
                  step: StepFn, progress: ProgressFn | None = None
                  ) -> list[str]:
    """The members of level ``target_n`` grown from ``start`` one weight at
    a time by ``step``, unsorted and unchecked (see ``grown_members``).

    ``progress`` hears of the start and of each grown weight, with the
    tags of ``method_tag``'s rule.
    """
    check_upward(start.n, target_n)
    if progress is not None:
        progress(start.n, start.tag_counts())
    members = start.raw_members()
    if target_n == start.n:
        return members[:]

    second_tag = SECOND_KIND_TAG[method_tag]
    heads = split_heads(start.n, members)
    # Every member grows exactly one appended-unit successor.
    added = len(start)
    for weight in range(start.n + 1, target_n + 1):
        new, second = step(heads)
        heads.append(new)
        if progress is not None:
            counts = {TAG_ADDED_UNIT: added, second_tag: second,
                      TAG_EXPLICIT: len(new) - second}
            progress(weight, {tag: count for tag, count in counts.items()
                              if count})
        added += len(new)
    # The start's members are rendered whole; its heads are not needed.
    del heads[:start.n + 1]
    return grown_members(start.n, members, heads)


def check_upward(start_n: int, target_n: int) -> None:
    """Raise ValueError when ``target_n`` lies below ``start_n``."""
    if target_n < start_n:
        raise ValueError(
            f"cannot evolve downward: start weight {start_n}, target {target_n}")


def grown_members(n: int, members: list[str],
                  new: list[list[str]]) -> list[str]:
    """The members of level ``n + len(new)`` grown from ``members``, the
    level of weight n, unsorted; with ``new`` empty, a copy of ``members``.

    ``new[i]`` lists the new heads of weight ``n + 1 + i``.  The members
    come first with their unit tail appended; they stay canonical, one run
    for the sort.  Then each weight's new heads follow with their tails,
    one run for each last part of the step kernels' order, and each list
    is popped from ``new`` as it renders.
    """
    weights = len(new)
    tail = "\x01" * weights
    grown = [member + tail for member in members]
    while new:
        tail = "\x01" * (weights - len(new))
        grown += [head + tail for head in new.pop()]
    return grown


def split_heads(n: int, members: list[str]) -> list[list[str]]:
    """The members of weight n split into heads, grouped by weight, in the
    step kernels' order: each weight's heads in descending order of last
    part and, within one last part, canonical.

    The members are canonical, so each weight's heads arrive canonical
    (they share one unit tail), and the stable sort by last part keeps
    that order within each last part.
    """
    heads: list[list[str]] = [[] for _ in range(n + 1)]
    for member in members:
        head = member.rstrip("\x01")
        heads[n - len(member) + len(head)].append(head)
    # Only weight 0 holds the empty head, and it holds nothing else.
    for group in heads[1:]:
        group.sort(key=itemgetter(-1), reverse=True)
    return heads

