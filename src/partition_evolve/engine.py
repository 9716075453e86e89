"""Level-by-level evolution loop shared by both successor methods.

Only the current level is held in memory.  Intermediate levels stay as
member strings (``core.encode_parts``) in generation order; the final
level is sorted once and validated, and its members are wrapped and
tagged only when asked for.
"""

from __future__ import annotations

from collections.abc import Callable
from types import ModuleType

from . import backend as backend_mod
from .core import member_text
from .level import SECOND_KIND_TAG, TAG_ADDED_UNIT, TAG_EXPLICIT, Level

# expand(kernel_module, members) -> (members, second_count): the
# appended-unit successors of every member, then second_count more.
ExpandFn = Callable[[ModuleType, list], tuple[list, int]]
# extra_for_weight(w) -> [member, ...] added explicitly once per step.
ExtraFn = Callable[[int], list[str]]
ProgressFn = Callable[[int, dict[str, int]], None]


def run_evolution(start: Level, target_n: int, *, method_tag: str,
                  expand: ExpandFn, extra_for_weight: ExtraFn | None = None,
                  backend: str | ModuleType | None = None,
                  check: bool = False,
                  progress: ProgressFn | None = None) -> Level:
    """Evolve a complete level up to ``target_n``, one weight at a time."""
    if target_n < start.n:
        raise ValueError(
            f"cannot evolve downward: start weight {start.n}, target {target_n}")
    if progress is not None:
        progress(start.n, start.tag_counts())
    if target_n == start.n:
        return start

    kernel = backend_mod.get_backend(backend)
    second_tag = SECOND_KIND_TAG[method_tag]
    members = start.raw_members()
    for weight in range(start.n + 1, target_n + 1):
        # Every member grows exactly one appended-unit successor.
        added = len(members)
        members, second = expand(kernel, members)
        extra = ([] if extra_for_weight is None
                 else extra_for_weight(weight))
        members += extra
        if check:
            _assert_no_duplicates(members, weight, method_tag)
        if progress is not None:
            counts = {TAG_ADDED_UNIT: added, second_tag: second,
                      TAG_EXPLICIT: len(extra)}
            progress(weight, {tag: count for tag, count in counts.items()
                              if count})
    return Level.from_raw(target_n, members, None, method_tag)


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
