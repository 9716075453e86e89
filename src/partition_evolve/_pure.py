"""Pure-Python level kernels: one-step successor expansion for both methods
and the independent brute-force enumerator.

This module is the fallback twin of the compiled ``_speedups`` extension;
the two must stay behaviorally identical (same outputs, same order).  It is
kept free of package imports so the compiled twin can mirror it line for
line.  Partitions are plain non-increasing tuples of ints here; wrapping
into richer types happens at the boundaries.

Both step kernels return ``(members, second_count)``: every appended-unit
successor first, in input order, then the ``second_count`` successors of
the second kind.  Provenance is not recorded; it follows from the parts
(see ``level.Level.tags``).
"""

from __future__ import annotations

BACKEND_NAME = "python"


def step_m1(members: list) -> tuple[list, int]:
    """Expand one complete level by the first rule set.

    Every partition contributes itself with an extra unit appended; a
    partition whose last part is strictly smaller than its second-to-last
    (or that has a single part) also contributes a copy with the last part
    incremented.
    """
    out = [parts + (1,) for parts in members]
    augmented = [parts[:-1] + (parts[-1] + 1,) for parts in members
                 if len(parts) == 1
                 or (len(parts) > 1 and parts[-1] < parts[-2])]
    out += augmented
    return out, len(augmented)


def step_m2(members: list) -> tuple[list, int]:
    """Expand one complete level by the second rule set.

    Every partition contributes itself with an extra unit appended; a
    partition with u units, 1 <= u < its smallest non-unit part, also
    contributes a copy with all units replaced by the single part u+1.
    Parts never increase, so ``count(1)`` counts the trailing units.  The
    single-part partition of the next weight is NOT produced here; the
    evolution loop adds it separately.
    """
    out = [parts + (1,) for parts in members]
    collected = [parts[:-units] + (units + 1,) for parts in members
                 if 0 < (units := parts.count(1)) < len(parts)
                 and units < parts[-units - 1]]
    out += collected
    return out, len(collected)


def enumerate_level(n: int) -> list:
    """All partitions of n as part tuples, in canonical order.

    Canonical order (descending-lexicographic within one weight) falls
    out of recursing on the largest part from min(remainder, bound) down
    to 1; no sort is needed.
    """
    if n < 0:
        raise ValueError(f"cannot enumerate partitions of {n}")
    out: list = []
    prefix: list = []

    def descend(remainder: int, bound: int) -> None:
        if remainder == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remainder, bound), 0, -1):
            prefix.append(part)
            descend(remainder - part, part)
            prefix.pop()

    descend(n, n)
    return out
