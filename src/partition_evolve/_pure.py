"""Level kernels: one-step successor expansion for both methods and the
independent brute-force enumerator.

Members are strings whose code points are the parts (``core.encode_parts``):
``3+2+1`` is ``"\\x03\\x02\\x01"`` and the empty partition is ``""``.  Each
rule is then one string operation per member, and members of one weight
sort and compare in C exactly as their part tuples would.  Wrapping into
``Partition`` happens at the boundaries.

Both step kernels return ``(members, second_count)``: every appended-unit
successor first, in input order, then the ``second_count`` successors of
the second kind.  Provenance is not recorded; it follows from the parts
(see ``level.Level.tags``).
"""

from __future__ import annotations


def step_m1(members: list) -> tuple[list, int]:
    """Expand one complete level by the first rule set.

    Every partition contributes itself with an extra unit appended; a
    partition whose last part is strictly smaller than its second-to-last
    (or that has a single part) also contributes a copy with the last part
    incremented.
    """
    out = [p + "\x01" for p in members]
    augmented = [p[:-1] + chr(ord(p[-1]) + 1) for p in members
                 if len(p) == 1 or (len(p) > 1 and p[-1] < p[-2])]
    out += augmented
    return out, len(augmented)


def step_m2(members: list) -> tuple[list, int]:
    """Expand one complete level by the second rule set.

    Every partition contributes itself with an extra unit appended; a
    partition with u units, 1 <= u < its smallest non-unit part, also
    contributes a copy with all units replaced by the single part u+1.
    Parts never increase, so ``count("\\x01")`` counts the trailing units.
    The single-part partition of the next weight is NOT produced here; the
    evolution loop adds it separately.
    """
    out = [p + "\x01" for p in members]
    collected = [p[:-units] + chr(units + 1) for p in members
                 if 0 < (units := p.count("\x01")) < len(p)
                 and units < ord(p[-units - 1])]
    out += collected
    return out, len(collected)


def enumerate_level(n: int) -> list:
    """All partitions of n as member strings, in canonical order.

    Canonical order (descending-lexicographic within one weight) falls
    out of recursing on the largest part from min(remainder, bound) down
    to 1; no sort is needed.  A remainder below part 2 can only be filled
    with units, so that last branch is written out without recursing.
    """
    if n < 0:
        raise ValueError(f"cannot enumerate partitions of {n}")
    if n == 0:
        return [""]
    out: list = []

    def descend(prefix: str, remainder: int, bound: int) -> None:
        for part in range(min(remainder, bound), 1, -1):
            if part == remainder:
                out.append(prefix + chr(part))
            else:
                descend(prefix + chr(part), remainder - part, part)
        out.append(prefix + "\x01" * remainder)

    descend("", n, n)
    return out
