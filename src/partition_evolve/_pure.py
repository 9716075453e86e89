"""Level kernels: one-step growth of unit-free heads for both methods and
the independent brute-force enumerator.

Members are strings whose code points are the parts (``core.encode_parts``):
``3+2+1`` is ``"\\x03\\x02\\x01"`` and the empty partition is ``""``.  Each
rule is then one string operation per head, and members of one weight
sort and compare in C exactly as their part tuples would.  Wrapping into
``Partition`` happens at the boundaries.

Every partition of n is a head with no part 1, followed by units: ``h +
"\\x01" * (n - |h|)``.  Both rules grow from each partition of n its
appended-unit successor, which keeps the head, so level n+1 is level n's
heads plus the new heads of weight exactly n+1.  The step kernels build
only those.  A step kernel takes ``heads``, where ``heads[w]`` lists the
heads of weight w for w = 0..n, each list in descending order of last part
(``""`` only at weight 0).  It returns ``(new, second_count)``: the heads
of weight n+1 in the same order, of which the last ``second_count`` are of
the method's second kind and any before them are explicit.  Provenance is
not recorded; it follows from the parts (see ``level.Level.tags``).

Each rule's inverse, ``pred_m1`` and ``pred_m2``, takes one member string
and is written apart from the step kernels, so that ``verify`` can check
one against the other.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import NoPredecessorError


def step_m1(heads: list) -> tuple[list, int]:
    """The new heads of weight n+1 under the first rule set.

    A partition whose last part occurs once also grows a copy with that
    part raised by 1.  Ending in a single unit, that is its head with a 2
    appended, one for each head of weight n-1; ending in a part of 2 or
    more, it is a head of weight n whose last part occurs once, raised.
    Raising keeps the order of last parts, and every raised part is at
    least 3.
    """
    n = len(heads) - 1
    if n == 0:
        return [], 0
    out = [h[:-1] + chr(ord(h[-1]) + 1) for h in heads[n]
           if len(h) == 1 or h[-1] < h[-2]]
    out += [h + "\x02" for h in heads[n - 1]]
    return out, len(out)


def _neg_last(head: str) -> int:
    return -ord(head[-1])


def step_m2(heads: list) -> tuple[list, int]:
    """The new heads of weight n+1 under the second rule set.

    A partition with u units, 1 <= u < the last part of its head h, also
    grows h + (u+1), so each head of weight n-u with last part above u
    gives one; as the last part is at most the weight, u < n/2.  A weight's
    heads descend by last part, so those heads are a prefix of its list.
    The single part n+1, which the rule never grows, leads as the one
    explicit head from weight 2 up ((1) is the empty head's unit).
    """
    n = len(heads) - 1
    if n == 0:
        return [], 0
    out = [chr(n + 1)]
    for units in range((n - 1) // 2, 0, -1):
        level = heads[n - units]
        part = chr(units + 1)
        out += [h + part for h in
                level[:bisect_left(level, -units, key=_neg_last)]]
    return out, len(out) - 1


def pred_m1(member: str) -> str:
    """The member the first rule grew ``member`` from.

    Last part 1: drop it.  Any other last part: lower it by 1.  Only the
    empty partition has no predecessor.
    """
    if not member:
        raise NoPredecessorError("the empty partition has no predecessor")
    last = ord(member[-1])
    if last == 1:
        return member[:-1]
    return member[:-1] + chr(last - 1)


def pred_m2(member: str) -> str:
    """The member the second rule grew ``member`` from.

    Last part 1: drop it.  Last part a > 1 after other parts: replace it
    by a-1 units.  A single part of 2 or more is added explicitly, never
    grown, and the empty partition has no predecessor; both refuse.
    """
    if not member:
        raise NoPredecessorError("the empty partition has no predecessor")
    last = ord(member[-1])
    if last == 1:
        return member[:-1]
    if len(member) == 1:
        raise NoPredecessorError(
            f"{last} is the single-part partition of {last}; it is added "
            "explicitly at its weight, not grown from a predecessor")
    return member[:-1] + "\x01" * (last - 1)


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
