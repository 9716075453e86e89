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
heads of weight w for w = 0..n (``""`` only at weight 0), each list in
descending order of last part and, among heads with the same last part, in
descending (canonical) string order.  It returns ``(new, second_count)``:
the heads of weight n+1 in the same order, of which the last
``second_count`` are of the method's second kind and any before them are
explicit.  Provenance is not recorded; it follows from the parts (see
``level.Level.tags``).

The order is for speed only.  With it, the grown level reaches the sort
in ``level.Level.from_raw`` as one sorted run per weight and last part,
which the sort merges; the sort and the level's check still decide the
order and refuse duplicates, whatever order a kernel returns.

Each rule's inverse, ``pred_m1`` and ``pred_m2``, maps a list of member
strings to their predecessors in one comprehension, so that ``verify``
asks it about a whole block of a level in one call; a single member is a
one-member list.  The inverses are written apart from the step kernels,
so that ``verify`` can check one against the other.  The enumerator,
``enumerate_level``, shares no code with either: it lists a level by
first part, from a table of the small levels that it builds itself.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NoReturn

from .core import NoPredecessorError


def step_m1(heads: list) -> tuple[list, int]:
    """The new heads of weight n+1 under the first rule set.

    A partition whose last part occurs once also grows a copy with that
    part raised by 1.  Ending in a single unit, that is its head with a 2
    appended, one for each head of weight n-1; ending in a part of 2 or
    more, it is a head of weight n whose last part occurs once, raised.
    Every raised part is at least 3.  Raising keeps the order of last
    parts and, within one, the canonical order: two heads of one weight
    and last part first differ before either's last part.  The heads of
    weight n-1 with a 2 appended are sorted, a merge of one run per last
    part.
    """
    n = len(heads) - 1
    if n == 0:
        return [], 0
    out = [h[:-1] + chr(ord(h[-1]) + 1) for h in heads[n]
           if len(h) == 1 or h[-1] < h[-2]]
    out += sorted([h + "\x02" for h in heads[n - 1]], reverse=True)
    return out, len(out)


def _neg_last(head: str) -> int:
    return -ord(head[-1])


def step_m2(heads: list) -> tuple[list, int]:
    """The new heads of weight n+1 under the second rule set.

    A partition with u units, 1 <= u < the last part of its head h, also
    grows h + (u+1), so each head of weight n-u with last part above u
    gives one; as the last part is at most the weight, u < n/2.  A weight's
    heads descend by last part, so those heads are a prefix of its list.
    Each block of one u is sorted, a merge of one run per last part of
    that prefix.  The single part n+1, which the rule never grows, leads
    as the one explicit head from weight 2 up ((1) is the empty head's
    unit).
    """
    n = len(heads) - 1
    if n == 0:
        return [], 0
    out = [chr(n + 1)]
    for units in range((n - 1) // 2, 0, -1):
        level = heads[n - units]
        part = chr(units + 1)
        out += sorted([h + part for h in
                       level[:bisect_left(level, -units, key=_neg_last)]],
                      reverse=True)
    return out, len(out) - 1


def pred_m1(members: list) -> list:
    """The members the first rule grew ``members`` from, in order.

    Last part 1: drop it.  Any other last part: lower it by 1.  Only the
    empty partition has no predecessor; it raises NoPredecessorError.
    """
    try:
        return [m[:-1] if m[-1] == "\x01" else m[:-1] + chr(ord(m[-1]) - 1)
                for m in members]
    except IndexError:
        # m[-1] of the empty member.
        raise NoPredecessorError(
            "the empty partition has no predecessor") from None


def pred_m2(members: list) -> list:
    """The members the second rule grew ``members`` from, in order.

    Last part 1: drop it.  Last part a > 1 after other parts: replace it
    by a-1 units.  A single part of 2 or more is added explicitly, never
    grown, and the empty partition has no predecessor; the first member
    of either sort raises NoPredecessorError.
    """
    try:
        return [m[:-1] if m[-1] == "\x01"
                else (m[:-1] or _single_part(m)) + "\x01" * (ord(m[-1]) - 1)
                for m in members]
    except IndexError:
        raise NoPredecessorError(
            "the empty partition has no predecessor") from None


def _single_part(member: str) -> NoReturn:
    # pred_m2 reaches this only for a single part of 2 or more.
    part = ord(member)
    raise NoPredecessorError(
        f"{part} is the single-part partition of {part}; it is added "
        "explicitly at its weight, not grown from a predecessor")


# The enumerator's table holds levels 0.._TABLE_TOP, built on the first
# call.  At 20 it holds 2,714 members (0.16 MiB).  On a 2-core host with
# CPython 3.11 it builds in about 2 ms, and levels 0..34 then take about
# 5 ms: the least total of the tops 16..26, as a higher top builds for
# longer than it saves below weight 35.
_TABLE_TOP = 20
_table: list = []


def enumerate_level(n: int) -> list:
    """All partitions of n as member strings, in canonical order (Knuth,
    TAOCP 4A, 7.2.1.4: descending-lexicographic within one weight).

    Canonical order falls out of choosing the largest part from
    min(remainder, bound) down to 1; no sort is needed.  The largest parts
    are chosen one at a time while the remainder exceeds the table of
    levels 0..``_TABLE_TOP``, and the rest of each member is the suffix of
    the remainder's tabled level whose first part is within the bound.  A
    remainder with bound 1 can only be filled with units, so that branch
    is written out.  The same descent builds the table on the first call.
    Each call returns a new list.
    """
    if n < 0:
        raise ValueError(f"cannot enumerate partitions of {n}")
    out: list = []
    _descend(out, _table or _build_table(), "", n, n)
    return out


def _build_table() -> list:
    # Level k is the descent from k over levels 0..k-1, the only ones
    # tabled yet: first parts k..2, each followed by a tabled suffix, then
    # the all-units member.  The build reads only the levels it has built,
    # never enumerate_level.
    levels: list = [("",)]
    for k in range(1, _TABLE_TOP + 1):
        level: list = []
        _descend(level, levels, "", k, k)
        levels.append(tuple(level))
    _table[:] = levels
    return _table


def _neg_first(member: str) -> int:
    return -ord(member[0])


def _within(level: tuple, weight: int, bound: int) -> tuple:
    """The members of ``level``, of ``weight``, whose first part is at
    most ``bound``: a suffix, as first parts descend."""
    if bound >= weight:
        return level
    return level[bisect_left(level, -bound, key=_neg_first):]


def _descend(out: list, table: list, prefix: str, remainder: int,
             bound: int) -> None:
    # A module-level function, not a closure: a nested function that calls
    # itself is a reference cycle, which would hold every finished level
    # until the cyclic garbage collector ran.
    if remainder < len(table):
        out += [prefix + rest
                for rest in _within(table[remainder], remainder, bound)]
        return
    for part in range(min(remainder, bound), 1, -1):
        _descend(out, table, prefix + chr(part), remainder - part, part)
    out.append(prefix + "\x01" * remainder)
