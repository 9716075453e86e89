"""Second successor rule: append a unit, or collect all units into one part.

Every partition of n grows the partition of n+1 with an extra unit
appended; a second-kind partition (u units with 1 <= u < its smallest
non-unit part) additionally grows the one where the u units are replaced
by the single part u+1.  This never produces the single-part partition of
n+1, so evolution adds it explicitly at every weight above 1.

Evolution grows the target one batch of first parts at a time.  The rule
keeps the first part of every member with two or more parts: its inverse
drops a last unit, or breaks a last part a > 1 after other parts into
a - 1 units.  So the members of level N with first part f are the rule's
descendants of the single part f, explicit at weight f (for f = 1, the
one successor of the empty partition), or, from a start of weight n >=
f, of the start's members with first part f.  First parts descend along
the canonical level, so each first part's members are one run of it.

``evolve_m2_packed`` cuts the first parts N..1 into batches of
consecutive parts, each holding at most ``_BATCH_MEMBERS`` members of
level N unless its lowest part's run alone holds more; the runs' sizes
come from a table of partitions into bounded parts, and nothing is grown
to size them.  A batch of parts lo..hi grows with
``engine.run_evolution`` and ``_pure.step_m2`` from the start's members
with first part in it.  When lo lies above the start's weight, it grows
instead from the empty level of weight lo - 1, to which the kernel adds
the single part lo (or, for lo = 1, from the seed).  It keeps the
explicit head ``chr(w)`` that the kernel adds at weight w only when w
lies in the batch, so that every member comes from the kernel.
``Level.from_raw`` sorts and checks each batch, and its first member
must lie below the last member of the batch before.  Batches that each
strictly descend, and descend across each boundary, strictly descend as
a whole; with a count of P(N) from the series they are level N.  Each
batch is packed once checked, as one Latin-1 code per part and a NUL
after each member (``level.PackedLevel``), and its strings are dropped:
level N is never held as strings, and the writers render the codes.
Progress, each weight's counts summed over the batches, is reported
only after the last batch has passed and the count is complete.

Any failure (a batch that fails its check, a boundary that does not
descend, a part past 255, a count other than P(N)) drops the batches and
runs ``evolve_m2``, the one-batch case: the whole level grown, sorted and
checked at once.  So a faulty kernel's progress and refusal are printed
as they always have been.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterator

from . import _pure
from .core import (Kind, Partition, classify_m2, decode_member,
                   partition_member)
from .engine import ProgressFn, StepFn, check_upward, run_evolution
from .level import (TAG_ADDED_UNIT, TAG_COLLECTED, TAG_ORDER, Level,
                    PackedLevel)
from .series import euler_p_coeffs

# Members of the target level that one batch holds at most, unless one
# first part's run alone holds more.
_BATCH_MEMBERS = 1 << 15


def tagged_successors_m2(p: Partition) -> tuple[tuple[Partition, str], ...]:
    """Successors of ``p`` with the rule that produced each one."""
    parts = p.parts
    added = Partition._from_canonical(parts + (1,), p.weight + 1)
    if classify_m2(p) is Kind.FIRST:
        return ((added, TAG_ADDED_UNIT),)
    units = parts.count(1)
    head = parts[:len(parts) - units]
    # u+1 <= smallest non-unit part, so appending keeps canonical order.
    assert not head or head[-1] >= units + 1
    collected = Partition._from_canonical(head + (units + 1,), p.weight + 1)
    return ((added, TAG_ADDED_UNIT), (collected, TAG_COLLECTED))


def successors_m2(p: Partition) -> frozenset[Partition]:
    """The one or two partitions of ``p.weight + 1`` grown from ``p``."""
    return frozenset(successor for successor, _ in tagged_successors_m2(p))


def predecessor_m2(p: Partition) -> Partition:
    """The unique partition the second rule grew ``p`` from:
    ``_pure.pred_m2`` on the one-member list of ``p``'s member, which
    states the rule and its refusals (NoPredecessorError)."""
    return Partition._from_canonical(
        decode_member(_pure.pred_m2([partition_member(p)])[0]),
        p.weight - 1)


def evolve_m2(start: Level, target_n: int, *,
              progress: ProgressFn | None = None) -> Level:
    """Evolve a complete level to ``target_n`` under the second rule.

    Adds the single-part partition explicitly at every weight above 1.
    Contract otherwise as for ``evolve_m1``.
    """
    grown = run_evolution(start, target_n, method_tag="method2",
                          step=_pure.step_m2, progress=progress)
    if target_n == start.n:
        return start
    return Level.from_raw(target_n, grown, "method2")


def evolve_m2_packed(start: Level, target_n: int, *,
                     progress: ProgressFn | None = None
                     ) -> Level | PackedLevel:
    """The level of ``target_n`` grown from the complete level ``start``
    under the second rule, batch by batch, checked, counted complete and
    packed (see the module docstring); ``evolve_m2``'s Level when no step
    is left or the batches fail.

    The steps run, and ``progress`` hears of every weight, before this
    returns.
    """
    check_upward(start.n, target_n)
    if target_n > start.n:
        packed = PackedLevel(target_n, "method2")
        try:
            counts = _batches(start, target_n, packed.append)
        except ValueError:
            pass
        else:
            if progress is not None:
                progress(start.n, start.tag_counts())
                for weight, tags in enumerate(counts, start.n + 1):
                    progress(weight, tags)
            return packed
    return evolve_m2(start, target_n, progress=progress)


def count_m2(start: Level, target_n: int) -> int:
    """The number of members of ``evolve_m2(start, target_n)``: P(N) when
    the batches pass, so that the level is never held; otherwise the
    whole level's, which raises as ``evolve_m2`` does when it fails its
    check."""
    check_upward(start.n, target_n)
    if target_n > start.n:
        sizes: list[int] = []
        try:
            _batches(start, target_n, lambda members: sizes.append(
                len(members)))
            return sum(sizes)
        except ValueError:
            pass
    return len(evolve_m2(start, target_n))


def _batches(start: Level, target_n: int,
             take: Callable[[list[str]], None]) -> list[dict[str, int]]:
    """Grow level ``target_n`` from ``start``, a lower weight, a batch of
    first parts at a time (see the module docstring), and hand ``take``
    each batch's members, sorted and checked, in canonical order.  Raise
    ValueError when a batch fails its check or does not lie below the
    batch before, or when the batches do not hold P(N) members.  Return
    the progress counts of each weight above the start's, summed over the
    batches.
    """
    n, members = start.n, start.raw_members()
    sums = [Counter() for _ in range(n, target_n)]

    def heard(weight: int, counts: dict[str, int]) -> None:
        # A batch grown from the start's members reports the start too.
        if weight > n:
            sums[weight - n - 1].update(counts)

    last = None
    held = 0
    for lo, hi in _batch_parts(target_n):
        if lo <= n:
            begin = Level(n, members[_below(members, hi):
                                     _below(members, lo - 1)],
                          start.method_tag)
        elif lo > 1:
            # The kernel's explicit head is the batch's first member.
            begin = Level(lo - 1, [], "method2")
        else:
            # The seed, whose one member grows the units.
            begin = start
        grown = Level.from_raw(target_n, run_evolution(
            begin, target_n, method_tag="method2",
            step=_explicit_within(lo, hi), progress=heard),
            "method2").raw_members()
        if not grown or last is not None and not last > grown[0]:
            raise ValueError("a batch does not lie below the one before")
        last = grown[-1]
        held += len(grown)
        take(grown)
        # The next batch grows without this one's strings.
        del grown
    if held != euler_p_coeffs(target_n)[target_n]:
        raise ValueError("the batches are incomplete")
    return [{tag: summed[tag] for tag in TAG_ORDER if summed[tag]}
            for summed in sums]


def _below(members: list[str], part: int) -> int:
    """Where the members of a canonical level whose first part is at most
    ``part`` begin, as first parts descend."""
    return bisect_left(members, -part, key=lambda member: -ord(member[0]))


def _explicit_within(lo: int, hi: int) -> StepFn:
    """``_pure.step_m2``, read when called, less its explicit heads at the
    weights outside ``lo..hi``."""
    def step(heads: list) -> tuple[list, int]:
        new, second = _pure.step_m2(heads)
        if lo <= len(heads) <= hi:
            return new, second
        return new[len(new) - second:], second
    return step


def _batch_parts(n: int) -> Iterator[tuple[int, int]]:
    """Batches ``(lo, hi)`` of the first parts hi..lo of level n, from n
    down to 1, each holding at most ``_BATCH_MEMBERS`` members unless the
    run of its part lo alone holds more."""
    # bounded[m] counts the partitions of m into parts at most k, for k =
    # 1..n in turn; first part k leads those of n - k.
    bounded = [1] + [0] * n
    runs = [0]
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            bounded[m] += bounded[m - k]
        runs.append(bounded[n - k])
    hi, held = n, 0
    for part in range(n, 0, -1):
        if held and held + runs[part] > _BATCH_MEMBERS:
            yield part + 1, hi
            hi, held = part, 0
        held += runs[part]
    yield 1, hi
