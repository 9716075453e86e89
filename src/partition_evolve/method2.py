"""Second successor rule: append a unit, or collect all units into one part.

Every partition of n grows the partition of n+1 with an extra unit
appended; a second-kind partition (u units with 1 <= u < its smallest
non-unit part) additionally grows the one where the u units are replaced
by the single part u+1.  This never produces the single-part partition of
n+1, so evolution adds it explicitly at every weight above 1.

Evolution assembles the target as method 1 does, from blocks over a
lower level k (see ``method1``).  Level N splits by the members m of
level k into blocks whatever the rule: each block is ``m[:-1]`` followed
by the partitions of ``m[-1] + N - k`` whose first part lies between
``m[-1]`` and ``m[-2]``.  The rule keeps the first part of every member
with two or more parts, so the single part l grown s weights, with the
explicit head ``chr(w)`` that the kernel adds at each weight w, is table
T_l: every partition of l + s whose first part is at least l.  After a
prefix, the explicit heads that a block's cut keeps end members with
two or more parts, which are Collected (see ``level.rule_tags``).

``evolve_m2_chunks`` grows level k and the tables with
``method1.evolve_m1_chunks``, ``_pure.step_m2`` as its kernel, and keeps
the progress lines until the blocks pass.  It certifies the blocks
(``level.LevelBlocks.certified``) and compares their count with P(N)
from the series.  When both hold, it reports progress and hands on the
blocks, which the writers render and ``count`` counts without holding
level N.  Any failure (a certificate that fails, a count other than
P(N), or no step left after level k) runs ``evolve_m2``, the one
fallback: the whole level grown, sorted and checked at once.  So a
faulty kernel's progress and refusal are printed as they always have
been, and ``count`` prints what the whole level holds.
"""

from __future__ import annotations

from . import _pure
from .core import (Kind, Partition, classify_m2, decode_member,
                   partition_member)
from .engine import ProgressFn, run_evolution
from .level import TAG_ADDED_UNIT, TAG_COLLECTED, Level, LevelBlocks
from .method1 import evolve_m1_chunks
from .series import euler_p_coeffs


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


def evolve_m2_chunks(start: Level, target_n: int, *,
                     progress: ProgressFn | None = None
                     ) -> Level | LevelBlocks:
    """The level of ``target_n`` grown from the complete level ``start``
    under the second rule, as blocks certified and counted complete (see
    the module docstring); ``evolve_m2``'s Level when no step is left
    after level k or the blocks fail.

    The steps run, and ``progress`` hears of every weight, before this
    returns.
    """
    heard: list[tuple[int, dict[str, int]]] = []
    try:
        blocks = evolve_m1_chunks(
            start, target_n, step=_pure.step_m2, method_tag="method2",
            progress=lambda weight, counts: heard.append((weight, counts)))
    except ValueError:
        blocks = None
    if (isinstance(blocks, LevelBlocks)
            and blocks.certified() == euler_p_coeffs(target_n)[target_n]):
        if progress is not None:
            for weight, counts in heard:
                progress(weight, counts)
        return blocks
    return evolve_m2(start, target_n, progress=progress)
