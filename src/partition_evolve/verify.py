"""The cross-check suite: every identity the package promises, run live.

Counts are checked three ways against each other (series product, series
sum, direct counting recurrence), and the two successor rules are checked
exhaustively against brute-force enumeration: disjointness, coverage,
predecessor round-trips, level-set equivalence, and a mixed-rule run.
Each check reports its range and, on failure, the first counterexample.

Each step check runs the step kernels that write the output
(``_pure.step_m1``, ``_pure.step_m2``) on member strings.  One block
comparison per method decides whether a step grows the next level; the
bijection checks add each rule's inverse (``_pure.pred_m1``,
``_pure.pred_m2``), asked about whole blocks of members, never one member
per call.  Which members are of a method's second kind is decided by the
kind tests on member lists (``core.smallest_part_once``,
``core.collectable``), which share nothing with the kernels.

The pass over the weights grows its state rather than rebuilding it: each
level n-1 is held as text (``level.Joined``), against which level n's
check proves the unit-ending members and the inverses' answers are
compared, and its heads are carried to level n; member lists are
rebuilt from the text only to word a failure.

Series checks run to ``max_n``; anything that enumerates partitions is
bounded by ``min(max_n, cap)``.
"""

from __future__ import annotations

from operator import itemgetter

from . import _pure
from .core import (NoPredecessorError, collectable, member_text,
                   smallest_part_once)
from .engine import grown_members, split_heads
from .level import Joined, check_members
# perfbench/tracer.py wraps tagged_successors_m* and predecessor_m* as
# attributes of this module, so the names stay bound here; the suite
# checks the kernels and their string inverses instead.
from .method1 import predecessor_m1, tagged_successors_m1  # noqa: F401
from .method2 import predecessor_m2, tagged_successors_m2  # noqa: F401
from .oracle import DEFAULT_CAP, count_oracle, enumerate_oracle
from .report import CheckResult, VerificationReport
from .series import coefficient_rows, recurrence_violations

# Members to a chunk of the text that holds level n-1, its second-kind
# members and its heads (``level.Joined``).  Level n's unit-ending members
# are inverted and compared a chunk at a time, so that no list of a whole
# level's predecessors is held.
_CHUNK = 8192


def run_suite(max_n: int, *, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run every check up to ``max_n`` and return the combined report."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    bound = min(max_n, cap)
    rows = coefficient_rows(max_n)
    p = [row[1] for row in rows]
    q = [row[2] for row in rows]
    return VerificationReport((
        _check_recurrence(p, q, max_n),
        _check_count_identity(p, max_n),
        *_oracle_pass(q, bound, cap),
    ))


def _check_recurrence(p: list[int], q: list[int], max_n: int) -> CheckResult:
    name = "count-recurrence P(n+1)=P(n)+Q(n)"
    scope = f"n=0..{max_n - 1}"
    violations = recurrence_violations(p, q)
    if violations:
        n, lhs, rhs = violations[0]
        return CheckResult(name, scope, False,
                           f"n={n}: P(n+1)={lhs} but P(n)+Q(n)={rhs}")
    return CheckResult(name, scope, True)


def _check_count_identity(p: list[int], max_n: int) -> CheckResult:
    name = "count-identity series vs counting recurrence"
    scope = f"n=0..{max_n}"
    counts = count_oracle(max_n, every_weight=True)
    for n, counted in enumerate(counts):
        if p[n] != counted:
            return CheckResult(
                name, scope, False,
                f"n={n}: series P(n)={p[n]} but counting recurrence gives "
                f"{counted}")
    return CheckResult(name, scope, True)


def _oracle_pass(q: list[int], bound: int, cap: int) -> list[CheckResult]:
    """The five checks that enumerate, fed by one oracle pass.

    Each weight n is enumerated once.  Level n is held as a member list
    only while weight n is checked; from then on it is held as text
    (``level.Joined``), as are each method's second-kind members of it
    while that method's bijection check is open.  Every check keeps its
    own first failure and stops there.

    The four step checks (both bijections, equivalence and mixed) share
    one step per method from the heads of level n-1: each method's step
    kernel runs once while any of the four is still open, and before
    level n is enumerated.  The heads are carried from weight to weight,
    as text for each weight, and are strings only while the steps run.
    When level n's unit-ending members are level n-1 with a unit appended,
    level n's heads are level n-1's and its own unit-free members, by last
    part (the kernels' order); level n-1 is split into heads
    (``engine.split_heads``) only at weight 1 and after a weight where
    that fails.  At the last weight they are dropped before level n is
    enumerated.
    Level n's check compares its unit-ending members with level n-1 once
    (``Joined.split``), and the step checks read the same split.  Then
    one block comparison per method says whether its step grows level n
    (``_grows_level``).  That verdict decides the equivalence and mixed
    checks; the bijection check passes when it holds and the inverse
    conditions do too (``_inverts``).  The verdicts and counterexamples
    are those of private chains: a chain reaches step n only after its
    level n-1 compared equal to the oracle's, and a one-step evolution is
    a pure function of the level it starts from.
    The mixed run reads method 1 at odd n and method 2 at even n:
    alternating the rules must still yield complete levels, since each
    step only needs a complete input.
    """
    names = ("q-semantics Q(n) counts smallest-part-once partitions",
             "method1 successor bijection and round-trip",
             "method2 successor bijection and round-trip",
             "method equivalence with enumeration",
             "mixed-method evolution matches enumeration")
    failures: list[str | None] = [None] * len(names)
    # Level n-1 and each method's second-kind members of it, and its heads
    # of each weight while they carry, all as text.
    below: Joined | None = None
    sources: list[Joined | None] = [None, None]
    heads: list[Joined] | None = None
    for n in range(bound + 1):
        grown = None
        if n and None in failures[1:]:
            if heads is None:
                heads = [Joined(group, _CHUNK)
                         for group in split_heads(n - 1, below.members())]
            # The heads are strings only while the steps run.
            strings = [group.members() for group in heads]
            grown = _pure.step_m1(strings), _pure.step_m2(strings)
            del strings
            if n == bound:
                heads = None  # no weight follows to carry them to
        members = enumerate_oracle(n, cap=cap, below=below).raw_members()
        # Q(n) counts these; they are also method 1's second kind, which
        # the method-1 round trip at weight n+1 needs.
        once = smallest_part_once(members)
        if failures[0] is None and len(once) != q[n]:
            failures[0] = (f"n={n}: Q(n)={q[n]} but enumeration finds "
                           f"{len(once)} second-kind partitions")
        split = None
        if n == 0:
            # Either method evolves the seed to weight 0 as the seed itself.
            _evolution_check(0, 1, [""], [], members, failures)
        elif grown is not None:
            split = below.split(members)
            _step_checks(n, below, sources, members, split, *grown, failures)
        del grown  # before the next weight steps
        if n < bound:
            if split is not None and None in failures[1:]:
                # Each weight's heads by last part, the kernels' order.
                heads.append(Joined(sorted(split[1], key=itemgetter(-1),
                                           reverse=True), _CHUNK))
            else:
                heads = None
            below = Joined(members, _CHUNK)
            sources = [Joined(once, _CHUNK) if failures[1] is None else None,
                       Joined(collectable(members), _CHUNK)
                       if failures[2] is None else None]
        del members, once, split
    top = f"n=0..{bound}"
    steps = f"n=0..{bound - 1}" if bound else "no step checked"
    return [CheckResult(name, scope, failure is None, failure)
            for name, scope, failure in zip(
                names, (top, steps, steps, top, top), failures)]


def _step_checks(n: int, below: Joined, sources: list[Joined | None],
                 members: list[str],
                 split: tuple[list[str], list[str]] | None,
                 grown1: tuple[list[str], int], grown2: tuple[list[str], int],
                 failures: list[str | None]) -> None:
    # Level n-1 is rebuilt as a member list only to word a failure.  The
    # single part n enters method 2's step explicitly, and only from
    # weight 2 up ([1] does arise from the rule).
    for method, (new, second), step, pred, explicit in (
            (1, grown1, _pure.step_m1, _pure.pred_m1, []),
            (2, grown2, _pure.step_m2, _pure.pred_m2,
             [chr(n)] if n >= 2 else [])):
        grows = _grows_level(split, new)
        if failures[method] is None and not (grows and _inverts(
                pred, new, second, below, split[0], explicit,
                sources[method - 1])):
            failures[method] = _counterexample(
                n - 1, step, pred, below.members(), members, new, second,
                explicit)
        # Only a level that does not grow equal is rendered, to word the
        # mismatch.
        if not grows:
            _evolution_check(n, method, below.members(), [new], members,
                             failures)


def _grows_level(split: tuple[list[str], list[str]] | None,
                 new: list[str]) -> bool:
    """Whether level n-1 with a unit appended to each member, plus the new
    heads ``new``, is level n: ``split`` (``Joined.split``) found level
    n's unit-ending members to be level n-1 with a unit appended, and
    ``new``, sorted, is the rest of level n, its unit-free members.  A
    repeated, missing or extra head, or one that ends in a unit or has
    another weight, makes the lists differ.  Nothing is rendered."""
    return split is not None and sorted(new, reverse=True) == split[1]


def _inverts(pred, new, second, below, units, explicit, sources) -> bool:
    """Whether ``pred`` inverts a step that grows level n (``_grows_level``)
    from level n-1, ``below``, with the new heads ``new``.

    The ``explicit`` heads lead, and ``pred`` refuses them.  ``pred`` maps
    ``units``, level n's unit-ending members, onto level n-1 in order, a
    chunk at a time, and the last ``second`` heads, which are level n's
    other unit-free members once each, one-to-one onto ``sources``, the
    members of level n-1 of the method's second kind.  Level n-1 and
    ``sources`` are held as text (``level.Joined``), and each chunk of
    either is compared once with what ``pred`` gives.
    """
    cut = len(new) - second
    try:
        return (cut == len(explicit) and new[:cut] == explicit
                and all(_back(pred, single) is None for single in explicit)
                and below.holds(units, pred)
                and sources.holds(sorted(pred(new[cut:]), reverse=True)))
    except NoPredecessorError:
        return False


def _back(pred, member: str) -> str | None:
    """The predecessor ``pred`` gives ``member``, or None when it refuses
    ``member``."""
    try:
        return pred([member])[0]
    except NoPredecessorError:
        return None


def _second_block(new: list[str], second: int) -> list[str]:
    return new[min(max(len(new) - second, 0), len(new)):]


def _counterexample(n, step, pred, previous, members, new, second, explicit):
    """The first counterexample of a step from weight n, for a step whose
    checks failed, in the order: duplicate, excluded single part, refusal,
    coverage, round trip.

    The successor union is rebuilt as a per-partition rule would give it:
    each member of level n with a unit appended, then the new heads of the
    step that the same step grows from that member's head alone, which
    names their producer.  A new head that no head alone grows comes from
    the level as a whole, and is named so.
    """
    owner: dict[str, str] = {}
    for source in previous:
        alone = step(split_heads(n, [source]))
        for head in _second_block(*alone):
            owner.setdefault(head, source)
    grown: dict[str | None, list[str]] = {}
    for head in _second_block(new, second):
        grown.setdefault(owner.get(head), []).append(head)

    produced: dict[str, str] = {}
    round_trip = None
    for source in [*previous, None]:
        if source is None:
            name, successors = f"level {n}", grown.get(None, [])
        else:
            name = member_text(source)
            successors = [source + "\x01", *grown.get(source, [])]
        for successor in successors:
            if successor in produced:
                return (f"n={n}: {produced[successor]} and {name} both "
                        f"produce {member_text(successor)}")
            produced[successor] = name
            if (round_trip is None and source is not None
                    and successor not in explicit):
                round_trip = _round_trip(n, pred, successor, source)
    for single in explicit:
        if single in produced:
            return (f"n={n}: rule produced the excluded single-part "
                    f"{member_text(single)} from {produced[single]}")
        wrong = _back(pred, single)
        if wrong is not None:
            return (f"n={n}: predecessor({member_text(single)}) gave "
                    f"{member_text(wrong)}, expected a refusal")
    # The explicit heads are grown too: a level without one holds it extra.
    union, expected = produced.keys() | set(explicit), set(members)
    if union != expected:
        # Partition order: weight first, then descending on the parts,
        # which is descending on the member strings.
        sample = min(sorted(union ^ expected, reverse=True), key=_weight)
        side = "missing" if sample in expected else "extra"
        return f"n={n}: successor union is {side} {member_text(sample)}"
    if round_trip is not None:
        return round_trip
    cut = len(new) - second
    if cut != len(explicit) or new[:cut] != explicit:
        return (f"n={n}: the step grew {cut} explicit heads "
                f"[{', '.join(map(member_text, new[:max(cut, 0)]))}], "
                f"expected [{', '.join(map(member_text, explicit))}]")
    return (f"n={n}: the new heads' predecessors are not the second-kind "
            f"partitions of {n}")


def _round_trip(n: int, pred, successor: str, source: str) -> str | None:
    back = _back(pred, successor)
    if back == source:
        return None
    got = " refused" if back is None else f"={member_text(back)}"
    return (f"n={n}: predecessor({member_text(successor)}){got} but it was "
            f"produced by {member_text(source)}")


def _evolution_check(n: int, method: int, start: list[str],
                     new: list[list[str]], reference: list[str],
                     failures: list[str | None]) -> None:
    # One method's level is grown from ``start``, the level of weight
    # n - len(new), compared and dropped before the other's.
    equivalence = failures[3] is None
    mixed = failures[4] is None and n > 0 and method == 2 - n % 2
    if not (equivalence or mixed):
        return
    mismatch = _level_mismatch(
        n, grown_members(n - len(new), start, new), reference)
    if mismatch is not None:
        if equivalence:
            failures[3] = f"n={n}: method{method} vs enumeration, {mismatch}"
        if mixed:
            failures[4] = f"n={n}: {mismatch}"


def _level_mismatch(n: int, grown: list[str], want: list[str]) -> str | None:
    """None if ``grown``, sorted in place, is the oracle's level ``want``;
    otherwise the first difference.

    ``want`` is a validated level, so a list equal to it would pass
    validation too; only a mismatch is validated.  A list that repeats a
    member or holds one of another weight fails a level's validation,
    which words the difference.
    """
    grown.sort(reverse=True)
    if grown == want:
        return None
    try:
        check_members(n, grown)
    except ValueError as exc:
        return str(exc)
    return _first_mismatch(grown, want)


def _weight(member: str) -> int:
    return sum(map(ord, member))


def _first_mismatch(got: list[str], want: list[str]) -> str:
    """Where two lists that differ first differ."""
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"index {index}: {member_text(a)} vs {member_text(b)}"
    return f"lengths differ: {len(got)} vs {len(want)}"
