"""The cross-check suite: every identity the package promises, run live.

Counts are checked three ways against each other (series product, series
sum, direct counting recurrence), and the two successor rules are checked
exhaustively against brute-force enumeration: disjointness, coverage,
predecessor round-trips, level-set equivalence, and a mixed-rule run.
Each check reports its range and, on failure, the first counterexample.

The bijection checks run the step kernels that write the output
(``_pure.step_m1``, ``_pure.step_m2``) and each rule's inverse
(``_pure.pred_m1``, ``_pure.pred_m2``) on member strings, with the set
and sequence work done in C.  Which members are of a method's second kind
is decided here, by string predicates that share nothing with the
kernels.

Series checks run to ``max_n``; anything that enumerates partitions is
bounded by ``min(max_n, cap)``.
"""

from __future__ import annotations

from itertools import compress, filterfalse
from operator import eq, methodcaller

from . import _pure
from .core import NoPredecessorError, member_text
from .engine import split_heads
from .level import Level
# perfbench/tracer.py wraps tagged_successors_m* and predecessor_m* as
# attributes of this module, so the names stay bound here; the suite
# checks the kernels and their string inverses instead.
from .method1 import evolve_m1, predecessor_m1, tagged_successors_m1  # noqa: F401
from .method2 import evolve_m2, predecessor_m2, tagged_successors_m2  # noqa: F401
from .oracle import DEFAULT_CAP, count_oracle, enumerate_oracle
from .report import CheckResult, VerificationReport
from .series import coefficient_rows, recurrence_violations

_ends_in_unit = methodcaller("endswith", "\x01")


def run_suite(max_n: int, *, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run every check up to ``max_n`` and return the combined report."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
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

    Each weight n is enumerated once, and only oracle levels n-1 and n are
    held.  Every check keeps its own first failure and stops there.

    The equivalence and mixed checks grow step n from ``Level.seed`` at
    n = 1 and from the oracle's level n-1 above that, not from chains of
    their own.  The verdicts and counterexamples are those of private
    chains: a chain reaches step n only after its level n-1 compared equal,
    member for member, to the oracle's level n-1, and a one-step evolution
    is a pure function of the level it starts from.  Each method's step is
    computed once, and only while a check still needs it.  The mixed run
    reads method 1 at odd n and method 2 at even n: alternating the rules
    must still yield complete levels, since each step only needs a
    complete input.
    """
    names = ("q-semantics Q(n) counts smallest-part-once partitions",
             "method1 successor bijection and round-trip",
             "method2 successor bijection and round-trip",
             "method equivalence with enumeration",
             "mixed-method evolution matches enumeration")
    failures: list[str | None] = [None] * len(names)
    previous = previous_members = previous_once = None
    for n in range(bound + 1):
        level = enumerate_oracle(n, cap=cap)
        members = level.raw_members()
        # Q(n) counts these; they are also method 1's second kind, which
        # the method-1 round trip at weight n+1 needs.
        once = list(filter(_smallest_part_once, members))
        if failures[0] is None and len(once) != q[n]:
            failures[0] = (f"n={n}: Q(n)={q[n]} but enumeration finds "
                           f"{len(once)} second-kind partitions")
        # Each helper drops its temporaries on return, before the next
        # one (and the next weight) builds its own.
        if n > 0 and None in failures[1:3]:
            _bijection_checks(n, previous, previous_members, previous_once,
                              members, failures)
        _evolution_checks(n, previous, members, failures)
        previous, previous_members, previous_once = level, members, once
    top = f"n=0..{bound}"
    steps = f"n=0..{bound - 1}" if bound else "no step checked"
    return [CheckResult(name, scope, failure is None, failure)
            for name, scope, failure in zip(
                names, (top, steps, steps, top, top), failures)]


def _smallest_part_once(member: str) -> bool:
    """Q(n)'s partitions, and method 1's second kind: a single part, or
    a last part below the one before it."""
    return len(member) == 1 or len(member) > 1 and member[-1] < member[-2]


def _collectable(member: str) -> bool:
    """Method 2's second kind: u units, 1 <= u < the last other part."""
    head = member.rstrip("\x01")
    units = len(member) - len(head)
    return head != "" and 0 < units < ord(head[-1])


def _bijection_checks(n: int, previous: Level, previous_members: list[str],
                      previous_once: list[str], members: list[str],
                      failures: list[str | None]) -> None:
    # Level n is level n-1 with a unit appended to each member, plus the
    # members with no unit: the heads of weight n.
    heads = split_heads(previous)
    tops = set(filterfalse(_ends_in_unit, members))
    if failures[1] is None:
        failures[1] = _step_failure(n, _pure.step_m1, _pure.pred_m1, heads,
                                    previous_members, members, tops,
                                    previous_once, [])
    if failures[2] is None:
        # The single part n enters by the explicit step, and only from
        # weight 2 up ([1] does arise from the rule).
        failures[2] = _step_failure(
            n, _pure.step_m2, _pure.pred_m2, heads, previous_members,
            members, tops, list(filter(_collectable, previous_members)),
            [chr(n)] if n >= 2 else [])


def _step_failure(n, step, pred, heads, previous, members, tops, sources,
                  explicit):
    """None if one step from level n-1 grows level n once each, inverted
    by ``pred``; otherwise the counterexample.

    The step returns the new heads of weight n, ``explicit`` ones first,
    which ``pred`` must refuse, then the second block.  The appended
    units keep each member of level n-1 in order, so ``pred`` must map
    the members of level n that end in a unit back onto level n-1 in
    order.  The second block must hold each member of level n without a
    unit once, and ``pred`` must map it one-to-one onto ``sources``, the
    members of level n-1 of the method's second kind.
    """
    new, second = step(heads)
    cut = len(new) - second
    if cut == len(explicit) and new[:cut] == explicit:
        block = new[cut:]
        grown = set(block)
        try:
            if (len(grown) == len(block)
                    and grown == tops.difference(explicit)
                    and len(previous) == len(members) - len(tops)
                    and all(_refuses(pred, single) for single in explicit)
                    and all(map(eq, map(pred, compress(
                        members, map(_ends_in_unit, members))), previous))
                    and sorted(map(pred, block), reverse=True) == sources):
                return None
        except NoPredecessorError:
            pass
    return _counterexample(n - 1, step, pred, previous, members, new, second,
                           explicit)


def _refuses(pred, member: str) -> bool:
    try:
        pred(member)
    except NoPredecessorError:
        return True
    return False


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
        alone = step(split_heads(Level.from_raw(n, [source], None, "oracle")))
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
        try:
            wrong = pred(single)
        except NoPredecessorError:
            pass
        else:
            return (f"n={n}: predecessor({member_text(single)}) gave "
                    f"{member_text(wrong)}, expected a refusal")
    expected = set(members).difference(explicit)
    if produced.keys() != expected:
        # Partition order: weight first, then descending on the parts,
        # which is descending on the member strings.
        sample = min(sorted(produced.keys() ^ expected, reverse=True),
                     key=_weight)
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
    try:
        back = pred(successor)
    except NoPredecessorError:
        got = " refused"
    else:
        if back == source:
            return None
        got = f"={member_text(back)}"
    return (f"n={n}: predecessor({member_text(successor)}){got} but it was "
            f"produced by {member_text(source)}")


def _evolution_checks(n: int, previous: Level | None, reference: list[str],
                      failures: list[str | None]) -> None:
    # Evolving the seed to weight 0 returns the seed itself.  One method's
    # level is grown, compared and dropped before the other's.
    start = previous if n > 1 else Level.seed("oracle")
    for method, evolve in ((1, evolve_m1), (2, evolve_m2)):
        equivalence = failures[3] is None
        mixed = failures[4] is None and n > 0 and method == 2 - n % 2
        if not (equivalence or mixed):
            continue
        try:
            mismatch = _first_mismatch(evolve(start, n).raw_members(),
                                       reference)
        except ValueError as exc:
            # A level that repeats a member or holds one of another
            # weight fails its own validation.
            mismatch = str(exc)
        if mismatch is not None:
            if equivalence:
                failures[3] = (f"n={n}: method{method} vs enumeration, "
                               f"{mismatch}")
            if mixed:
                failures[4] = f"n={n}: {mismatch}"


def _weight(member: str) -> int:
    return sum(map(ord, member))


def _first_mismatch(got: list[str], want: list[str]) -> str | None:
    if got == want:
        return None
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"index {index}: {member_text(a)} vs {member_text(b)}"
    if len(got) != len(want):
        return f"lengths differ: {len(got)} vs {len(want)}"
    return None
