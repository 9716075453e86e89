"""The cross-check suite: every identity the package promises, run live.

Counts are checked three ways against each other (series product, series
sum, direct counting recurrence), and the two successor rules are checked
exhaustively against brute-force enumeration: disjointness, coverage,
predecessor round-trips, level-set equivalence, and a mixed-rule run.
Each check reports its range and, on failure, the first counterexample.

Series checks run to ``max_n``; anything that enumerates partitions is
bounded by ``min(max_n, cap)``.
"""

from __future__ import annotations

from itertools import repeat

from .core import (Kind, NoPredecessorError, Partition, classify_m1,
                   decode_member, encode_parts, member_text)
from .level import Level
from .method1 import evolve_m1, predecessor_m1, tagged_successors_m1
from .method2 import evolve_m2, predecessor_m2, tagged_successors_m2
from .oracle import DEFAULT_CAP, count_oracle, enumerate_oracle
from .report import CheckResult, VerificationReport
from .series import coefficient_rows, recurrence_violations


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
    is a pure function of the level it starts from.  Each method's step is computed once,
    and only while a check still needs it.  The mixed run reads method 1
    at odd n and method 2 at even n: alternating the rules must still
    yield complete levels, since each step only needs a complete input.
    """
    names = ("q-semantics Q(n) counts smallest-part-once partitions",
             "method1 successor bijection and round-trip",
             "method2 successor bijection and round-trip",
             "method equivalence with enumeration",
             "mixed-method evolution matches enumeration")
    failures: list[str | None] = [None] * len(names)
    previous = None
    for n in range(bound + 1):
        level = enumerate_oracle(n, cap=cap)
        if failures[0] is None:
            failures[0] = _q_semantics(n, level, q[n])
        # Each helper drops its temporaries on return, before the next
        # one (and the next weight) builds its own.
        if n > 0:
            _bijection_checks(n, previous, level, failures)
        _evolution_checks(n, previous, level, failures)
        previous = level
    scopes = (bound, bound - 1, bound - 1, bound, bound)
    return [CheckResult(name, f"n=0..{top}", failure is None, failure)
            for name, top, failure in zip(names, scopes, failures)]


def _q_semantics(n: int, level: Level, expected: int) -> str | None:
    second = sum(1 for member in _wrapped(level)
                 if classify_m1(member) is Kind.SECOND)
    if second != expected:
        return (f"n={n}: Q(n)={expected} but enumeration finds {second} "
                f"second-kind partitions")
    return None


def _bijection_checks(n: int, previous: Level, level: Level,
                      failures: list[str | None]) -> None:
    expected = set(level.raw_members())
    if failures[1] is None:
        failures[1] = _bijection_step(n - 1, previous, expected,
                                      tagged_successors_m1, predecessor_m1,
                                      excluded=None)
    if failures[2] is None:
        # The single-part successor exists only via the explicit step,
        # and only from weight 2 up ([1] does arise from the rule).
        excluded = Partition._from_canonical((n,), n) if n >= 2 else None
        failures[2] = _bijection_step(n - 1, previous, expected,
                                      tagged_successors_m2, predecessor_m2,
                                      excluded=excluded)


def _evolution_checks(n: int, previous: Level | None, level: Level,
                      failures: list[str | None]) -> None:
    reference = level.raw_members()
    grown: dict[int, list[str]] = {}

    def step(method: int) -> list[str]:
        # Evolving the seed to weight 0 returns the seed itself.
        if method not in grown:
            evolve = evolve_m1 if method == 1 else evolve_m2
            start = previous if n > 1 else Level.seed("oracle")
            grown[method] = evolve(start, n).raw_members()
        return grown[method]

    if failures[3] is None:
        for method in (1, 2):
            mismatch = _first_mismatch(step(method), reference)
            if mismatch is not None:
                failures[3] = (f"n={n}: method{method} vs enumeration, "
                               f"{mismatch}")
                break
    if failures[4] is None and n > 0:
        mismatch = _first_mismatch(step(2 - n % 2), reference)
        if mismatch is not None:
            failures[4] = f"n={n}: {mismatch}"


def _bijection_step(n, current, expected, tagged_successors, predecessor,
                    *, excluded):
    # Partitions are keyed by their member strings, which hash and compare
    # in C; each source is wrapped once, when it is expanded.  Its
    # successors are checked for the round trip while they are at hand,
    # but the first round-trip failure is reported only if the rule's
    # image passes the duplicate, exclusion and coverage checks.
    excluded_key = None if excluded is None else encode_parts(excluded.parts)
    produced: dict[str, str] = {}
    round_trip = None
    for source, member in zip(current.raw_members(), _wrapped(current)):
        for successor, _tag in tagged_successors(member):
            key = encode_parts(successor.parts)
            if key in produced:
                return (f"n={n}: {member_text(produced[key])} and {member} "
                        f"both produce {successor}")
            produced[key] = source
            if round_trip is None and key != excluded_key:
                back = predecessor(successor)
                if back != member:
                    round_trip = (f"n={n}: predecessor({successor})={back} "
                                  f"but it was produced by {member}")
    if excluded is not None:
        if excluded_key in produced:
            return (f"n={n}: rule produced the excluded single-part "
                    f"{excluded} from {member_text(produced[excluded_key])}")
        try:
            wrong = predecessor(excluded)
        except NoPredecessorError:
            pass
        else:
            return (f"n={n}: predecessor({excluded}) gave {wrong}, "
                    f"expected a refusal")
        expected = expected - {excluded_key}
    if produced.keys() != expected:
        # Partition order: weight first, then descending on the parts,
        # which is descending on the member strings.
        sample = min(sorted(produced.keys() ^ expected, reverse=True),
                     key=_weight)
        side = "missing" if sample in expected else "extra"
        return f"n={n}: successor union is {side} {member_text(sample)}"
    return round_trip


def _wrapped(level: Level):
    """The level's members as Partitions, made one at a time."""
    return map(Partition._from_canonical,
               map(decode_member, level.raw_members()), repeat(level.n))


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
