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

from types import ModuleType

from .backend import get_backend
from .core import (Kind, NoPredecessorError, Partition, classify_m1,
                   format_parts)
from .level import Level
from .method1 import evolve_m1, predecessor_m1, tagged_successors_m1
from .method2 import evolve_m2, predecessor_m2, tagged_successors_m2
from .oracle import DEFAULT_CAP, count_oracle, enumerate_oracle
from .report import CheckResult, VerificationReport
from .series import coefficient_rows, recurrence_violations


def run_suite(max_n: int, *, cap: int = DEFAULT_CAP,
              backend: str | ModuleType | None = None) -> VerificationReport:
    """Run every check up to ``max_n`` and return the combined report."""
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    kernel = get_backend(backend)
    bound = min(max_n, cap)
    rows = coefficient_rows(max_n)
    p = [row[1] for row in rows]
    q = [row[2] for row in rows]
    checks = (
        _check_recurrence(p, q, max_n),
        _check_count_identity(p, max_n),
        _check_q_semantics(q, bound, cap, kernel),
        _check_bijection_m1(bound, cap, kernel),
        _check_bijection_m2(bound, cap, kernel),
        _check_equivalence(bound, cap, kernel),
        _check_mixed_methods(bound, cap, kernel),
    )
    return VerificationReport(checks)


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
    for n in range(max_n + 1):
        counted = count_oracle(n)
        if p[n] != counted:
            return CheckResult(
                name, scope, False,
                f"n={n}: series P(n)={p[n]} but counting recurrence gives "
                f"{counted}")
    return CheckResult(name, scope, True)


def _check_q_semantics(q: list[int], bound: int, cap: int,
                       kernel: ModuleType) -> CheckResult:
    name = "q-semantics Q(n) counts smallest-part-once partitions"
    scope = f"n=0..{bound}"
    for n in range(bound + 1):
        level = enumerate_oracle(n, cap=cap, backend=kernel)
        second = sum(1 for member in level.partitions
                     if classify_m1(member) is Kind.SECOND)
        if second != q[n]:
            return CheckResult(
                name, scope, False,
                f"n={n}: Q(n)={q[n]} but enumeration finds {second} "
                f"second-kind partitions")
    return CheckResult(name, scope, True)


def _check_bijection_m1(bound: int, cap: int,
                        kernel: ModuleType) -> CheckResult:
    name = "method1 successor bijection and round-trip"
    scope = f"n=0..{bound - 1}"
    current = enumerate_oracle(0, cap=cap, backend=kernel)
    for n in range(bound):
        nxt = enumerate_oracle(n + 1, cap=cap, backend=kernel)
        failure = _bijection_step(n, current, nxt, tagged_successors_m1,
                                  predecessor_m1, excluded=None)
        if failure is not None:
            return CheckResult(name, scope, False, failure)
        current = nxt
    return CheckResult(name, scope, True)


def _check_bijection_m2(bound: int, cap: int,
                        kernel: ModuleType) -> CheckResult:
    name = "method2 successor bijection and round-trip"
    scope = f"n=0..{bound - 1}"
    current = enumerate_oracle(0, cap=cap, backend=kernel)
    for n in range(bound):
        nxt = enumerate_oracle(n + 1, cap=cap, backend=kernel)
        # The single-part successor exists only via the explicit step,
        # and only from weight 2 up ([1] does arise from the rule).
        excluded = (Partition._from_canonical((n + 1,), n + 1)
                    if n + 1 >= 2 else None)
        failure = _bijection_step(n, current, nxt, tagged_successors_m2,
                                  predecessor_m2, excluded=excluded)
        if failure is not None:
            return CheckResult(name, scope, False, failure)
        current = nxt
    return CheckResult(name, scope, True)


def _bijection_step(n, current, nxt, tagged_successors, predecessor,
                    *, excluded):
    produced: dict[Partition, Partition] = {}
    for member in current.partitions:
        for successor, _tag in tagged_successors(member):
            if successor in produced:
                return (f"n={n}: {produced[successor]} and {member} both "
                        f"produce {successor}")
            produced[successor] = member
    expected = set(nxt.partitions)
    if excluded is not None:
        if excluded in produced:
            return (f"n={n}: rule produced the excluded single-part "
                    f"{excluded} from {produced[excluded]}")
        try:
            wrong = predecessor(excluded)
        except NoPredecessorError:
            pass
        else:
            return (f"n={n}: predecessor({excluded}) gave {wrong}, "
                    f"expected a refusal")
        expected.discard(excluded)
    if produced.keys() != expected:
        difference = sorted(produced.keys() ^ expected)
        sample = difference[0]
        side = "missing" if sample in expected else "extra"
        return f"n={n}: successor union is {side} {sample}"
    for successor, source in produced.items():
        back = predecessor(successor)
        if back != source:
            return (f"n={n}: predecessor({successor})={back} but it was "
                    f"produced by {source}")
    return None


def _check_equivalence(bound: int, cap: int,
                       kernel: ModuleType) -> CheckResult:
    name = "method equivalence with enumeration"
    scope = f"n=0..{bound}"
    level_m1 = Level.seed("method1")
    level_m2 = Level.seed("method2")
    for n in range(bound + 1):
        if n > 0:
            level_m1 = evolve_m1(level_m1, n, backend=kernel)
            level_m2 = evolve_m2(level_m2, n, backend=kernel)
        reference = enumerate_oracle(n, cap=cap, backend=kernel).raw_members()
        for label, level in (("method1", level_m1), ("method2", level_m2)):
            mismatch = _first_mismatch(level.raw_members(), reference)
            if mismatch is not None:
                return CheckResult(name, scope, False,
                                   f"n={n}: {label} vs enumeration, {mismatch}")
    return CheckResult(name, scope, True)


def _check_mixed_methods(bound: int, cap: int,
                         kernel: ModuleType) -> CheckResult:
    # Not public API: alternating the rules between levels must still
    # yield complete levels, since each step only needs a complete input.
    name = "mixed-method evolution matches enumeration"
    scope = f"n=0..{bound}"
    level = Level.seed("method1")
    for n in range(1, bound + 1):
        step = evolve_m1 if n % 2 else evolve_m2
        level = step(level, n, backend=kernel)
        reference = enumerate_oracle(n, cap=cap, backend=kernel).raw_members()
        mismatch = _first_mismatch(level.raw_members(), reference)
        if mismatch is not None:
            return CheckResult(name, scope, False, f"n={n}: {mismatch}")
    return CheckResult(name, scope, True)


def _first_mismatch(got: list[tuple[int, ...]],
                    want: list[tuple[int, ...]]) -> str | None:
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return (f"index {index}: {format_parts(a)} vs "
                    f"{format_parts(b)}")
    if len(got) != len(want):
        return f"lengths differ: {len(got)} vs {len(want)}"
    return None
