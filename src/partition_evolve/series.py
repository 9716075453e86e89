"""The two partition-counting coefficient streams, as truncated power
series held in plain lists of Python integers.

All arithmetic is modulo q^(N+1) for a fixed truncation degree N, with
arbitrary-precision integer coefficients throughout, so nothing ever
overflows or rounds.  Multiplying a list of coefficients by 1/(1-q^j)
is done in place: ``acc[k] += acc[k - j]`` for k ascending, so each
``acc[k - j]`` already carries the factor when ``acc[k]`` reads it.

Truncation lemma used below: modulo q^(N+1) the factor 1/(1-q^j) reduces
to 1 whenever j > N, and any summand carrying q^s vanishes whenever
s > N.  The infinite products and sums therefore reduce to finitely many
factors and terms without changing any coefficient up to degree N.
"""

from __future__ import annotations


def euler_p_coeffs(n_max: int) -> list[int]:
    """P(0..n_max): partition counts from the product of all 1/(1-q^j).

    Factors with j > n_max are 1 modulo q^(n_max+1) and are skipped
    (truncation lemma above); the rest multiply one list in place, in
    increasing j: O(n_max^2) additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    acc = [1] + [0] * n_max
    for j in range(1, n_max + 1):
        for k in range(j, n_max + 1):
            acc[k] += acc[k - j]
    return acc


def q_coeffs(n_max: int) -> list[int]:
    """Q(0..n_max): counts of partitions whose smallest part occurs once.

    Q's generating function is the sum over s >= 1 of q^s times the
    product of 1/(1-q^j) over j > s: the term for s counts partitions
    whose only or last part equals s with every other part strictly
    larger.  Summands with s > n_max vanish under truncation.  The
    products share their factors, so one suffix product is kept from
    s = n_max downward and multiplied in place by one factor per step:
    O(n_max^2) additions.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    total = [0] * (n_max + 1)
    suffix = [1] + [0] * n_max
    for s in range(n_max, 0, -1):
        # Here suffix == the product of 1/(1-q^j) for s < j <= n_max.
        for degree in range(n_max - s + 1):
            total[s + degree] += suffix[degree]
        for k in range(s, n_max + 1):
            suffix[k] += suffix[k - s]
    return total


def coefficient_rows(n_max: int) -> list[tuple[int, int, int]]:
    """(n, P(n), Q(n)) for n = 0..n_max, both streams computed here."""
    p = euler_p_coeffs(n_max)
    q = q_coeffs(n_max)
    return [(n, p[n], q[n]) for n in range(n_max + 1)]


def coefficient_csv(n_max: int) -> str:
    """The coefficient dump: CSV with header ``n,P,Q``, one row per degree.

    Counts are full decimal integers, never scientific notation.
    """
    lines = ["n,P,Q"]
    lines.extend(f"{n},{p},{q}" for n, p, q in coefficient_rows(n_max))
    return "\n".join(lines) + "\n"


def recurrence_violations(p_coeffs: list[int],
                          q_coeffs_: list[int]) -> list[tuple[int, int, int]]:
    """All n with P(n+1) != P(n) + Q(n), as (n, lhs, rhs) triples."""
    violations = []
    for n in range(len(p_coeffs) - 1):
        lhs = p_coeffs[n + 1]
        rhs = p_coeffs[n] + q_coeffs_[n]
        if lhs != rhs:
            violations.append((n, lhs, rhs))
    return violations

