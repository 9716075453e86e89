"""Independent ground truth: direct enumeration and direct counting.

Neither routine here knows about successor rules or generating
functions.  The enumerator descends over largest-part bounds; the
counter fills one row of the bounded-count recurrence.  Both exist so
the evolution methods and the series module have something honest to
be checked against.
"""

from __future__ import annotations

from . import _pure
from .level import Level

DEFAULT_CAP = 60


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured weight cap."""


def enumerate_oracle(n: int, *, cap: int = DEFAULT_CAP) -> Level:
    """All partitions of n in canonical order, tagged as seeds.

    The cap guards against accidental exponential blowups; P(n) grows
    fast enough that enumerating much past the default is a decision,
    not an accident.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n > cap:
        raise CapExceededError(
            f"weight {n} exceeds cap {cap}; raise the cap to enumerate")
    # The enumerator emits canonical order; the level checks it, and wraps
    # and tags its members only when asked.
    return Level._validated(n, _pure.enumerate_level(n), None, "oracle")


def count_oracle(n: int, *, every_weight: bool = False) -> int | list[int]:
    """P(n) by the bounded-count recurrence, no series involved; with
    ``every_weight``, the list P(0..n) from the same table.

    c(m, b) counts partitions of m with every part <= b, via
    c(m, b) = c(m - b, b) + c(m, b - 1) and c(0, b) = 1.  One row holds
    c(0..n, b); raising b rewrites it in place in increasing m, so
    c(m - b, b) is already in the row when c(m, b) needs it.  After b = n
    the row is P(0..n): O(n^2) additions and O(n) integers held.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    row = [1] + [0] * n
    for bound in range(1, n + 1):
        for m in range(bound, n + 1):
            row[m] += row[m - bound]
    return row if every_weight else row[n]
