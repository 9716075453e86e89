"""Independent ground truth: direct enumeration and direct counting.

Neither routine here knows about successor rules or builds a power
series.  The enumerator chooses the largest part first and takes what
remains from a table of small levels that the same descent builds
(``_pure.enumerate_level``); the counter runs Euler's pentagonal-number
recurrence, which shares no loop with the series module's products.
Both exist so the evolution methods and the series module have
something honest to be checked against.
"""

from __future__ import annotations

from . import _pure
from .level import Joined, Level

DEFAULT_CAP = 60


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured weight cap."""


def check_cap(n: int, cap: int) -> None:
    """Raise CapExceededError when weight n lies past ``cap``."""
    if n > cap:
        raise CapExceededError(f"weight {n} exceeds cap {cap}")


def enumerate_oracle(n: int, *, cap: int = DEFAULT_CAP,
                     below: Joined | None = None) -> Level:
    """All partitions of n in canonical order, tagged as seeds.

    The cap guards against accidental exponential blowups; P(n) grows
    fast enough that enumerating much past the default is a decision,
    not an accident.  ``below``, level n-1 held as text, lets the level's
    check prove the members that end in a unit by one comparison (see
    ``level.check_members``).
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    check_cap(n, cap)
    # The enumerator emits canonical order; the level checks it, and wraps
    # and tags its members only when asked.
    return Level(n, _pure.enumerate_level(n), "oracle", below)


def count_oracle(n: int, *, every_weight: bool = False) -> int | list[int]:
    """P(n) by Euler's pentagonal-number recurrence, no series involved;
    with ``every_weight``, the list P(0..n) it builds on the way.

    P(m) = sum over k >= 1 of (-1)^(k+1) [P(m - k(3k-1)/2) + P(m - k(3k+1)/2)],
    with P(0) = 1 and P of a negative weight 0 (Andrews, *The Theory of
    Partitions*, 1976, Cor. 1.8).  About sqrt(2m/3) values of k reach m,
    so the list P(0..n) takes O(n^1.5) additions.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    counts = [1]
    for m in range(1, n + 1):
        total = 0
        k = pentagonal = 1          # pentagonal == k(3k-1)/2
        while pentagonal <= m:
            term = counts[m - pentagonal]
            if pentagonal + k <= m:
                term += counts[m - pentagonal - k]
            total += term if k % 2 else -term
            k += 1
            pentagonal += 3 * k - 2
        counts.append(total)
    return counts if every_weight else counts[n]
