"""Independent ground truth: direct enumeration and direct counting.

Neither routine here knows about successor rules or generating
functions.  The enumerator descends over largest-part bounds; the
counter runs the bounded-count recurrence with an explicit stack.  Both
exist so the evolution methods and the series module have something
honest to be checked against.
"""

from __future__ import annotations

from .backend import get_backend
from .level import Level

DEFAULT_CAP = 60


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured weight cap."""


def enumerate_oracle(n: int, *, cap: int = DEFAULT_CAP,
                     backend=None) -> Level:
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
    kernel = get_backend(backend)
    # The enumerator emits canonical order; the level checks it, and wraps
    # and tags its members only when asked.
    return Level._validated(n, kernel.enumerate_level(n), None, "oracle")


def count_oracle(n: int) -> int:
    """P(n) by the bounded-count recurrence, no series involved.

    c(n, b) counts partitions of n with every part <= b, via
    c(n, b) = c(n - b, b) + c(n, b - 1).  Implemented with an explicit
    stack so large n cannot hit the interpreter recursion limit.
    """
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n == 0:
        return 1
    memo: dict[tuple[int, int], int] = {}

    def normalize(m: int, bound: int) -> tuple[int, int]:
        return (m, bound if bound < m else m)

    root = normalize(n, n)
    stack = [root]
    while stack:
        m, bound = key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        if m == 0 or bound == 1:
            memo[key] = 1
            stack.pop()
            continue
        take = normalize(m - bound, bound)
        skip = normalize(m, bound - 1)
        missing = [k for k in (take, skip) if k not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[key] = memo[take] + memo[skip]
        stack.pop()
    return memo[root]
