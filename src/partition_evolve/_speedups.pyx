# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twins of the pure-Python level kernels in ``_pure``.

Same contracts, same outputs in the same order; only the inner loops are
typed.  The step kernels return ``(members, second_count)``: the
appended-unit successors first, then the second-kind ones.  Parts are
assumed to fit a C long, which the enumeration caps guarantee long before
memory would run out.
"""

BACKEND_NAME = "compiled"


def step_m1(list members):
    """Expand one complete level by the first rule set (see _pure.step_m1)."""
    cdef list out = []
    cdef list augmented = []
    cdef tuple parts
    cdef Py_ssize_t k
    for parts in members:
        k = len(parts)
        out.append(parts + (1,))
        if k == 1 or (k > 1 and <long>parts[k - 1] < <long>parts[k - 2]):
            augmented.append(parts[:k - 1] + (<long>parts[k - 1] + 1,))
    out.extend(augmented)
    return out, len(augmented)


def step_m2(list members):
    """Expand one complete level by the second rule set (see _pure.step_m2)."""
    cdef list out = []
    cdef list collected = []
    cdef tuple parts
    cdef Py_ssize_t k, units
    for parts in members:
        k = len(parts)
        out.append(parts + (1,))
        units = 0
        while units < k and <long>parts[k - 1 - units] == 1:
            units += 1
        if 0 < units < k and units < <long>parts[k - 1 - units]:
            collected.append(parts[:k - units] + (units + 1,))
    out.extend(collected)
    return out, len(collected)


cdef int _descend(long remainder, long bound, list prefix, list out) except -1:
    cdef long part
    if remainder == 0:
        out.append(tuple(prefix))
        return 0
    part = remainder if remainder < bound else bound
    while part >= 1:
        prefix.append(part)
        _descend(remainder - part, part, prefix, out)
        prefix.pop()
        part -= 1
    return 0


def enumerate_level(long n):
    """All partitions of n as part tuples, canonical order (see _pure)."""
    if n < 0:
        raise ValueError(f"cannot enumerate partitions of {n}")
    cdef list out = []
    cdef list prefix = []
    _descend(n, n, prefix, out)
    return out
