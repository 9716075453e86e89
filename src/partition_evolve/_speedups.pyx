# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twins of the pure-Python level kernels in ``_pure``.

Same contracts, same outputs in the same order; only the inner loops are
typed.  Members are strings whose code points are the parts (see
``core.encode_parts``).  The step kernels return ``(members,
second_count)``: the appended-unit successors first, then the second-kind
ones.  Parts are read as ``Py_UCS4`` code points, which every member
part fits by construction.
"""

BACKEND_NAME = "compiled"


def step_m1(list members):
    """Expand one complete level by the first rule set (see _pure.step_m1)."""
    cdef list out = []
    cdef list augmented = []
    cdef str p
    cdef Py_ssize_t k
    for p in members:
        k = len(p)
        out.append(p + "\x01")
        if k == 1 or (k > 1 and <Py_UCS4>p[k - 1] < <Py_UCS4>p[k - 2]):
            augmented.append(p[:k - 1] + chr(<Py_UCS4>p[k - 1] + 1))
    out.extend(augmented)
    return out, len(augmented)


def step_m2(list members):
    """Expand one complete level by the second rule set (see _pure.step_m2)."""
    cdef list out = []
    cdef list collected = []
    cdef str p
    cdef Py_ssize_t k, units
    for p in members:
        k = len(p)
        out.append(p + "\x01")
        units = 0
        while units < k and <Py_UCS4>p[k - 1 - units] == 1:
            units += 1
        if 0 < units < k and units < <Py_UCS4>p[k - 1 - units]:
            collected.append(p[:k - units] + chr(units + 1))
    out.extend(collected)
    return out, len(collected)


cdef int _descend(str prefix, long remainder, long bound,
                  list out) except -1:
    cdef long part
    part = remainder if remainder < bound else bound
    while part >= 2:
        if part == remainder:
            out.append(prefix + chr(part))
        else:
            _descend(prefix + chr(part), remainder - part, part, out)
        part -= 1
    out.append(prefix + "\x01" * remainder)
    return 0


def enumerate_level(long n):
    """All partitions of n as member strings, canonical order (see _pure)."""
    if n < 0:
        raise ValueError(f"cannot enumerate partitions of {n}")
    if n == 0:
        return [""]
    cdef list out = []
    _descend("", n, n, out)
    return out
