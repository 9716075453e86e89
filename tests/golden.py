"""Frozen reference values.

Every number and listing here was computed with an independent throwaway
script (direct enumeration and counting, no code shared with the package)
before being written down.  The tests re-derive the same values through
the package; the two must agree exactly.
"""

# P(0) through P(12).
P_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

# Spot values of P(n) for larger n.
P_AT = {
    20: 627,
    30: 5604,
    40: 37338,
    50: 204226,
    60: 966467,
    100: 190569292,
    200: 3972999029388,
    1000: 24061467864032622473692149727991,
}

# Q(0) through Q(10): partitions whose smallest part occurs exactly once.
Q_SMALL = [0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14]

# All partitions of 5 and of 6, in canonical order.
PARTITIONS_5 = [
    "5", "4+1", "3+2", "3+1+1", "2+2+1", "2+1+1+1", "1+1+1+1+1",
]
PARTITIONS_6 = [
    "6", "5+1", "4+2", "4+1+1", "3+3", "3+2+1", "3+1+1+1", "2+2+2",
    "2+2+1+1", "2+1+1+1+1", "1+1+1+1+1+1",
]

# Method 1 split of the partitions of 5, canonical order within groups.
M1_GROUP1_5 = ["3+1+1", "2+1+1+1", "1+1+1+1+1"]
M1_GROUP2_5 = ["5", "4+1", "3+2", "2+2+1"]

# Method 2 split of the same partitions.
M2_GROUP1_5 = ["5", "3+2", "2+1+1+1", "1+1+1+1+1"]
M2_GROUP2_5 = ["4+1", "3+1+1", "2+2+1"]

# What each group grows into at weight 6, per method.
M1_FROM_GROUP1 = ["3+1+1+1", "2+1+1+1+1", "1+1+1+1+1+1"]
M1_FROM_GROUP2 = [
    "5+1", "4+1+1", "3+2+1", "2+2+1+1", "6", "4+2", "3+3", "2+2+2",
]
M2_FROM_GROUP1 = ["5+1", "3+2+1", "2+1+1+1+1", "1+1+1+1+1+1"]
M2_FROM_GROUP2 = ["4+1+1", "3+1+1+1", "2+2+1+1", "4+2", "3+3", "2+2+2"]
M2_EXPLICIT_6 = ["6"]

# The weight-6 members broken down by the rule that emitted them.
M1_AUGMENTED_6 = ["6", "4+2", "3+3", "2+2+2"]
M2_COLLECTED_6 = ["4+2", "3+3", "2+2+2"]

# SHA-256 of the stdout of `evolve 0 50 --method 2`, the paper's headline
# output: all 204,226 partitions of 50 as text, in canonical order.  It was
# taken from the CLI before its writers were rewritten, and equals the
# benchmark's pinned digest for the same run, which the benchmark's own
# tests re-derive from an independent listing.
EVOLVE_50_M2_TEXT_SHA256 = (
    "394103aaf60ae25bee7abb02f111b58d8e8c90f7a94de72a69916238801fcc14")
