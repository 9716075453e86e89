"""Grow the integer partitions of n+1 from the partitions of n.

Two successor rules do the growing, each a bijection from the partitions
of n (counted twice for second-kind members) onto the partitions of n+1.
An independent brute-force enumerator and exact generating-function
series exist purely to check them, and ``run_suite`` cross-checks
everything against everything.
"""

from .backend import default_backend_name
from .core import (InvalidPartitionError, Kind, NoPredecessorError, Partition,
                   classify_m1, classify_m2, compare, make_partition,
                   parse_partition, unit_count)
from .level import (TAG_ADDED_UNIT, TAG_AUGMENTED, TAG_COLLECTED,
                    TAG_EXPLICIT, TAG_ORDER, TAG_SEED, Level, SnapshotError,
                    read_snapshot, write_snapshot)
from .method1 import (evolve_m1, predecessor_m1, successors_m1,
                      tagged_successors_m1)
from .method2 import (evolve_m2, predecessor_m2, successors_m2,
                      tagged_successors_m2)
from .oracle import DEFAULT_CAP, CapExceededError, count_oracle, enumerate_oracle
from .report import CheckResult, VerificationReport
from .series import (Series, check_recurrence, coefficient_csv,
                     coefficient_rows, euler_p_coeffs, geometric_factor,
                     q_coeffs, recurrence_violations, series_mul)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CheckResult",
    "DEFAULT_CAP",
    "InvalidPartitionError",
    "Kind",
    "Level",
    "NoPredecessorError",
    "Partition",
    "Series",
    "SnapshotError",
    "TAG_ADDED_UNIT",
    "TAG_AUGMENTED",
    "TAG_COLLECTED",
    "TAG_EXPLICIT",
    "TAG_ORDER",
    "TAG_SEED",
    "VerificationReport",
    "check_recurrence",
    "classify_m1",
    "classify_m2",
    "coefficient_csv",
    "coefficient_rows",
    "compare",
    "count_oracle",
    "default_backend_name",
    "enumerate_oracle",
    "euler_p_coeffs",
    "evolve_m1",
    "evolve_m2",
    "geometric_factor",
    "make_partition",
    "parse_partition",
    "predecessor_m1",
    "predecessor_m2",
    "q_coeffs",
    "read_snapshot",
    "recurrence_violations",
    "run_suite",
    "series_mul",
    "successors_m1",
    "successors_m2",
    "tagged_successors_m1",
    "tagged_successors_m2",
    "unit_count",
    "write_snapshot",
    "__version__",
]
