"""Grow the integer partitions of n+1 from the partitions of n.

Two successor rules do the growing, each a bijection from the partitions
of n (counted twice for second-kind members) onto the partitions of n+1.
An independent brute-force enumerator and exact generating-function
series exist purely to check them, and ``run_suite`` cross-checks
everything against everything.
"""

from .backend import default_backend_name
from .core import (InvalidPartitionError, Kind, NoPredecessorError, Partition,
                   classify_m1, classify_m2, parse_partition)
from .level import (TAG_ADDED_UNIT, TAG_AUGMENTED, TAG_COLLECTED,
                    TAG_EXPLICIT, TAG_ORDER, TAG_SEED, Level, SnapshotError,
                    read_snapshot, write_snapshot)
from .method1 import (evolve_m1, predecessor_m1, successors_m1,
                      tagged_successors_m1)
from .method2 import (evolve_m2, predecessor_m2, successors_m2,
                      tagged_successors_m2)
from .oracle import DEFAULT_CAP, CapExceededError, count_oracle, enumerate_oracle
from .report import CheckResult, VerificationReport
from .series import (coefficient_csv, coefficient_rows, euler_p_coeffs,
                     q_coeffs, recurrence_violations)
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
    "SnapshotError",
    "TAG_ADDED_UNIT",
    "TAG_AUGMENTED",
    "TAG_COLLECTED",
    "TAG_EXPLICIT",
    "TAG_ORDER",
    "TAG_SEED",
    "VerificationReport",
    "classify_m1",
    "classify_m2",
    "coefficient_csv",
    "coefficient_rows",
    "count_oracle",
    "default_backend_name",
    "enumerate_oracle",
    "euler_p_coeffs",
    "evolve_m1",
    "evolve_m2",
    "parse_partition",
    "predecessor_m1",
    "predecessor_m2",
    "q_coeffs",
    "read_snapshot",
    "recurrence_violations",
    "run_suite",
    "successors_m1",
    "successors_m2",
    "tagged_successors_m1",
    "tagged_successors_m2",
    "write_snapshot",
    "__version__",
]
