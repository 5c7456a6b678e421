"""Exact Sum-Products of simple gates over the Boolean hypercube.

Computes sum over x in {0,1}^n of prod_i f_i(x) for products of threshold,
exact-threshold, ReLU and low-degree F_p polynomial gates without walking
all 2^n points, plus the derived analyses: Boolean-valuedness of sparse
linear combinations, satisfying-assignment counts, and pointwise equality.
All arithmetic is exact (int / Fraction); floats are rejected at the door.

The package exports the names that answer those questions.  Kernel internals
(half enumeration, suffix-count polynomials, per-family wrappers, ...) are
imported from their modules.
"""

# No query path reads transforms; perfbench's tracer looks the module up in
# sys.modules after a bare ``import hypersum``.
from . import transforms  # noqa: F401
from .analysis import (
    BooleanVerdict,
    EqualityVerdict,
    check_boolean,
    check_equal,
    count_sat,
)
from .errors import CapExceeded, InvariantViolation
from .fppoly import DEFAULT_DENSE_CAP, count_roots, count_system, sumprod_fp
from .gates import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    Gate,
    LinComb,
    ReluGate,
    ThresholdGate,
)
from .oracle import (
    DEFAULT_ORACLE_CAP,
    oracle_check_boolean,
    oracle_count_fp_system,
    oracle_count_sat,
    oracle_sumprod,
)
from .sumprod import DEFAULT_TUPLE_CAP, sumprod

__version__ = "0.1.0"

__all__ = [
    "BooleanVerdict",
    "CapExceeded",
    "DEFAULT_DENSE_CAP",
    "DEFAULT_ORACLE_CAP",
    "DEFAULT_TUPLE_CAP",
    "EqualityVerdict",
    "ExactThresholdGate",
    "Family",
    "FpPolynomial",
    "Gate",
    "InvariantViolation",
    "LinComb",
    "ReluGate",
    "ThresholdGate",
    "check_boolean",
    "check_equal",
    "count_roots",
    "count_sat",
    "count_system",
    "oracle_check_boolean",
    "oracle_count_fp_system",
    "oracle_count_sat",
    "oracle_sumprod",
    "sumprod",
    "sumprod_fp",
]
