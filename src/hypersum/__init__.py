"""Exact Sum-Products of simple gates over the Boolean hypercube.

Computes sum over x in {0,1}^n of prod_i f_i(x) for products of threshold,
exact-threshold, ReLU and low-degree F_p polynomial gates without walking
all 2^n points, plus the derived analyses: Boolean-valuedness of sparse
linear combinations, satisfying-assignment counts, and pointwise equality.
All arithmetic is exact (int / Fraction); floats are rejected at the door.
"""

from .analysis import (
    BooleanVerdict,
    EqualityVerdict,
    check_boolean,
    check_equal,
    count_sat,
)
from .errors import CapExceeded, InvariantViolation
from .fppoly import (
    DEFAULT_DENSE_CAP,
    FpSumProdParams,
    ModAmplifier,
    MultilinearRingPoly,
    amplifier_order,
    count_roots,
    count_system,
    eval_all_points,
    mod_amplifier,
    suffix_count_poly,
    sumprod_fp,
)
from .gates import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    Gate,
    LinComb,
    ReluGate,
    ThresholdGate,
    as_fraction,
    bits_from_mask,
    eval_lincomb,
    gate_value,
    mask_from_bits,
    normalize_integer,
)
from .mitm import count_subset_sum, half_sums, partials, split_point
from .oracle import (
    DEFAULT_ORACLE_CAP,
    oracle_check_boolean,
    oracle_count_fp_system,
    oracle_count_sat,
    oracle_sumprod,
)
from .sumprod import (
    DEFAULT_TUPLE_CAP,
    sumprod,
    sumprod_ethr,
    sumprod_relu,
    sumprod_thr,
)
from .transforms import (
    DEFAULT_TERM_CAP,
    collapse_base,
    collapse_ethr_conjunction,
    thr_to_ethrs,
    thr_to_relu_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanVerdict",
    "CapExceeded",
    "DEFAULT_DENSE_CAP",
    "DEFAULT_ORACLE_CAP",
    "DEFAULT_TERM_CAP",
    "DEFAULT_TUPLE_CAP",
    "EqualityVerdict",
    "ExactThresholdGate",
    "Family",
    "FpPolynomial",
    "FpSumProdParams",
    "Gate",
    "InvariantViolation",
    "LinComb",
    "ModAmplifier",
    "MultilinearRingPoly",
    "ReluGate",
    "ThresholdGate",
    "amplifier_order",
    "as_fraction",
    "bits_from_mask",
    "check_boolean",
    "check_equal",
    "collapse_base",
    "collapse_ethr_conjunction",
    "count_roots",
    "count_sat",
    "count_subset_sum",
    "count_system",
    "eval_all_points",
    "eval_lincomb",
    "gate_value",
    "half_sums",
    "mask_from_bits",
    "mod_amplifier",
    "normalize_integer",
    "oracle_check_boolean",
    "oracle_count_fp_system",
    "oracle_count_sat",
    "oracle_sumprod",
    "partials",
    "split_point",
    "suffix_count_poly",
    "sumprod",
    "sumprod_ethr",
    "sumprod_fp",
    "sumprod_relu",
    "sumprod_thr",
    "thr_to_ethrs",
    "thr_to_relu_pair",
]
