"""The brute-force oracles validated against explicit hand enumerations.

Everything else in the suite trusts these, so they get checked the dumb way:
tiny instances whose answers are computed inline with no library help.
"""

from fractions import Fraction

import pytest

from hypersum import (
    CapExceeded,
    ExactThresholdGate,
    Family,
    FpPolynomial,
    LinComb,
    ReluGate,
    ThresholdGate,
    oracle_check_boolean,
    oracle_count_fp_system,
    oracle_count_sat,
    oracle_sumprod,
)


def _bits(mask, n):
    return [(mask >> i) & 1 for i in range(n)]


def test_thr_pair_hand_enumeration():
    g1 = ThresholdGate((Fraction(1), Fraction(1), Fraction(0)), Fraction(2))
    g2 = ThresholdGate((Fraction(0), Fraction(1), Fraction(1)), Fraction(2))
    expect = 0
    for mask in range(8):
        x = _bits(mask, 3)
        expect += (x[0] + x[1] >= 2) and (x[1] + x[2] >= 2)
    assert expect == 1
    assert oracle_sumprod([g1, g2]) == expect


def test_ethr_single_gate():
    g = ExactThresholdGate((Fraction(1),) * 3, Fraction(2))
    assert oracle_sumprod([g]) == 3  # C(3,2)


def test_relu_product_is_exact_fraction():
    r = ReluGate((Fraction(1, 2), Fraction(-1, 2)), Fraction(1, 4))
    # values: x=00 -> 1/4, 10 -> 3/4, 01 -> 0, 11 -> 1/4
    assert oracle_sumprod([r]) == Fraction(5, 4)
    assert oracle_sumprod([r, r]) == Fraction(1, 16) + Fraction(9, 16) + Fraction(1, 16)


def test_fp_lifting_is_factorwise():
    # both factors are x1 + x2 over F_3; at (1,1) each lifts to 2, product 4
    q = FpPolynomial.from_terms(3, 2, [((1,), 1), ((2,), 1)])
    assert oracle_sumprod([q, q]) == 1 + 1 + 4


def test_empty_product_counts_cube():
    assert oracle_sumprod([], 5) == 32


def test_zero_weight_gate():
    g = ThresholdGate((Fraction(0), Fraction(0)), Fraction(1))
    assert oracle_sumprod([g]) == 0
    g2 = ThresholdGate((Fraction(0), Fraction(0)), Fraction(0))
    assert oracle_sumprod([g2]) == 4


def test_oracle_cap():
    g = ThresholdGate((Fraction(1),) * 30, Fraction(1))
    with pytest.raises(CapExceeded):
        oracle_sumprod([g], cap=24)


def test_check_boolean_witness_points_at_bad_value():
    comb = LinComb(
        Family.THR,
        (Fraction(1, 2),),
        (ThresholdGate((Fraction(1),), Fraction(1)),),
    )
    verdict = oracle_check_boolean(comb)
    assert not verdict.is_boolean
    assert verdict.witness == (1,)
    assert verdict.value == Fraction(1, 2)


def test_check_boolean_accepts_indicator():
    comb = LinComb(
        Family.ETHR,
        (Fraction(1), Fraction(1)),
        (
            ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(0)),
            ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(2)),
        ),
    )
    verdict = oracle_check_boolean(comb)
    assert verdict.is_boolean
    assert verdict.witness is None


def test_count_sat_counts_ones():
    comb = LinComb(
        Family.ETHR,
        (Fraction(1),),
        (ExactThresholdGate((Fraction(1), Fraction(1), Fraction(1)), Fraction(1)),),
    )
    assert oracle_count_sat(comb) == 3


def test_count_sat_rejects_non_boolean():
    comb = LinComb(
        Family.THR,
        (Fraction(1, 3),),
        (ThresholdGate((Fraction(1),), Fraction(1)),),
    )
    with pytest.raises(ValueError):
        oracle_count_sat(comb)


def test_count_fp_system_hand_case():
    # x1 + x2 = 0 and x2 + x3 = 1 over F_2: x2 free forces the rest
    p1 = FpPolynomial.from_terms(2, 3, [((1,), 1), ((2,), 1)])
    p2 = FpPolynomial.from_terms(2, 3, [((2,), 1), ((3,), 1)])
    expect = 0
    for mask in range(8):
        x = _bits(mask, 3)
        expect += (x[0] + x[1]) % 2 == 0 and (x[1] + x[2]) % 2 == 1
    assert oracle_count_fp_system([p1, p2], [0, 1]) == expect == 2


def test_oracle_matches_pure_python_path():
    # weights too big for the vector path force the Fraction fallback
    big = Fraction(1 << 70)
    g = ThresholdGate((big, -big, Fraction(1)), Fraction(1))
    slow = oracle_sumprod([g])
    count = 0
    for mask in range(8):
        x = _bits(mask, 3)
        s = big * x[0] - big * x[1] + x[2]
        count += s >= 1
    assert slow == count


def test_huge_coefficient_on_a_zero_relu_gate():
    # max(0, 0) is bounded by 0, but its coefficient alone is past int64
    zero = ReluGate((Fraction(0), Fraction(0)), Fraction(0))
    comb = LinComb(Family.RELU, (Fraction(10**20),), (zero,))
    assert oracle_check_boolean(comb).is_boolean
    assert oracle_count_sat(comb) == 0
    # next to x1 + x2, which is 2 at (1, 1)
    count = ReluGate((Fraction(1), Fraction(1)), Fraction(0))
    mixed = LinComb(Family.RELU, (Fraction(10**20), Fraction(1)), (zero, count))
    check = oracle_check_boolean(mixed)
    assert (check.is_boolean, check.witness, check.value) == (False, (1, 1), 2)
    with pytest.raises(ValueError):
        oracle_count_sat(mixed)
