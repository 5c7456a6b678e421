import random
from fractions import Fraction

import pytest

from hypersum import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    InvariantViolation,
    LinComb,
    ThresholdGate,
    check_boolean,
    check_equal,
    count_sat,
    oracle_check_boolean,
    oracle_count_sat,
)
from randgen import (
    perturb_comb,
    rand_boolean_ethr_comb,
    rand_boolean_thr_comb,
)


def half_indicator():
    return LinComb(
        Family.THR,
        (Fraction(1, 2),),
        (ThresholdGate((Fraction(1),), Fraction(1)),),
    )


def test_deviation_of_half_indicator():
    # f = 1/2 on a single point: deviation (1/2)^2 (1/2 - 1)^2 = 1/16
    verdict = check_boolean(half_indicator())
    assert not verdict.is_boolean
    assert verdict.deviation == Fraction(1, 16)


def test_boolean_ethr_combinations_accepted():
    rng = random.Random(61)
    for _ in range(15):
        comb = rand_boolean_ethr_comb(rng, rng.randint(3, 10), rng.randint(1, 3))
        verdict = check_boolean(comb)
        assert verdict.is_boolean and verdict.deviation == 0
        assert oracle_check_boolean(comb).is_boolean


def test_boolean_thr_combinations_accepted():
    rng = random.Random(62)
    for _ in range(15):
        comb = rand_boolean_thr_comb(rng, rng.randint(2, 9))
        assert check_boolean(comb).is_boolean
        assert oracle_check_boolean(comb).is_boolean


def test_perturbed_combinations_rejected():
    rng = random.Random(63)
    for _ in range(15):
        comb = perturb_comb(rng, rand_boolean_ethr_comb(rng, 8, 2))
        verdict = check_boolean(comb)
        assert not verdict.is_boolean
        assert verdict.deviation > 0
        assert not oracle_check_boolean(comb).is_boolean


def test_fp_combination_deviation():
    # x1 + x2 over F_3 takes the value 2 at (1,1): deviation 2^2 * 1^2 = 4
    q = FpPolynomial.from_terms(3, 2, [((1,), 1), ((2,), 1)])
    comb = LinComb(Family.FP_POLY, (Fraction(1),), (q,))
    verdict = check_boolean(comb)
    assert not verdict.is_boolean
    assert verdict.deviation == 4


def test_count_sat_matches_oracle():
    rng = random.Random(64)
    for _ in range(10):
        comb = rand_boolean_ethr_comb(rng, rng.randint(3, 10), rng.randint(1, 3))
        assert count_sat(comb) == oracle_count_sat(comb)


def test_count_sat_rejects_non_boolean():
    with pytest.raises(InvariantViolation):
        count_sat(half_indicator())


def test_count_sat_unchecked_catches_fractional_total():
    # skipping the check still cannot return a non-integer count
    with pytest.raises(InvariantViolation):
        count_sat(half_indicator(), unchecked=True)


def test_count_sat_unchecked_skips_verification():
    # sums to an integer in range even though f is not Boolean: the unchecked
    # path has no way to notice, which is exactly the contract
    g1 = ThresholdGate((Fraction(1),), Fraction(1))
    comb = LinComb(Family.THR, (Fraction(1, 2), Fraction(1, 2)), (g1, g1))
    assert count_sat(comb, unchecked=True) == 1
    assert count_sat(comb) == 1  # 1/2 + 1/2 collapses to the indicator itself


def test_check_equal_same_function_different_split():
    g = ExactThresholdGate((Fraction(2), Fraction(-1)), Fraction(1))
    left = LinComb(Family.ETHR, (Fraction(1),), (g,))
    right = LinComb(Family.ETHR, (Fraction(1, 4), Fraction(3, 4)), (g, g))
    verdict = check_equal(left, right)
    assert verdict.equal and verdict.distance == 0


def test_check_equal_detects_difference():
    g1 = ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(0))
    g2 = ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(2))
    left = LinComb(Family.ETHR, (Fraction(1),), (g1,))
    right = LinComb(Family.ETHR, (Fraction(1),), (g2,))
    verdict = check_equal(left, right)
    assert not verdict.equal
    assert verdict.distance == 2  # they disagree at exactly two points


def test_check_equal_rejects_family_mismatch():
    thr = LinComb(Family.THR, (Fraction(1),), (ThresholdGate((Fraction(1),), Fraction(1)),))
    ethr = LinComb(Family.ETHR, (Fraction(1),), (ExactThresholdGate((Fraction(1),), Fraction(1)),))
    with pytest.raises(ValueError):
        check_equal(thr, ethr)


def test_check_equal_rejects_n_mismatch():
    a = LinComb(Family.THR, (Fraction(1),), (ThresholdGate((Fraction(1),), Fraction(1)),))
    b = LinComb(Family.THR, (Fraction(1),), (ThresholdGate((Fraction(1), Fraction(0)), Fraction(1)),))
    with pytest.raises(ValueError):
        check_equal(a, b)
