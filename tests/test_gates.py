import dataclasses
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    LinComb,
    ReluGate,
    ThresholdGate,
)
from hypersum.gates import (
    _gate_row,
    _is_prime,
    as_fraction,
    bits_from_mask,
    eval_ethr,
    eval_lincomb,
    eval_relu,
    eval_thr,
    gate_value,
    integer_weights,
    mask_from_bits,
    normalize_integer,
)


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3) == 3
    assert as_fraction("-1/2") == Fraction(-1, 2)
    assert as_fraction(Fraction(7, 3)) == Fraction(7, 3)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_as_fraction_rejects_booleans():
    for x in (True, False):
        with pytest.raises(TypeError):
            as_fraction(x)
    with pytest.raises(TypeError):
        ThresholdGate((True, 1), 1)
    with pytest.raises(TypeError):
        ExactThresholdGate((Fraction(1),), False)


def test_as_fraction_rejects_zero_denominator():
    with pytest.raises(ValueError):
        as_fraction("1/0")
    with pytest.raises(ValueError):
        ThresholdGate(("-3/0", 1), 1)


class _Tagged(Fraction):
    """A Fraction subclass, standing in for a caller's own rational type."""


def test_fractions_are_taken_as_they_are():
    f = Fraction(-7, 3)
    assert as_fraction(f) is f
    weights, constant = (Fraction(1, 2), Fraction(-3), Fraction(5, 4)), Fraction(2, 3)
    for cls in (ThresholdGate, ExactThresholdGate, ReluGate):
        gate = cls(weights, constant)
        assert all(a is b for a, b in zip(gate.weights, weights))
        assert getattr(gate, cls._constant) is constant
    coefficients = (Fraction(10**30 + 1, 7), Fraction(-1))
    comb = LinComb(Family.RELU, coefficients, (ReluGate(weights, constant),) * 2)
    assert all(a is b for a, b in zip(comb.coefficients, coefficients))


def test_fraction_subclasses_become_plain_fractions():
    x = as_fraction(_Tagged(3, 6))
    assert type(x) is Fraction and x == Fraction(1, 2)
    gate = ThresholdGate((_Tagged(1), 2), _Tagged(-5, 2))
    assert [type(w) for w in gate.weights] == [Fraction, Fraction]
    assert type(gate.threshold) is Fraction and gate.threshold == Fraction(-5, 2)
    comb = LinComb(Family.THR, (_Tagged(2),), (gate,))
    assert type(comb.coefficients[0]) is Fraction


@pytest.mark.parametrize("x, error, message", [
    (0.5, TypeError, "floats are not accepted; use int, Fraction or 'p/q' string"),
    (True, TypeError, "booleans are not accepted as numbers: True"),
    (False, TypeError, "booleans are not accepted as numbers: False"),
    ("1/0", ValueError, "zero denominator in '1/0'"),
])
def test_as_fraction_errors_are_unchanged(x, error, message):
    with pytest.raises(error) as caught:
        as_fraction(x)
    assert str(caught.value) == message
    with pytest.raises(error) as caught:
        ExactThresholdGate((Fraction(1), x), 1)
    assert str(caught.value) == message
    with pytest.raises(error) as caught:
        LinComb(Family.THR, (x,), (ThresholdGate((1,), 1),))
    assert str(caught.value) == message


def test_gate_constructors_reject_floats():
    with pytest.raises(TypeError):
        ThresholdGate((0.5, 1), 1)
    with pytest.raises(TypeError):
        ReluGate((Fraction(1),), 0.25)


def test_mask_round_trip():
    for mask in range(32):
        assert mask_from_bits(bits_from_mask(mask, 5)) == mask


def test_eval_thr_boundary():
    g = ThresholdGate((Fraction(1), Fraction(-1)), Fraction(0))
    assert gate_value(g, (0, 0)) == 1  # 0 >= 0
    assert gate_value(g, (0, 1)) == 0
    assert gate_value(g, (1, 1)) == 1


def test_eval_relu_clamps():
    g = ReluGate((Fraction(1),), Fraction(-2))
    assert gate_value(g, (1,)) == 0
    g2 = ReluGate((Fraction(3),), Fraction(-2))
    assert gate_value(g2, (1,)) == 1


def test_fp_monomial_fires_on_superset():
    q = FpPolynomial(3, 3, {0b101: 2})
    assert gate_value(q, (1, 0, 1)) == 2
    assert gate_value(q, (1, 1, 1)) == 2
    assert gate_value(q, (1, 1, 0)) == 0


def test_fp_coefficients_reduced_and_zeros_dropped():
    q = FpPolynomial(3, 2, {1: 4, 2: 3})
    assert q.monomials == {1: 1}
    assert q.degree == 1


def test_fp_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FpPolynomial(6, 2, {1: 1})


def test_normalize_thr_ceils_threshold():
    g = ThresholdGate((Fraction(1, 2), Fraction(1)), Fraction(1, 3))
    scaled, scale = normalize_integer(g)
    assert scale == 2  # weights doubled; the indicator value is unchanged
    assert integer_weights(scaled) == [1, 2]
    # threshold 2/3 ceils to 1 over integer sums
    assert scaled.threshold == 1
    for x in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert gate_value(scaled, x) == gate_value(g, x)


def test_normalize_relu_scales_value():
    g = ReluGate((Fraction(1, 2),), Fraction(1, 3))
    scaled, scale = normalize_integer(g)
    assert scale == 6
    assert integer_weights(scaled) == [3]
    assert scaled.bias == 2
    # scaled gate evaluates to scale * original
    assert gate_value(scaled, (1,)) == scale * gate_value(g, (1,))


def test_lincomb_validates_family_and_n():
    g = ThresholdGate((Fraction(1),), Fraction(1))
    with pytest.raises(ValueError):
        LinComb(Family.ETHR, (Fraction(1),), (g,))
    with pytest.raises(ValueError):
        LinComb(Family.THR, (Fraction(1), Fraction(1)), (g,))
    h = ThresholdGate((Fraction(1), Fraction(1)), Fraction(1))
    with pytest.raises(ValueError):
        LinComb(Family.THR, (Fraction(1), Fraction(1)), (g, h))


def test_lincomb_eval():
    g = ThresholdGate((Fraction(1),), Fraction(1))
    comb = LinComb(Family.THR, (Fraction(1, 2),), (g,))
    assert eval_lincomb(comb, (1,)) == Fraction(1, 2)
    assert eval_lincomb(comb, (0,)) == 0


def test_normalize_returns_integral_gates_themselves():
    gates = [
        ThresholdGate((Fraction(3), Fraction(-2)), Fraction(1)),
        ExactThresholdGate((Fraction(3), Fraction(-2)), Fraction(-2)),
        ReluGate((Fraction(3), Fraction(-2)), Fraction(4)),
    ]
    for g in gates:
        scaled, scale = normalize_integer(g)
        assert scaled is g
        assert scale == 1


def test_normalize_scales_fractional_gates():
    # a fractional THR threshold alone is still ceiled, at scale 1
    g = ThresholdGate((Fraction(3), Fraction(-2)), Fraction(1, 2))
    scaled, scale = normalize_integer(g)
    assert (scaled.weights, scaled.threshold, scale) == (g.weights, 1, 1)
    g = ExactThresholdGate((Fraction(1, 2), Fraction(1)), Fraction(3, 4))
    scaled, scale = normalize_integer(g)
    assert (integer_weights(scaled), scaled.target, scale) == ([2, 4], 3, 4)
    g = ReluGate((Fraction(1), Fraction(2)), Fraction(-1, 3))
    scaled, scale = normalize_integer(g)
    assert (integer_weights(scaled), scaled.bias, scale) == ([3, 6], -1, 3)
    for x in ((0, 0), (1, 0), (0, 1), (1, 1)):
        assert gate_value(scaled, x) == scale * gate_value(g, x)


@pytest.mark.parametrize(
    "cls, constant",
    [(ThresholdGate, "threshold"), (ExactThresholdGate, "target"), (ReluGate, "bias")],
)
def test_linear_gate_shape(cls, constant):
    fields = [f.name for f in dataclasses.fields(cls)]
    assert fields == ["weights", constant]
    g = cls((1, "1/2"), "-3/4")
    assert g == cls(weights=(Fraction(1), Fraction(1, 2)), **{constant: Fraction(-3, 4)})
    assert hash(g) == hash(cls((Fraction(1), Fraction(1, 2)), Fraction(-3, 4)))
    assert g != cls((1, "1/2"), 0)
    assert g.weights == (Fraction(1), Fraction(1, 2))
    assert getattr(g, constant) == Fraction(-3, 4)
    assert g.n == 2
    assert repr(g) == (
        f"{cls.__name__}(weights=(Fraction(1, 1), Fraction(1, 2)), "
        f"{constant}=Fraction(-3, 4))"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.weights = (Fraction(1),)
    with pytest.raises(ValueError):
        cls((), 1)


def test_gate_families_never_compare_equal():
    w = (Fraction(1), Fraction(2))
    thr, ethr, relu = ThresholdGate(w, 1), ExactThresholdGate(w, 1), ReluGate(w, 1)
    assert thr != ethr and ethr != relu and thr != relu
    assert len({thr, ethr, relu}) == 3


def test_normalize_integral_weights_fractional_threshold():
    # the weights are already integral, so the scale stays 1 and only the
    # threshold is ceiled; the indicator is unchanged on every point
    for t, ceiled in ((Fraction(-5, 2), -2), (Fraction(7, 3), 3), (Fraction(1, 5), 1)):
        g = ThresholdGate((Fraction(2), Fraction(-1), Fraction(3)), t)
        scaled, scale = normalize_integer(g)
        assert type(scaled) is ThresholdGate
        assert (scaled.weights, scaled.threshold, scale) == (g.weights, ceiled, 1)
        for mask in range(8):
            x = bits_from_mask(mask, 3)
            assert gate_value(scaled, x) == gate_value(g, x)


_EVAL = {ThresholdGate: eval_thr, ExactThresholdGate: eval_ethr, ReluGate: eval_relu}
_RATIOS = (Fraction(-2), Fraction(-1, 3), Fraction(0), Fraction(1), Fraction(5, 2))


@st.composite
def scaled_gates(draw):
    """(w, lam, gate) with gate weights lam * w over n <= 6 variables; the
    constant is lam times a subset sum of w plus an offset that is often 0."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    lam = draw(st.sampled_from(_RATIOS))
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    offset = draw(st.sampled_from((0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3))))
    constant = lam * sum(x for x, b in zip(w, picks) if b) + offset
    cls = draw(st.sampled_from(list(_EVAL)))
    return w, lam, cls(tuple(lam * x for x in w), constant)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(scaled_gates())
def test_gate_row_matches_pointwise_evaluation(case):
    w, lam, gate = case
    row = _gate_row(gate)
    if row is not None:
        form, s, h, a, b, scale, span = row
        assert span == sum(map(abs, form))
        assert sum(x for x in form if x < 0) <= s <= h <= sum(x for x in form if x > 0)
        assert math.gcd(a, b) == 1 and scale > 0
        if s == h or not isinstance(gate, ReluGate):
            assert (a, b) == (0, 1)
        if not isinstance(gate, ReluGate):
            assert scale == 1
        # the gate's weights are a multiple of the form, whose first nonzero
        # entry is positive
        ratios = {g / x for g, x in zip(gate.weights, form) if x}
        assert len(ratios) <= 1 and math.gcd(*form) in (0, 1)
        assert next((x for x in form if x), 1) > 0
    for x in product((0, 1), repeat=len(w)):
        value = 0
        if row is not None:
            t = sum(c for c, bit in zip(form, x) if bit)
            if s <= t <= h:
                value = (a * t + b) * scale
        assert value == _EVAL[type(gate)](gate, x)


# psi_13: the smallest integer that is a strong pseudoprime to the 13 bases
# 2, 3, 5, ..., 41 of the primality test
PSI_13 = 3317044064679887385961981


def test_is_prime_agrees_with_trial_division():
    limit = 10**5
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, limit, q))
    assert [p for p in range(limit) if _is_prime(p)] == [p for p in range(limit) if sieve[p]]
    assert not _is_prime(-7)


@pytest.mark.parametrize("p", [3215031751, 3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(p):
    # each passes Miller-Rabin for the first 4, 11 and 12 prime bases
    assert not _is_prime(p)


def test_is_prime_accepts_a_large_mersenne_prime():
    p = 2**61 - 1
    assert _is_prime(p)
    assert FpPolynomial(p, 2, {1: 1}).p == p


@pytest.mark.parametrize("p", [PSI_13, 2**89 - 1])
def test_is_prime_rejects_p_past_the_exact_bound(p):
    with pytest.raises(ValueError, match=str(PSI_13)):
        _is_prime(p)
    with pytest.raises(ValueError, match=str(PSI_13)):
        FpPolynomial(p, 2, {1: 1})
