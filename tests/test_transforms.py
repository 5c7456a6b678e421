import random
from fractions import Fraction

import pytest

from hypersum import (
    CapExceeded,
    ExactThresholdGate,
    ThresholdGate,
)
from hypersum.gates import bits_from_mask, gate_value, normalize_integer
from hypersum.transforms import (
    collapse_base,
    collapse_ethr_conjunction,
    thr_to_ethrs,
    thr_to_relu_pair,
)


def test_thr_to_ethrs_partitions_support():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        ws = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        t = Fraction(rng.randint(-12, 12))
        gate = ThresholdGate(ws, t)
        parts = thr_to_ethrs(gate)
        for mask in range(1 << n):
            x = bits_from_mask(mask, n)
            fired = [p for p in parts if gate_value(p, x)]
            assert len(fired) == gate_value(gate, x)  # exactly one part on the support


def test_thr_to_ethrs_handles_fractional_threshold():
    gate = ThresholdGate((Fraction(1), Fraction(1)), Fraction(1, 2))
    parts = thr_to_ethrs(gate)
    assert [p.target for p in parts] == [1, 2]


def test_thr_to_ethrs_unsatisfiable_is_empty():
    gate = ThresholdGate((Fraction(1), Fraction(1)), Fraction(3))
    assert thr_to_ethrs(gate) == []


def test_thr_to_ethrs_term_cap():
    gate = ThresholdGate((Fraction(100),) * 4, Fraction(0))
    with pytest.raises(CapExceeded):
        thr_to_ethrs(gate, term_cap=100)


def test_collapse_base_formula():
    gates = [
        ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(1)),
        ExactThresholdGate((Fraction(1), Fraction(0)), Fraction(1)),
    ]
    # 2 * ((2 + 1) + (1 + 1)) + 1
    assert collapse_base(gates) == 11


def test_collapse_conjunction_fires_exactly_on_intersection():
    g1 = ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(1))
    g2 = ExactThresholdGate((Fraction(1), Fraction(0)), Fraction(1))
    merged = collapse_ethr_conjunction([g1, g2])
    assert [w.numerator for w in merged.weights] == [12, 1]
    assert merged.target == 12
    for mask in range(4):
        x = bits_from_mask(mask, 2)
        both = gate_value(g1, x) and gate_value(g2, x)
        assert gate_value(merged, x) == int(both)


def test_collapse_random_agrees_pointwise():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        k = rng.randint(1, 3)
        gates = []
        for _ in range(k):
            ws = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
            gates.append(ExactThresholdGate(ws, Fraction(rng.randint(-6, 6))))
        merged = collapse_ethr_conjunction(gates)
        for mask in range(1 << n):
            x = bits_from_mask(mask, n)
            expect = all(gate_value(g, x) for g in gates)
            assert gate_value(merged, x) == int(expect)


def test_collapse_rejects_empty():
    with pytest.raises(ValueError):
        collapse_ethr_conjunction([])


def test_thr_to_relu_pair_needs_integers():
    gate = ThresholdGate((Fraction(1),), Fraction(1, 2))
    with pytest.raises(ValueError):
        thr_to_relu_pair(gate)


def test_thr_to_relu_pair_pointwise():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(1, 8)
        ws = tuple(Fraction(rng.randint(-6, 6)) for _ in range(n))
        gate = ThresholdGate(ws, Fraction(rng.randint(-10, 10)))
        plus, minus = thr_to_relu_pair(gate)
        for mask in range(1 << n):
            x = bits_from_mask(mask, n)
            assert gate_value(plus, x) - gate_value(minus, x) == gate_value(gate, x)


def test_normalized_thr_keeps_decomposition_meaningful():
    # fractional weights go through normalize_integer, then decompose
    gate = ThresholdGate((Fraction(1, 2), Fraction(3, 4)), Fraction(1))
    scaled, _ = normalize_integer(gate)
    parts = thr_to_ethrs(scaled)
    for mask in range(4):
        x = bits_from_mask(mask, 2)
        assert sum(gate_value(p, x) for p in parts) == gate_value(gate, x)
