"""The int64 / Python-int width rule at its boundary: weights, targets and
moduli drawn on both sides of 2^62, mixed with small weights so that one half
of the variables can fit int64 while the other does not."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import (
    ExactThresholdGate,
    ReluGate,
    ThresholdGate,
    oracle_sumprod,
)
from hypersum.fppoly import MultilinearRingPoly, _reduce, eval_all_points
from hypersum.mitm import count_subset_sum
from hypersum.sumprod import sumprod_ethr, sumprod_relu, sumprod_thr

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def signed(lo, hi):
    return st.integers(lo, hi).flatmap(lambda m: st.sampled_from((m, -m)))


small = st.integers(-5, 5)
weight = st.one_of(small, signed(2**61, 2**65))
# the ReLU kernel multiplies a bias by up to 2^n, so offsets from 2^50 up
# reach the bound too
offset = st.one_of(small, signed(2**50, 2**65))


@st.composite
def gate_rows(draw, min_gates=1, max_gates=2):
    """(n, [(weights, target)]) with each target a subset sum of its weights
    plus an offset, so that answers are not all zero."""
    n = draw(st.integers(1, 10))
    rows = []
    for _ in range(draw(st.integers(min_gates, max_gates))):
        # all-small weights leave only the target or bias near the bound
        ws = draw(st.lists(draw(st.sampled_from((small, weight))), min_size=n, max_size=n))
        picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows.append((ws, sum(w for w, b in zip(ws, picks) if b) + draw(offset)))
    return n, rows


def _fractions(ws):
    return tuple(Fraction(w) for w in ws)


@SETTINGS
@given(gate_rows(max_gates=1))
def test_count_subset_sum_across_the_bound(case):
    n, [(ws, t)] = case
    gate = ExactThresholdGate(_fractions(ws), Fraction(t))
    assert count_subset_sum(ws, t) == oracle_sumprod([gate], n)


@SETTINGS
@given(gate_rows())
def test_sumprod_ethr_across_the_bound(case):
    n, rows = case
    gates = [ExactThresholdGate(_fractions(ws), Fraction(t)) for ws, t in rows]
    assert sumprod_ethr(gates) == oracle_sumprod(gates, n)


@st.composite
def wide_and_narrow(draw):
    """One gate of any weights, and maybe a second gate of small weights:
    only the widest gate may have an accepted range of size 2^61 and more."""
    n, [(ws, t)] = draw(gate_rows(max_gates=1))
    rows = [(ws, t)]
    if draw(st.booleans()):
        narrow = draw(st.lists(small, min_size=n, max_size=n))
        rows.append((narrow, draw(small)))
    return n, rows


@SETTINGS
@given(wide_and_narrow())
def test_sumprod_thr_across_the_bound(case):
    n, rows = case
    gates = [ThresholdGate(_fractions(ws), Fraction(t)) for ws, t in rows]
    assert sumprod_thr(gates) == oracle_sumprod(gates, n)


@SETTINGS
@given(wide_and_narrow())
def test_sumprod_relu_across_the_bound(case):
    n, rows = case
    gates = [ReluGate(_fractions(ws), Fraction(1 - t)) for ws, t in rows]
    assert sumprod_relu(gates) == oracle_sumprod(gates, n)


@SETTINGS
@given(
    st.integers(2**60, 2**62),
    st.integers(0, 8).flatmap(
        lambda nv: st.tuples(
            st.just(nv),
            st.dictionaries(st.integers(0, (1 << nv) - 1), st.integers(0, 2**62)),
        )
    ),
)
def test_eval_all_points_across_the_bound(modulus, shape):
    nv, coeffs = shape
    table = eval_all_points(MultilinearRingPoly(modulus, nv, coeffs))
    direct = [
        sum(c for mask, c in coeffs.items() if mask & point == mask) % modulus
        for point in range(1 << nv)
    ]
    assert table == direct


@st.composite
def full_tables(draw):
    """(modulus, nv, coeffs) with modulus << nv on either side of 2^62 while
    2 * modulus stays far below it.  Every mask carries a coefficient, cycling
    through a few values drawn down from modulus - 1, so an unreduced zeta sum
    can pass 2^63."""
    nv = draw(st.integers(6, 12))
    modulus = draw(st.integers(2 ** (61 - nv), 2 ** (64 - nv)))
    gaps = draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=8))
    values = [modulus - 1 - gap for gap in gaps]
    return modulus, nv, {mask: values[mask % len(values)] for mask in range(1 << nv)}


def _submask_sum(coeffs, point):
    total, sub = coeffs[0], point
    while sub:
        total += coeffs[sub]
        sub = (sub - 1) & point
    return total


@settings(derandomize=True, deadline=None, max_examples=30)
@given(full_tables())
def test_eval_all_points_reduces_once_without_overflow(case):
    modulus, nv, coeffs = case
    table = eval_all_points(MultilinearRingPoly(modulus, nv, coeffs))
    assert table == [_submask_sum(coeffs, point) % modulus for point in range(1 << nv)]


# p = 2's tables are reduced mod 2 (dense) or 2^ell (suffix counts) by their low
# bits; 3 takes the floor division
@pytest.mark.parametrize("dtype, bound", [(np.int32, 2**31), (np.int64, 2**63), (object, 2**80)])
@pytest.mark.parametrize("modulus", [2, 3, 4, 2**40])
def test_reduce_matches_the_remainder(dtype, bound, modulus):
    rng = random.Random(modulus)
    values = [0, 1, bound - 1] + [rng.randrange(bound) for _ in range(1000)]
    table = np.array(values, dtype=dtype)
    _reduce(table, modulus)
    assert table.dtype == dtype and table.tolist() == [v % modulus for v in values]
