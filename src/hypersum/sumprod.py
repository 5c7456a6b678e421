"""Exact Sum-Products of gate products over the Boolean hypercube.

Every threshold, ReLU or exact-threshold gate is rescaled to integers.  Once
the tuple cap is checked, and before anything is allocated,
``_use_histogram`` picks one of two kernels from a work estimate:

- Histogram: when the box of the gates' achievable sums is small, Bellman's
  dynamic program (``mitm.histogram``) counts the points at every cell in
  n passes.  An exact-threshold product is one cell, a threshold product a
  box sum, and a ReLU product contracts each axis with the gate's values.
- Split and list: threshold and ReLU products share one range-sum kernel.
  Each gate is reduced to a row (weights, s, h, b): it accepts the sums
  <w, x> in [s, h] and there takes the value <w, x> + b (ReLU) or 1
  (threshold).  The gates' weight vectors are packed into one vector in a
  base B large enough that per-gate digits of any packed sum cannot
  interfere; the gate with the widest [s, h] sits at the lowest digit.  Both
  halves of the variables are enumerated once, and only the targets of the
  other gates are expanded into packed tuples U.  For a first-half key L and
  a tuple U, the matching second-half keys are exactly those in the
  interval [U - L + s, U - L + h] of the widest gate, so prefix sums over
  the sorted second-half keys turn the whole widest gate into two binary
  searches.  ReLU values need a second prefix sum, of count times the key's
  lowest digit.  An exact-threshold product packs its gates the same way
  into one weight vector and one target and counts its subset sums.

``mitm.int_dtype`` picks the width once per call from every magnitude the
kernel can meet, and the same code runs on int64 arrays or on arrays of
Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CapExceeded
from .fppoly import DEFAULT_DENSE_CAP, sumprod_fp
from .gates import (
    ExactThresholdGate,
    FpPolynomial,
    Gate,
    LinearGate,
    ReluGate,
    ThresholdGate,
    normalize_integer,
)
from .mitm import count_subset_sum, half_sums, histogram, int_dtype, split_point

DEFAULT_TUPLE_CAP = 10**7

# (loop keys x upper tuples) elements evaluated at once; keeps the kernel's
# temporaries at a few hundred kilobytes whatever the query size
_CHUNK = 8192

# the histogram kernel's box of sums never holds more cells than this
_BOX_CELLS = 1 << 22
# the histogram runs when its n * box cell updates are at most this many
# times the split-and-list estimate, 2^ceil(n/2) half sums per tuple; timed
# on 1-3 gates with n = 8-40, it was faster on every shape below this ratio,
# and up to 2.9 times slower on boxes of a million cells above it
_BOX_RATIO = 16


def _use_histogram(n: int, weight_rows: Sequence[Sequence[int]], tuples: int) -> bool:
    """Whether the histogram answers rather than split and list, for gates
    with integer weights ``weight_rows`` and ``tuples`` expanded targets."""
    box = math.prod(sum(abs(w) for w in ws) + 1 for ws in weight_rows)
    return box <= _BOX_CELLS and n * box <= _BOX_RATIO * (1 << split_point(n)) * tuples


def _shared_n(gates: Sequence, n: Optional[int]) -> int:
    if not gates:
        if n is None:
            raise ValueError("n is required when no gates are given")
        return n
    sizes = {g.n for g in gates}
    if len(sizes) != 1:
        raise ValueError("gates disagree on the number of variables")
    size = sizes.pop()
    if n is not None and n != size:
        raise ValueError(f"explicit n={n} disagrees with the gates")
    return size


def _packed_base(rows_and_targets: Sequence[tuple[Sequence[int], int]]) -> int:
    """Base B so per-gate digits of any packed target/sum cannot interfere.

    Each entry is (integer weights, max |target|) for one gate; B exceeds
    twice every digit magnitude that can arise, so a packed form is zero iff
    every digit is zero.
    """
    return 2 * sum(sum(abs(w) for w in ws) + tmax for ws, tmax in rows_and_targets) + 1


def _packed_weights(
    weight_rows: Sequence[Sequence[int]], base: int, n: int
) -> list[int]:
    packed = [0] * n
    scale = 1
    for row in weight_rows:
        for j, w in enumerate(row):
            packed[j] += scale * w
        scale *= base
    return packed


def _packed_ethr(
    weight_rows: Sequence[Sequence[int]], targets: Sequence[int], n: int
) -> tuple[list[int], int]:
    """(weights, target) of the one exact-threshold gate that fires exactly
    where every gate [<weight_rows[i], x> = targets[i]] fires: row i and
    target i sit at digit B^i."""
    base = _packed_base([(ws, abs(t)) for ws, t in zip(weight_rows, targets)])
    target = sum(t * base**i for i, t in enumerate(targets))
    return _packed_weights(weight_rows, base, n), target


_Row = tuple[list[int], int, int, int]


def _gate_row(gate: LinearGate, first: int, bias: int) -> Optional[_Row]:
    """(weights, s, h, bias) for a gate with integer weights, or None.

    [s, h] is the achievable part of [first, sum of positive weights]; None
    means no achievable sum reaches ``first``, so the gate is zero everywhere.
    """
    ws = [w.numerator for w in gate.weights]
    lo = sum(w for w in ws if w < 0)
    hi = sum(w for w in ws if w > 0)
    start = max(lo, first)
    if start > hi:
        return None
    return ws, start, hi, bias


def _box_sum(rows: Sequence[_Row], n: int, weighted: bool) -> int:
    """``_range_sum`` from the joint histogram: the counts over the box
    prod [s_i, h_i], contracted axis by axis with the gates' values there."""
    counts, lows = histogram([ws for ws, *_ in rows], n)
    box = counts[tuple(slice(s - lo, h - lo + 1) for (_, s, h, _), lo in zip(rows, lows))]
    # accepted ReLU values run from s + b >= 1 up to h + b
    top = math.prod(h + b for _, _, h, b in rows) if weighted else 1
    dtype = int_dtype(top << n)
    total = box.astype(dtype, copy=False)
    for _, s, h, b in reversed(rows):
        values = range(s + b, h + b + 1) if weighted else [1] * (h - s + 1)
        total = total @ np.array(values, dtype=dtype)
    return int(total)


def _range_sum(rows: Sequence[_Row], n: int, tuple_cap: int, weighted: bool) -> int:
    """sum over x of prod_i v_i(x), where v_i(x) is zero unless <w_i, x> lies
    in [s_i, h_i], and there is <w_i, x> + b_i if ``weighted``, else 1.

    Only the gates other than the widest are expanded into target tuples;
    their number is what ``tuple_cap`` limits.
    """
    if not rows:
        return 1 << n
    widest = max(range(len(rows)), key=lambda i: rows[i][2] - rows[i][1])
    rows = [rows[widest], *rows[:widest], *rows[widest + 1:]]
    n_tuples = 1
    for _, s, h, _ in rows[1:]:
        n_tuples *= h - s + 1
        if n_tuples > tuple_cap:
            raise CapExceeded(f"product expansion needs > {tuple_cap} tuples")
    if _use_histogram(n, [ws for ws, *_ in rows], n_tuples):
        return _box_sum(rows, n, weighted)
    base = _packed_base([(ws, max(abs(s), abs(h))) for ws, s, h, _ in rows])
    packed = _packed_weights([ws for ws, *_ in rows], base, n)
    # upper tuples: packed targets of every gate but the widest, and the
    # product of those gates' values there
    uppers, values = [0], [1]
    scale = base
    for _, s, h, b in rows[1:]:
        uppers = [u + scale * t for u in uppers for t in range(s, h + 1)]
        if weighted:
            values = [v * (t + b) for v in values for t in range(s, h + 1)]
        scale *= base
    if not weighted:
        values = values * len(uppers)

    ws0, s0, h0, b0 = rows[0]
    span0 = sum(abs(w) for w in ws0)
    key_bound = sum(abs(w) for w in packed)
    magnitudes = [
        key_bound + base,
        max(abs(u) for u in uppers) + key_bound + max(abs(s0), abs(h0)),
    ]
    if weighted:
        magnitudes.append(((2 * span0 + abs(b0) + 1) << n) * max(values))
    dtype = int_dtype(*magnitudes)
    h = split_point(n)
    halves = [
        np.unique(np.asarray(half_sums(part), dtype=dtype), return_counts=True)
        for part in (packed[:h], packed[h:])
    ]
    halves.sort(key=lambda kc: len(kc[0]))
    (loop_keys, loop_counts), (match_keys, match_counts) = halves
    match_counts = match_counts.astype(dtype)
    loop_counts = loop_counts.astype(dtype)
    half_base = base // 2

    def low_digit(keys):
        return (keys + half_base) % base - half_base

    zero = np.zeros(1, dtype=dtype)
    c0 = np.concatenate([zero, np.cumsum(match_counts)])
    if weighted:
        c1 = np.concatenate([zero, np.cumsum(match_counts * low_digit(match_keys))])
        loop_weights = low_digit(loop_keys) + b0
    upper_arr = np.asarray(uppers, dtype=dtype)
    value_arr = np.asarray(values, dtype=dtype)

    cols = min(len(upper_arr), _CHUNK)
    rows_per = max(1, _CHUNK // cols)
    total = 0
    for c in range(0, len(upper_arr), cols):
        us = upper_arr[c:c + cols]
        vs = value_arr[c:c + cols]
        for r in range(0, len(loop_keys), rows_per):
            need = us[None, :] - loop_keys[r:r + rows_per, None]
            lo = np.searchsorted(match_keys, need + s0, side="left")
            hi = np.searchsorted(match_keys, need + h0, side="right")
            per_key = (c0[hi] - c0[lo]) @ vs
            if weighted:
                per_key = (
                    loop_weights[r:r + rows_per] * per_key + (c1[hi] - c1[lo]) @ vs
                )
            total += int(loop_counts[r:r + rows_per] @ per_key)
    return total


def sumprod_thr(
    gates: Sequence[ThresholdGate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> int:
    """sum over x of prod_i [<w_i, x> >= t_i], exactly.

    Each gate accepts the achievable integer sums from its threshold up; the
    range-sum kernel counts the points every gate accepts.
    """
    n = _shared_n(gates, n)
    rows = []
    for gate in gates:
        scaled, _ = normalize_integer(gate)
        row = _gate_row(scaled, scaled.threshold.numerator, 0)
        if row is None:
            return 0
        rows.append(row)
    return _range_sum(rows, n, tuple_cap, weighted=False)


def sumprod_relu(
    gates: Sequence[ReluGate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> Fraction:
    """sum over x of prod_i max(0, <w_i, x> + a_i), exactly.

    Gates are rescaled to integers, each is positive on the sums from
    1 - a_i up, the range-sum kernel totals the product of the values there,
    and the integer total is divided back by the product of the rescaling
    factors.
    """
    n = _shared_n(gates, n)
    denom = 1
    rows = []
    for gate in gates:
        scaled, scale = normalize_integer(gate)
        denom *= scale
        bias = scaled.bias.numerator
        row = _gate_row(scaled, 1 - bias, bias)
        if row is None:
            return Fraction(0)
        rows.append(row)
    return Fraction(_range_sum(rows, n, tuple_cap, weighted=True)) / denom


def sumprod_ethr(
    gates: Sequence[ExactThresholdGate],
    n: Optional[int] = None,
) -> int:
    """sum over x of prod_i [<w_i, x> = t_i]: one cell of the joint
    histogram, or the packed gate's subset sums Σ_j (Σ_i w_ij·B^i)·x_j =
    Σ_i t_i·B^i counted by split and list."""
    n = _shared_n(gates, n)
    if not gates:
        return 1 << n
    scaled = [normalize_integer(g)[0] for g in gates]
    rows = [[w.numerator for w in g.weights] for g in scaled]
    targets = [g.target.numerator for g in scaled]
    if _use_histogram(n, rows, 1):
        counts, lows = histogram(rows, n)
        cell = tuple(t - lo for t, lo in zip(targets, lows))
        if all(0 <= c < size for c, size in zip(cell, counts.shape)):
            return int(counts[cell])
        return 0
    return count_subset_sum(*_packed_ethr(rows, targets, n))


def sumprod(
    gates: Sequence[Gate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> Union[int, Fraction]:
    """sum over x in {0,1}^n of prod_i gate_i(x), dispatched on the family.

    All gates must belong to one family.  Threshold, exact-threshold and
    field-polynomial products are integers; ReLU products are Fractions.
    An empty product is the constant 1, so the result is 2^n.
    """
    if not gates:
        if n is None:
            raise ValueError("n is required when no gates are given")
        return 1 << n
    kinds = {type(g) for g in gates}
    if len(kinds) != 1:
        raise ValueError("gates must share one family")
    kind = kinds.pop()
    if kind is ThresholdGate:
        return sumprod_thr(gates, n, tuple_cap=tuple_cap)
    if kind is ExactThresholdGate:
        return sumprod_ethr(gates, n)
    if kind is ReluGate:
        return sumprod_relu(gates, n, tuple_cap=tuple_cap)
    if kind is FpPolynomial:
        # sumprod_fp holds one accumulator per nonzero value tuple
        if (gates[0].p - 1) ** len(gates) > tuple_cap:
            raise CapExceeded(f"product expansion needs > {tuple_cap} value tuples")
        return sumprod_fp(list(gates), n, dense_cap=dense_cap)
    raise TypeError(f"unsupported gate type {kind.__name__}")
