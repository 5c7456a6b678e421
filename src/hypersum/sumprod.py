"""Exact Sum-Products of gate products over the Boolean hypercube.

Threshold, exact-threshold and ReLU products share one body.  The one row
rule, ``gates._gate_row``, reads each gate on its primitive form w (its
weights are lam * w with lam > 0 and w an integer vector of gcd 1) as a row:
it accepts the achievable sums <w, x> in [s, h] and there takes the value
(a <w, x> + b) * scale, with coprime integers a and b, and a = 0, b = 1 on
threshold and exact-threshold rows and on every row of width 0.  The
kernels sum the integers a <w, x> + b, and the total is multiplied by the
product of the scales.  An exact-threshold row has s = h.  Only the gates
other than the widest are expanded into target tuples, and every integer in
a row's range is on the lattice of its sums.  Once the tuple cap is checked,
and before anything is allocated, ``_use_histogram`` picks one of two
kernels from a work estimate:

- Histogram: when the box of the gates' achievable sums is small, Bellman's
  dynamic program (``mitm.histogram``) counts the points in n passes, with
  the accepted box prod [s_i, h_i] as its window: the variables whose
  shifts point up are complemented, so every pass adds in place below the
  cells it reads, and it updates only the cells that can still reach the
  window.  The accepted box is summed at once over the axes of 0-slope
  rows, and contracted axis by axis with the values of the others.
- Split and list: the gates' weight vectors are packed into one vector in a
  base B large enough that per-gate digits of any packed sum cannot
  interfere; the gate with the widest [s, h] sits at the lowest digit, and
  the targets of the other gates are expanded into packed tuples U.  When
  every row has width 0 (an exact-threshold product, or gates that each
  accept one sum) there is one tuple, and ``mitm.count_subset_sum`` counts
  the packed gate's subset sums.  Otherwise both halves of the
  variables are enumerated once and bound-filtered (``_pruned_half``): a
  half sum stays only if, for every gate i, its digit d_i plus some digit
  of the other half can land in [s_i, h_i].  The first half is tested
  against the range of the second half's digits, the sums of its negative
  and positive weights, and the second half against the digits of the
  first half's survivors.  No dropped sum has a partner that every gate
  accepts, so the answer is unchanged, and it is 0 when a half keeps
  nothing.  For a first-half key L and a tuple U, the matching second-half
  keys are exactly those in the interval [U - L + s, U - L + h] of the
  widest gate, so prefix sums over the sorted second-half keys turn the
  whole widest gate into two binary searches.  A sloped widest row needs a
  second prefix sum, of count times the key's lowest digit.

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
    _gate_row,
    _shared_n,
)
from .mitm import (_BOX_CELLS, count_subset_sum, half_sums, histogram, int_dtype, partials,
                   split_point)

DEFAULT_TUPLE_CAP = 10**7

# elements evaluated at once, (loop keys x upper tuples) in the range-sum loop
# and half sums in the bound filter; keeps the kernel's temporaries at a few
# hundred kilobytes whatever the query size
_CHUNK = 8192

# the histogram runs when its n * box cell updates are at most this many
# times the split-and-list estimate, 2^ceil(n/2) half sums per tuple; timed
# on 1-3 gates with n = 8-40, it was faster on every shape below this ratio,
# and up to 2.9 times slower on boxes of a million cells above it.  That
# timing predates the in-place, window-pruned passes, which made narrow
# windows several times cheaper; the ratio is kept as it was, so that no
# query changes kernel, until a kernel rule that also weighs memory
# re-derives it
_BOX_RATIO = 16


def _use_histogram(n: int, spans: Sequence[int], tuples: int) -> bool:
    """Whether the histogram answers rather than split and list, for gates
    whose weights have absolute sums ``spans`` and ``tuples`` expanded
    targets."""
    box = math.prod(span + 1 for span in spans)
    return box <= _BOX_CELLS and n * box <= _BOX_RATIO * (1 << split_point(n)) * tuples


def _packed_base(spans_and_targets: Sequence[tuple[int, int]]) -> int:
    """Base B so per-gate digits of any packed target/sum cannot interfere.

    Each entry is (sum of |weights|, max |target|) for one gate; B exceeds
    twice every digit magnitude that can arise, so a packed form is zero iff
    every digit is zero.
    """
    return 2 * sum(span + tmax for span, tmax in spans_and_targets) + 1


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


_Row = tuple[tuple[int, ...], int, int, int, int, Union[int, Fraction], int]


def _affine(row: _Row, a: int, b: int, dtype):
    """a t + b at a row's sums t = s, ..., h, as one vector.  Each partial
    result is at most twice the largest |a t + b| there, which the margin
    ``int_dtype`` leaves below int64's range covers."""
    _, s, h, *_ = row
    if not a or s == h:
        return np.full(h - s + 1, a * s + b, dtype=dtype)
    return a * np.arange(h - s + 1, dtype=dtype) + (a * s + b)


def _top_value(rows: Sequence[_Row]) -> int:
    """The largest |product of the rows' values| over their ranges."""
    return math.prod(max(abs(a * s + b), abs(a * h + b)) for _, s, h, a, b, *_ in rows)


def _box_sum(rows: Sequence[_Row], n: int) -> int:
    """``_range_sum`` from the joint histogram, built with the box
    prod [s_i, h_i] as its window: the counts there, summed at once over the
    axes of 0-slope rows, which are 1 there, and contracted axis by axis
    with the others' values."""
    counts, lows = histogram([row[0] for row in rows], n, [row[1:3] for row in rows])
    total = counts[tuple(slice(s - lo, h - lo + 1) for (_, s, h, *_), lo in zip(rows, lows))]
    flat = [i for i, row in enumerate(rows) if not row[3]]
    if flat:
        total = total.sum(axis=tuple(flat))
    sloped = [row for row in rows if row[3]]
    if sloped:
        dtype = int_dtype(_top_value(sloped) << n)
        total = total.astype(dtype, copy=False)
        for row in reversed(sloped):
            total = total @ _affine(row, *row[3:5], dtype)
    return int(total)


def _pruned_half(part: Sequence[int], dtype, base: int, windows):
    """((keys, counts), spans): ``np.unique`` of the subset sums of the
    packed weights ``part`` whose balanced base-``base`` digits, lowest
    first, each lie in their window [lo_i, hi_i], and the [min, max] of each
    digit over the sums kept.  Digits are peeled a chunk of sums at a time,
    so the temporaries stay small."""
    sums = np.asarray(half_sums(part), dtype=dtype)
    half = base // 2
    # no digit reaches +-base, so a half that keeps nothing gives the other
    # half empty windows
    spans = [[base, -base] for _ in windows]
    if any(lo > hi for lo, hi in windows):
        sums = sums[:0]
    keep = np.ones(len(sums), dtype=bool)
    for c in range(0, len(sums), _CHUNK):
        rest, ok, digits = sums[c:c + _CHUNK], keep[c:c + _CHUNK], []
        for lo, hi in windows:
            rest = rest + half
            d = rest % base - half
            rest //= base
            ok &= (lo <= d) & (d <= hi)
            digits.append(d)
        if ok.any():
            for span, d in zip(spans, digits):
                d = d[ok]
                span[:] = min(span[0], int(d.min())), max(span[1], int(d.max()))
    if not keep.all():
        sums = sums[keep]
    return np.unique(sums, return_counts=True), spans


def _range_sum(rows: Sequence[_Row], n: int, tuple_cap: int) -> int:
    """sum over x of prod_i v_i(x), where v_i(x) is zero unless <w_i, x> lies
    in [s_i, h_i], and there is a_i <w_i, x> + b_i.

    Only the rows other than the widest are expanded into target tuples;
    their number is what ``tuple_cap`` limits.  Every row is in the units of
    its primitive form, so each target it expands is on the lattice of its
    achievable sums.
    """
    if not rows:
        return 1 << n
    widths = [h - s for _, s, h, *_ in rows]
    widest = widths.index(max(widths))
    rows = [rows[widest], *rows[:widest], *rows[widest + 1:]]
    n_tuples = 1
    for _, s, h, *_ in rows[1:]:
        n_tuples *= h - s + 1
        if n_tuples > tuple_cap:
            raise CapExceeded(f"product expansion needs > {tuple_cap} tuples")
    if _use_histogram(n, [row[6] for row in rows], n_tuples):
        return _box_sum(rows, n)
    base = _packed_base([(span, max(abs(s), abs(h))) for _, s, h, *_, span in rows])
    packed = _packed_weights([w for w, *_ in rows], base, n)
    _, s0, h0, a0, b0, _, span0 = rows[0]
    if s0 == h0:
        # every gate accepts one sum, where it is 1: count the points at the
        # packed target
        target = sum(s * base**i for i, (_, s, *_) in enumerate(rows))
        return count_subset_sum(packed, target)
    key_bound = sum(abs(w) for w in packed)
    dtype = int_dtype(
        key_bound + base,
        sum(base**i * max(abs(s), abs(h)) for i, (_, s, h, *_) in enumerate(rows))
        + key_bound,
        ((2 * abs(a0) * span0 + abs(b0) + 1) << n) * _top_value(rows[1:]),
    )
    # upper tuples: packed targets of every gate but the widest, and the
    # product of those gates' values there
    uppers, values = np.zeros(1, dtype=dtype), np.ones(1, dtype=dtype)
    scale = base
    for row in rows[1:]:
        uppers = np.add.outer(uppers, _affine(row, scale, 0, dtype)).ravel()
        values = np.multiply.outer(values, _affine(row, *row[3:5], dtype)).ravel()
        scale *= base

    h = split_point(n)
    # gate i can accept a half's digit d only if d + e lies in [s_i, h_i] for
    # some digit e in the other half's range: for the second half, its
    # weights' negative and positive sums; for the first, its survivors'
    spans = [
        (sum(w for w in ws[h:] if w < 0), sum(w for w in ws[h:] if w > 0))
        for ws, *_ in rows
    ]
    halves = []
    partials.add((1 << h) + (1 << (n - h)))
    for part in (packed[:h], packed[h:]):
        windows = [(s - hi, t - lo) for (_, s, t, *_), (lo, hi) in zip(rows, spans)]
        table, spans = _pruned_half(part, dtype, base, windows)
        halves.append(table)
    if not all(len(keys) for keys, _ in halves):
        return 0
    halves.sort(key=lambda kc: len(kc[0]))
    (loop_keys, loop_counts), (match_keys, match_counts) = halves
    match_counts = match_counts.astype(dtype)
    loop_counts = loop_counts.astype(dtype)
    half_base = base // 2

    def low_digit(keys):
        return (keys + half_base) % base - half_base

    # the widest gate is a0 (d_L + d_R) + b0 at a pair of keys' lowest digits:
    # d_L weighs the loop key's count, d_R is a prefix sum of count times digit
    zero = np.zeros(1, dtype=dtype)
    c0 = np.concatenate([zero, np.cumsum(match_counts)])
    loop_weights = loop_counts * b0
    if a0:
        c1 = np.concatenate([zero, np.cumsum(match_counts * low_digit(match_keys))])
        loop_weights += loop_counts * low_digit(loop_keys) * a0

    cols = min(len(uppers), _CHUNK)
    rows_per = max(1, _CHUNK // cols)
    total = 0
    for c in range(0, len(uppers), cols):
        us = uppers[c:c + cols]
        vs = values[c:c + cols]
        for r in range(0, len(loop_keys), rows_per):
            need = us[None, :] - loop_keys[r:r + rows_per, None]
            lo = np.searchsorted(match_keys, need + s0, side="left")
            hi = np.searchsorted(match_keys, need + h0, side="right")
            total += int(loop_weights[r:r + rows_per] @ ((c0[hi] - c0[lo]) @ vs))
            if a0:
                total += a0 * int(loop_counts[r:r + rows_per] @ ((c1[hi] - c1[lo]) @ vs))
    return total


def _linear_sumprod(
    gates: Sequence[LinearGate], n: Optional[int], tuple_cap: int
) -> Union[int, Fraction]:
    """The range-sum kernel over the gates' rows, times the product of the
    rows' scales: an int when every scale is."""
    n = _shared_n(gates, n)
    rows = []
    for gate in gates:
        row = _gate_row(gate)
        if row is None:
            return 0
        rows.append(row)
    return _range_sum(rows, n, tuple_cap) * math.prod(row[5] for row in rows)


def sumprod_thr(
    gates: Sequence[ThresholdGate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> int:
    """sum over x of prod_i [<w_i, x> >= t_i], exactly: each gate accepts
    the achievable integer sums from its threshold up."""
    return _linear_sumprod(gates, n, tuple_cap)


def sumprod_relu(
    gates: Sequence[ReluGate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> Fraction:
    """sum over x of prod_i max(0, <w_i, x> + a_i), exactly: each gate is
    positive on the sums from 1 - a_i up."""
    return Fraction(_linear_sumprod(gates, n, tuple_cap))


def sumprod_ethr(
    gates: Sequence[ExactThresholdGate],
    n: Optional[int] = None,
) -> int:
    """sum over x of prod_i [<w_i, x> = t_i], exactly: each gate accepts the
    one sum t_i, so the expansion is a single tuple and no cap applies."""
    return _linear_sumprod(gates, n, 1)


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
        return 1 << _shared_n(gates, n)
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
        return sumprod_fp(list(gates), n, dense_cap=dense_cap, tuple_cap=tuple_cap)
    raise TypeError(f"unsupported gate type {kind.__name__}")
