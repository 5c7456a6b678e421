"""Exact Sum-Products of gate products over the Boolean hypercube.

Threshold, exact-threshold and ReLU products share one body.  The one row
rule, ``gates._gate_row``, reads each gate on its primitive form w (its
weights are lam * w, w an integer vector of gcd 1 whose first nonzero entry
is positive, so one form has one orientation) as a row:
it accepts the achievable sums <w, x> in [s, h] and there takes the value
(a <w, x> + b) * scale, with coprime integers a and b, and a = 0, b = 1 on
threshold and exact-threshold rows and on every row of width 0.  The
kernels sum the integers a <w, x> + b, and the total is multiplied by the
product of the scales.  An exact-threshold row has s = h.  Only the gates
other than the widest are expanded into target tuples, and every integer in
a row's range is on the lattice of its sums.  Once the tuple cap is checked,
and before anything is allocated, ``_use_histogram`` picks one of two
kernels from a work estimate:

- Histogram: the rows on one form share one axis (``mitm.form_axes``).
  When the box of the distinct forms' sums is small, ``mitm.box_sum``
  counts the points in the accepted box by Bellman's dynamic program.
- Split and list keeps every row as it is, since its prefix sums need an
  affine widest row.  The gates' weight vectors are packed into one vector
  in a base B large enough that per-gate digits of any packed sum cannot
  interfere; the gate with the widest [s, h] sits at the lowest digit, and
  the targets of the other gates are expanded into packed tuples U.  When
  every row has width 0 (an exact-threshold product, or gates that each
  accept one sum) there is one tuple, and ``mitm.count_subset_sum`` counts
  the packed gate's subset sums.  Otherwise the halves of the variables
  are bound-filtered (``_pruned_half``) before anything is packed: a half
  sum stays only if, for every gate i, its digit d_i = <w_i, x> on the half
  plus some digit of the other half can land in [s_i, h_i].  Each gate's
  digits are doubled in the ``int_dtype`` of the gates' own weights, in
  blocks, and ANDed gate by gate into a keep mask, so the filter runs on
  int64 even where the packed keys need Python ints.  The first half is
  tested against the range of the second half's digits, the sums of its
  negative and positive weights, and the second half against the digits
  of the first half's survivors.  No dropped sum has a partner that every
  gate accepts, so the answer is unchanged, and it is 0 as soon as a half
  keeps nothing: the second half is then never enumerated, and the packed
  width and the upper tuples are never built.  The survivors' digits are
  packed by Horner's rule in base B into the keys the matching reads.
  For a first-half key L and a tuple U, the matching second-half
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
from .mitm import (_BLOCK_LOG, _BOX_CELLS, box_sum, count_subset_sum, form_axes, int_dtype,
                   partials, split_point)

DEFAULT_TUPLE_CAP = 10**7

# elements evaluated at once, loop keys x upper tuples, in the range-sum
# loop; keeps its temporaries at a few hundred kilobytes whatever the query
# size (the bound filter's blocks are bounded by mitm._BLOCK_LOG)
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
    """Whether the histogram answers rather than split and list, for
    distinct forms whose weights have absolute sums ``spans`` and
    ``tuples`` expanded targets."""
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
    return math.prod(max(abs(a * s + b), abs(a * h + b)) for _, s, h, a, b, _, _ in rows)


def _half_table(parts, dtype):
    """T[i, m] = the sum of parts[i][j] over the bits j set in m: every
    subset sum of each gate's weights, in ``half_sums`` order, doubled one
    weight at a time for all the gates at once."""
    weights = np.array(parts, dtype=dtype)
    table = np.zeros((len(parts), 1 << weights.shape[1]), dtype=dtype)
    m = 1
    for j in range(weights.shape[1]):
        np.add(table[:, :m], weights[:, j:j + 1], out=table[:, m:2 * m])
        m *= 2
    return table


def _pruned_half(parts, windows):
    """D[i, m] = <parts[i], x> for the subset sums of a half, in
    ``half_sums`` order, whose every digit D[i, m] lies in its window
    windows[i] = (lo_i, hi_i); None when the half keeps none.

    parts[i] is gate i's weights on the half.  The digits are doubled in
    the ``int_dtype`` of the gates' own sums, in blocks of at most
    2^``_BLOCK_LOG`` digits: a table of each gate's sums of its first b
    weights, shifted by one sum of the rest per block.  In a block, the
    gates whose windows cover the smallest share of their range go first;
    each gate's column is tested against its window and ANDed into the
    block's keep mask, the block stops at the first gate that empties the
    mask, and only the kept digits are gathered."""
    bounds, reach = [], 0
    for part, (lo, hi) in zip(parts, windows):
        neg, pos = sum(w for w in part if w < 0), sum(w for w in part if w > 0)
        lo, hi = max(lo, neg), min(hi, pos)  # so lo - o and hi - o fit the digits' width
        if lo > hi:
            return None
        bounds.append((lo, hi, (hi - lo) / (pos - neg + 1)))
        reach = max(reach, pos - neg)
    order = sorted(range(len(parts)), key=lambda i: bounds[i][2])
    dtype = int_dtype(reach)
    b = max(0, min(len(parts[0]), _BLOCK_LOG - (len(parts) - 1).bit_length()))
    low = _half_table([part[:b] for part in parts], dtype)
    offsets = _half_table([part[b:] for part in parts], dtype)
    kept = []
    for r, o in enumerate(offsets.T.tolist()):
        keep = None
        for i in order:
            lo, hi, _ = bounds[i]
            ok = np.greater_equal(low[i], lo - o[i])
            ok &= np.less_equal(low[i], hi - o[i])
            keep = ok if keep is None else np.logical_and(keep, ok, out=keep)
            if not keep.any():
                break
        else:
            kept.append(low[:, np.flatnonzero(keep)] + offsets[:, r:r + 1])
    return np.concatenate(kept, axis=1) if kept else None


def _packed_keys(digits, base: int, dtype):
    """sum_i digits[i] * base^i, by Horner's rule in ``dtype``."""
    keys = digits[-1].astype(dtype)
    for d in digits[-2::-1]:
        keys *= base
        keys += d
    return keys


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
    if _use_histogram(n, {w: span for w, *_, span in rows}.values(), n_tuples):
        axes = form_axes([(w, s, h, (a, b) if a else None) for w, s, h, a, b, *_ in rows])
        dtype = int_dtype(_top_value(rows) << n)
        lines = [math.prod(_affine(axis, a, b, dtype) for a, b in axis[3]) if axis[3] else None
                 for axis in axes]
        return box_sum(axes, lines, n, dtype)
    base = _packed_base([(span, max(abs(s), abs(h))) for _, s, h, *_, span in rows])
    _, s0, h0, a0, b0, _, span0 = rows[0]
    if s0 == h0:
        # every gate accepts one sum, where it is 1: count the points at the
        # packed target
        target = sum(s * base**i for i, (_, s, *_) in enumerate(rows))
        return count_subset_sum(_packed_weights([w for w, *_ in rows], base, n), target)

    h = split_point(n)
    # gate i can accept a half's digit d only if d + e lies in [s_i, h_i] for
    # some digit e in the other half's range: for the first half, the second
    # half's negative and positive weight sums; for the second, the digits of
    # the first half's survivors
    spans = [
        (sum(w for w in ws[h:] if w < 0), sum(w for w in ws[h:] if w > 0))
        for ws, *_ in rows
    ]
    halves = []
    # the tally counts both halves, as every call does, even when the second
    # is never enumerated
    partials.add((1 << h) + (1 << (n - h)))
    for part in (slice(None, h), slice(h, None)):
        windows = [(s - hi, t - lo) for (_, s, t, *_), (lo, hi) in zip(rows, spans)]
        digits = _pruned_half([ws[part] for ws, *_ in rows], windows)
        if digits is None:
            return 0
        spans = list(zip(digits.min(axis=1).tolist(), digits.max(axis=1).tolist()))
        halves.append(digits)

    packed = _packed_weights([w for w, *_ in rows], base, n)
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
    halves = [np.unique(_packed_keys(digits, base, dtype), return_counts=True)
              for digits in halves]
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
