"""Exact Sum-Products of gate products over the Boolean hypercube.

Threshold, exact-threshold and ReLU products share one body.  Each gate is
rescaled to integers and reduced, by the acceptance rule
``gates.linear_piece``, to a row (weights, s, h, b): it accepts the
achievable sums <w, x> in [s, h] and there takes the value <w, x> + b (ReLU)
or 1 (threshold, exact threshold).  An exact-threshold row has s = h = t.
Only the gates other than the widest are expanded into target tuples, a
threshold or exact-threshold row first divided by the gcd of its weights so
that each of its targets is reachable.  Once the tuple cap is checked, and
before anything is allocated, ``_use_histogram`` picks one of two kernels
from a work estimate:

- Histogram: when the box of the gates' achievable sums is small, Bellman's
  dynamic program (``mitm.histogram``) counts the points at every cell in
  n passes.  A threshold product is the sum over the box prod [s_i, h_i],
  and a ReLU product contracts each axis with the gate's values.
- Split and list: the gates' weight vectors are packed into one vector in a
  base B large enough that per-gate digits of any packed sum cannot
  interfere; the gate with the widest [s, h] sits at the lowest digit, and
  the targets of the other gates are expanded into packed tuples U.  When
  every row has width 0 (an exact-threshold product, or threshold gates
  that each accept one sum) there is one tuple, and ``mitm.count_subset_sum``
  counts the packed gate's subset sums.  Otherwise both halves of the
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
  whole widest gate into two binary searches.  ReLU values need a second
  prefix sum, of count times the key's lowest digit.

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
    _shared_n,
    linear_piece,
    normalize_integer,
)
from .mitm import count_subset_sum, half_sums, histogram, int_dtype, split_point

DEFAULT_TUPLE_CAP = 10**7

# elements evaluated at once, (loop keys x upper tuples) in the range-sum loop
# and half sums in the bound filter; keeps the kernel's temporaries at a few
# hundred kilobytes whatever the query size
_CHUNK = 8192

# the histogram kernel's box of sums never holds more cells than this
_BOX_CELLS = 1 << 22
# the histogram runs when its n * box cell updates are at most this many
# times the split-and-list estimate, 2^ceil(n/2) half sums per tuple; timed
# on 1-3 gates with n = 8-40, it was faster on every shape below this ratio,
# and up to 2.9 times slower on boxes of a million cells above it
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


_Row = tuple[list[int], int, int, int, int]


def _gate_row(gate: LinearGate) -> Optional[_Row]:
    """(weights, s, h, b, span) for a gate with integer weights, or None.

    The gate accepts the achievable integer sums in [s, h] and there equals
    <w, x> + b (ReLU) or 1; span is the sum of |weights|.  Every achievable
    sum is a multiple of g = gcd(weights), so s and h are rounded inward to
    that lattice.  None means it accepts no achievable sum, so it is zero
    everywhere.
    """
    piece = linear_piece(gate)
    if piece is None:
        return None
    _, b, first, last = piece
    ws = [w.numerator for w in gate.weights]
    lo = sum(w for w in ws if w < 0)
    hi = sum(ws) - lo
    s = lo if first is None else max(lo, first)
    h = hi if last is None else min(hi, last)
    g = math.gcd(*ws)
    if g > 1:
        s, h = -(-s // g) * g, h // g * g
    return (ws, s, h, b.numerator, hi - lo) if s <= h else None


def _unit_row(row: _Row) -> _Row:
    """A threshold or exact-threshold row with its weights, s, h and span
    divided by g = gcd(weights).  Such a gate is 1 on its whole range, so it
    can read the sums in units of g, and then every target between s and h
    is reachable.  ReLU rows keep their weights, since their values are the
    sums themselves."""
    ws, s, h, b, span = row
    g = math.gcd(*ws)
    if g < 2:
        return row
    return [w // g for w in ws], s // g, h // g, b, span // g


def _box_sum(rows: Sequence[_Row], n: int, weighted: bool) -> int:
    """``_range_sum`` from the joint histogram: the counts over the box
    prod [s_i, h_i], contracted axis by axis with the gates' values there."""
    counts, lows = histogram([row[0] for row in rows], n)
    box = counts[tuple(slice(s - lo, h - lo + 1) for (_, s, h, *_), lo in zip(rows, lows))]
    if not weighted:
        return int(box.sum())
    # accepted ReLU values run from s + b >= 1 up to h + b
    dtype = int_dtype(math.prod(h + b for _, _, h, b, _ in rows) << n)
    total = box.astype(dtype, copy=False)
    for _, s, h, b, _ in reversed(rows):
        total = total @ np.array(range(s + b, h + b + 1), dtype=dtype)
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


def _range_sum(rows: Sequence[_Row], n: int, tuple_cap: int, weighted: bool) -> int:
    """sum over x of prod_i v_i(x), where v_i(x) is zero unless <w_i, x> lies
    in [s_i, h_i], and there is <w_i, x> + b_i if ``weighted``, else 1.

    Only the gates other than the widest are expanded into target tuples;
    their number is what ``tuple_cap`` limits.  Unless ``weighted``, those
    rows are first put in units of their weights' gcd (``_unit_row``), so
    only reachable targets are expanded and counted; the widest is decided
    in those units and keeps its own, since its whole range is summed at
    once.
    """
    if not rows:
        return 1 << n
    units = rows if weighted else [_unit_row(row) for row in rows]
    widths = [h - s for _, s, h, _, _ in units]
    widest = widths.index(max(widths))
    rows = [rows[widest], *units[:widest], *units[widest + 1:]]
    n_tuples = 1
    for _, s, h, _, _ in rows[1:]:
        n_tuples *= h - s + 1
        if n_tuples > tuple_cap:
            raise CapExceeded(f"product expansion needs > {tuple_cap} tuples")
    if _use_histogram(n, [row[4] for row in rows], n_tuples):
        return _box_sum(rows, n, weighted)
    base = _packed_base([(span, max(abs(s), abs(h))) for _, s, h, _, span in rows])
    packed = _packed_weights([ws for ws, *_ in rows], base, n)
    # upper tuples: packed targets of every gate but the widest, and the
    # product of those gates' values there
    uppers, values = [0], [1]
    scale = base
    for _, s, h, b, _ in rows[1:]:
        uppers = [u + scale * t for u in uppers for t in range(s, h + 1)]
        if weighted:
            values = [v * (t + b) for v in values for t in range(s, h + 1)]
        scale *= base
    _, s0, h0, b0, span0 = rows[0]
    if not weighted:
        if s0 == h0 and len(uppers) == 1:
            # every gate accepts one sum: count the points at the packed target
            return count_subset_sum(packed, uppers[0] + s0)
        values = values * len(uppers)

    key_bound = sum(abs(w) for w in packed)
    magnitudes = [
        key_bound + base,
        max(abs(u) for u in uppers) + key_bound + max(abs(s0), abs(h0)),
    ]
    if weighted:
        magnitudes.append(((2 * span0 + abs(b0) + 1) << n) * max(values))
    dtype = int_dtype(*magnitudes)
    h = split_point(n)
    # gate i can accept a half's digit d only if d + e lies in [s_i, h_i] for
    # some digit e in the other half's range: for the second half, its
    # weights' negative and positive sums; for the first, its survivors'
    spans = [
        (sum(w for w in ws[h:] if w < 0), sum(w for w in ws[h:] if w > 0))
        for ws, *_ in rows
    ]
    halves = []
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


def _linear_sumprod(
    gates: Sequence[LinearGate], n: Optional[int], tuple_cap: int, weighted: bool
) -> Union[int, Fraction]:
    """The range-sum kernel over the rows of gates rescaled to integers.

    Only ReLU values change under rescaling, so only ``weighted`` products
    are divided back by the product of the rescaling factors.
    """
    n = _shared_n(gates, n)
    denom = 1
    rows = []
    for gate in gates:
        scaled, scale = normalize_integer(gate)
        row = _gate_row(scaled)
        if row is None:
            total = 0
            break
        rows.append(row)
        if weighted:
            denom *= scale
    else:
        total = _range_sum(rows, n, tuple_cap, weighted)
    return Fraction(total) / denom if weighted else total


def sumprod_thr(
    gates: Sequence[ThresholdGate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> int:
    """sum over x of prod_i [<w_i, x> >= t_i], exactly: each gate accepts
    the achievable integer sums from its threshold up."""
    return _linear_sumprod(gates, n, tuple_cap, weighted=False)


def sumprod_relu(
    gates: Sequence[ReluGate],
    n: Optional[int] = None,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
) -> Fraction:
    """sum over x of prod_i max(0, <w_i, x> + a_i), exactly: each gate is
    positive on the sums from 1 - a_i up."""
    return _linear_sumprod(gates, n, tuple_cap, weighted=True)


def sumprod_ethr(
    gates: Sequence[ExactThresholdGate],
    n: Optional[int] = None,
) -> int:
    """sum over x of prod_i [<w_i, x> = t_i], exactly: each gate accepts the
    one sum t_i, so the expansion is a single tuple and no cap applies."""
    return _linear_sumprod(gates, n, 1, weighted=False)


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
