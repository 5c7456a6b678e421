"""Split-and-list counting over the hypercube.

The variables are split into a first half of ceil(n/2) and a second half of
floor(n/2); all partial assignments of each half are enumerated, the second
half is aggregated into a table sorted by partial sum, and first-half entries
are matched against it by binary search.  A module-level tally records how
many partial assignments were enumerated (2^ceil(n/2) + 2^floor(n/2) per
call, independent of the weights).
"""

from __future__ import annotations

import bisect
from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gates import ExactThresholdGate, as_fraction, integer_weights

# numpy enumeration is used only when every partial sum provably fits int64
# and the half table fits in memory.
_NP_SUM_BOUND = 1 << 62
_NP_HALF_LIMIT = 24


class EnumerationTally:
    """Counts partial assignments enumerated by the split-and-list kernels."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


partials = EnumerationTally()


def split_point(n: int) -> int:
    """Size of the first half: ceil(n/2)."""
    return (n + 1) // 2


def half_sums(weights: Sequence[int]):
    """All 2^h subset sums of ``weights`` in little-endian assignment order.

    Entry m is the sum over the variables whose bit is set in m.  Returns a
    list of ints, or an int64 numpy array when the magnitudes allow.
    """
    bound = sum(abs(w) for w in weights)
    if bound < _NP_SUM_BOUND and len(weights) <= _NP_HALF_LIMIT:
        sums = np.zeros(1, dtype=np.int64)
        for w in weights:
            sums = np.concatenate([sums, sums + w])
        partials.add(len(sums))
        return sums
    out = [0]
    for w in weights:
        out += [s + w for s in out]
    partials.add(len(out))
    return out


class HalfTable:
    """Aggregated half-enumeration: strictly increasing keys, one payload
    vector per key, componentwise-summed over partial assignments sharing
    the key."""

    __slots__ = ("keys", "payloads")

    def __init__(self, keys, payloads) -> None:
        self.keys = keys
        self.payloads = payloads

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def from_items(cls, items) -> "HalfTable":
        """Aggregate (key, payload-vector) pairs; keys end up sorted."""
        acc: dict[int, list] = {}
        width = None
        for key, payload in items:
            if width is None:
                width = len(payload)
            elif len(payload) != width:
                raise ValueError("payload width is not uniform")
            row = acc.get(key)
            if row is None:
                acc[key] = list(payload)
            else:
                for i, v in enumerate(payload):
                    row[i] += v
        keys = sorted(acc)
        return cls(keys, [tuple(acc[k]) for k in keys])

    @classmethod
    def from_multiplicities(cls, sums) -> "HalfTable":
        """Width-1 table of subset-sum multiplicities."""
        if isinstance(sums, np.ndarray):
            keys, counts = np.unique(sums, return_counts=True)
            return cls(keys, counts.reshape(-1, 1))
        counter = Counter(sums)
        keys = sorted(counter)
        return cls(keys, [(counter[k],) for k in keys])

    def lookup(self, key: int):
        """Payload vector for ``key`` or None; binary search over the keys."""
        i = bisect.bisect_left(self.keys, key)
        if i != len(self.keys) and self.keys[i] == key:
            return self.payloads[i]
        return None


def count_subset_sum(weights: Sequence[int], target: int) -> int:
    """|{x in {0,1}^n : <w, x> = target}| by splitting the variables in half.

    Enumerates 2^ceil(n/2) + 2^floor(n/2) partial assignments (recorded in
    ``partials``) regardless of the weights.
    """
    ws = [int(w) for w in weights]
    if not ws:
        raise ValueError("need at least one weight")
    target = int(target)
    h = split_point(len(ws))
    first = half_sums(ws[:h])
    second = half_sums(ws[h:])
    # an unreachable target has no solutions; checking it after the half
    # enumeration keeps the tally structural, and before the matching keeps
    # target - key inside int64 on the numpy path
    if not sum(w for w in ws if w < 0) <= target <= sum(w for w in ws if w > 0):
        return 0
    table = HalfTable.from_multiplicities(second)
    if isinstance(first, np.ndarray) and isinstance(table.keys, np.ndarray):
        u1, c1 = np.unique(first, return_counts=True)
        need = target - u1
        idx = np.searchsorted(table.keys, need)
        idx[idx == len(table.keys)] = 0
        hit = table.keys[idx] == need
        pair_counts = c1[hit].astype(object) * table.payloads[idx[hit], 0].astype(object)
        return int(pair_counts.sum())
    total = 0
    for s in first:
        row = table.lookup(target - s)
        if row is not None:
            total += int(row[0])
    return total


def _subset_products(values: Sequence, k: int) -> list:
    """prod[T] = product of values[j] for j in subset-mask T."""
    out = [Fraction(1)] * (1 << k)
    for t in range(1, 1 << k):
        j = (t & -t).bit_length() - 1
        out[t] = out[t ^ (1 << j)] * values[j]
    return out


def weighted_ethr_affine_sum(
    gate: ExactThresholdGate,
    affines: Sequence[tuple[Sequence, object]],
) -> Fraction:
    """sum over x with <alpha, x> = t of prod_j (<w_j, x> + a_j), exactly.

    ``gate`` must have integer weights and target; each affine form is a pair
    (weights, bias) of rationals.  Biases are folded into the first half, the
    per-assignment product is expanded into 2^k subset-indexed coordinates,
    and the second half is aggregated into a HalfTable so matching first-half
    entries contribute an inner product.  With k = 0 this reduces to
    count_subset_sum.
    """
    alphas = integer_weights(gate)
    if gate.target.denominator != 1:
        raise ValueError("gate has a non-integer target; apply normalize_integer")
    t = gate.target.numerator
    n = gate.n
    k = len(affines)
    parsed = []
    for ws, bias in affines:
        ws = tuple(as_fraction(w) for w in ws)
        if len(ws) != n:
            raise ValueError("affine form length disagrees with the gate")
        parsed.append((ws, as_fraction(bias)))
    h = split_point(n)
    full = (1 << k) - 1

    def enumerate_half(indices: range, with_bias: bool):
        base = tuple(a for _, a in parsed) if with_bias else (Fraction(0),) * k
        entries = [(0, base)]
        for i in indices:
            alpha = alphas[i]
            grown = []
            for s, vec in entries:
                grown.append((s + alpha, tuple(v + parsed[j][0][i] for j, v in enumerate(vec))))
            entries += grown
        partials.add(len(entries))
        return entries

    first = enumerate_half(range(0, h), with_bias=True)
    second = enumerate_half(range(h, n), with_bias=False)

    def complement_products(vec):
        prods = _subset_products(vec, k)
        return tuple(prods[full ^ t_] for t_ in range(1 << k))

    table = HalfTable.from_items((s, complement_products(vec)) for s, vec in second)
    total = Fraction(0)
    for s, vec in first:
        row = table.lookup(t - s)
        if row is None:
            continue
        prods = _subset_products(vec, k)
        total += sum(p * w for p, w in zip(prods, row))
    return total
