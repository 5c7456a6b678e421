"""Boolean-valuedness, satisfying-assignment counts, and equality of
sparse linear combinations, answered without visiting the points of the cube.

A combination f is Boolean-valued iff sum_x f^2 (f-1)^2 = 0, it counts
sum_x f, and it equals g iff sum_x (f-g)^2 = 0.

Every threshold, exact-threshold or ReLU gate has weights lambda_j * w for
one primitive integer vector w, its form (rational lambda_j, negative or zero
allowed; the form of an all-zero gate is the zero vector).  The one row rule
``gates._gate_row``, which ``sumprod`` reads its gates through too, gives the
gate's form, with its first nonzero entry positive, and its value on each
sum.  With d distinct forms w_1, ..., w_d, f is a function of the d integers
s_i = <w_i, x>.  One joint histogram N(s) = |{x : <w_i, x> = s_i for
all i}|, built by Bellman's subset-sum dynamic program in n shift-and-add
passes over the box of prod R_i achievable sums, R_i = sum|w_i| + 1, then
answers all three sums cell by cell.  A combination whose n * prod R_i
reaches ``_HISTOGRAM_CELLS`` expands its sum into Sum-Products of at most
four gates at a time instead; F_p combinations always do.  ``_PowerSums``
makes that choice once per library call, and each question is written once,
as the (k, w_k) pairs of its sum of powers.  The expansion first merges equal
gates.  THR, ETHR and F_2 gates are 0/1-valued, so g * g = g and a product
depends only on the set of gates in it: such families make one Sum-Product
per distinct set of gates within a call, ReLU and F_p for p > 2 one per
multiset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .errors import InvariantViolation
from .fppoly import DEFAULT_DENSE_CAP
from .gates import (
    ExactThresholdGate,
    FpPolynomial,
    LinComb,
    LinearGate,
    ThresholdGate,
    _gate_row,
    _over_lcm,
)
from .mitm import histogram, int_dtype
from .sumprod import DEFAULT_TUPLE_CAP, _affine, sumprod

# combinations whose joint histogram takes n * prod R_i cell updates or more
# go through the Sum-Product expansion instead
_HISTOGRAM_CELLS = 1 << 20


@dataclass(frozen=True)
class BooleanVerdict:
    """deviation = sum_x f(x)^2 (f(x)-1)^2, zero exactly for Boolean f."""

    is_boolean: bool
    deviation: Fraction


@dataclass(frozen=True)
class EqualityVerdict:
    """distance = sum_x (f(x) - g(x))^2, zero exactly for equal functions."""

    equal: bool
    distance: Fraction


# sums of powers as (k, w_k) pairs: sum_x sum_k w_k f(x)^k
_DEVIATION = ((2, 1), (3, -2), (4, 1))  # f^2 (f - 1)^2 = f^2 - 2 f^3 + f^4
_SQUARE = ((2, 1),)
_SUM = ((1, 1),)


def _is_indicator(gate) -> bool:
    """Whether the gate takes only the values 0 and 1, so g * g = g."""
    if isinstance(gate, FpPolynomial):
        return gate.p == 2
    return isinstance(gate, (ThresholdGate, ExactThresholdGate))


def _form_table(coefficients, gates, n: int) -> Optional[tuple]:
    """f = sum_j coefficients[j] * gates[j] on its achievable sums, as
    (n, counts, values, scale, bound).  Each gate is read as its
    ``_gate_row``, on the primitive form whose first nonzero entry is
    positive, so f depends only on the sums s_i = <w_i, x> of the distinct
    forms w_1, ..., w_d; an all-zero gate's form is the zero vector, an axis
    of size 1.  ``counts`` holds the cells N(s) > 0 of their joint histogram
    and ``values`` the exact integers scale * f(s) there, |values| <= bound.
    None for F_p gates, or when the histogram takes n * prod R_i cell
    updates or more, R_i = sum |w_i| + 1."""
    if not all(isinstance(g, LinearGate) for g in gates):
        return None
    forms: dict[tuple, list] = {}  # each form's (multiplier, row) pairs, in axis order
    for c, gate in zip(coefficients, gates):
        row = _gate_row(gate) if c else None
        if row is not None:
            forms.setdefault(row[0], []).append((c * row[5], row))
    spans = [sum(map(abs, w)) for w in forms]
    if n * math.prod(span + 1 for span in spans) >= _HISTOGRAM_CELLS:
        return None
    scale, ints = _over_lcm([m for pairs in forms.values() for m, _ in pairs])
    ints = iter(ints)
    forms = {w: [(next(ints), row) for _, row in pairs] for w, pairs in forms.items()}
    bound = sum(
        abs(m) * max(abs(a * s + b), abs(a * h + b))
        for pairs in forms.values() for m, (_, s, h, a, b, *_) in pairs
    )
    dtype = int_dtype(bound)
    counts, lows = histogram(list(forms), n)
    hit = np.flatnonzero(counts)
    axes = np.unravel_index(hit, counts.shape) if forms else ()
    counts = counts.reshape(-1)[hit]
    values = np.zeros(len(hit), dtype=dtype)
    for pairs, lo, span, axis in zip(forms.values(), lows, spans, axes):
        # the form's values on each of its R sums, then read at every cell
        line = np.zeros(span + 1, dtype=dtype)
        for m, row in pairs:
            line[row[1] - lo:row[2] - lo + 1] += _affine(row, m * row[3], m * row[4], dtype)
        values += line[axis]
    return n, counts, values, scale, bound


def _cell_sum(table: tuple, powers) -> Fraction:
    """sum_s N(s) sum_k w_k f(s)^k over a table from ``_form_table``, for
    ``powers`` given as (k, w_k) pairs: Horner's rule on the integers
    V = scale * f(s) gives sum_k w_k V^k scale^(K-k), K the largest k."""
    n, counts, values, scale, bound = table
    weights = dict(powers)
    top = max(weights)
    # every Horner step is a partial sum of |w_k| (bound + scale)^K
    reach = sum(abs(w) for w in weights.values()) * (bound + scale) ** top
    dtype = int_dtype((1 << n) * reach)
    cells = values.astype(dtype)
    total = weights[top]
    for k in range(top - 1, -1, -1):
        total = total * cells
        if k in weights:
            total = total + weights[k] * scale ** (top - k)
    return Fraction(int(counts.astype(dtype) @ total), scale**top)


class _PowerSums:
    """sum_x sum_k w_k f(x)^k for f = sum_j coefficients[j] * gates[j], for
    one library call, called with the (k, w_k) pairs of a question.

    A combination of linear gates whose forms' box fits the bound reads
    every question from one ``_form_table``.  An F_p combination, or one
    whose box is over the bound, is expanded into Sum-Products: equal gates
    are merged by adding their coefficients, and gates left with coefficient
    0 are dropped.  The merged coefficients are kept as the integers
    ``ints`` = scale * c_j, scale the lcm of their denominators, so the
    expansion runs on integers.  A product of 0/1-valued gates is keyed by
    the sorted set of its gate indices, any other by the multiset, and each
    key's Sum-Product is computed at most once per call, in ``values``.
    """

    def __init__(self, coefficients, gates, n: int, caps: dict):
        self.table = _form_table(coefficients, gates, n)
        if self.table is not None:
            return
        merged, totals = [], []
        for c, g in zip(coefficients, gates):
            if g in merged:
                totals[merged.index(g)] += c
            else:
                merged.append(g)
                totals.append(c)
        self.scale, self.ints = _over_lcm([c for c in totals if c])
        self.gates = [g for g, c in zip(merged, totals) if c]
        self.sets = all(_is_indicator(g) for g in self.gates)
        self.n = n
        self.caps = caps
        self.values: dict[tuple, object] = {}

    def __call__(self, powers) -> Fraction:
        """The table's cell sum, or one Sum-Product per key whose summed
        coefficient is nonzero.  With f = F / scale for the integer
        combination F = sum_j ints[j] * gates[j], each key's coefficient is
        the integer w_k * multinomial * prod_j ints[j]^e_j * scale^(K-k), K
        the largest k, and the sum is divided by scale^K once."""
        if self.table is not None:
            return _cell_sum(self.table, powers)
        top = max(k for k, _ in powers)
        weights: dict[tuple, int] = {}
        for k, w in powers:
            w *= self.scale ** (top - k)
            for combo in combinations_with_replacement(range(len(self.gates)), k):
                counts = Counter(combo)
                mult = math.factorial(k)
                coeff = w
                for j, e in counts.items():
                    mult //= math.factorial(e)
                    coeff *= self.ints[j] ** e
                key = tuple(counts) if self.sets else combo
                weights[key] = weights.get(key, 0) + mult * coeff
        total = 0
        for key, coeff in weights.items():
            if coeff:
                total += coeff * self._value(key)
        return Fraction(total, self.scale**top)

    def _value(self, key: tuple):
        if key not in self.values:
            self.values[key] = sumprod(
                [self.gates[j] for j in key], self.n, **self.caps
            )
        return self.values[key]


def _boolean_verdict(deviation: Fraction) -> BooleanVerdict:
    if deviation < 0:
        raise InvariantViolation(
            f"negative Boolean deviation {deviation}: kernel inconsistency"
        )
    return BooleanVerdict(deviation == 0, deviation)


def check_boolean(
    comb: LinComb,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> BooleanVerdict:
    """Decide whether the combination is {0,1}-valued on the whole cube.

    sum_x f^2 (f-1)^2 = sum_x (f^2 - 2 f^3 + f^4), read from the joint
    histogram of the gates' forms or expanded into Sum-Products of up to four
    merged gates.  The sum is pointwise nonnegative, so a negative result
    can only come from a broken kernel and raises InvariantViolation.
    """
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    sums = _PowerSums(comb.coefficients, comb.gates, comb.n, caps)
    return _boolean_verdict(sums(_DEVIATION))


def count_sat(
    comb: LinComb,
    *,
    unchecked: bool = False,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> int:
    """|{x : f(x) = 1}| for a Boolean-valued combination f.

    Verifies Boolean-valuedness first unless ``unchecked`` is set; for a
    Boolean f the count is just sum_x f(x), read from the same histogram or
    Sum-Products as the check (for THR, ETHR and F_2 the check makes every
    single-gate one).  A result outside [0, 2^n] or non-integral means f was
    not Boolean after all.
    """
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    sums = _PowerSums(comb.coefficients, comb.gates, comb.n, caps)
    if not unchecked:
        verdict = _boolean_verdict(sums(_DEVIATION))
        if not verdict.is_boolean:
            raise InvariantViolation(
                f"combination is not Boolean-valued (deviation {verdict.deviation})"
            )
    total = sums(_SUM)
    if total.denominator != 1 or not 0 <= total <= (1 << comb.n):
        raise InvariantViolation(
            f"satisfying-assignment count {total} is not in [0, 2^{comb.n}]"
        )
    return total.numerator


def check_equal(
    left: LinComb,
    right: LinComb,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> EqualityVerdict:
    """Decide pointwise equality of two same-family combinations.

    sum_x (f - g)^2 is the k=2 power sum of the combination of both sides'
    gates, the right-hand coefficients negated.
    """
    if left.family != right.family:
        raise ValueError("combinations belong to different families")
    if left.n != right.n:
        raise ValueError("combinations disagree on the number of variables")
    coefficients = tuple(left.coefficients) + tuple(-c for c in right.coefficients)
    gates = tuple(left.gates) + tuple(right.gates)
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    distance = _PowerSums(coefficients, gates, left.n, caps)(_SQUARE)
    if distance < 0:
        raise InvariantViolation(
            f"negative squared distance {distance}: kernel inconsistency"
        )
    return EqualityVerdict(distance == 0, distance)
