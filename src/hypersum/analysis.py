"""Boolean-valuedness, satisfying-assignment counts, and equality of
sparse linear combinations, answered without visiting the points of the cube.

A combination f is Boolean-valued iff sum_x f^2 (f-1)^2 = 0, it counts
sum_x f, and it equals g iff sum_x (f-g)^2 = 0.

When every threshold, exact-threshold or ReLU gate has weights lambda_j * w
for one primitive integer vector w (rational lambda_j, negative or zero
allowed), f is a function of the single integer s = <w, x>.  One histogram
N(s) = |{x : <w, x> = s}|, built by Bellman's subset-sum dynamic program in
n shift-and-add passes over the R = sum|w_i| + 1 achievable sums, then
answers all three sums cell by cell.  Every other combination, and any whose
n * R reaches ``_HISTOGRAM_CELLS``, expands its sum into Sum-Products of at
most four gates at a time; F_p combinations always do.
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
from .gates import LinComb, LinearGate, linear_piece
from .mitm import histogram, int_dtype
from .sumprod import DEFAULT_TUPLE_CAP, sumprod

# one-form combinations whose histogram takes n * R cell updates or more go
# through the Sum-Product expansion instead
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


def _power_sum(
    coefficients,
    gates,
    n: int,
    k: int,
    *,
    tuple_cap: int,
    dense_cap: int,
) -> Fraction:
    """sum over x of (sum_j coefficients[j] * gates[j](x))^k."""
    total = Fraction(0)
    for combo in combinations_with_replacement(range(len(gates)), k):
        mult = math.factorial(k)
        for c in Counter(combo).values():
            mult //= math.factorial(c)
        coeff = Fraction(mult)
        for j in combo:
            coeff *= coefficients[j]
        if not coeff:
            continue
        value = sumprod(
            [gates[j] for j in combo],
            n,
            tuple_cap=tuple_cap,
            dense_cap=dense_cap,
        )
        total += coeff * value
    return total


def _common_form(gates) -> Optional[tuple[list[int], list[Fraction]]]:
    """(w, lambdas) when every gate's weights are lambdas[j] * w, else None.

    w is the primitive integer vector of the first gate with a nonzero
    weight, its first nonzero entry positive; all-zero gates get lambda 0.
    F_p polynomials have no linear form.
    """
    if not gates or not all(isinstance(g, LinearGate) for g in gates):
        return None
    first = next((g for g in gates if any(g.weights)), None)
    if first is None:
        return [0] * gates[0].n, [Fraction(0)] * len(gates)
    scale = math.lcm(*(x.denominator for x in first.weights))
    ints = [x.numerator * (scale // x.denominator) for x in first.weights]
    lead = next(i for i, x in enumerate(ints) if x)
    unit = math.gcd(*ints) * (1 if ints[lead] > 0 else -1)
    w = [x // unit for x in ints]
    lambdas = []
    for g in gates:
        lam = g.weights[lead] / w[lead]
        if any(x != lam * y for x, y in zip(g.weights, w)):
            return None
        lambdas.append(lam)
    return w, lambdas


def _form_table(coefficients, gates, n: int) -> Optional[tuple]:
    """f = sum_j coefficients[j] * gates[j] on its achievable sums s, as
    (n, counts, values, scale, bound): ``counts`` holds N(s) > 0 and
    ``values`` the exact integers scale * f(s), |values| <= bound.  None
    when the gates share no linear form or its histogram is too large."""
    form = _common_form(gates)
    if form is None:
        return None
    w, lambdas = form
    lo = sum(x for x in w if x < 0)
    hi = sum(x for x in w if x > 0)
    if n * (hi - lo + 1) >= _HISTOGRAM_CELLS:
        return None
    counts, _ = histogram([w], n)
    hit = np.flatnonzero(counts)
    counts = counts[hit]
    sums = hit + lo
    terms = []
    for c, gate, lam in zip(coefficients, gates, lambdas):
        piece = linear_piece(gate, lam) if c else None
        if piece is not None:
            slope, intercept, first, last = piece
            terms.append((c * slope, c * intercept, first, last))
    scale = math.lcm(*(x.denominator for t in terms for x in t[:2]))
    reach = max(-lo, hi)
    bound = sum(abs(a * scale) * reach + abs(b * scale) for a, b, _, _ in terms)
    dtype = int_dtype(bound)
    values = np.zeros(len(sums), dtype=dtype)
    cells = sums.astype(dtype)
    for a, b, first, last in terms:
        # sums is sorted, so each piece covers one slice of it; bounds
        # outside [lo, hi] are clipped first, as they may exceed int64
        i, j = 0, len(sums)
        if first is not None:
            i = np.searchsorted(sums, min(max(first, lo), hi + 1))
        if last is not None:
            j = np.searchsorted(sums, max(min(last, hi), lo - 1), "right")
        a, b = int(a * scale), int(b * scale)
        values[i:j] += a * cells[i:j] + b if a else b
    return n, counts, values, scale, int(bound)


def _cell_sum(table: tuple, degree: int, term) -> Fraction:
    """sum_s N(s) term(scale * f(s), scale) / scale^degree over a table from
    ``_form_table``, where term is a polynomial of that degree."""
    n, counts, values, scale, bound = table
    dtype = int_dtype((1 << n) * (bound + scale) ** degree)
    total = counts.astype(dtype) @ term(values.astype(dtype), scale)
    return Fraction(int(total), scale**degree)


def _boolean_verdict(deviation: Fraction) -> BooleanVerdict:
    if deviation < 0:
        raise InvariantViolation(
            f"negative Boolean deviation {deviation}: kernel inconsistency"
        )
    return BooleanVerdict(deviation == 0, deviation)


def _deviation(comb: LinComb, table: Optional[tuple], caps: dict) -> Fraction:
    """sum_x f^2 (f-1)^2: from the table, or as sum_x (f^2 - 2 f^3 + f^4)
    through Sum-Products of 2, 3 and 4 gates."""
    if table is not None:
        return _cell_sum(table, 4, lambda f, d: f * f * (f - d) * (f - d))
    p2 = _power_sum(comb.coefficients, comb.gates, comb.n, 2, **caps)
    p3 = _power_sum(comb.coefficients, comb.gates, comb.n, 3, **caps)
    p4 = _power_sum(comb.coefficients, comb.gates, comb.n, 4, **caps)
    return p2 - 2 * p3 + p4


def check_boolean(
    comb: LinComb,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> BooleanVerdict:
    """Decide whether the combination is {0,1}-valued on the whole cube.

    A one-form combination sums N(s) f(s)^2 (f(s)-1)^2 over its histogram;
    any other evaluates sum_x (f^2 - 2 f^3 + f^4) through Sum-Products of 2,
    3 and 4 gates.  The sum is pointwise nonnegative, so a negative result
    can only come from a broken kernel and raises InvariantViolation.
    """
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    table = _form_table(comb.coefficients, comb.gates, comb.n)
    return _boolean_verdict(_deviation(comb, table, caps))


def count_sat(
    comb: LinComb,
    *,
    unchecked: bool = False,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> int:
    """|{x : f(x) = 1}| for a Boolean-valued combination f.

    Verifies Boolean-valuedness first unless ``unchecked`` is set; for a
    Boolean f the count is just sum_x f(x), which a one-form combination
    reads from the same histogram as its check and any other takes from one
    Sum-Product per gate.  A result outside [0, 2^n] or non-integral means f
    was not Boolean after all.
    """
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    table = _form_table(comb.coefficients, comb.gates, comb.n)
    if not unchecked:
        verdict = _boolean_verdict(_deviation(comb, table, caps))
        if not verdict.is_boolean:
            raise InvariantViolation(
                f"combination is not Boolean-valued (deviation {verdict.deviation})"
            )
    if table is not None:
        total = _cell_sum(table, 1, lambda f, d: f)
    else:
        total = Fraction(0)
        for coeff, gate in zip(comb.coefficients, comb.gates):
            total += coeff * sumprod([gate], comb.n, **caps)
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

    sum_x (f - g)^2 is the k=2 power sum of the merged combination with the
    right-hand coefficients negated: read from its histogram when all the
    merged gates share one linear form, else through Sum-Products of pairs.
    """
    if left.family != right.family:
        raise ValueError("combinations belong to different families")
    if left.n != right.n:
        raise ValueError("combinations disagree on the number of variables")
    coefficients = tuple(left.coefficients) + tuple(-c for c in right.coefficients)
    gates = tuple(left.gates) + tuple(right.gates)
    table = _form_table(coefficients, gates, left.n)
    if table is not None:
        distance = _cell_sum(table, 2, lambda f, d: f * f)
    else:
        distance = _power_sum(
            coefficients,
            gates,
            left.n,
            2,
            tuple_cap=tuple_cap,
            dense_cap=dense_cap,
        )
    if distance < 0:
        raise InvariantViolation(
            f"negative squared distance {distance}: kernel inconsistency"
        )
    return EqualityVerdict(distance == 0, distance)
