"""Boolean-valuedness, satisfying-assignment counts, and equality of
sparse linear combinations, all reduced to Sum-Product queries.

A combination f is Boolean-valued iff sum_x f^2 (f-1)^2 = 0; that sum
expands into Sum-Products of at most four gates at a time, so no point of
the cube is ever enumerated directly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import InvariantViolation
from .fppoly import DEFAULT_DENSE_CAP
from .gates import LinComb
from .sumprod import DEFAULT_TUPLE_CAP, sumprod


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


def check_boolean(
    comb: LinComb,
    *,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> BooleanVerdict:
    """Decide whether the combination is {0,1}-valued on the whole cube.

    Evaluates sum_x (f^2 - 2 f^3 + f^4) through Sum-Products of 2, 3 and 4
    gates.  The sum is pointwise nonnegative, so a negative result can only
    come from a broken kernel and raises InvariantViolation.
    """
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    p2 = _power_sum(comb.coefficients, comb.gates, comb.n, 2, **caps)
    p3 = _power_sum(comb.coefficients, comb.gates, comb.n, 3, **caps)
    p4 = _power_sum(comb.coefficients, comb.gates, comb.n, 4, **caps)
    deviation = p2 - 2 * p3 + p4
    if deviation < 0:
        raise InvariantViolation(
            f"negative Boolean deviation {deviation}: kernel inconsistency"
        )
    return BooleanVerdict(deviation == 0, deviation)


def count_sat(
    comb: LinComb,
    *,
    unchecked: bool = False,
    tuple_cap: int = DEFAULT_TUPLE_CAP,
    dense_cap: int = DEFAULT_DENSE_CAP,
) -> int:
    """|{x : f(x) = 1}| for a Boolean-valued combination f.

    Verifies Boolean-valuedness first unless ``unchecked`` is set; for a
    Boolean f the count is just sum_x f(x).  A result outside [0, 2^n] or
    non-integral means f was not Boolean after all.
    """
    caps = dict(tuple_cap=tuple_cap, dense_cap=dense_cap)
    if not unchecked:
        verdict = check_boolean(comb, **caps)
        if not verdict.is_boolean:
            raise InvariantViolation(
                f"combination is not Boolean-valued (deviation {verdict.deviation})"
            )
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
    right-hand coefficients negated.
    """
    if left.family != right.family:
        raise ValueError("combinations belong to different families")
    if left.n != right.n:
        raise ValueError("combinations disagree on the number of variables")
    coefficients = tuple(left.coefficients) + tuple(-c for c in right.coefficients)
    gates = tuple(left.gates) + tuple(right.gates)
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
