"""Exact rewrites between gate families.

Threshold gates decompose into disjoint exact-threshold gates by enumerating
achievable values; conjunctions of exact-threshold gates collapse into a
single gate through base-B digit packing; a threshold gate equals the
difference of two ReLU gates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import CapExceeded
from .gates import ExactThresholdGate, ReluGate, ThresholdGate, integer_weights
from .sumprod import _packed_base, _packed_weights

DEFAULT_TERM_CAP = 10**6


def thr_to_ethrs(
    gate: ThresholdGate, term_cap: int = DEFAULT_TERM_CAP
) -> list[ExactThresholdGate]:
    """Disjoint exact-threshold gates whose union of supports is the gate's.

    Requires integer weights (apply normalize_integer first).  The targets run
    from the threshold up to the largest achievable sum; targets outside the
    achievable range [sum of negative weights, sum of positive weights] are
    pruned.  Exactly one returned gate fires on any point the threshold gate
    accepts, and none fires elsewhere.
    """
    ws = integer_weights(gate)
    g = math.gcd(*ws) or 1
    # every achievable sum is a multiple of g, so the first target is too
    start = max(sum(w for w in ws if w < 0), -(-math.ceil(gate.threshold) // g) * g)
    hi = sum(w for w in ws if w > 0)
    count = hi - start + 1
    if count > term_cap:
        raise CapExceeded(
            f"threshold decomposition needs {count} terms, cap is {term_cap}"
        )
    return [ExactThresholdGate(gate.weights, v) for v in range(start, hi + 1)]


def _integral_ethr(gate: ExactThresholdGate) -> tuple[list[int], int]:
    ws = integer_weights(gate)
    if gate.target.denominator != 1:
        raise ValueError("gate has a non-integer target; apply normalize_integer")
    return ws, gate.target.numerator


def collapse_base(gates: Sequence[ExactThresholdGate]) -> int:
    """Base B = 2 * sum_i (sum_j |w_ij| + |t_i|) + 1.

    B exceeds twice every per-gate linear-form magnitude, so the per-gate
    digits of a packed sum cannot interfere: the packed form is zero iff every
    digit is zero.
    """
    pairs = map(_integral_ethr, gates)
    return _packed_base([(sum(map(abs, ws)), abs(t)) for ws, t in pairs])


def collapse_ethr_conjunction(
    gates: Sequence[ExactThresholdGate],
) -> ExactThresholdGate:
    """One exact-threshold gate firing exactly where all inputs fire.

    Weights are sum_i B^(i-1) * w_i componentwise and the target is
    sum_i B^(i-1) * t_i, B = ``collapse_base(gates)``.  Requires integer
    weights and targets sharing n.
    """
    if not gates:
        raise ValueError("cannot collapse an empty conjunction")
    n = gates[0].n
    for g in gates:
        if g.n != n:
            raise ValueError("gates disagree on the number of variables")
    rows, targets = zip(*(_integral_ethr(g) for g in gates))
    base = collapse_base(gates)
    weights = _packed_weights(rows, base, n)
    target = sum(t * base**i for i, t in enumerate(targets))
    return ExactThresholdGate(tuple(Fraction(w) for w in weights), Fraction(target))


def thr_to_relu_pair(gate: ThresholdGate) -> tuple[ReluGate, ReluGate]:
    """(plus, minus) with plus(x) - minus(x) = [<w,x> >= t] pointwise.

    Requires integer weights and an integer threshold: for integer y,
    max{0, y+1} - max{0, y} is 1 when y >= 0 and 0 when y <= -1.
    """
    integer_weights(gate)
    if gate.threshold.denominator != 1:
        raise ValueError("gate has a non-integer threshold; apply normalize_integer")
    plus = ReluGate(gate.weights, 1 - gate.threshold)
    minus = ReluGate(gate.weights, -gate.threshold)
    return plus, minus
