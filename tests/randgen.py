"""Seeded random instance generators for gates and combinations.

All generators take a random.Random so callers control reproducibility.
Threshold-style generators draw the threshold near the top of the achievable
range, which keeps product expansions small, and resample the whole instance
when the expansion would still be too large.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from hypersum.gates import (
    ExactThresholdGate,
    Family,
    FpPolynomial,
    LinComb,
    ReluGate,
    ThresholdGate,
)

DEFAULT_MAX_TUPLES = 5000


def _rand_weights(rng: random.Random, n: int, bound: int) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(n)]


def rand_thr_instance(
    rng: random.Random,
    n: int,
    k: int,
    *,
    weight_bound: int = 8,
    window: int = 24,
    unsat_rate: float = 0.05,
    frac_rate: float = 0.25,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> list[ThresholdGate]:
    """k threshold gates on n variables with a bounded product expansion.

    Thresholds sit within ``window`` of the maximum achievable sum (a few are
    made unsatisfiable, a few half-integral); instances whose expansion
    exceeds ``max_tuples`` tuples are redrawn.
    """
    while True:
        gates = []
        expansion = 1
        for _ in range(k):
            ws = _rand_weights(rng, n, weight_bound)
            lo = sum(w for w in ws if w < 0)
            hi = sum(w for w in ws if w > 0)
            if rng.random() < unsat_rate:
                t = Fraction(hi + rng.randint(1, 3))
                expansion = 0
            else:
                j = rng.randint(0, min(hi - lo, window))
                t = Fraction(hi - j)
                if rng.random() < frac_rate:
                    t -= Fraction(1, 2)
                expansion *= j + 1
            gates.append(ThresholdGate(tuple(Fraction(w) for w in ws), t))
        if expansion <= max_tuples:
            return gates


def rand_ethr_instance(
    rng: random.Random,
    n: int,
    k: int,
    *,
    weight_bound: int = 8,
) -> list[ExactThresholdGate]:
    """k exact-threshold gates; half the targets are sums of actual points,
    so those gates are guaranteed satisfiable."""
    gates = []
    for _ in range(k):
        ws = _rand_weights(rng, n, weight_bound)
        if rng.random() < 0.5:
            point = rng.getrandbits(n)
            t = sum(w for j, w in enumerate(ws) if point >> j & 1)
        else:
            lo = sum(w for w in ws if w < 0)
            hi = sum(w for w in ws if w > 0)
            t = rng.randint(lo, hi)
        gates.append(ExactThresholdGate(tuple(Fraction(w) for w in ws), Fraction(t)))
    return gates


def rand_relu_instance(
    rng: random.Random,
    n: int,
    k: int,
    *,
    num_bound: int = 8,
    den_bound: int = 4,
    window: int = 24,
    const_rate: float = 0.15,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> list[ReluGate]:
    """k ReLU gates with rational weights sharing a per-gate denominator.

    Most biases put the positive support within ``window`` of the maximum
    sum; a few gates are strictly positive everywhere.  Instances whose
    product expansion exceeds ``max_tuples`` tuples are redrawn.
    """
    while True:
        gates = []
        expansion = 1
        for _ in range(k):
            den = rng.randint(1, den_bound)
            nums = _rand_weights(rng, n, num_bound)
            ws = tuple(Fraction(v, den) for v in nums)
            lo = sum(v for v in nums if v < 0)
            hi = sum(v for v in nums if v > 0)
            if rng.random() < const_rate:
                bias = Fraction(-lo + rng.randint(1, 2), den)
                expansion *= hi - lo + 1
            else:
                j = rng.randint(0, min(hi - lo, window))
                bias = Fraction(1 - (hi - j), den)
                expansion *= j + 1
            gates.append(ReluGate(ws, bias))
        if expansion <= max_tuples:
            return gates


def rand_fp_poly(
    rng: random.Random,
    p: int,
    n: int,
    d: int,
    *,
    max_monomials: int = 8,
) -> FpPolynomial:
    """A random polynomial over F_p of degree at most d on n variables."""
    monomials: dict[int, int] = {}
    for _ in range(rng.randint(1, max_monomials)):
        if rng.random() < 0.1:
            mask = 0
        else:
            size = rng.randint(1, min(d, n))
            mask = 0
            for v in rng.sample(range(n), size):
                mask |= 1 << v
        monomials[mask] = monomials.get(mask, 0) + rng.randint(1, p - 1)
    return FpPolynomial(p, n, monomials)


def rand_boolean_ethr_comb(rng: random.Random, n: int, k: int) -> LinComb:
    """A Boolean-valued combination of exact-threshold gates.

    One shared weight vector with k distinct targets, each the sum at an
    actual random point: supports are disjoint and nonempty, so the sum of
    the indicators is {0,1}-valued and every gate has a witness.
    """
    ws = _rand_weights(rng, n, 8)
    targets: list[int] = []
    while len(targets) < k:
        point = rng.getrandbits(n)
        t = sum(w for j, w in enumerate(ws) if point >> j & 1)
        if t not in targets:
            targets.append(t)
    weights = tuple(Fraction(w) for w in ws)
    coefficients: list[Fraction] = []
    gates: list[ExactThresholdGate] = []
    for t in targets:
        gate = ExactThresholdGate(weights, Fraction(t))
        if rng.random() < 0.3:
            # same indicator split across two terms, still summing to 1
            coefficients += [Fraction(1, 3), Fraction(2, 3)]
            gates += [gate, gate]
        else:
            coefficients.append(Fraction(1))
            gates.append(gate)
    return LinComb(Family.ETHR, tuple(coefficients), tuple(gates))


def _and_gate(subset: Sequence[int], n: int) -> ThresholdGate:
    ws = [Fraction(1) if j in subset else Fraction(0) for j in range(n)]
    return ThresholdGate(tuple(ws), Fraction(len(subset)))


def rand_boolean_thr_comb(rng: random.Random, n: int) -> LinComb:
    """OR of two ANDs via inclusion-exclusion: AND(S1) + AND(S2) - AND(S1|S2).

    Boolean-valued, and every gate fires at the all-ones point.
    """
    s1 = set(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
    s2 = set(rng.sample(range(n), rng.randint(1, max(1, n // 2))))
    gates = (_and_gate(sorted(s1), n), _and_gate(sorted(s2), n), _and_gate(sorted(s1 | s2), n))
    coefficients = (Fraction(1), Fraction(1), Fraction(-1))
    return LinComb(Family.THR, coefficients, gates)


def perturb_comb(rng: random.Random, comb: LinComb) -> LinComb:
    """Shift one coefficient by 1/3.

    If the chosen gate has a witness the perturbed combination takes a value
    off {0,1} there, so combinations built by the generators above become
    provably non-Boolean.
    """
    i = rng.randrange(comb.sparsity)
    coefficients = list(comb.coefficients)
    coefficients[i] += Fraction(1, 3)
    return LinComb(comb.family, tuple(coefficients), comb.gates, comb.n)
