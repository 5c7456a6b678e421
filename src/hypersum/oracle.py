"""Brute-force full-enumeration references.

Every function here visits all 2^n points; nothing clever happens by design.
A vectorized integer path handles the common case (all magnitudes provably
below int64 range, checked with exact Python ints); otherwise a pure-Python
exact loop takes over.  Results are identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CapExceeded
from .gates import (
    ExactThresholdGate,
    FpPolynomial,
    Gate,
    LinComb,
    ReluGate,
    ThresholdGate,
    bits_from_mask,
    eval_lincomb,
    gate_value,
    normalize_integer,
)

DEFAULT_ORACLE_CAP = 24
_BLOCK = 1 << 20
_INT64_BOUND = 1 << 62


def _require_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"oracle asked for n={n}, cap is {cap}")


def _blocks(n: int):
    size = 1 << n
    step = min(size, _BLOCK)
    for start in range(0, size, step):
        yield start, np.arange(start, min(start + step, size), dtype=np.int64)


@dataclass(frozen=True)
class _ScaledGate:
    """Integer view of a gate: int64 block values = scale * true values."""

    kind: str
    weights: tuple[int, ...]
    const: int  # threshold / target / bias, in the scaled form
    scale: int  # 1 for thr/ethr/fp
    p: int = 0
    monomials: tuple[tuple[int, int], ...] = ()
    bound: int = 1  # max |scaled value| over the cube

    def block_values(self, masks: np.ndarray) -> np.ndarray:
        if self.kind == "fp":
            acc = np.zeros(len(masks), dtype=np.int64)
            for mono, coeff in self.monomials:
                acc += coeff * ((masks & mono) == mono)
            return acc % self.p
        dot = np.zeros(len(masks), dtype=np.int64)
        for i, w in enumerate(self.weights):
            if w:
                dot += w * ((masks >> i) & 1)
        if self.kind == "thr":
            return (dot >= self.const).astype(np.int64)
        if self.kind == "ethr":
            return (dot == self.const).astype(np.int64)
        dot += self.const
        np.maximum(dot, 0, out=dot)
        return dot


def _scaled_gate(gate: Gate) -> Optional[_ScaledGate]:
    if isinstance(gate, FpPolynomial):
        items = tuple(sorted(gate.monomials.items()))
        if (len(items) + 1) * gate.p >= _INT64_BOUND:
            return None
        return _ScaledGate("fp", (), 0, 1, gate.p, items, bound=gate.p - 1)
    norm, scale = normalize_integer(gate)
    ws = tuple(w.numerator for w in norm.weights)
    if isinstance(norm, ThresholdGate):
        const, kind, bound = norm.threshold.numerator, "thr", 1
    elif isinstance(norm, ExactThresholdGate):
        const, kind, bound = norm.target.numerator, "ethr", 1
    else:
        assert isinstance(norm, ReluGate)
        const, kind = norm.bias.numerator, "relu"
        bound = sum(abs(w) for w in ws) + abs(const)
    if sum(abs(w) for w in ws) + abs(const) >= _INT64_BOUND:
        return None
    return _ScaledGate(
        kind, ws, const, scale.numerator if kind == "relu" else 1, bound=bound
    )


def _infer_n(gates: Sequence[Gate], n: Optional[int]) -> int:
    if gates:
        inferred = gates[0].n
        for g in gates:
            if g.n != inferred:
                raise ValueError("gates disagree on the number of variables")
        if n is not None and n != inferred:
            raise ValueError(f"explicit n={n} disagrees with gates (n={inferred})")
        return inferred
    if n is None:
        raise ValueError("n is required when the gate list is empty")
    return n


def oracle_sumprod(
    gates: Sequence[Gate], n: Optional[int] = None, *, cap: int = DEFAULT_ORACLE_CAP
) -> Union[int, Fraction]:
    """Exact sum over all 2^n points of the product of gate values.

    FP_POLY values are lifted to {0..p-1} before multiplying.  The empty
    product is 1, so k=0 returns 2^n.
    """
    n = _infer_n(gates, n)
    _require_cap(n, cap)
    if not gates:
        return 1 << n
    scaled = [_scaled_gate(g) for g in gates]
    if all(s is not None for s in scaled):
        denom = 1
        prod_bound = 1
        for s in scaled:
            denom *= s.scale
            prod_bound *= max(s.bound, 1)
        if prod_bound * (1 << n) < _INT64_BOUND:
            total = 0
            for _, masks in _blocks(n):
                prod = scaled[0].block_values(masks)
                for s in scaled[1:]:
                    prod = prod * s.block_values(masks)
                total += int(prod.sum())
            return total if denom == 1 else Fraction(total, denom)
    total = Fraction(0)
    for mask in range(1 << n):
        x = bits_from_mask(mask, n)
        term = Fraction(1)
        for g in gates:
            term *= gate_value(g, x)
            if not term:
                break
        total += term
    return total if total.denominator != 1 else total.numerator


@dataclass(frozen=True)
class OracleBooleanCheck:
    is_boolean: bool
    witness: Optional[tuple[int, ...]] = None
    value: Optional[Fraction] = None


def _scaled_combination(comb: LinComb):
    """(int coefficients, scaled gates, M) with M*f = sum c_j * scaled_j, or None."""
    scaled = [_scaled_gate(g) for g in comb.gates]
    if any(s is None for s in scaled):
        return None
    m = 1
    for coeff, s in zip(comb.coefficients, scaled):
        m = math.lcm(m, coeff.denominator * s.scale)
    coeffs = []
    for c, s in zip(comb.coefficients, scaled):
        v = Fraction(m) * c / s.scale
        assert v.denominator == 1
        coeffs.append(v.numerator)
    bound = sum(abs(c) * max(s.bound, 1) for c, s in zip(coeffs, scaled))
    if bound + abs(m) >= _INT64_BOUND:
        return None
    return coeffs, scaled, m


def oracle_check_boolean(
    comb: LinComb, *, cap: int = DEFAULT_ORACLE_CAP
) -> OracleBooleanCheck:
    """Scan points in mask order; report the first non-{0,1} value if any."""
    n = comb.n
    _require_cap(n, cap)
    fast = _scaled_combination(comb)
    if fast is not None:
        coeffs, scaled, m = fast
        for start, masks in _blocks(n):
            acc = np.zeros(len(masks), dtype=np.int64)
            for c, s in zip(coeffs, scaled):
                if c:
                    acc += c * s.block_values(masks)
            bad = (acc != 0) & (acc != m)
            if bad.any():
                mask = start + int(np.argmax(bad))
                x = bits_from_mask(mask, n)
                return OracleBooleanCheck(False, x, eval_lincomb(comb, x))
        return OracleBooleanCheck(True)
    for mask in range(1 << n):
        x = bits_from_mask(mask, n)
        v = eval_lincomb(comb, x)
        if v != 0 and v != 1:
            return OracleBooleanCheck(False, x, v)
    return OracleBooleanCheck(True)


def oracle_count_sat(comb: LinComb, *, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """|{x : f(x) = 1}| for a Boolean-valued combination.

    Raises ValueError at the first point whose value is outside {0, 1}.
    """
    n = comb.n
    _require_cap(n, cap)
    fast = _scaled_combination(comb)
    if fast is not None:
        coeffs, scaled, m = fast
        total = 0
        for start, masks in _blocks(n):
            acc = np.zeros(len(masks), dtype=np.int64)
            for c, s in zip(coeffs, scaled):
                if c:
                    acc += c * s.block_values(masks)
            bad = (acc != 0) & (acc != m)
            if bad.any():
                mask = start + int(np.argmax(bad))
                x = bits_from_mask(mask, n)
                raise ValueError(
                    f"combination is not Boolean-valued: f{tuple(x)} = {eval_lincomb(comb, x)}"
                )
            total += int((acc == m).sum())
        return total
    total = 0
    for mask in range(1 << n):
        x = bits_from_mask(mask, n)
        v = eval_lincomb(comb, x)
        if v == 1:
            total += 1
        elif v != 0:
            raise ValueError(f"combination is not Boolean-valued: f{tuple(x)} = {v}")
    return total


def oracle_count_fp_system(
    polys: Sequence[FpPolynomial],
    targets: Sequence[int],
    *,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """|{x : polys[i](x) = targets[i] mod p for every i}| by full enumeration."""
    if not polys:
        raise ValueError("need at least one polynomial")
    if len(polys) != len(targets):
        raise ValueError("polynomial/target count mismatch")
    n = _infer_n(polys, None)
    p = polys[0].p
    for q in polys:
        if q.p != p:
            raise ValueError("polynomials disagree on the prime")
    _require_cap(n, cap)
    targets = [t % p for t in targets]
    scaled = [_scaled_gate(q) for q in polys]
    if all(s is not None for s in scaled):
        total = 0
        for _, masks in _blocks(n):
            ok = np.ones(len(masks), dtype=bool)
            for s, t in zip(scaled, targets):
                ok &= s.block_values(masks) == t
            total += int(ok.sum())
        return total
    total = 0
    for mask in range(1 << n):
        x = bits_from_mask(mask, n)
        if all(gate_value(q, x) == t for q, t in zip(polys, targets)):
            total += 1
    return total
