"""Gate families and exact pointwise evaluation.

All arithmetic is exact: weights, thresholds and biases are
``fractions.Fraction``, field coefficients are Python ints.  Points of the
hypercube are 0/1 sequences; where a point is packed into an integer mask,
bit i of the mask encodes x_{i+1} (little-endian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import ClassVar, Iterable, Optional, Sequence, Union

Rational = Union[int, str, Fraction]


class Family(str, Enum):
    THR = "thr"
    ETHR = "ethr"
    RELU = "relu"
    FP_POLY = "fp"


def as_fraction(x: Rational) -> Fraction:
    """Coerce an int, decimal string ("3", "-1/2") or Fraction to Fraction.

    A Fraction is returned itself, so a value is built into a Fraction once
    however many constructors it passes through; an instance of a Fraction
    subclass becomes a plain Fraction.  Floats are rejected: they would
    smuggle rounding into exact arithmetic.  So are booleans, which Python
    counts as ints but are not numbers.  A zero denominator raises
    ValueError.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("floats are not accepted; use int, Fraction or 'p/q' string")
    if isinstance(x, bool):
        raise TypeError(f"booleans are not accepted as numbers: {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None


def bits_from_mask(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def mask_from_bits(bits: Sequence[int]) -> int:
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def _check_point(x: Sequence[int], n: int) -> None:
    if len(x) != n:
        raise ValueError(f"point has {len(x)} coordinates, gate expects {n}")


def _fraction_weights(ws: Iterable[Rational]) -> tuple[Fraction, ...]:
    out = tuple(as_fraction(w) for w in ws)
    if not out:
        raise ValueError("gate needs at least one variable")
    return out


@dataclass(frozen=True)
class LinearGate:
    """A gate that is a function of one linear form <w, x> and one rational
    constant: the subclass's second field, named by ``_constant``."""

    weights: tuple[Fraction, ...]
    _constant: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _fraction_weights(self.weights))
        name = self._constant
        object.__setattr__(self, name, as_fraction(getattr(self, name)))

    @property
    def n(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ThresholdGate(LinearGate):
    """[sum_i w_i x_i >= t], valued in {0, 1}."""

    threshold: Fraction
    _constant = "threshold"


@dataclass(frozen=True)
class ExactThresholdGate(LinearGate):
    """[sum_i w_i x_i = t], valued in {0, 1}."""

    target: Fraction
    _constant = "target"


@dataclass(frozen=True)
class ReluGate(LinearGate):
    """max{0, sum_i w_i x_i + a}, valued in the non-negative rationals."""

    bias: Fraction
    _constant = "bias"


# Miller-Rabin with the 13 primes 2..41 as bases decides every p below
# psi_13 exactly (Sorenson and Webster 2015); psi_13 itself passes all 13
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether p is prime, decided exactly for p below ``_PRIME_BOUND`` by
    Miller-Rabin on ``_PRIME_BASES``; a larger p raises ValueError."""
    if p >= _PRIME_BOUND:
        raise ValueError(
            f"p={p} is too large: primality is decided only below {_PRIME_BOUND}"
        )
    if p < 2:
        return False
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^r with d odd
    d = (p - 1) >> r
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, eq=True)
class FpPolynomial:
    """Multilinear polynomial over F_p with subset monomials.

    ``monomials`` maps a variable-subset mask (bit i = variable x_{i+1}) to a
    coefficient in {1, ..., p-1}; the constructor reduces mod p and drops
    zeros.
    """

    p: int
    n: int
    monomials: dict[int, int]

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.n < 1:
            raise ValueError("n must be positive")
        reduced: dict[int, int] = {}
        for mask, coeff in self.monomials.items():
            if mask < 0 or mask >> self.n:
                raise ValueError(f"monomial mask {mask} out of range for n={self.n}")
            c = coeff % self.p
            if c:
                reduced[mask] = c
        object.__setattr__(self, "monomials", reduced)

    __hash__ = None  # type: ignore[assignment]

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)

    @classmethod
    def from_terms(
        cls,
        p: int,
        n: int,
        terms: Iterable[tuple[Iterable[int], int]],
    ) -> "FpPolynomial":
        """Build from (variables, coeff) pairs with 1-indexed variables."""
        monomials: dict[int, int] = {}
        for variables, coeff in terms:
            mask = 0
            for v in variables:
                if not 1 <= v <= n:
                    raise ValueError(f"variable index {v} out of range 1..{n}")
                mask |= 1 << (v - 1)
            monomials[mask] = monomials.get(mask, 0) + coeff
        return cls(p, n, monomials)


Gate = Union[ThresholdGate, ExactThresholdGate, ReluGate, FpPolynomial]

_FAMILY_TYPES = {
    Family.THR: ThresholdGate,
    Family.ETHR: ExactThresholdGate,
    Family.RELU: ReluGate,
    Family.FP_POLY: FpPolynomial,
}


def _shared_n(gates: Sequence[Gate], n: Optional[int]) -> int:
    """The number of variables of a product: the gates' common n, which an
    explicit ``n`` must match; an empty product needs ``n``."""
    if n is not None and n < 0:
        raise ValueError("n must be non-negative")
    if not gates:
        if n is None:
            raise ValueError("n is required when no gates are given")
        return n
    sizes = {g.n for g in gates}
    if len(sizes) != 1:
        raise ValueError("gates disagree on the number of variables")
    size = sizes.pop()
    if n is not None and n != size:
        raise ValueError(f"explicit n={n} disagrees with the gates")
    return size


def _form(g: LinearGate, x: Sequence[int]) -> Fraction:
    """<w, x> for the gate's weights w."""
    _check_point(x, g.n)
    acc = Fraction(0)
    for w, b in zip(g.weights, x):
        if b:
            acc += w
    return acc


def eval_thr(g: ThresholdGate, x: Sequence[int]) -> int:
    return 1 if _form(g, x) >= g.threshold else 0


def eval_ethr(g: ExactThresholdGate, x: Sequence[int]) -> int:
    return 1 if _form(g, x) == g.target else 0


def eval_relu(g: ReluGate, x: Sequence[int]) -> Fraction:
    acc = _form(g, x) + g.bias
    return acc if acc > 0 else Fraction(0)


def _over_lcm(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [v * d for v in values]) for d the lcm of the values'
    denominators: the values as integers over one common denominator."""
    d = math.lcm(*[x.denominator for x in values])
    if d == 1:
        return 1, [x.numerator for x in values]
    return d, [x.numerator * (d // x.denominator) for x in values]


def _primitive_form(gate: LinearGate):
    """(w, lam) with the gate's weights lam * w, for the primitive integer
    vector w whose first nonzero entry is positive; lam is an int when the
    weights are.  An all-zero gate gives its zero weights and lam = 0."""
    scale, ints = _over_lcm(gate.weights)
    unit = math.gcd(*ints)
    if not unit:
        return tuple(ints), 0
    if next(x for x in ints if x) < 0:
        unit = -unit
    w = tuple(ints) if unit == 1 else tuple([x // unit for x in ints])
    return w, unit if scale == 1 else Fraction(unit, scale)


def _gate_row(gate: LinearGate):
    """The gate as a row (w, s, h, a, b, scale, span), or None when it is 0
    at every point.

    w is its primitive form (``_primitive_form``), whose first nonzero entry
    is positive, and span the sum of |w|.  The gate accepts the achievable
    sums t = <w, x> in [s, h], is (a t + b) * scale there and 0 at every
    other point.  a and b are coprime integers, with a = 0 and b = 1 for
    threshold and exact-threshold gates and on rows of width 0; scale > 0
    is 1 for those gates and an int or a Fraction for ReLU gates.  An
    all-zero gate that is not 0 everywhere is a row of width 0 at s = h = 0.
    """
    w, lam = _primitive_form(gate)
    c = getattr(gate, gate._constant)
    relu = isinstance(gate, ReluGate)
    exact = isinstance(gate, ExactThresholdGate)
    total, span = sum(w), sum(map(abs, w))
    s, h = (total - span) // 2, (total + span) // 2
    if lam:
        # num / den, den > 0, is the sum where lam t meets the constant (ReLU:
        # its negation); it is rounded on integers, without building a Fraction
        num = (-c.numerator if relu else c.numerator) * lam.denominator
        den = c.denominator * lam.numerator
        if den < 0:
            num, den = -num, -den
        if exact:  # [lam t = c]
            if num % den:
                return None
            s, h = max(s, num // den), min(h, num // den)
        elif lam > 0:  # [lam t >= c], or max(0, lam t + c) > 0 beyond num / den
            s = max(s, num // den + 1 if relu else -(-num // den))
        else:
            h = min(h, -(-num // den) - 1 if relu else num // den)
        if s > h:
            return None
    elif not (c > 0 if relu else c == 0 if exact else c <= 0):
        return None  # an all-zero gate that is 0 at t = 0, so everywhere
    if not relu:
        return w, s, h, 0, 1, 1, span
    # lam t + c = (a t + b) / d with d = the denominators' product; then the
    # gcd of a and b moves into the scale
    a, b = lam.numerator * c.denominator, c.numerator * lam.denominator
    d = lam.denominator * c.denominator
    if s == h:
        a, b = 0, a * s + b
    g = math.gcd(a, b)
    return w, s, h, a // g, b // g, g if d == 1 else Fraction(g, d), span


def eval_fp(q: FpPolynomial, x: Sequence[int]) -> int:
    """Value in {0, ..., p-1}; a monomial contributes iff all its variables are 1."""
    _check_point(x, q.n)
    mask = mask_from_bits(x)
    acc = 0
    for mono, coeff in q.monomials.items():
        if mono & mask == mono:
            acc += coeff
    return acc % q.p


def gate_value(gate: Gate, x: Sequence[int]) -> Union[int, Fraction]:
    if isinstance(gate, ThresholdGate):
        return eval_thr(gate, x)
    if isinstance(gate, ExactThresholdGate):
        return eval_ethr(gate, x)
    if isinstance(gate, ReluGate):
        return eval_relu(gate, x)
    if isinstance(gate, FpPolynomial):
        return eval_fp(gate, x)
    raise TypeError(f"unknown gate type {type(gate).__name__}")


@dataclass(frozen=True)
class LinComb:
    """A sparse linear combination sum_i alpha_i * gate_i of same-family gates."""

    family: Family
    coefficients: tuple[Fraction, ...]
    gates: tuple[Gate, ...]
    n: int = -1  # -1: infer from the first gate

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(
            self, "coefficients", tuple(as_fraction(c) for c in self.coefficients)
        )
        object.__setattr__(self, "gates", tuple(self.gates))
        if len(self.coefficients) != len(self.gates):
            raise ValueError("coefficient/gate count mismatch")
        typ = _FAMILY_TYPES[self.family]
        for g in self.gates:
            if not isinstance(g, typ):
                raise ValueError(
                    f"gate {type(g).__name__} does not belong to family {self.family.value}"
                )
        if self.n == -1:
            if not self.gates:
                raise ValueError("n is required for an empty combination")
            object.__setattr__(self, "n", self.gates[0].n)
        if self.n < 1:
            raise ValueError("n must be positive")
        for g in self.gates:
            if g.n != self.n:
                raise ValueError("gates disagree on the number of variables")
        if self.family is Family.FP_POLY:
            primes = {g.p for g in self.gates}
            if len(primes) > 1:
                raise ValueError("fp gates disagree on the prime")

    @property
    def sparsity(self) -> int:
        return len(self.gates)


def eval_lincomb(c: LinComb, x: Sequence[int]) -> Fraction:
    _check_point(x, c.n)
    acc = Fraction(0)
    for coeff, gate in zip(c.coefficients, c.gates):
        acc += coeff * gate_value(gate, x)
    return acc


def normalize_integer(gate: Gate) -> tuple[Gate, Fraction]:
    """Rescale a gate to integer weights, returning (gate, scale).

    Weights and constant are scaled by the LCD of the weights' denominators
    and, except for THR, the constant's, then the constant is ceiled.  THR:
    integer sums make [s >= t] and [s >= ceil(t)] agree — same function.
    ETHR: the scaled target is already an integer — same function.  RELU:
    the normalized gate evaluates to scale times the original, so callers
    divide by the returned scale.  A gate that is already integral is
    returned itself with scale 1.
    """
    if not isinstance(gate, LinearGate):
        raise TypeError(f"cannot normalize {type(gate).__name__}")
    constant = getattr(gate, gate._constant)
    denominators = [w.denominator for w in gate.weights]
    if not isinstance(gate, ThresholdGate):
        denominators.append(constant.denominator)
    scale = math.lcm(*denominators)
    if scale == 1 and constant.denominator == 1:
        return gate, Fraction(1)
    weights = tuple(Fraction(w * scale) for w in gate.weights)
    return type(gate)(weights, Fraction(math.ceil(constant * scale))), Fraction(scale)


def integer_weights(gate: LinearGate) -> list[int]:
    """The weights as plain ints; raises if any weight is fractional."""
    out = []
    for w in gate.weights:
        if w.denominator != 1:
            raise ValueError("gate has non-integer weights; apply normalize_integer")
        out.append(w.numerator)
    return out
