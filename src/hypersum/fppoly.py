"""Root counting, systems and Sum-Products for low-degree polynomials over F_p.

A root count, a system count and a Sum-Product of k polynomials are one sum
over x of prod_j lift_j(polys[j](x)), ``_lifted_sum``: lift_j is the
indicator of targets[j] mod p for ``count_system`` (and ``count_roots``, the
one-polynomial system q = 0) and the value in 0..p-1 itself for
``sumprod_fp``.  ``_lifted_sum`` alone picks their kernel, and each of the
four kernels reads the lifts:

- Degree at most 1, within ``_linear_sum``'s bounds: each polynomial is a
  row on its primitive form, as a gate is in ``sumprod``, and
  ``mitm.box_sum`` reads one histogram axis per distinct form.  Neither
  ``dense_cap`` nor ``tuple_cap`` binds it.
- One polynomial q of degree d with m = floor(n/(6dp)) >= 1: the fast root
  counter splits off the last m variables, sums a modulus-amplified
  indicator over all suffix assignments, and reads per-prefix suffix-root
  counts out of the residues of a single polynomial over the remaining
  variables.  It counts the roots of q - v for each v in the lift's
  support: once for a system, p - 1 times for a Sum-Product.
- The k dense value tables, ``_dense_sum`` (k * 2^n work for any p), for
  one polynomial with m = 0 and wherever ``_reads_dense`` takes them: the
  lifted tables are multiplied into one product a table at a time, starting
  from the first.  When top, the product of the lifts' largest values, is 1
  (a system, or a Sum-Product over F_2) the product is a bool mask counted
  with ``np.count_nonzero``; otherwise it is held in the narrowest signed
  type that holds top ((p-1)^k) and summed in ``int_dtype(top << n)``.
- For k >= 2 only, the value-tuple pass ``_accumulators`` over the product
  of the lifts' supports (one tuple for a system, (p-1)^k for a
  Sum-Product), each tuple weighted by the product of its lifts.  It
  answers only where the dense tables pass ``dense_cap`` and m >= 1
  (``_reads_dense``).  Its root counts are one-polynomial questions, so
  they never come back to the pass.

Every dense table comes from one zeta transform with a single reduction at
the end.  Past 2^13 entries the transform is blocked: the table is viewed as
rows of 2^8 points that share the high bits of their masks, the passes for
the 8 low bits run only on the rows that hold a monomial, on transposed
blocks so that each pass adds along a contiguous axis, and the passes for
the high bits then run in place over the whole table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import CapExceeded, InvariantViolation
from .gates import FpPolynomial, _is_prime, _shared_n
from .mitm import _BOX_CELLS, box_sum, form_axes, int_dtype

DEFAULT_DENSE_CAP = 26
_INT32_BOUND = 1 << 31
# tables over at most this many variables run every zeta pass in place; timed
# at n = 11-16 with 6-100 monomials between cache-evicting calls, the blocked
# transform's fixed cost lost up to n = 13 and won from n = 14 on
_DIRECT_VARS = 13
# the blocked transform's rows hold 2^_LOW_BITS points, and its transposed
# blocks _BLOCK_ROWS rows (1 MiB of int32); 256-4096 rows timed alike at n = 18-22
_LOW_BITS = 8
_BLOCK_ROWS = 1 << 10
# entries the blocked transform reduces at once: of 2^12-2^22 timed at n = 22,
# 2^16 was fastest
_REDUCE_CHUNK = 1 << 16


def _poly_mul_dense(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class ModAmplifier:
    """Integer polynomial of degree 2*ell - 1 with P(y) == y^... amplified:

    y = 0 (mod m)  =>  P(y) = 0 (mod m^ell)
    y = 1 (mod m)  =>  P(y) = 1 (mod m^ell)

    for every modulus m.  ``coefficients[i]`` is the coefficient of y^i.
    """

    ell: int
    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, y: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * y + c
        return acc


def mod_amplifier(ell: int) -> ModAmplifier:
    """P_ell(y) = 1 - (1-y)^ell * sum_{j<ell} C(ell+j-1, j) y^j, expanded."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    one_minus_y_pow = [1]
    for _ in range(ell):
        one_minus_y_pow = _poly_mul_dense(one_minus_y_pow, [1, -1])
    inner = [math.comb(ell + j - 1, j) for j in range(ell)]
    prod = _poly_mul_dense(one_minus_y_pow, inner)
    coeffs = [-c for c in prod]
    coeffs[0] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ModAmplifier(ell, tuple(coeffs))


@dataclass(frozen=True)
class MultilinearRingPoly:
    """Multilinear polynomial over Z/modulus with subset-mask monomials."""

    modulus: int
    n_vars: int
    coeffs: dict[int, int]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.n_vars < 0:
            raise ValueError("n_vars must be >= 0")
        reduced = {}
        for mask, c in self.coeffs.items():
            if mask < 0 or mask >> self.n_vars:
                raise ValueError(f"mask {mask} out of range for n_vars={self.n_vars}")
            c %= self.modulus
            if c:
                reduced[mask] = c
        object.__setattr__(self, "coeffs", reduced)

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def constant(cls, modulus: int, n_vars: int, value: int) -> "MultilinearRingPoly":
        return cls(modulus, n_vars, {0: value})

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.coeffs), default=0)

    def _compatible(self, other: "MultilinearRingPoly") -> None:
        if self.modulus != other.modulus or self.n_vars != other.n_vars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "MultilinearRingPoly") -> "MultilinearRingPoly":
        self._compatible(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out.get(mask, 0) + c
        return MultilinearRingPoly(self.modulus, self.n_vars, out)

    def __sub__(self, other: "MultilinearRingPoly") -> "MultilinearRingPoly":
        self._compatible(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out.get(mask, 0) - c
        return MultilinearRingPoly(self.modulus, self.n_vars, out)

    def __mul__(self, other: "MultilinearRingPoly") -> "MultilinearRingPoly":
        """Product with multilinear reduction: x_i^2 = x_i, so monomial masks
        combine by union."""
        self._compatible(other)
        out: dict[int, int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                key = m1 | m2
                out[key] = out.get(key, 0) + c1 * c2
        return MultilinearRingPoly(self.modulus, self.n_vars, out)


def _require_dense(n_vars: int, dense_cap: int) -> None:
    if n_vars > dense_cap:
        raise CapExceeded(f"dense table over {n_vars} variables, cap is {dense_cap}")


def _eval_table(poly: MultilinearRingPoly) -> np.ndarray:
    """Values of ``poly`` at every point, index = point mask.

    Subset-sum (zeta) transform over the coefficient table: after processing
    variable i, entry ``mask`` holds the sum of coefficients over monomials
    contained in ``mask`` restricted to the processed variables.  Every
    coefficient is below modulus and an entry sums at most 2^n_vars of them,
    so entries stay below modulus << n_vars.  Below 2^31 the table is int32,
    which halves the memory the transform streams through; above it
    ``int_dtype`` picks int64 or Python ints.  The table is reduced once, at
    the end.

    Above 2^``_DIRECT_VARS`` entries the transform is blocked.  The table is
    viewed as rows of 2^``_LOW_BITS`` points, one row per value of
    ``mask >> _LOW_BITS``.  ``_low_passes`` runs the passes for the low bits
    only on the rows that hold a monomial, since every other row stays zero,
    and runs them on transposed blocks so that each pass adds along a
    contiguous axis.  The passes for the high bits then run in place over the
    whole table, on inner axes of at least 2^``_LOW_BITS`` entries.  Smaller
    tables run every pass in place.
    """
    n = poly.n_vars
    bound = poly.modulus << n
    dtype = np.int32 if bound < _INT32_BOUND else int_dtype(bound)
    f = np.zeros(1 << n, dtype=dtype)
    if n <= _DIRECT_VARS:
        low = 0
        for mask, c in poly.coeffs.items():
            f[mask] = c
    else:
        low = min(n, _LOW_BITS)
        _low_passes(f.reshape(-1, 1 << low), poly.coeffs, low)
    _zeta_passes(f, range(low, n))
    _reduce(f, poly.modulus)
    return f


def _zeta_passes(table: np.ndarray, bits: range, inner: int = 1) -> None:
    """The zeta passes for the bits in ``bits``, in place: the pass for bit i
    adds each entry whose bit i is clear into its partner with bit i set,
    ``inner << i`` entries further along the flat table."""
    for i in bits:
        view = table.reshape(-1, 2, inner << i)
        view[:, 1, :] += view[:, 0, :]


def _low_passes(rows: np.ndarray, coeffs: Mapping[int, int], low: int) -> None:
    """Write into the zero table ``rows``, of shape (2^(n-low), 2^low), the
    coefficients ``coeffs`` (mask -> value) with the zeta passes for the
    ``low`` low bits applied.

    Only the rows that hold a monomial are written.  They are taken
    ``_BLOCK_ROWS`` at a time into a transposed block of shape (2^low, rows
    in the block), so the pass for bit i adds along a contiguous axis of 2^i
    times the rows in the block, and each block is written back once.
    """
    masks = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
    order = np.argsort(masks)
    masks = masks[order]
    values = np.array(list(coeffs.values()), dtype=rows.dtype)[order]
    held, pos = np.unique(masks >> low, return_inverse=True)
    cols = masks & (rows.shape[1] - 1)
    for start in range(0, len(held), _BLOCK_ROWS):
        lo, hi = np.searchsorted(pos, (start, start + _BLOCK_ROWS))
        sel = held[start:start + _BLOCK_ROWS]
        block = np.zeros((rows.shape[1], len(sel)), dtype=rows.dtype)
        block[cols[lo:hi], pos[lo:hi] - start] = values[lo:hi]
        _zeta_passes(block, range(low), len(sel))
        rows[sel] = block.T


def _reduce(f: np.ndarray, modulus: int) -> None:
    """f %= modulus in place for nonnegative entries.  On numpy integers a
    power of two (p = 2) keeps the low bits, masked within the type; any
    other modulus runs as f - (f // modulus) * modulus in slices of
    ``_REDUCE_CHUNK`` entries: numpy divides them by a scalar several times
    faster than it takes their remainder, and the slices bound the
    quotient's temporary."""
    if f.dtype == object:
        f %= modulus
    elif not modulus & (modulus - 1):
        np.bitwise_and(f, min(modulus - 1, np.iinfo(f.dtype).max), out=f)
    else:
        for start in range(0, len(f), _REDUCE_CHUNK):
            part = f[start:start + _REDUCE_CHUNK]
            part -= part // modulus * modulus


def eval_all_points(
    poly: MultilinearRingPoly, dense_cap: int = DEFAULT_DENSE_CAP
) -> list[int]:
    """Dense table of poly values on {0,1}^n_vars (exact residues)."""
    _require_dense(poly.n_vars, dense_cap)
    return _eval_table(poly).tolist()


def _suffix_vars(n: int, d: int, p: int) -> int:
    """m = floor(n/(6dp)), the number of suffix variables the root counter
    splits off for degree d; m = 0 means a dense value table instead."""
    return n // (6 * d * p)


@dataclass(frozen=True)
class FpSumProdParams:
    """Shape parameters for the F_p pipeline; m is the suffix-variable count."""

    p: int
    d: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if self.d < 1 or self.k < 1 or self.n < 1:
            raise ValueError("d, k, n must be positive")

    @property
    def m(self) -> int:
        return _suffix_vars(self.n, self.d, self.p)


def amplifier_order(p: int, m: int) -> int:
    """Amplification level whose modulus p^ell can hold any count 0..2^m.

    For p >= 3, p^m already exceeds 2^m.  For p = 2 one extra level is needed:
    a prefix whose suffixes are all roots has count 2^m = 0 (mod 2^m), which
    would collide with a rootless prefix.
    """
    return m + 1 if p == 2 else m


def suffix_count_poly(
    q: FpPolynomial, params: FpSumProdParams
) -> MultilinearRingPoly:
    """Polynomial over the first n-m variables whose residues count suffix roots.

    For every prefix b, the value mod p^ell equals |{a in {0,1}^m :
    q(b, a) = 0 mod p}|, where the suffix is the last m variables.  Built by
    summing amplifier(1 - q_sub^(p-1)) over all 2^m suffix assignments in
    Z/p^ell; q_sub is q with the suffix substituted, coefficients lifted.
    """
    if q.p != params.p or q.n != params.n:
        raise ValueError("polynomial and parameters disagree")
    m = params.m
    if m < 1:
        raise ValueError("m = 0: no suffix to split off, use direct enumeration")
    p = q.p
    n = q.n
    prefix_vars = n - m
    ell = amplifier_order(p, m)
    modulus = p**ell
    amp = mod_amplifier(ell)
    amp_coeffs = [c % modulus for c in amp.coefficients]
    one = MultilinearRingPoly.constant(modulus, prefix_vars, 1)
    total = MultilinearRingPoly(modulus, prefix_vars, {})
    prefix_mask = (1 << prefix_vars) - 1
    for a in range(1 << m):
        sub: dict[int, int] = {}
        for mask, c in q.monomials.items():
            if (mask >> prefix_vars) & ~a:
                continue
            key = mask & prefix_mask
            sub[key] = sub.get(key, 0) + c
        q_sub = MultilinearRingPoly(modulus, prefix_vars, sub)
        power = q_sub
        for _ in range(p - 2):
            power = power * q_sub
        y = one - power
        acc = MultilinearRingPoly.constant(modulus, prefix_vars, amp_coeffs[-1])
        for c in reversed(amp_coeffs[:-1]):
            acc = acc * y + MultilinearRingPoly.constant(modulus, prefix_vars, c)
        total = total + acc
    return total


# on no query path: perfbench/run.py reads its cache_info(), so it is deleted
# with the benchmark change (ROADMAP item 1)
@lru_cache(maxsize=4096)
def _value_histogram(p: int, n: int, items: tuple[tuple[int, int], ...]) -> Mapping[int, int]:
    """{v: |{x : poly(x) = v mod p}|} over the values that occur, for the
    nonconstant part ``items``; at most min(p, 2^n) entries, read-only
    because every caller shares the cached mapping."""
    table = _eval_table(MultilinearRingPoly(p, n, dict(items)))
    values, counts = np.unique(table, return_counts=True)
    return MappingProxyType(dict(zip(values.tolist(), counts.tolist())))


def _linear_sum(polys: Sequence[FpPolynomial], lifts, dtype) -> Optional[int]:
    """``_lifted_sum`` from the joint histogram of the polynomials' forms,
    read by ``mitm.box_sum`` in ``dtype``, or None unless every polynomial
    has degree at most 1, n <= 61 (int64 counts) and the merged box is at
    most min(``_BOX_CELLS``, k << n) cells, never more than the k dense
    tables.  c0 + g <w, x>, w primitive and g the gcd of the coefficients
    (1 for a constant), is a row on w over 0..sum(w).  An axis's line is the
    product of its rows' lift((g s + c0) mod p); an indicator's is 1 on
    every p-th cell from the root of g s = t - c0."""
    p, n = polys[0].p, polys[0].n
    if int_dtype(1 << n) is not np.int64:
        return None
    rows = []
    for q, t in zip(polys, lifts):
        row, c0 = [0] * n, q.monomials.get(0, 0)
        for mask, c in q.monomials.items():
            if mask & (mask - 1):
                return None
            if mask:
                row[mask.bit_length() - 1] = c
        g = math.gcd(*row) or 1
        w = tuple(row) if g == 1 else tuple([c // g for c in row])
        rows.append((w, 0, sum(w), (g, c0, t)))
    axes = form_axes(rows)
    if math.prod(h + 1 for _, _, h, _ in axes) > min(_BOX_CELLS, len(polys) << n):
        return None
    lines = [None] * len(axes)
    for i, (_, _, h, payloads) in enumerate(axes):
        for g, c0, t in payloads:
            if t is None:
                part = np.arange(c0, c0 + g * (h + 1), g, dtype=dtype) % p
            else:
                part = np.zeros(h + 1, dtype=dtype)
                part[(t - c0) * pow(g, -1, p) % p::p] = 1
            lines[i] = part if lines[i] is None else lines[i] * part
    return box_sum(axes, lines, n, dtype)


def count_roots(q: FpPolynomial, *, dense_cap: int = DEFAULT_DENSE_CAP) -> int:
    """|{x in {0,1}^n : q(x) = 0 mod p}|, the one-polynomial system q = 0
    (``_lifted_sum``)."""
    return _lifted_sum([q], [0], dense_cap)


def _shared_shape(polys: Sequence[FpPolynomial]) -> tuple[int, int]:
    if not polys:
        raise ValueError("need at least one polynomial")
    p = polys[0].p
    n = polys[0].n
    for q in polys:
        if q.p != p:
            raise ValueError("polynomials disagree on the prime")
        if q.n != n:
            raise ValueError("polynomials disagree on the number of variables")
    return p, n


def _combination(polys: Sequence[FpPolynomial], coeffs: Sequence[int]) -> dict[int, int]:
    """Monomials of sum_j coeffs[j] * polys[j], not yet reduced mod p."""
    acc: dict[int, int] = {}
    for b, q in zip(coeffs, polys):
        if not b:
            continue
        for mask, c in q.monomials.items():
            acc[mask] = acc.get(mask, 0) + b * c
    return acc


def _accumulators(
    polys: Sequence[FpPolynomial], target_tuples: Sequence[Sequence[int]], dense_cap: int
) -> list[int]:
    """p^k * |{x : polys[j](x) = t_j mod p for all j}| for every tuple t.

    With N_b(v) = |{x : sum_j b_j polys[j](x) = v}|, tuple t adds
    N_b(b.t) - N_b(b.t + 1) for each b in F_p^k.  One pass over b serves every
    tuple; per b it counts the roots of the distinct levels b.t and b.t + 1,
    at most L = min(p, 2 * tuples) of them.  ``_lifted_sum`` takes this pass
    for k >= 2 only, where ``_reads_dense`` declines the dense tables; each
    root count is a one-polynomial question, which never comes back here.  A
    non-divisible accumulator indicates a bug and raises InvariantViolation.
    """
    p, n = _shared_shape(polys)
    k = len(polys)
    accs = [0] * len(target_tuples)
    for b in itertools.product(range(p), repeat=k):
        comb = _combination(polys, b)
        const = comb.pop(0, 0)
        shifts = [sum(bj * tj for bj, tj in zip(b, t)) % p for t in target_tuples]
        levels = {
            v: count_roots(FpPolynomial(p, n, {**comb, 0: const - v}), dense_cap=dense_cap)
            for v in {*shifts, *((s + 1) % p for s in shifts)}
        }
        for i, v in enumerate(shifts):
            accs[i] += levels[v] - levels[(v + 1) % p]
    for acc in accs:
        if acc % p**k:
            raise InvariantViolation(f"accumulator {acc} not divisible by p^k = {p**k}")
    return accs


def _reads_dense(polys: Sequence[FpPolynomial], dense_cap: int) -> bool:
    """For k >= 2 only: whether the dense tables answer, wherever n <=
    dense_cap, rather than the ``_accumulators`` pass, which answers past it
    when m = floor(n/(6dp)) >= 1, d the largest degree (at least 1); with
    m = 0 neither fits and CapExceeded is raised."""
    p, n = _shared_shape(polys)
    if n > dense_cap and _suffix_vars(n, max(1, *(q.degree for q in polys)), p):
        return False
    _require_dense(n, dense_cap)
    return True


def _dense_sum(polys: Sequence[FpPolynomial], lifts: Sequence[Optional[int]], top: int) -> int:
    """``_lifted_sum`` on the k dense value tables, the only code that reads
    them: lift_j is the indicator of lifts[j], or the value where that is
    None, and top bounds the product of the lifts."""
    p, n = polys[0].p, polys[0].n

    def lifted(q, t):
        # one value table at a time, dropped once multiplied in
        table = _eval_table(MultilinearRingPoly(p, n, q.monomials))
        return table if t is None else table == t

    # never unsigned, since numpy multiplies uint64 by int32 in float64
    prod = lifted(polys[0], lifts[0]).astype(
        bool if top == 1 else np.min_scalar_type(-top - 1), copy=False)
    for q, t in zip(polys[1:], lifts[1:]):
        # the running product stays within top, so the cast back is exact
        np.multiply(prod, lifted(q, t), out=prod, casting="unsafe")
    if prod.dtype == bool:
        return int(np.count_nonzero(prod))
    return int(prod.sum(dtype=int_dtype(top << n)))


def _lifted_sum(
    polys: Sequence[FpPolynomial],
    targets: Optional[Sequence[int]],
    dense_cap: int,
    tuple_cap: Optional[int] = None,
) -> int:
    """The module's sum over x of prod_j lift_j(polys[j](x)), with indicators
    of ``targets`` mod p, or the values when ``targets`` is None: the one site
    that picks an F_p kernel.  One polynomial never takes the value-tuple
    pass, the only kernel that holds an accumulator per tuple, so only k >= 2
    is refused, with CapExceeded, when the tuples exceed ``tuple_cap`` (None:
    no cap)."""
    p, n = _shared_shape(polys)
    k = len(polys)
    lifts = [None] * k if targets is None else [t % p for t in targets]
    # a lift's largest value is the size of its support: p - 1 or 1
    top = tuples = (p - 1) ** k if targets is None else 1
    total = _linear_sum(polys, lifts, int_dtype(top << n))
    if total is not None:
        return total
    if k == 1:
        q, t = polys[0], lifts[0]
        d, c = q.degree, q.monomials.get(0, 0)
        if not d:
            return (c if t is None else int(c == t)) << n
        m = _suffix_vars(n, d, p)
        if m:
            # the roots of q - v for each v in the lift's support, weighted by the lift
            _require_dense(n - m, dense_cap)
            params = FpSumProdParams(p=p, d=d, k=1, n=n)
            return sum((v if t is None else 1) * int(_eval_table(suffix_count_poly(
                FpPolynomial(p, n, {**q.monomials, 0: c - v}), params)).sum())
                for v in (range(1, p) if t is None else (t,)))
    elif not _reads_dense(polys, dense_cap):
        if tuple_cap is not None and tuples > tuple_cap:
            raise CapExceeded(f"product expansion needs > {tuple_cap} value tuples")
        combos = list(itertools.product(*(range(1, p) if t is None else (t,) for t in lifts)))
        accs = _accumulators(polys, combos, dense_cap)
        # an indicator weighs its one tuple entry 1, the value lift the value
        weights = (math.prod(v for v, t in zip(combo, lifts) if t is None) for combo in combos)
        return sum(w * acc for w, acc in zip(weights, accs)) // p**k
    _require_dense(n, dense_cap)
    return _dense_sum(polys, lifts, top)


def count_system(
    polys: Sequence[FpPolynomial],
    targets: Sequence[int],
    *,
    dense_cap: int = DEFAULT_DENSE_CAP,
    with_accumulator: bool = False,
):
    """|{x : polys[j](x) = targets[j] mod p for all j}|, the Sum-Product of
    the indicators of the targets (``_lifted_sum``).  ``with_accumulator``
    adds p^k * count: the sum over b in F_p^k of the points where
    sum_j b_j (polys[j] - targets[j]) is 0 minus those where it is 1."""
    if len(targets) != len(polys):
        raise ValueError("polynomial/target count mismatch")
    count = _lifted_sum(polys, targets, dense_cap)
    if with_accumulator:
        return count, count * polys[0].p ** len(polys)
    return count


def sumprod_fp(
    polys: Sequence[FpPolynomial],
    n: Optional[int] = None,
    *,
    dense_cap: int = DEFAULT_DENSE_CAP,
    tuple_cap: Optional[int] = None,
) -> int:
    """sum over x of prod_i lift(polys[i](x)), values lifted to {0..p-1}
    (``_lifted_sum``); ``tuple_cap`` bounds the (p-1)^k nonzero value tuples
    of the value-tuple pass.  An empty product is 1, so it returns 2^n."""
    n = _shared_n(polys, n)
    if not polys:
        return 1 << n
    return _lifted_sum(polys, None, dense_cap, tuple_cap)
