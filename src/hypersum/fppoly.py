"""Root counting, systems and Sum-Products for low-degree polynomials over F_p.

A system count and a Sum-Product of k polynomials are one sum over x of
prod_j lift_j(polys[j](x)), ``_lifted_sum``: lift_j is the indicator of
targets[j] mod p for ``count_system`` and the value in 0..p-1 itself for
``sumprod_fp``.  ``_lifted_sum`` alone picks their kernel, and each of the
three kernels reads the lifts:

- Degree at most 1, within ``_linear_table``'s bounds: one joint histogram of
  the forms' integer sums, each axis contracted with the lift of its cells'
  values where that lift can be nonzero (every p-th cell for an indicator).
  Neither ``dense_cap`` nor ``tuple_cap`` binds it.
- The k dense value tables, ``_dense_sum`` (k * 2^n work for any p): the
  lifted tables are multiplied into one product a table at a time, starting
  from the first.  When top, the product of the lifts' largest values, is 1
  (a system, or a Sum-Product over F_2) the product is a bool mask counted
  with ``np.count_nonzero``; otherwise it is held in the narrowest signed
  type that holds top ((p-1)^k) and summed in ``int_dtype(top << n)``.
- The value-tuple pass ``_accumulators`` over the product of the lifts'
  supports (one tuple for a system, (p-1)^k for a Sum-Product), each tuple
  weighted by the product of its lifts.  ``_reads_dense`` picks between it
  and the dense tables by table entries touched.

The fast root counter ``count_roots`` splits off the last m = floor(n/(6dp))
variables, sums a modulus-amplified indicator over all suffix assignments,
and reads per-prefix suffix-root counts out of the residues of a single
polynomial over the remaining variables; with m = 0 it counts the system
q = 0 on ``_dense_sum``, one comparison.  Every dense table comes from one
zeta transform with a single reduction at the end.  Past 2^13 entries the
transform is blocked: the table is viewed as rows of 2^8 points that share
the high bits of their masks, the passes for the 8 low bits run only on the
rows that hold a monomial, on transposed blocks so that each pass adds along
a contiguous axis, and the passes for the high bits then run in place over
the whole table.
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
from .mitm import _BOX_CELLS, histogram, int_dtype

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
    """f %= modulus in place for nonnegative entries.  On numpy integers it
    runs as f - (f // modulus) * modulus in slices of ``_REDUCE_CHUNK``
    entries: numpy divides them by a scalar several times faster than it
    takes their remainder, and the slices bound the quotient's temporary."""
    if f.dtype == object:
        f %= modulus
        return
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


def _linear_table(polys: Sequence[FpPolynomial]) -> Optional[np.ndarray]:
    """The joint histogram N[s_1, ..., s_k] = |{x : sum_i c_ij x_i = s_j for
    all j}| of the nonconstant parts of ``polys``, c_ij the coefficient of
    x_i in polys[j] as stored (in 1..p-1), or None.

    None unless every polynomial has degree at most 1, the counts fit int64
    (n <= 61) and the box prod_j (sum_i c_ij + 1) is at most
    min(``_BOX_CELLS``, k << n) cells, so the histogram never allocates more
    cells than the k dense tables it replaces, holds at most 32 MiB and costs
    at most n passes over them.  polys[j] takes the value (s_j + c0_j) mod p
    on the cells of axis j, c0_j its constant term.
    """
    n = polys[0].n
    if int_dtype(1 << n) is not np.int64:
        return None
    rows = [[0] * n for _ in polys]
    for row, q in zip(rows, polys):
        for mask, c in q.monomials.items():
            if mask & (mask - 1):
                return None
            if mask:
                row[mask.bit_length() - 1] = c
    if math.prod(sum(row) + 1 for row in rows) > min(_BOX_CELLS, len(polys) << n):
        return None
    return histogram(rows, n)[0]


def count_roots(q: FpPolynomial, *, dense_cap: int = DEFAULT_DENSE_CAP) -> int:
    """|{x in {0,1}^n : q(x) = 0 mod p}|.

    Constant polynomials are answered directly, and a polynomial of degree 1
    whose ``_linear_table`` fits its bounds is answered by summing the
    table's cells (-c0 mod p) + p * i, c0 the constant term.  Otherwise, when
    m = floor(n/(6dp)) >= 1 (d the actual degree), the suffix-count
    construction reduces the table to 2^(n-m) entries whose residues are
    exact counts; else the dense value table is compared with 0
    (``_dense_sum``).
    """
    nonconst = {mask: c for mask, c in q.monomials.items() if mask}
    const = q.monomials.get(0, 0)
    if not nonconst:
        return (1 << q.n) if const % q.p == 0 else 0
    counts = _linear_table([q])
    if counts is not None:
        return int(counts[-const % q.p::q.p].sum())
    d = max(mask.bit_count() for mask in nonconst)
    m = _suffix_vars(q.n, d, q.p)
    if m >= 1:
        _require_dense(q.n - m, dense_cap)
        params = FpSumProdParams(p=q.p, d=d, k=1, n=q.n)
        counter = suffix_count_poly(q, params)
        return int(_eval_table(counter).sum())
    _require_dense(q.n, dense_cap)
    return _dense_sum([q], [0], 1)


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
    only when ``_reads_dense`` declines the dense tables, so m >= 1 for the
    largest degree and every root count here reads a suffix-count table of at
    most 2^(n-m) entries.  A non-divisible accumulator indicates a bug and
    raises InvariantViolation.
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


def _reads_dense(polys: Sequence[FpPolynomial], levels: int, dense_cap: int) -> bool:
    """True when the k dense value tables of ``polys`` touch fewer entries
    than the ``_accumulators`` pass, which makes ``levels`` root counts
    (L = min(p, 2 * tuples): 2 for a system, p for a Sum-Product) for each of
    the p^k - 1 nonzero b, each on 2^(n-m) entries, m = floor(n/(6dp)) for d
    the largest degree (at least 1).

    With m = 0 there is no suffix to split off and the tables are always read,
    within ``dense_cap``.  With m >= 1 they are read iff n <= dense_cap and
    k * 2^n < L * (p^k - 1) * 2^(n-m), i.e. k * 2^m < L * (p^k - 1); a tie
    keeps the pass, which stays the only route when n > dense_cap >= n - m.
    """
    p, n = _shared_shape(polys)
    k = len(polys)
    # below n = 6p every degree gives m = 0, so no degree needs computing
    m = _suffix_vars(n, max(1, *(q.degree for q in polys)), p) if n >= 6 * p else 0
    if m and (n > dense_cap or k << m >= levels * (p**k - 1)):
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
    of ``targets`` mod p, or the values when ``targets`` is None.  Only the
    value-tuple pass holds an accumulator per tuple, so only it is refused,
    with CapExceeded, when the tuples exceed ``tuple_cap`` (None: no cap)."""
    p, n = _shared_shape(polys)
    k = len(polys)
    lifts = [None] * k if targets is None else [t % p for t in targets]
    # a lift's largest value is the size of its support: p - 1 or 1
    top = tuples = (p - 1) ** k if targets is None else 1
    counts = _linear_table(polys)
    if counts is not None:
        # axis j holds the value (s + c0_j) mod p at cell s; an indicator is 1
        # on every p-th cell from (t_j - c0_j) mod p, so only those are summed
        c0s = [q.monomials.get(0, 0) for q in polys]
        cells = tuple(slice(None) if t is None else slice((t - c0) % p, None, p)
                      for t, c0 in zip(lifts, c0s))
        total = counts[cells].astype(int_dtype(top << n), copy=False)
        for t, c0 in zip(reversed(lifts), reversed(c0s)):
            total = (total @ (np.arange(c0, c0 + total.shape[-1], dtype=total.dtype) % p)
                     if t is None else total.sum(-1))
        return int(total)
    if _reads_dense(polys, min(p, 2 * tuples), dense_cap):
        return _dense_sum(polys, lifts, top)
    if tuple_cap is not None and tuples > tuple_cap:
        raise CapExceeded(f"product expansion needs > {tuple_cap} value tuples")
    combos = list(itertools.product(*(range(1, p) if t is None else (t,) for t in lifts)))
    accs = _accumulators(polys, combos, dense_cap)
    # an indicator weighs its one tuple entry 1, the value lift the value
    weights = (math.prod(v for v, t in zip(combo, lifts) if t is None) for combo in combos)
    return sum(w * acc for w, acc in zip(weights, accs)) // p**k


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
