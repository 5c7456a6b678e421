import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import (
    CapExceeded,
    DEFAULT_DENSE_CAP,
    FpPolynomial,
    InvariantViolation,
    count_roots,
    count_system,
    oracle_count_fp_system,
    oracle_sumprod,
    sumprod_fp,
)
from hypersum.fppoly import (
    FpSumProdParams,
    MultilinearRingPoly,
    amplifier_order,
    eval_all_points,
    mod_amplifier,
    suffix_count_poly,
)
from randgen import rand_fp_poly


def brute_values(p, n, monomials):
    """Independent dense evaluation: no shared code with the fast path."""
    masks = np.arange(1 << n, dtype=np.int64)
    vals = np.zeros(1 << n, dtype=np.int64)
    for mono, coeff in monomials.items():
        vals += coeff * ((masks & mono) == mono)
    return vals % p


# ---- amplifier ----

def test_amplifier_small_cases():
    assert mod_amplifier(1).coefficients == (0, 1)  # P_1(y) = y
    assert mod_amplifier(2).coefficients == (0, 0, 3, -2)
    assert mod_amplifier(2).evaluate(3) == -27


def test_amplifier_fixed_points_and_degree():
    for ell in range(1, 9):
        amp = mod_amplifier(ell)
        assert amp.evaluate(0) == 0
        assert amp.evaluate(1) == 1
        assert amp.degree == 2 * ell - 1
        assert amp.coefficients[-1] != 0


def test_amplifier_congruences():
    rng = random.Random(101)
    for m in (2, 3, 5):
        for ell in (1, 2, 4):
            amp = mod_amplifier(ell)
            for _ in range(30):
                y0 = m * rng.randint(-50, 50)
                assert amp.evaluate(y0) % m**ell == 0
                y1 = y0 + 1
                assert amp.evaluate(y1) % m**ell == 1


# ---- ring polynomials ----

def test_ring_poly_multilinear_product():
    # (x1 + x2)^2 = x1 + x2 + 2 x1 x2 under x_i^2 = x_i
    q = MultilinearRingPoly(7, 2, {1: 1, 2: 1})
    sq = q * q
    assert sq.coeffs == {1: 1, 2: 1, 3: 2}


def test_ring_poly_normalizes_mod():
    q = MultilinearRingPoly(5, 2, {1: 7, 2: 5})
    assert q.coeffs == {1: 2}


def test_ring_poly_ring_mismatch():
    a = MultilinearRingPoly(5, 2, {1: 1})
    b = MultilinearRingPoly(7, 2, {1: 1})
    with pytest.raises(ValueError):
        a + b


def test_eval_all_points_examples():
    assert eval_all_points(MultilinearRingPoly(8, 1, {0: 1, 1: 2})) == [1, 3]
    assert eval_all_points(MultilinearRingPoly(3, 2, {3: 1})) == [0, 0, 0, 1]


def test_eval_all_points_matches_direct_eval():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 10)
        mod = rng.choice([2, 3, 9, 31])
        coeffs = {rng.randrange(1 << n): rng.randrange(1, mod)
                  for _ in range(rng.randint(1, 8))}
        table = eval_all_points(MultilinearRingPoly(mod, n, coeffs))
        direct = brute_values(mod, n, coeffs)
        assert table == list(direct)


def test_eval_all_points_python_path_for_big_modulus():
    mod = (1 << 40) + 1  # beyond the int64-safe numpy limit
    poly = MultilinearRingPoly(mod, 3, {1: 1 << 39, 7: 3})
    table = eval_all_points(poly)
    for mask in range(8):
        expect = ((1 << 39) * (mask & 1) + 3 * (mask == 7)) % mod
        assert table[mask] == expect


@pytest.mark.parametrize("n_vars", [4, 10])
@pytest.mark.parametrize("offset, dtype", [(-1, np.int32), (0, np.int64), (1, np.int64)])
def test_eval_table_at_the_int32_bound(n_vars, offset, dtype):
    # modulus << n_vars is 2^31 + offset * 2^n_vars; with every coefficient
    # at modulus - 1 the full-mask entry sums 2^n_vars of them before the
    # reduction, which just fits int32 below the bound
    from hypersum.fppoly import _eval_table

    modulus = (1 << (31 - n_vars)) + offset
    coeffs = {mask: modulus - 1 for mask in range(1 << n_vars)}
    table = _eval_table(MultilinearRingPoly(modulus, n_vars, coeffs))
    assert table.dtype == dtype
    assert table.tolist() == brute_values(modulus, n_vars, coeffs).tolist()


def _eval_table_cases():
    """(modulus, n_vars, coeffs) covering n = 0-14, the zero polynomial and
    constants, monomials only in the high or only in the low bits of the
    blocked layout, a monomial in every row, and all three table widths."""
    rng = random.Random(18)
    cases = []
    for n in range(15):
        for modulus in (3, 1 << 40):
            coeffs = {rng.randrange(1 << n): rng.randrange(1, modulus)
                      for _ in range(rng.randint(1, 40))}
            cases.append((modulus, n, coeffs))
    for n in (0, 7, 8, 9, 14):
        cases.append((5, n, {}))
        cases.append((5, n, {0: 4}))
    for n in (9, 12, 14):
        high = {rng.randrange(1, 1 << (n - 8)) << 8: rng.randrange(1, 7) for _ in range(9)}
        low = {rng.randrange(1, 1 << 8): rng.randrange(1, 7) for _ in range(9)}
        every_row = {row << 8 | rng.randrange(1 << 8): 1 for row in range(1 << (n - 8))}
        cases += [(7, n, high), (7, n, low), (7, n, every_row), (7, n, {**high, **low, **every_row})]
    # modulus << n at or past 2^62: Python-int tables
    for n in (3, 8, 9):
        coeffs = {rng.randrange(1 << n): rng.randrange(1, 1 << 60) for _ in range(12)}
        cases.append(((1 << 60) + 3, n, coeffs))
    return cases


def _python_values(modulus, n, coeffs):
    """Values straight from the definition, on Python ints."""
    return [sum(c for m, c in coeffs.items() if m & x == m) % modulus for x in range(1 << n)]


# as shipped, and with the blocked transform forced onto every table, in
# blocks of a few rows and with narrower rows than it ships with
@pytest.mark.parametrize("layout", [
    {},
    {"_DIRECT_VARS": -1, "_BLOCK_ROWS": 2},
    {"_DIRECT_VARS": -1, "_LOW_BITS": 3, "_BLOCK_ROWS": 3},
])
def test_eval_table_matches_brute_force(layout, monkeypatch):
    from hypersum import fppoly

    for name, value in layout.items():
        monkeypatch.setattr(fppoly, name, value)
    for modulus, n, coeffs in _eval_table_cases():
        table = fppoly._eval_table(MultilinearRingPoly(modulus, n, coeffs))
        bound = modulus << n
        assert table.dtype == (np.int32 if bound < 1 << 31 else np.int64 if bound < 1 << 62 else object)
        assert table.shape == (1 << n,)
        if table.dtype == object:
            assert table.tolist() == _python_values(modulus, n, coeffs)
        else:
            assert table.tolist() == brute_values(modulus, n, coeffs).tolist()


def _prime_from(start, step):
    p = start
    while any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        p += step
    return p


# at n = 6 the value tables are int32 iff p < 2^25; three factors of p - 1
# push the Sum-Product past 2^62, onto Python ints multiplied by those tables
@pytest.mark.parametrize("p", [_prime_from((1 << 25) - 1, -1), _prime_from(1 << 25, 1)])
def test_fp_kernels_stay_exact_at_the_int32_bound(p):
    from hypersum.fppoly import _eval_table

    n = 6
    rng = random.Random(p)
    polys = [rand_fp_poly(rng, p, n, 3) for _ in range(3)]
    table = _eval_table(MultilinearRingPoly(p, n, polys[0].monomials))
    assert table.dtype == (np.int32 if p < 1 << 25 else np.int64)
    point = rng.randrange(1 << n)
    # targets read at one point, so that every count is at least 1
    targets = [int(brute_values(p, n, q.monomials)[point]) for q in polys]
    for q, t in zip(polys, targets):
        root = FpPolynomial(p, n, {**q.monomials, 0: q.monomials.get(0, 0) - t})
        assert count_roots(root) == oracle_count_fp_system([q], [t]) >= 1
    assert count_system(polys, targets) == oracle_count_fp_system(polys, targets) >= 1
    for k in (1, 2, 3):
        assert sumprod_fp(polys[:k], n) == oracle_sumprod(polys[:k], n)


def test_eval_all_points_cap():
    with pytest.raises(CapExceeded):
        eval_all_points(MultilinearRingPoly(3, 30, {1: 1}), dense_cap=26)


# ---- suffix-count construction ----

def test_amplifier_order_gives_headroom_for_p2():
    assert amplifier_order(2, 1) == 2
    assert amplifier_order(2, 3) == 4
    assert amplifier_order(3, 2) == 2
    assert amplifier_order(5, 1) == 1


def test_suffix_counts_match_brute_force():
    rng = random.Random(55)
    for p, d, n in [(2, 1, 12), (2, 1, 15), (3, 1, 18)]:
        params = FpSumProdParams(p=p, d=d, k=1, n=n)
        m = params.m
        assert m == 1
        for _ in range(4):
            q = rand_fp_poly(rng, p, n, d)
            counter = suffix_count_poly(q, params)
            table = eval_all_points(counter)
            vals = brute_values(p, n, q.monomials)
            per_prefix = (vals.reshape(1 << m, 1 << (n - m)) == 0).sum(axis=0)
            assert table == list(per_prefix)


def test_suffix_counts_m2():
    # n = 24, p = 2, d = 1 gives a two-variable suffix; residues live mod 2^3
    rng = random.Random(56)
    params = FpSumProdParams(p=2, d=1, k=1, n=24)
    assert params.m == 2
    q = rand_fp_poly(rng, 2, 24, 1)
    counter = suffix_count_poly(q, params)
    table = np.array(eval_all_points(counter))
    vals = brute_values(2, 24, q.monomials)
    per_prefix = (vals.reshape(4, 1 << 22) == 0).sum(axis=0)
    assert (table == per_prefix).all()


def test_full_count_survives_p2_wraparound():
    # x1 * x24: prefixes with x1 = 0 have every suffix a root, count 2^m,
    # which a mod-2^m residue could not distinguish from zero
    q = FpPolynomial(2, 24, {(1 << 0) | (1 << 23): 1})
    assert count_roots(q) == 2**24 - 2**22


def test_suffix_poly_degree_stays_below_bound():
    rng = random.Random(57)
    for p, d, n in [(2, 1, 12), (2, 2, 24), (3, 1, 18)]:
        params = FpSumProdParams(p=p, d=d, k=1, n=n)
        q = rand_fp_poly(rng, p, n, d)
        counter = suffix_count_poly(q, params)
        assert counter.degree < 2 * d * p * params.m


def test_suffix_poly_rejects_m0():
    params = FpSumProdParams(p=5, d=3, k=1, n=10)
    assert params.m == 0
    q = rand_fp_poly(random.Random(1), 5, 10, 3)
    with pytest.raises(ValueError):
        suffix_count_poly(q, params)


# ---- root counting ----

def test_count_roots_constant_polys():
    assert count_roots(FpPolynomial(3, 4, {})) == 16
    assert count_roots(FpPolynomial(3, 4, {0: 1})) == 0
    assert count_roots(FpPolynomial(3, 4, {0: 3})) == 16


def test_count_roots_random_vs_oracle():
    rng = random.Random(77)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 12)
        q = rand_fp_poly(rng, p, n, rng.randint(1, 3))
        assert count_roots(q) == oracle_count_fp_system([q], [0])


def test_count_roots_uses_suffix_path():
    # n = 14, p = 2, d = 1 forces m = 1; answer still matches brute force
    rng = random.Random(78)
    for _ in range(5):
        q = rand_fp_poly(rng, 2, 14, 1)
        assert count_roots(q) == oracle_count_fp_system([q], [0])


# ---- systems and sum-products ----

def test_count_system_matches_oracle():
    rng = random.Random(91)
    for _ in range(30):
        p = rng.choice([2, 3])
        n = rng.randint(2, 10)
        k = rng.randint(1, 3)
        polys = [rand_fp_poly(rng, p, n, rng.randint(1, 2)) for _ in range(k)]
        targets = [rng.randrange(p) for _ in range(k)]
        count, acc = count_system(polys, targets, with_accumulator=True)
        assert acc % p**k == 0
        assert count == oracle_count_fp_system(polys, targets)


def test_count_system_validates_shapes():
    q = FpPolynomial(3, 4, {1: 1})
    r = FpPolynomial(5, 4, {1: 1})
    with pytest.raises(ValueError):
        count_system([q, r], [0, 0])
    with pytest.raises(ValueError):
        count_system([q], [0, 0])
    with pytest.raises(ValueError):
        count_system([], [])


def test_sumprod_fp_lifts_factors_independently():
    q = FpPolynomial.from_terms(3, 2, [((1,), 1), ((2,), 1)])
    # values 0,1,1,2 lift to integers; product of two copies: 0+1+1+4
    assert sumprod_fp([q, q]) == 6


def test_sumprod_fp_empty_product():
    assert sumprod_fp([], 6) == 64
    with pytest.raises(ValueError):
        sumprod_fp([])


def test_sumprod_fp_negative_n():
    with pytest.raises(ValueError, match="n must be non-negative"):
        sumprod_fp([], -2)


def test_sumprod_fp_tuple_cap_binds_only_the_tuple_pass(monkeypatch):
    # n = 18 >= 6dp leaves a suffix, so dense_cap = 17 forces the pass over
    # the (3-1)^2 = 4 nonzero value tuples; the dense tables hold none, and
    # neither does the degree-1 histogram, turned off here
    _histogram_off(monkeypatch)
    odd = FpPolynomial(3, 18, {0: 1, **{1 << j: 1 for j in range(0, 17, 2)}})
    every_third = FpPolynomial(3, 18, {1 << j: 1 for j in range(1, 17, 3)})
    polys = [odd, every_third]
    expected = oracle_sumprod(polys, 18)
    assert sumprod_fp(polys, tuple_cap=0) == expected
    with pytest.raises(CapExceeded):
        sumprod_fp(polys, dense_cap=17, tuple_cap=3)
    assert sumprod_fp(polys, dense_cap=17, tuple_cap=4) == expected
    assert sumprod_fp(polys, dense_cap=17) == expected


def test_sumprod_fp_n_mismatch():
    q = FpPolynomial(3, 4, {1: 1})
    with pytest.raises(ValueError):
        sumprod_fp([q], 5)


def test_sumprod_fp_random_vs_oracle():
    rng = random.Random(93)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 10)
        k = rng.randint(1, 3)
        polys = [rand_fp_poly(rng, p, n, rng.randint(1, 3)) for _ in range(k)]
        assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)


def _record_calls(monkeypatch, name):
    """Wrap hypersum.fppoly.<name>; the returned list collects each call's
    first argument."""
    import hypersum.fppoly as fp

    real = getattr(fp, name)
    seen = []

    def recording(*args, **kwargs):
        seen.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(fp, name, recording)
    return seen


def _shifted(q, t):
    """q - t, whose roots are the points where q = t mod p."""
    return FpPolynomial(q.p, q.n, {**q.monomials, 0: q.monomials.get(0, 0) - t})


def _histogram_off(monkeypatch):
    """Turn off the degree-1 joint histogram, so that degree-1 systems take
    the dense, suffix or value-tuple kernels."""
    import hypersum.fppoly as fp

    monkeypatch.setattr(fp, "_linear_sum", lambda polys, lifts, dtype: None)


def _force_kernel(monkeypatch, dense):
    """Make ``fppoly._reads_dense`` answer ``dense`` for every question of two
    or more polynomials, with the degree-1 histogram off.  One polynomial
    never consults it: it reads a suffix-count table at m >= 1 and the dense
    table at m = 0, whatever is forced."""
    import hypersum.fppoly as fp

    _histogram_off(monkeypatch)
    monkeypatch.setattr(fp, "_reads_dense", lambda polys, dense_cap: dense)


def _suffix_regime_systems():
    """(n, polys, targets) at p = 2, d = 1, n = 12..14, k = 2..3: m = 1."""
    rng = random.Random(94)
    for n in (12, 13, 14):
        for k in (2, 3):
            polys = [rand_fp_poly(rng, 2, n, 1) for _ in range(k)]
            targets = [rng.randrange(2) for _ in range(k)]
            yield n, polys, targets


def test_systems_in_suffix_regime_match_oracle(monkeypatch):
    # with the pass forced, every non-constant combination is counted through
    # the suffix construction, never a full dense table
    _force_kernel(monkeypatch, dense=False)
    suffix_calls = _record_calls(monkeypatch, "suffix_count_poly")
    for n, polys, targets in _suffix_regime_systems():
        k = len(polys)
        count, acc = count_system(polys, targets, with_accumulator=True)
        assert acc % 2**k == 0
        assert count == oracle_count_fp_system(polys, targets)
        assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)
    assert suffix_calls


def test_small_suffix_regime_systems_read_dense_tables(monkeypatch):
    # k * 2^m = k * 2 is below 2 * (2^k - 1) for k = 2, 3: the k dense tables
    # touch fewer entries than the pass, so no suffix polynomial is built
    _histogram_off(monkeypatch)
    suffix_calls = _record_calls(monkeypatch, "suffix_count_poly")
    for n, polys, targets in _suffix_regime_systems():
        count, acc = count_system(polys, targets, with_accumulator=True)
        assert count == oracle_count_fp_system(polys, targets)
        assert acc == count * 2 ** len(polys)
        assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)
    assert not suffix_calls


# p = 2 and 3 split one suffix variable at n = 6p for degree 1; p = 5 would
# need n = 30, past the oracle, so there the split is moved down to n = 8, 9
@pytest.mark.parametrize("p, sizes", [(2, (12, 13)), (3, (18,)), (5, (8, 9))])
def test_forced_kernels_agree_with_the_oracle(monkeypatch, p, sizes):
    import hypersum.fppoly as fp

    if p == 5:
        monkeypatch.setattr(fp, "_suffix_vars", lambda n, d, p: 1)
    counted = _record_calls(monkeypatch, "count_roots")
    suffixes = _record_calls(monkeypatch, "suffix_count_poly")
    rng = random.Random(99 + p)
    for n in sizes:
        for k in (1, 2, 3):
            polys = [rand_fp_poly(rng, p, n, 1) for _ in range(k)]
            targets = [rng.randrange(p) for _ in range(k)]
            assert fp._suffix_vars(n, 1, p) >= 1
            expect_count = oracle_count_fp_system(polys, targets)
            expect_sum = oracle_sumprod(polys, n)
            for dense in (True, False):
                _force_kernel(monkeypatch, dense)
                counted.clear()
                suffixes.clear()
                count, acc = count_system(polys, targets, with_accumulator=True)
                assert count == expect_count
                assert acc % p**k == 0
                if k == 1:
                    # one polynomial at m >= 1 reads one suffix table, forced or not
                    assert not counted and len(suffixes) == 1
                else:
                    assert len(counted) <= 2 * p**k and bool(counted) != dense
                counted.clear()
                suffixes.clear()
                assert sumprod_fp(polys, n) == expect_sum
                if k == 1:
                    assert not counted and len(suffixes) == p - 1
                else:
                    assert len(counted) <= p ** (k + 1) and bool(counted) != dense


# ms: the suffix variables of the degree-1 and degree-2 polynomials, m =
# n // (6dp); p = 5 would need n = 30 for one, so there m = n - 8 is patched in
@pytest.mark.parametrize("p, n, ms", [(2, 11, {0}), (2, 13, {0, 1}), (3, 17, {0}),
                                      (3, 18, {0, 1}), (5, 8, {0}), (5, 9, {1})])
def test_one_polynomial_never_takes_the_value_tuple_pass(monkeypatch, p, n, ms):
    import hypersum.fppoly as fp

    def refuse(*args):
        raise AssertionError("a one-polynomial question took the value-tuple pass")

    _force_kernel(monkeypatch, dense=False)
    monkeypatch.setattr(fp, "_accumulators", refuse)
    if p == 5:
        monkeypatch.setattr(fp, "_suffix_vars", lambda n, d, p: n - 8)
    suffixes = _record_calls(monkeypatch, "suffix_count_poly")
    dense_reads = _record_calls(monkeypatch, "_dense_sum")
    rng = random.Random(37 * p + n)
    # a constant, and degrees 1 and 2
    polys = [FpPolynomial(p, n, {0: rng.randrange(p)}),
             rand_fp_poly(rng, p, n, 1, max_monomials=12),
             FpPolynomial.from_terms(p, n, [((1, n), 1), ((2,), rng.randrange(1, p))])]
    routes = set()
    for q in polys:
        t = rng.randrange(p)
        m = fp._suffix_vars(n, q.degree, p) if q.degree else None
        suffixes.clear()
        dense_reads.clear()
        expect = oracle_count_fp_system([q], [t])
        assert count_roots(_shifted(q, t)) == count_system([q], [t]) == expect
        systems = len(suffixes), len(dense_reads)
        assert sumprod_fp([q], n) == oracle_sumprod([q], n)
        routes.add(m)
        if m is None:
            assert not suffixes and not dense_reads
        elif m:
            assert systems == (2, 0) and len(suffixes) == 2 + p - 1 and not dense_reads
        else:
            assert systems == (0, 2) and len(dense_reads) == 3 and not suffixes
    assert routes == {None, *ms}
    # a constant is answered directly at any n
    assert count_roots(FpPolynomial(p, 100, {0: p})) == 1 << 100
    assert sumprod_fp([FpPolynomial(p, 100, {0: p - 1})], 100) == p - 1 << 100


# (p, n, k, d, cap, dense): k polynomials of degree d, m = n // (6dp); the
# dense tables are read iff n <= cap, and past it the pass iff m >= 1
@pytest.mark.parametrize("p, n, k, d, cap, dense", [
    (5, 10, 3, 5, 26, True),    # m = 0
    (2, 12, 2, 2, 26, True),    # m = 0
    (2, 12, 2, 1, 26, True),    # m = 1
    (2, 24, 2, 1, 26, True),    # m = 2: 2 * 4 >= 2 * 3 once kept the pass
    (3, 36, 3, 1, 36, True),    # m = 2, n = cap
    (2, 12, 2, 1, 11, False),   # m = 1 past the cap
    (3, 36, 2, 2, 35, False),   # m = 1 past the cap
    (2, 27, 3, 2, 26, False),   # m = 1: 2^27 entries pass the cap
])
def test_dense_rule_compares_table_entries(p, n, k, d, cap, dense):
    from hypersum.fppoly import _reads_dense

    polys = [FpPolynomial(p, n, {(1 << d) - 1 << j: 1}) for j in range(k)]
    assert _reads_dense(polys, cap) is dense


def test_dense_rule_keeps_the_cap_without_a_suffix():
    from hypersum.fppoly import _reads_dense

    with pytest.raises(CapExceeded):
        _reads_dense([FpPolynomial(5, 27, {1: 1})], DEFAULT_DENSE_CAP)


def test_pass_answers_when_only_the_suffix_table_fits(monkeypatch):
    # dense_cap = n - 1 = n - m: the 2^n dense tables would exceed the cap,
    # each 2^(n-1)-entry suffix-count table does not
    _histogram_off(monkeypatch)
    counted = _record_calls(monkeypatch, "count_roots")
    for n, polys, targets in _suffix_regime_systems():
        assert count_system(polys, targets, dense_cap=n - 1) == oracle_count_fp_system(
            polys, targets
        )
        assert sumprod_fp(polys, n, dense_cap=n - 1) == oracle_sumprod(polys, n)
        with pytest.raises(CapExceeded):
            count_system(polys, targets, dense_cap=n - 2)
    assert counted


def test_mixed_degree_system_splits_by_largest_degree(monkeypatch):
    # at p = 2, n = 13 a degree-1 polynomial alone would have m = 1 (suffix
    # regime), but the degree-2 one gives m = 0, so the whole system reads
    # the dense value tables and counts no roots
    rng = random.Random(95)
    n = 13

    def linear_terms():
        return [((v,), 1) for v in rng.sample(range(1, n + 1), 5)]

    quadratic = FpPolynomial.from_terms(2, n, linear_terms() + [((1, 13), 1)])
    linear = FpPolynomial.from_terms(2, n, linear_terms() + [((), 1)])
    polys = [quadratic, linear]
    counted = _record_calls(monkeypatch, "count_roots")
    for targets in ([0, 0], [0, 1], [1, 0], [1, 1]):
        count, acc = count_system(polys, targets, with_accumulator=True)
        assert acc % 4 == 0
        assert count == oracle_count_fp_system(polys, targets)
    assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)
    assert not counted


@pytest.mark.parametrize("p, k, n", [(3, 2, 6), (5, 2, 5), (2, 3, 8)])
def test_root_counts_per_call_are_bounded(monkeypatch, p, k, n):
    # one pass over b in F_p^k needs at most p shifts of each combination
    counted = _record_calls(monkeypatch, "count_roots")
    rng = random.Random(96 + p)
    polys = [rand_fp_poly(rng, p, n, 2) for _ in range(k)]
    assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)
    assert len(counted) <= p ** (k + 1)
    counted.clear()
    targets = [rng.randrange(p) for _ in range(k)]
    assert count_system(polys, targets) == oracle_count_fp_system(polys, targets)
    assert len(counted) <= 2 * p**k


def test_invariant_violation_surfaces(monkeypatch):
    # a poisoned count_roots breaks the p^k divisibility and must be caught;
    # shifting exactly one call by 1 leaves the accumulator off by 1.  The
    # system has k = 2, since one polynomial never takes the pass, and is in
    # the suffix regime (m = 12 // (6 * 1 * 2) = 1) with dense_cap = 11 below
    # n, since the dense tables compare values and count no roots; the
    # degree-1 histogram, which counts none either, is off
    import hypersum.fppoly as fp

    _histogram_off(monkeypatch)

    real = fp.count_roots
    x1, x2 = FpPolynomial(2, 12, {1: 1}), FpPolynomial(2, 12, {2: 1})
    calls = [0]

    def poisoned(poly, *, dense_cap=fp.DEFAULT_DENSE_CAP):
        calls[0] += 1
        extra = 1 if calls[0] == 1 else 0
        return real(poly, dense_cap=dense_cap) + extra

    try:
        fp.count_roots = poisoned
        with pytest.raises(InvariantViolation):
            fp.count_system([x1, x2], [0, 0], dense_cap=11)
    finally:
        fp.count_roots = real


def _dense_regime_polys(rng, p, n, k):
    """k polys over F_p mixing zero, constant and random degree-1..3 polys."""
    polys = []
    for _ in range(k):
        kind = rng.choice(("zero", "constant", "random", "random"))
        if kind == "zero":
            polys.append(FpPolynomial(p, n, {}))
        elif kind == "constant":
            polys.append(FpPolynomial(p, n, {0: rng.randrange(1, p)}))
        else:
            polys.append(rand_fp_poly(rng, p, n, rng.randint(1, 3)))
    return polys


def test_dense_sumprod_fp_multiplies_value_tables(monkeypatch):
    # n <= 8 < 6p for every p: m = 0, so no root is counted
    counted = _record_calls(monkeypatch, "count_roots")
    rng = random.Random(97)
    for p in (2, 3, 5, 7, 13):
        for _ in range(12):
            n = rng.randint(1, 8)
            polys = _dense_regime_polys(rng, p, n, rng.randint(1, 3))
            assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)
    assert not counted


# k = 1 keeps the product on int64; at k = 3 and k = 2, (p-1)^k << n passes
# 2^62 and the product runs on Python ints
@pytest.mark.parametrize("p, k", [(1000003, 1), (1000003, 3), (2**31 - 1, 1), (2**31 - 1, 2)])
def test_dense_sumprod_fp_over_large_primes(p, k):
    rng = random.Random(p + k)
    for n in (3, 5, 6):
        polys = _dense_regime_polys(rng, p, n, k)
        assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)


# (k, bits, below, above): (below - 1)^k < 2^bits < (above - 1)^k, so the
# product of k values moves from int8, int16, int32 or int64 to the next
# type (Python ints past int64); p = 2 keeps it bool
@pytest.mark.parametrize("k, bits, below, above", [
    (1, 7, 127, 131), (1, 15, 32749, 32771), (1, 31, 2147483647, 2147483659),
    (1, 63, 9223372036854775783, 9223372036854775837),
    (2, 7, 11, 13), (2, 15, 181, 191), (2, 31, 46337, 46349), (2, 63, 3037000493, 3037000507),
    (3, 7, 5, 7), (3, 15, 31, 37), (3, 31, 1291, 1297), (3, 63, 2097143, 2097169),
])
def test_dense_sumprod_fp_across_the_product_types(monkeypatch, k, bits, below, above):
    dense_reads = _record_calls(monkeypatch, "_dense_sum")
    assert (below - 1) ** k < 1 << bits < (above - 1) ** k
    rng = random.Random(bits + k)
    for p in (2, below, above):
        for n in (3, 5, 6):
            # x1 x2 x3 keeps every factor off the degree-1 histogram, and each
            # is p - 1 at x = 0, where the product reaches (p - 1)^k
            polys = [FpPolynomial(p, n, {**rand_fp_poly(rng, p, n, 3).monomials,
                                         0: -1, 0b111: rng.randrange(1, p)}) for _ in range(k)]
            assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)
    assert len(dense_reads) == 9


def test_dense_count_system_compares_value_tables(monkeypatch):
    # n <= 8 < 6p for every p: m = 0, so the tables are compared point by point
    counted = _record_calls(monkeypatch, "count_roots")
    rng = random.Random(98)
    for p in (2, 3, 5, 7, 1000003):
        for _ in range(8):
            n = rng.randint(1, 8)
            polys = _dense_regime_polys(rng, p, n, rng.randint(1, 3))
            targets = [rng.randrange(p) for _ in polys]
            count, acc = count_system(polys, targets, with_accumulator=True)
            assert count == oracle_count_fp_system(polys, targets)
            assert acc == count * p ** len(polys)
    assert not counted


def test_dense_count_system_over_a_large_prime():
    # x1 x2 + 3 x1 + 4 = 8 mod 1000003 holds where x1 = 1 and x2 = 1
    q = FpPolynomial.from_terms(1000003, 4, [((1, 2), 1), ((1,), 3), ((), 4)])
    assert count_system([q], [8]) == oracle_count_fp_system([q], [8]) == 4


def _point_values(polys, x):
    """The values of ``polys`` at the point with mask x, as targets that have
    at least one solution."""
    return [sum(c for mask, c in q.monomials.items() if mask & x == mask) for q in polys]


@pytest.mark.parametrize("p, k", [(1000003, 2), (1000003, 3), (2**31 - 1, 2), (2**31 - 1, 3)])
def test_dense_count_system_over_large_primes(monkeypatch, p, k):
    counted = _record_calls(monkeypatch, "count_roots")
    rng = random.Random(p + k)
    for n in (3, 5, 6):
        polys = _dense_regime_polys(rng, p, n, k)
        targets = _point_values(polys, rng.getrandbits(n))
        count, acc = count_system(polys, targets, with_accumulator=True)
        assert count == oracle_count_fp_system(polys, targets) >= 1
        assert acc == count * p**k
    assert not counted


# (p-1)^2 > 2^63 puts the product on Python ints at k = 2; at k = 1 an int64
# product takes a value table of Python ints, since p << n passes 2^62
@pytest.mark.parametrize("k", [1, 2])
def test_dense_sumprod_fp_over_the_prime_2_61_minus_1(k):
    p = 2**61 - 1
    rng = random.Random(61 + k)
    for n in (3, 5, 6):
        polys = [rand_fp_poly(rng, p, n, rng.randint(1, 3)) for _ in range(k)]
        assert sumprod_fp(polys, n) == oracle_sumprod(polys, n)


def test_constants_over_a_prime_past_int64_read_the_joint_histogram():
    # constant polynomials make a box of one cell for any p; past 2^63 both
    # the cell's value and the Sum-Product are Python ints
    p = (1 << 80) + 13
    polys = [FpPolynomial(p, 3, {0: 1 << 79}), FpPolynomial(p, 3, {0: 5}), FpPolynomial(p, 3, {})]
    assert sumprod_fp(polys[:2], 3) == oracle_sumprod(polys[:2], 3) == 8 * 5 << 79
    assert count_system(polys, [1 << 79, 5 - p, 0]) == 8
    assert count_system(polys, [1 << 79, 5, 1]) == 0


def _f2_quadratic(rng, n):
    """A constant, x1 and the products of a random perfect matching of the
    variables and of n/4 more random pairs, over F_2: the matching keeps the
    answers away from the balanced 2^(n-1)."""
    order = rng.sample(range(1, n + 1), n)
    pairs = [*zip(order[::2], order[1::2])]
    pairs += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(n // 4)]
    return FpPolynomial.from_terms(2, n, [((), rng.randrange(2)), ((1,), 1)]
                                   + [(pair, 1) for pair in pairs])


# n = 24 splits one suffix variable off for degree 2, so the pass counts roots
# through the suffix construction; below it, each root count compares one
# dense value table with 0.  One polynomial takes no pass: it reads a suffix
# table at n = 24 and its dense table below
@pytest.mark.parametrize("n, k", [(20, 1), (20, 2), (22, 2), (24, 1)])
def test_f2_quadratics_agree_on_the_pass_and_the_dense_tables(monkeypatch, n, k):
    counted = _record_calls(monkeypatch, "count_roots")
    suffixes = _record_calls(monkeypatch, "suffix_count_poly")
    dense_reads = _record_calls(monkeypatch, "_dense_sum")
    rng = random.Random(n + k)
    polys = [_f2_quadratic(rng, n) for _ in range(k)]
    targets = [rng.randrange(2) for _ in range(k)]
    answers = set()
    for dense in (True, False):
        _force_kernel(monkeypatch, dense)
        for calls in (counted, suffixes, dense_reads):
            calls.clear()
        total = sumprod_fp(polys, n)
        # over F_2 the product of the values is the indicator that all are 1
        assert total == count_system(polys, [1] * k)
        answers.add((total, count_system(polys, targets)))
        if k == 1:
            assert not counted and bool(suffixes) == (n >= 24) and bool(dense_reads) == (n < 24)
        else:
            assert bool(counted) != dense
    assert len(answers) == 1


def _flipped(q, flips, order):
    """q with x_j -> 1 - x_j substituted for every j in the mask ``flips``,
    then variable j moved to ``order[j]``: a bijection of the cube, so every
    count and Sum-Product is unchanged, and the degree does not grow."""
    out = {}
    for mask, c in q.monomials.items():
        # prod over the flipped j in mask of (1 - x_j): (-1)^|T| x^T for T in it
        flipped = mask & flips
        sub = flipped
        while True:
            term = sum(1 << order[j] for j in range(q.n) if (mask & ~flips | sub) >> j & 1)
            out[term] = out.get(term, 0) + (-1) ** sub.bit_count() * c
            if not sub:
                break
            sub = (sub - 1) & flipped
    return FpPolynomial(q.p, q.n, out)


def _random_flips(rng, polys):
    """``polys`` under one random flip and permutation, shared by all."""
    n = polys[0].n
    flips, order = rng.getrandbits(n), rng.sample(range(n), n)
    return [_flipped(q, flips, order) for q in polys]


def _fp_answers(polys, targets):
    """count_roots of polys[0] - targets[0], the system and the Sum-Product."""
    return (count_roots(_shifted(polys[0], targets[0])), count_system(polys, targets),
            sumprod_fp(polys, polys[0].n))


def test_flips_keep_f2_quadratic_answers():
    # n = 24 and 25 split one suffix variable off for degree 2 over F_2
    rng = random.Random(2425)
    for n in (24, 25):
        q = _f2_quadratic(rng, n)
        [flipped] = _random_flips(rng, [q])
        assert flipped.degree == 2 and flipped.monomials != q.monomials
        t = rng.randrange(2)
        assert _fp_answers([flipped], [t]) == _fp_answers([q], [t])


def test_flips_keep_degree_one_answers_past_the_oracle():
    rng = random.Random(4060)
    for p, n in ((3, 40), (3, 60), (5, 47), (5, 60)):
        polys = [rand_fp_poly(rng, p, n, 1, max_monomials=n) for _ in range(2)]
        flipped = _random_flips(rng, polys)
        targets = [rng.randrange(p) for _ in polys]
        expect = _fp_answers(polys, targets)
        assert _fp_answers(flipped, targets) == expect
        assert sumprod_fp(polys[:1], n) == sumprod_fp(flipped[:1], n)


def test_a_suffix_root_count_equals_two_dense_tables():
    # the zero polynomial makes a system of two, which reads the dense tables
    import hypersum.fppoly as fp

    n = 24
    rng = random.Random(24)
    q = _f2_quadratic(rng, n)
    zero = FpPolynomial(2, n, {})
    assert fp._suffix_vars(n, 2, 2) == 1 and fp._reads_dense([q, zero], DEFAULT_DENSE_CAP)
    for t in (0, 1):
        assert count_roots(_shifted(q, t)) == count_system([q, zero], [t, 0])


def test_dense_kernels_hold_one_value_table_at_a_time():
    import tracemalloc

    # p = 3 and degree 2 at n = 20 leave no suffix: the dense tables, int32
    # since 3 << 20 < 2^31, and an int8 product, since (3-1)^2 and 1 fit it.
    # The slack covers the blocked transform's block and reduction chunks.
    n = 20
    table, byte = 4 << n, 1 << n
    polys = [FpPolynomial.from_terms(3, n, [((i, i + 1), 1 + i % 2) for i in range(j, n, 3)])
             for j in (1, 2)]
    for call, bound in ((lambda: count_system(polys, [1, 2]), table + 2 * byte),
                        (lambda: sumprod_fp(polys, n), table + byte)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound + (3 << 19)


def test_dense_sumprod_fp_respects_the_dense_cap():
    q = FpPolynomial(3, 12, {1: 1, 6: 2})
    with pytest.raises(CapExceeded):
        sumprod_fp([q, q], dense_cap=11)
    assert sumprod_fp([q, q], dense_cap=12) == oracle_sumprod([q, q], 12)


def test_value_histogram_memory_does_not_grow_with_p():
    import tracemalloc

    import hypersum.fppoly as fp

    p = 1000003
    q = FpPolynomial.from_terms(p, 4, [((1,), 1), ((2,), 2), ((), 5)])
    fp._value_histogram.cache_clear()
    tracemalloc.start()
    try:
        count = count_roots(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 0
    assert peak < 1 << 20
    # x1 + 2*x2 = 3 at the one point x1 = x2 = 1, for either value of x3, x4
    shifted = FpPolynomial.from_terms(p, 4, [((1,), 1), ((2,), 2), ((), -3)])
    assert count_roots(shifted) == oracle_count_fp_system([shifted], [0]) == 4


def _refuse_value_histogram(monkeypatch):
    import hypersum.fppoly as fp

    def refuse(*args):
        raise AssertionError("a query read the value-histogram cache")

    monkeypatch.setattr(fp, "_value_histogram", refuse)


def _root_shifted(q, x):
    """q minus its value at the point with mask x, so that x is a root."""
    shift = _point_values([q], x)[0]
    return FpPolynomial(q.p, q.n, {**q.monomials, 0: q.monomials.get(0, 0) - shift})


def test_no_query_reads_the_value_histogram(monkeypatch):
    # constant, degree-1, dense and suffix inputs as shipped, with the
    # degree-1 histogram off, and with the value-tuple pass forced at m = 0,
    # whose root counts then read dense tables
    from hypersum import sumprod

    _refuse_value_histogram(monkeypatch)
    rng = random.Random(35)
    cases = [(3, 6, [FpPolynomial(3, 6, {0: 2}), FpPolynomial(3, 6, {})]),
             (5, 7, [rand_fp_poly(rng, 5, 7, 1) for _ in range(2)]),
             (3, 7, [rand_fp_poly(rng, 3, 7, 3) for _ in range(2)]),
             (2, 12, [rand_fp_poly(rng, 2, 12, 1) for _ in range(2)])]
    for setup in (lambda: None, lambda: _histogram_off(monkeypatch),
                  lambda: _force_kernel(monkeypatch, dense=False)):
        setup()
        for p, n, polys in cases:
            targets = [rng.randrange(p) for _ in polys]
            for q in polys:
                assert count_roots(q) == oracle_count_fp_system([q], [0])
            assert count_system(polys, targets) == oracle_count_fp_system(polys, targets)
            assert sumprod_fp(polys, n) == sumprod(polys, n) == oracle_sumprod(polys, n)


def test_dense_count_roots_holds_one_value_table_and_keeps_nothing():
    import tracemalloc

    # n = 20 leaves no suffix for p = 3 at degree 2 (an int32 table) nor for
    # p = 1000003 (an int64 table); a root count holds that table and one
    # bool mask.  The slack covers the blocked transform's block and
    # reduction chunks
    n = 20
    rng = random.Random(20)
    for p, d, width in ((3, 2, 4), (1000003, 3, 8)):
        terms = [(rng.sample(range(1, n + 1), d), rng.randrange(1, p)) for _ in range(40)]
        q = FpPolynomial.from_terms(p, n, terms)
        q = _root_shifted(q, rng.getrandbits(n))
        tracemalloc.start()
        try:
            count = count_roots(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == np.count_nonzero(brute_values(p, n, q.monomials) == 0) >= 1
        assert peak < (width << n) + (1 << n) + (3 << 19)
    # distinct root counts keep nothing between calls
    tracemalloc.start()
    try:
        for c in range(1, 11):
            count_roots(FpPolynomial(1000003, 14, {3 << i: c * 7**i for i in range(13)}))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 18


# p = 2^61 - 1 makes Python-int value tables; every p leaves no suffix at n <= 8
@pytest.mark.parametrize("p", [2, 3, 1000003, 2**61 - 1])
def test_dense_root_counts_are_one_polynomial_systems(monkeypatch, p):
    counted = _record_calls(monkeypatch, "suffix_count_poly")
    rng = random.Random(p)
    for n in range(1, 9):
        for _ in range(3):
            q = _root_shifted(rand_fp_poly(rng, p, n, rng.randint(2, 3)), rng.getrandbits(n))
            assert count_roots(q) == count_system([q], [0]) == oracle_count_fp_system([q], [0]) >= 1
    assert not counted


# ---- degree-1 polynomials: one joint histogram ----

@st.composite
def _linear_systems(draw):
    """(p, n, polys, targets): k <= 3 polynomials of degree at most 1 over
    F_p, p <= 7, n <= 12, some of them zero or constant, sometimes one
    degree-2 monomial added (a mixed-degree system), and targets drawn from
    -3p..3p, mostly outside 0..p-1."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 3))
    coefficients = st.integers(1, p - 1)
    polys = []
    for _ in range(k):
        kind = draw(st.sampled_from(["zero", "constant", "linear", "linear"]))
        monomials = {}
        if kind != "zero":
            monomials[0] = draw(st.integers(0, p - 1))
        if kind == "linear":
            for i, c in draw(st.dictionaries(st.integers(0, n - 1), coefficients)).items():
                monomials[1 << i] = c
        polys.append(FpPolynomial(p, n, monomials))
    if n >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, k - 1))
        i = draw(st.integers(1, n - 1))
        polys[j] = FpPolynomial(p, n, {**polys[j].monomials, 1 << i | 1: draw(coefficients)})
    targets = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=k, max_size=k))
    return p, n, polys, targets


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_linear_systems())
def test_degree_one_questions_match_the_oracle_with_and_without_the_histogram(system):
    import hypersum.fppoly as fp

    p, n, polys, targets = system
    k = len(polys)
    if any(q.degree > 1 for q in polys):
        assert fp._linear_sum(polys, targets, np.int64) is None
    first = polys[0]
    root = FpPolynomial(p, n, {**first.monomials, 0: first.monomials.get(0, 0) - targets[0]})
    expect_roots = oracle_count_fp_system([first], targets[:1])
    expect_count = oracle_count_fp_system(polys, targets)
    expect_sum = oracle_sumprod(polys, n)
    for histogram in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if not histogram:
                mp.setattr(fp, "_linear_sum", lambda polys, lifts, dtype: None)
            assert count_roots(root) == expect_roots
            count, acc = count_system(polys, targets, with_accumulator=True)
            assert count == expect_count
            assert acc == count * p**k
            assert sumprod_fp(polys, n) == expect_sum


def test_degree_one_histogram_is_taken_within_its_box():
    from hypersum.fppoly import _linear_sum

    # x1 + ... + x12 over F_13: a box of 13 cells, within 1 << 12; as p > n,
    # the roots of x - t are the one cell s = t
    x = _parity(13, 12, 12)
    assert [count_roots(_shifted(x, t)) for t in range(13)] == [math.comb(12, s) for s in range(13)]
    # 6 (x1 + x2) over F_7 at n = 2 is 6 times the form x1 + x2, a box of 3
    # cells; 5 x1 + 6 x2 is primitive, a box of 12 cells, past 1 << 2
    assert _linear_sum([FpPolynomial(7, 2, {1: 6, 2: 6})], [0], np.int64) == 1
    assert _linear_sum([FpPolynomial(7, 2, {1: 5, 2: 6})], [0], np.int64) is None
    # int64 holds counts up to 2^n while n <= 61 only; at n = 61 only the
    # histogram answers, within the dense cap of 26
    x = _parity(67, 61, 61)
    assert [count_roots(_shifted(x, t)) for t in range(62)] == [math.comb(61, s) for s in range(62)]
    assert _linear_sum([_parity(2, 62, 62)], [0], np.int64) is None


def _histogram_axes(mp):
    """Spy on ``mitm.histogram`` with the MonkeyPatch ``mp``: the returned
    list collects each call's number of axes."""
    import hypersum.mitm as mitm

    real, axes = mitm.histogram, []
    mp.setattr(mitm, "histogram",
               lambda rows, n, window=None: axes.append(len(rows)) or real(rows, n, window))
    return axes


@st.composite
def _shared_form_questions(draw):
    """(p, n, polys, targets): 2-4 polynomials over F_p, p in {3, 5, 7},
    n = 7..10, each c * v + c0 for v one of two drawn 0/1/2 vectors (zero
    allowed), c such that every c v_i stays below p, and a constant c0, so
    their stored coefficients are multiples of at most two forms."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(7, 10))
    vectors = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                            min_size=2, max_size=2))
    polys = []
    for _ in range(draw(st.integers(2, 4))):
        v = draw(st.sampled_from(vectors))
        c = draw(st.integers(1, (p - 1) // max(1, *v)))
        monomials = {1 << i: c * x for i, x in enumerate(v) if x}
        polys.append(FpPolynomial(p, n, {**monomials, 0: draw(st.integers(0, p - 1))}))
    targets = draw(st.lists(st.integers(0, p - 1), min_size=len(polys), max_size=len(polys)))
    return p, n, polys, targets


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_shared_form_questions())
def test_polynomials_on_shared_forms_merge_into_their_axes(question):
    import hypersum.fppoly as fp

    p, n, polys, targets = question
    first = polys[0]
    expect = (oracle_count_fp_system(polys[:1], targets[:1]),
              oracle_count_fp_system(polys, targets), oracle_sumprod(polys, n))
    for histogram in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            axes = _histogram_axes(mp)
            if not histogram:
                mp.setattr(fp, "_linear_sum", lambda polys, lifts, dtype: None)
            assert (count_roots(_shifted(first, targets[0])), count_system(polys, targets),
                    sumprod_fp(polys, n)) == expect
            # one axis per distinct form: the one polynomial's, then at most two
            assert (axes[0] == 1 and len(axes) == 3 and max(axes) <= 2) if histogram else not axes


def test_four_polynomials_on_one_form_at_n_60_read_one_axis(monkeypatch):
    # c (x1 + ... + x60) + d over F_5: no single box of four axes fits, but
    # the four rows share one axis of 61 cells
    import hypersum.fppoly as fp

    def refuse(*args):
        raise AssertionError("the value-tuple pass ran")

    monkeypatch.setattr(fp, "_accumulators", refuse)
    axes = _histogram_axes(monkeypatch)
    n, p, targets = 60, 5, [0, 1, 3, 2]
    shifts = list(zip((1, 2, 3, 4), (0, 1, 3, 2)))
    polys = [FpPolynomial(p, n, {0: d, **{1 << i: c for i in range(n)}}) for c, d in shifts]
    count = sum(math.comb(n, s) for s in range(n + 1)
                if all((c * s + d) % p == t for (c, d), t in zip(shifts, targets)))
    value = sum(math.comb(n, s) * math.prod((c * s + d) % p for c, d in shifts)
                for s in range(n + 1))
    assert count_system(polys, targets) == count == 230585685502492596
    assert sumprod_fp(polys, n) == value == 11759746863383510145
    assert axes == [1, 1]


def _parity(p, n, count):
    """x1 + ... + x_count over F_p on n variables."""
    return FpPolynomial(p, n, {1 << i: 1 for i in range(count)})


def test_degree_one_identities_at_n_60():
    # past the oracle and past the dense cap: the histogram binds neither
    n = 60
    assert count_roots(_parity(2, n, n)) == 2**59
    f3 = sum(math.comb(n, s) for s in range(0, n + 1, 3))
    assert count_roots(_parity(3, n, n)) == f3 == 384307168202282326
    system = [_parity(2, n, n), _parity(2, n, 30)]
    assert count_system(system, [0, 1], with_accumulator=True) == (288230376151711744, 2**60)
    assert sumprod_fp([_parity(3, n, n)], n) == sum(math.comb(n, s) * (s % 3) for s in range(n + 1))
