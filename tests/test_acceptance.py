"""Acceptance gate: ten checks covering oracle equivalence of every engine,
the structural enumeration count, the amplifier and suffix-count algebra,
the reductions, and the beats-brute-force timing demonstration.

Each check prints one PASS/FAIL line; the lines are also replayed in the
terminal summary so a quiet pytest run still shows them.
"""

import random
import time
from fractions import Fraction

import numpy as np

import conftest

from hypersum import (
    FpPolynomial,
    FpSumProdParams,
    ThresholdGate,
    amplifier_order,
    count_subset_sum,
    count_system,
    check_boolean,
    eval_all_points,
    mod_amplifier,
    oracle_check_boolean,
    oracle_count_fp_system,
    oracle_sumprod,
    partials,
    suffix_count_poly,
    sumprod_fp,
    sumprod_relu,
    sumprod_thr,
    thr_to_relu_pair,
)
from randgen import (
    perturb_comb,
    rand_boolean_ethr_comb,
    rand_boolean_thr_comb,
    rand_fp_poly,
    rand_relu_instance,
    rand_thr_instance,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def test_criterion_01_thr_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for i in range(200):
        rng = random.Random(10_000 + i)
        n = rng.randint(2, 14)
        k = rng.randint(1, 4)
        gates = rand_thr_instance(rng, n, k, weight_bound=8)
        if sumprod_thr(gates) != oracle_sumprod(gates, n):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60
    _verdict(1, ok, f"THR vs oracle: {200 - mismatches}/200 exact, "
                    f"{elapsed:.1f}s (budget 60s)")


def test_criterion_02_relu_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for i in range(200):
        rng = random.Random(20_000 + i)
        n = rng.randint(2, 12)
        k = rng.randint(1, 4)
        gates = rand_relu_instance(rng, n, k, den_bound=4)
        if sumprod_relu(gates) != oracle_sumprod(gates, n):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120
    _verdict(2, ok, f"ReLU vs oracle: {200 - mismatches}/200 exact, "
                    f"{elapsed:.1f}s (budget 120s)")


def test_criterion_03_fp_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for i in range(200):
        rng = random.Random(30_000 + i)
        p = (2, 3, 5)[i % 3]
        d = rng.randint(1, 3)
        n = rng.randint(2, 12)
        k = rng.randint(1, 4)
        polys = [rand_fp_poly(rng, p, n, d) for _ in range(k)]
        if sumprod_fp(polys, n) != oracle_sumprod(polys, n):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 180
    _verdict(3, ok, f"F_p vs oracle: {200 - mismatches}/200 exact, "
                    f"{elapsed:.1f}s (budget 180s)")


def test_criterion_04_enumeration_instrumentation():
    ok = True
    details = []
    for n in (10, 20, 30):
        rng = random.Random(40_000 + n)
        ws = [rng.randint(-100, 100) for _ in range(n)]
        partials.reset()
        start = time.perf_counter()
        count_subset_sum(ws, rng.randint(-50, 50))
        elapsed = time.perf_counter() - start
        expect = 2 ** ((n + 1) // 2) + 2 ** (n // 2)
        if partials.value != expect:
            ok = False
        if n == 30 and elapsed >= 5:
            ok = False
        details.append(f"n={n}: {partials.value} partials ({elapsed:.2f}s)")
    _verdict(4, ok, "split-and-list tally = 2^ceil(n/2)+2^floor(n/2); "
                    + "; ".join(details))


def test_criterion_05_amplifier_congruences():
    ok = True
    for m in (2, 3, 5):
        for ell in range(1, 9):
            amp = mod_amplifier(ell)
            if amp.evaluate(0) != 0 or amp.evaluate(1) != 1:
                ok = False
            if amp.degree != 2 * ell - 1:
                ok = False
            rng = random.Random(50_000 + 10 * m + ell)
            modulus = m**ell
            for _ in range(100):
                y = m * rng.randint(-10**6, 10**6)
                if amp.evaluate(y) % modulus != 0:
                    ok = False
                if amp.evaluate(y + 1) % modulus != 1:
                    ok = False
    _verdict(5, ok, "amplifier: P(0)=0, P(1)=1, deg=2l-1, both congruences "
                    "hold for m in {2,3,5}, l in 1..8, 100 draws each")


def _brute_prefix_counts(p: int, n: int, m: int, monomials) -> np.ndarray:
    """Suffix-root counts per prefix by direct evaluation (no shared code)."""
    masks = np.arange(1 << n, dtype=np.int64)
    vals = np.zeros(1 << n, dtype=np.int64)
    for mono, coeff in monomials.items():
        vals += coeff * ((masks & mono) == mono)
    vals %= p
    return (vals.reshape(1 << m, 1 << (n - m)) == 0).sum(axis=0)


def test_criterion_06_suffix_count_construction():
    cases = []
    for i in range(30):
        cases.append((2, 1, 12 + i % 6))
    for i in range(14):
        cases.append((3, 1, 18))
    for i in range(4):
        cases.append((2, 1, 24))
    for i in range(2):
        cases.append((2, 2, 24))
    ok = True
    checked = 0
    for i, (p, d, n) in enumerate(cases):
        rng = random.Random(60_000 + i)
        params = FpSumProdParams(p=p, d=d, k=1, n=n)
        if params.m < 1:
            ok = False
            continue
        q = rand_fp_poly(rng, p, n, d)
        counter = suffix_count_poly(q, params)
        table = np.array(eval_all_points(counter))
        brute = _brute_prefix_counts(p, n, params.m, q.monomials)
        if not (table == brute).all():
            ok = False
        if counter.degree >= 2 * d * p * params.m:
            ok = False
        checked += 1
    _verdict(6, ok, f"suffix-count residues match brute force on {checked}/50 "
                    f"cases (m >= 1), degree < 2dpm throughout")


def test_criterion_07_system_reduction():
    ok = True
    for i in range(100):
        rng = random.Random(70_000 + i)
        p = (2, 3)[i % 2]
        k = rng.randint(1, 3)
        n = rng.randint(2, 10)
        polys = [rand_fp_poly(rng, p, n, rng.randint(1, 2)) for _ in range(k)]
        targets = [rng.randrange(p) for _ in range(k)]
        count, acc = count_system(polys, targets, with_accumulator=True)
        if acc % p**k != 0:
            ok = False
        if count != oracle_count_fp_system(polys, targets):
            ok = False
    _verdict(7, ok, "count_system = oracle on 100 systems, accumulator "
                    "divisible by p^k in every case")


def test_criterion_08_boolean_check():
    ok = True
    negative_deviation = False
    misclassified = 0
    combos = []
    for i in range(50):
        rng = random.Random(80_000 + i)
        combos.append(rand_boolean_ethr_comb(rng, rng.randint(4, 10), rng.randint(1, 3)))
    for i in range(50):
        rng = random.Random(81_000 + i)
        combos.append(rand_boolean_thr_comb(rng, rng.randint(2, 9)))
    perturbed = []
    for i, comb in enumerate(combos):
        rng = random.Random(82_000 + i)
        perturbed.append(perturb_comb(rng, comb))
    for comb in combos + perturbed:
        verdict = check_boolean(comb)
        if verdict.deviation < 0:
            negative_deviation = True
        if verdict.is_boolean != oracle_check_boolean(comb).is_boolean:
            misclassified += 1
    ok = misclassified == 0 and not negative_deviation
    _verdict(8, ok, f"check_boolean: {misclassified} misclassifications over "
                    f"100 Boolean + 100 perturbed, deviation never negative")


def test_criterion_09_thr_to_relu_identity():
    ok = True
    for i in range(100):
        rng = random.Random(90_000 + i)
        n = rng.randint(1, 12)
        ws = [rng.randint(-8, 8) for _ in range(n)]
        t = rng.randint(sum(w for w in ws if w < 0) - 2,
                        sum(w for w in ws if w > 0) + 2)
        gate = ThresholdGate(tuple(Fraction(w) for w in ws), Fraction(t))
        plus, minus = thr_to_relu_pair(gate)
        masks = np.arange(1 << n, dtype=np.int64)
        s = np.zeros(1 << n, dtype=np.int64)
        for j, w in enumerate(ws):
            s += w * ((masks >> j) & 1)
        lhs = (np.maximum(0, s + plus.bias.numerator)
               - np.maximum(0, s + minus.bias.numerator))
        if not (lhs == (s >= t)).all():
            ok = False
    _verdict(9, ok, "ReLU(s+1-t) - ReLU(s-t) equals [s >= t] pointwise on "
                    "100 gates, all 2^n points each")


def test_criterion_10_beats_brute_force():
    rng = random.Random(100_000)
    ws36 = [rng.randint(-10, 10) for _ in range(36)]
    lo = sum(w for w in ws36 if w < 0)
    hi = sum(w for w in ws36 if w > 0)
    gate36 = ThresholdGate(tuple(Fraction(w) for w in ws36),
                           Fraction(rng.randint(lo, hi)))
    start = time.perf_counter()
    value = sumprod_thr([gate36])
    fast = time.perf_counter() - start

    ws28 = [rng.randint(-10, 10) for _ in range(28)]
    lo = sum(w for w in ws28 if w < 0)
    hi = sum(w for w in ws28 if w > 0)
    gate28 = ThresholdGate(tuple(Fraction(w) for w in ws28),
                           Fraction(rng.randint(lo, hi)))
    start = time.perf_counter()
    oracle_sumprod([gate28], cap=28)
    brute28 = time.perf_counter() - start
    extrapolated = brute28 * 2 ** (36 - 28)

    ok = fast < 30 and extrapolated > 300
    _verdict(10, ok, f"n=36 histogram {fast:.2f}s (< 30s, value {value}); "
                     f"oracle n=28 {brute28:.1f}s -> ~{extrapolated:.0f}s "
                     f"extrapolated at n=36 (> 300s)")
