import importlib
import random
from fractions import Fraction

import numpy as np
import pytest

from hypersum import (
    CapExceeded,
    ExactThresholdGate,
    FpPolynomial,
    ReluGate,
    ThresholdGate,
    oracle_sumprod,
    sumprod,
)
from hypersum.mitm import count_subset_sum
from hypersum.sumprod import sumprod_ethr, sumprod_relu, sumprod_thr
from randgen import (
    rand_ethr_instance,
    rand_relu_instance,
    rand_thr_instance,
)


def test_thr_random_vs_oracle():
    for i in range(50):
        rng = random.Random(200 + i)
        n = rng.randint(2, 12)
        k = rng.randint(1, 4)
        gates = rand_thr_instance(rng, n, k)
        assert sumprod_thr(gates) == oracle_sumprod(gates, n)


def test_thr_unsatisfiable_gate_zeroes_product():
    g = ThresholdGate((Fraction(1), Fraction(1)), Fraction(5))
    ok = ThresholdGate((Fraction(1), Fraction(1)), Fraction(0))
    assert sumprod_thr([ok, g]) == 0


def test_thr_zero_weights():
    g = ThresholdGate((Fraction(0),) * 3, Fraction(0))
    assert sumprod_thr([g]) == 8


def test_thr_fractional_inputs():
    g = ThresholdGate((Fraction(1, 2), Fraction(-3, 4)), Fraction(-1, 4))
    assert sumprod_thr([g]) == oracle_sumprod([g])


def test_thr_tuple_cap():
    # every gate decomposes into 2n+1 terms; four gates overflow a small cap
    gates = [ThresholdGate((Fraction(1),) * 10, Fraction(-w)) for w in range(4, 8)]
    with pytest.raises(CapExceeded):
        sumprod_thr(gates, tuple_cap=1000)


def test_thr_python_fallback_agrees():
    # huge weights keep numpy out of the half enumeration; the threshold sits
    # near the top of the range so the decomposition stays narrow
    big = 1 << 62
    g1 = ThresholdGate(
        tuple(Fraction(w) for w in (big, -big, 1, 1, 1, 1)), Fraction(big + 2)
    )
    g2 = ThresholdGate(
        tuple(Fraction(w) for w in (2, 1, -1, -1, -1, 0)), Fraction(0)
    )
    assert sumprod_thr([g1, g2]) == oracle_sumprod([g1, g2])


def test_ethr_random_vs_oracle():
    for i in range(40):
        rng = random.Random(300 + i)
        n = rng.randint(2, 12)
        k = rng.randint(1, 4)
        gates = rand_ethr_instance(rng, n, k)
        assert sumprod_ethr(gates) == oracle_sumprod(gates, n)


def test_ethr_single_gate_is_subset_sum():
    g = ExactThresholdGate((Fraction(3), Fraction(-2), Fraction(1)), Fraction(1))
    assert sumprod_ethr([g]) == count_subset_sum([3, -2, 1], 1)


def test_relu_random_vs_oracle():
    for i in range(50):
        rng = random.Random(400 + i)
        n = rng.randint(2, 10)
        k = rng.randint(1, 4)
        gates = rand_relu_instance(rng, n, k)
        got = sumprod_relu(gates)
        assert got == oracle_sumprod(gates, n)
        assert isinstance(got, Fraction)


def test_relu_never_positive_gate():
    g = ReluGate((Fraction(-1), Fraction(-2)), Fraction(0))
    other = ReluGate((Fraction(1), Fraction(1)), Fraction(1))
    assert sumprod_relu([other, g]) == 0


def test_relu_python_fallback_agrees():
    g = ReluGate((Fraction(1 << 62), Fraction(1), Fraction(1)), Fraction(-(1 << 62)))
    assert sumprod_relu([g]) == oracle_sumprod([g])


def test_dispatch_infers_family():
    thr = ThresholdGate((Fraction(1), Fraction(1)), Fraction(1))
    assert sumprod([thr]) == 3
    ethr = ExactThresholdGate((Fraction(1), Fraction(1)), Fraction(1))
    assert sumprod([ethr]) == 2
    relu = ReluGate((Fraction(1), Fraction(1)), Fraction(0))
    assert sumprod([relu]) == 0 + 1 + 1 + 2
    q = FpPolynomial.from_terms(2, 2, [((1,), 1)])
    assert sumprod([q]) == 2


def test_dispatch_rejects_mixed_families():
    thr = ThresholdGate((Fraction(1),), Fraction(1))
    ethr = ExactThresholdGate((Fraction(1),), Fraction(1))
    with pytest.raises(ValueError):
        sumprod([thr, ethr])


def test_dispatch_empty_product():
    assert sumprod([], 4) == 16
    with pytest.raises(ValueError):
        sumprod([])


@pytest.mark.parametrize("fn", [sumprod, sumprod_thr, sumprod_ethr, sumprod_relu])
def test_negative_n_is_rejected(fn):
    with pytest.raises(ValueError, match="n must be non-negative"):
        fn([], -1)


def test_dispatch_n_mismatch():
    thr = ThresholdGate((Fraction(1),), Fraction(1))
    with pytest.raises(ValueError):
        sumprod([thr], 3)


def test_large_n_runs_fast():
    rng = random.Random(9)
    ws = tuple(Fraction(rng.randint(-10, 10)) for _ in range(30))
    g = ThresholdGate(ws, Fraction(5))
    # not timed here, just exercises the wide numpy path end to end
    assert sumprod_thr([g]) > 0


def test_exact_path_agrees_with_int64_path(monkeypatch):
    # a zero int64 bound sends every query down the Python-int path
    module = importlib.import_module("hypersum.mitm")
    for i in range(40):
        rng = random.Random(700 + i)
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        thr = rand_thr_instance(rng, n, k)
        relu = rand_relu_instance(rng, n, k)
        fast = (sumprod_thr(thr), sumprod_relu(relu))
        with monkeypatch.context() as m:
            m.setattr(module, "_INT64_BOUND", 0)
            exact = (sumprod_thr(thr), sumprod_relu(relu))
        assert fast == exact == (oracle_sumprod(thr, n), oracle_sumprod(relu, n))


def test_scaled_weights_take_exact_path(monkeypatch):
    """Scaling every weight and constant by 2^64 leaves a THR sum unchanged
    and multiplies a ReLU sum by 2^64.  Rows read each gate on its primitive
    form, so the scaled copy enumerates the same int64 half sums."""
    module = importlib.import_module("hypersum.sumprod")
    halves = []
    real_half_table = module._half_table

    def recording(parts, dtype):
        out = real_half_table(parts, dtype)
        halves.append((list(parts), out.dtype == object))
        return out

    monkeypatch.setattr(module, "_half_table", recording)
    c = 1 << 64  # every nonzero weight becomes at least 2^64
    # scaling widens every gate's integer range c-fold, so all THR gates but
    # one (the widest, which is never expanded) get a single target; a
    # positive ReLU gate cannot have one, so the ReLU queries have one gate
    checked = 0
    for i in range(40):
        rng = random.Random(800 + i)
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        thr = rand_thr_instance(rng, n, k)
        thr = thr[:1] + [
            ThresholdGate(g.weights, sum(w for w in g.weights if w > 0)) for g in thr[1:]
        ]
        relu = rand_relu_instance(rng, n, 1)
        for gates, kernel, scaled, factor in (
            (thr, sumprod_thr, lambda g: ThresholdGate(
                tuple(w * c for w in g.weights), g.threshold * c), 1),
            (relu, sumprod_relu, lambda g: ReluGate(
                tuple(w * c for w in g.weights), g.bias * c), c),
        ):
            expect = oracle_sumprod(gates, n)
            halves.clear()
            assert kernel(gates) == expect
            unscaled = list(halves)
            halves.clear()
            assert kernel([scaled(g) for g in gates]) == factor * expect
            assert halves == unscaled
            assert not any(exact for _, exact in halves)
            if halves and any(w for g in gates for w in g.weights):
                checked += 1
    assert checked >= 30


def test_widest_gate_is_never_expanded():
    # the gate accepts 2^40 + 2 integer sums, all summed by the range kernel
    gate = ThresholdGate((Fraction(2**40), Fraction(1), Fraction(1)), Fraction(1))
    assert sumprod_thr([gate]) == oracle_sumprod([gate]) == 7


def _thr(rows):
    return [ThresholdGate(tuple(Fraction(w) for w in ws), Fraction(t)) for ws, t in rows]


def _relu(rows):
    return [ReluGate(tuple(Fraction(w) for w in ws), 1 - Fraction(t)) for ws, t in rows]


# (weights, t): a THR gate with threshold t, or a ReLU gate with bias 1 - t;
# with integer weights both accept the same sums, t and up
KERNEL_EDGE_CASES = {
    "widest gate last": [((1, 1, 0, 0, 0), 2), ((3, -1, 2, 1, 1), -1)],
    "widest gate in the middle": [
        ((1, 0, 1, 0, 0), 1), ((2, 2, -1, 1, 3), 0), ((0, 1, 1, 1, 0), 2),
    ],
    "two gates tie for widest": [
        ((1, 1, 1, 1, 0), 1), ((0, 1, 1, 1, 1), 1), ((1, 0, 0, 0, 1), 1),
    ],
    "single targets only": [((1, 1, 1, 0, 0), 3), ((0, 0, 1, 1, 1), 3)],
    "unsatisfiable gate": [((2, -1, 1, 3, 0), 0), ((1, 1, 0, 0, 0), 3)],
    "zero weights": [
        ((0, 0, 0, 0, 0), -2), ((2, -1, 1, 0, 3), 1), ((0, 0, 0, 0, 0), -1),
    ],
    "fractional inputs": [
        (("1/2", "-3/4", "1/3", 1, 0), "-1/4"),
        (("2/3", 1, "-1/2", 0, "1/5"), "1/6"),
        ((1, "1/7", 0, "-2/7", "3/2"), "1/2"),
    ],
}


@pytest.mark.parametrize("rows", KERNEL_EDGE_CASES.values(), ids=KERNEL_EDGE_CASES.keys())
@pytest.mark.parametrize(
    "build, kernel", [(_thr, sumprod_thr), (_relu, sumprod_relu)], ids=["thr", "relu"]
)
def test_kernel_edge_cases(rows, build, kernel):
    gates = build(rows)
    expect = oracle_sumprod(gates)
    assert kernel(gates) == expect
    assert kernel(gates[::-1]) == expect


def test_rows_round_inward_to_the_weights_gcd():
    # a row reads its gate on the primitive form w = weights / gcd: under
    # weights (2, 2) the threshold 3 becomes w = (1, 1) with sums from 3/2
    # up, so [2, 2], and expanding it next to a wider gate takes 1 tuple
    from hypersum.sumprod import _gate_row

    narrow = ThresholdGate((Fraction(2), Fraction(2)), Fraction(3))
    assert _gate_row(narrow)[:3] == ((1, 1), 2, 2)
    gates = [narrow, ThresholdGate((Fraction(1), Fraction(1)), Fraction(0))]
    assert sumprod_thr(gates, tuple_cap=1) == oracle_sumprod(gates) == 1
    # an exact target off the lattice leaves an empty range
    assert _gate_row(ExactThresholdGate((Fraction(2), Fraction(2)), Fraction(3))) is None
    # 3 (x1 + 2x2 - x3) - 7 is positive at the one sum 3 of w that is past 7/3
    relu = ReluGate((Fraction(3), Fraction(6), Fraction(-3)), Fraction(-7))
    assert _gate_row(relu)[:3] == ((1, 2, -1), 3, 3)
    # 2 (x1 + 2x2 + 3x3) - 4 is positive from the sum 3 of w up to its top 6
    wide = ReluGate((Fraction(2), Fraction(4), Fraction(6)), Fraction(-4))
    assert _gate_row(wide)[:3] == ((1, 2, 3), 3, 6)
    for gates in ([relu], [wide], [relu, wide]):
        assert sumprod_relu(gates) == oracle_sumprod(gates)


def test_threshold_rows_expand_only_lattice_targets():
    # weights (2, 2, 2, 2, 0) reach the sums 0, 2, ..., 8: the gate accepts
    # four of them, so next to the wider count gate it expands 4 targets,
    # not the 7 integers from 2 to 8
    gates = [ThresholdGate((2, 2, 2, 2, 0), 1), ThresholdGate((1, 1, 1, 1, 1), 0)]
    assert sumprod(gates, tuple_cap=4) == oracle_sumprod(gates) == 30
    with pytest.raises(CapExceeded):
        sumprod(gates, tuple_cap=3)


def test_relu_rows_expand_only_lattice_targets():
    # 2 (x1 + x2 + x3 + x4) - 1 is positive from the sum 1 of its primitive
    # form up to 4: next to the wider count gate it expands 4 targets, not
    # the 7 integers from 2 to 8 of its own sums
    gates = [ReluGate((2, 2, 2, 2, 0, 0, 0), -1), ReluGate((1,) * 7, 1)]
    assert sumprod(gates, tuple_cap=4) == oracle_sumprod(gates) == 2004
    with pytest.raises(CapExceeded):
        sumprod(gates, tuple_cap=3)


@pytest.mark.parametrize("histogram", [True, False])
def test_threshold_rows_with_common_factors_on_both_kernels(histogram, monkeypatch):
    module = importlib.import_module("hypersum.sumprod")
    monkeypatch.setattr(module, "_use_histogram", lambda *args: histogram)
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 8)
        kind = rng.choice([ThresholdGate, ExactThresholdGate])
        gates = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice([1, 2, 3, 6])
            ws = tuple(g * rng.randint(-3, 3) for _ in range(n))
            gates.append(kind(ws, rng.randint(-4 * g, 4 * g)))
        assert sumprod(gates) == oracle_sumprod(gates)


@pytest.mark.parametrize("histogram", [True, False])
def test_relu_common_factors_stay_in_the_row_scale(histogram, monkeypatch):
    # a ReLU row moves its gate's common factor into its scale, so the same
    # two gates times 2^64 run on int64 arrays like the unscaled ones
    module = importlib.import_module("hypersum.sumprod")
    monkeypatch.setattr(module, "_use_histogram", lambda *args: histogram)
    dtypes = []

    def spy(real, at):
        def wrapped(*args):
            dtypes.append(args[at])
            return real(*args)
        return wrapped

    monkeypatch.setattr(module, "_half_table", spy(module._half_table, 1))
    monkeypatch.setattr(module, "_affine", spy(module._affine, 3))
    rng = random.Random(23)
    n, c = 14, 2**64
    rows = [([rng.randint(-100, 100) for _ in range(n)], rng.randint(-50, 50)) for _ in range(2)]
    gates = [ReluGate(tuple(w), b) for w, b in rows]
    scaled = [ReluGate(tuple(c * x for x in w), c * b) for w, b in rows]
    value = sumprod(scaled)
    assert dtypes and all(dtype is np.int64 for dtype in dtypes)
    assert value == sumprod(gates) * c**2 == oracle_sumprod(gates) * c**2


def test_ethr_conjunction_ignores_the_tuple_cap():
    gates = [
        ExactThresholdGate((1, 1, 1, 1), 2),
        ExactThresholdGate((1, 2, 0, 0), 1),
    ]
    assert sumprod(gates, tuple_cap=0) == oracle_sumprod(gates, 4) == 2


def test_empty_products_keep_their_types():
    relu = sumprod_relu([], 3)
    assert relu == 8 and type(relu) is Fraction
    for fn in (sumprod_thr, sumprod_ethr):
        value = fn([], 3)
        assert value == 8 and type(value) is int
