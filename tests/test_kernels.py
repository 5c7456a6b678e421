"""Both Sum-Product kernels, forced one at a time, against the oracle; and
the rule that picks between them.

``sumprod._use_histogram`` is replaced for the duration of a call to force
the histogram (True) or split and list (False)."""

import importlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import (
    CapExceeded,
    ExactThresholdGate,
    ReluGate,
    ThresholdGate,
    oracle_sumprod,
    sumprod,
)
from hypersum.sumprod import sumprod_thr

sp = importlib.import_module("hypersum.sumprod")
mitm = importlib.import_module("hypersum.mitm")

SETTINGS = settings(derandomize=True, deadline=None, max_examples=80)


def forced(gates, histogram: bool):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", lambda *args: histogram)
        return sumprod(gates)


def assert_kernels_agree(gates, n):
    expect = oracle_sumprod(gates, n)
    assert forced(gates, True) == forced(gates, False) == expect
    return expect


# zero, negative and rational numbers
number = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))


# nonzero rationals, 1 and -1 among them
factor = st.builds(lambda sign, r: sign * r, st.sampled_from((1, -1)),
                   st.one_of(st.just(Fraction(1)), number.filter(bool)))


@st.composite
def gate_inputs(draw):
    """(n, [(weights, constant)]) with k = 1-3 gates over n <= 12 variables;
    each constant is a subset sum of its weights plus an offset that is
    often 0, so that exact-threshold answers are not all zero.  Each gate's
    weights and constant share a common factor of 1, 2, 6 or 2^64, which the
    rows divide out again.  A gate after the first may instead reuse an
    earlier gate's weights, unchanged, negated or times a rational, with a
    constant of its own: its row then shares that gate's form, in either
    orientation and at another scale, and the two accepted ranges may not
    meet."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from((1, 2, 6, 2**64)))
        if rows and draw(st.booleans()):
            c = draw(factor)
            ws = [c * w for w in draw(st.sampled_from(rows))[0]]
        else:
            ws = [g * w for w in draw(st.lists(number, min_size=n, max_size=n))]
        picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        offset = draw(st.one_of(st.just(0), number))
        rows.append((ws, sum(w for w, b in zip(ws, picks) if b) + g * offset))
    return n, rows


@SETTINGS
@given(gate_inputs())
def test_thr_kernels_agree(case):
    n, rows = case
    assert_kernels_agree([ThresholdGate(tuple(ws), t) for ws, t in rows], n)


@SETTINGS
@given(gate_inputs())
def test_ethr_kernels_agree(case):
    n, rows = case
    assert_kernels_agree([ExactThresholdGate(tuple(ws), t) for ws, t in rows], n)


@SETTINGS
@given(gate_inputs())
def test_relu_kernels_agree(case):
    n, rows = case
    assert_kernels_agree([ReluGate(tuple(ws), -b) for ws, b in rows], n)


def test_ethr_target_outside_the_box_is_zero():
    ws = (Fraction(3), Fraction(-2), Fraction(0), Fraction(1))
    for target in (5, -3, 2**70, -(2**70)):
        inside = ExactThresholdGate(ws, Fraction(1))
        outside = ExactThresholdGate(ws, Fraction(target))
        assert forced([outside], True) == 0
        assert forced([inside, outside], True) == forced([outside, inside], True) == 0
        assert assert_kernels_agree([inside, outside], 4) == 0


def test_relu_totals_past_int64_take_the_object_path():
    # every value is at least 2^40, so the product of two exceeds 2^62
    big = Fraction(2**40)
    gates = [
        ReluGate((Fraction(1), Fraction(-2), Fraction(0), Fraction(3)), big),
        ReluGate((Fraction(1, 2), Fraction(1), Fraction(1), Fraction(-1)), big + 1),
    ]
    assert assert_kernels_agree(gates, 4) > 2**80
    # three narrow gates over 5 variables, each valued up to 2^21 + 5
    gates = [ReluGate((Fraction(1),) * 5, Fraction(2**21 + j)) for j in range(3)]
    assert assert_kernels_agree(gates, 5) > 2**62


def test_histogram_counts_past_int64():
    # 2^64 points: the histogram's cells hold Python ints
    gate = ThresholdGate((Fraction(1),) * 64, Fraction(0))
    assert forced([gate], True) == 2**64
    gate = ThresholdGate((Fraction(1),) * 64, Fraction(63))
    assert forced([gate, gate], True) == 65


def test_ethr_at_n60_reads_one_cell(monkeypatch):
    # split and list would enumerate two lists of 2^30 Python ints
    def refuse(*args):
        raise AssertionError("half enumeration on a narrow gate")

    monkeypatch.setattr(mitm, "half_sums", refuse)
    monkeypatch.setattr(sp, "_half_table", refuse)
    gate = ExactThresholdGate((Fraction(1),) * 60, Fraction(30))
    assert sumprod([gate]) == math.comb(60, 30) == 118264581564861424


class _Chosen(Exception):
    pass


def chooses_histogram(gates) -> bool:
    """The rule's decision for ``gates``, stopping the call right after it."""
    real = sp._use_histogram
    seen = []

    def spy(*args):
        seen.append(real(*args))
        raise _Chosen

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", spy)
        with pytest.raises(_Chosen):
            sumprod(gates)
    return seen[0]


def _weights(rng, n, bound):
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))


def _thr(rng, n, terms, bound):
    """A THR gate accepting exactly ``terms`` achievable sums, the largest."""
    ws = _weights(rng, n, bound)
    return ThresholdGate(ws, sum(w for w in ws if w > 0) - terms + 1)


def _ethr(rng, n, bound):
    ws = _weights(rng, n, bound)
    return ExactThresholdGate(ws, sum(w for w in ws[: n // 2]))


@pytest.mark.parametrize("n, terms", [
    (18, (50, 50)), (18, (15, 15, 15)), (20, (12, 12, 12)), (22, (40, 40)),
    (24, (35, 35)), (26, (10, 10, 10)),
])
def test_wide_thr_and_relu_stay_on_split_and_list(n, terms):
    rng = random.Random(n)
    gates = [_thr(rng, n, t, 100) for t in terms]
    assert not chooses_histogram(gates)
    relu = [ReluGate(g.weights, 1 - g.threshold) for g in gates]
    assert not chooses_histogram(relu)


@pytest.mark.parametrize("n", [32, 36, 40])
@pytest.mark.parametrize("k", [2, 3])
def test_ethr_conjunctions_stay_on_split_and_list(n, k):
    rng = random.Random(n + k)
    assert not chooses_histogram([_ethr(rng, n, 1000) for _ in range(k)])


@pytest.mark.parametrize("n", [32, 36, 40])
def test_narrow_gates_take_the_histogram(n):
    rng = random.Random(n)
    assert chooses_histogram([_ethr(rng, n, 1000)])
    assert chooses_histogram([_thr(rng, n, 16, 1000)])
    assert chooses_histogram([_thr(rng, n, 4, 8), _thr(rng, n, 4, 8)])


@pytest.mark.parametrize("n", [1, 6, 11, 16])
def test_point_gates_count_one_packed_subset_sum(n):
    # each gate accepts one achievable sum: its sum of positive weights
    rng = random.Random(n)
    gates = []
    for _ in range(3):
        ws = _weights(rng, n, 9)
        gates.append(ThresholdGate(ws, sum(w for w in ws if w > 0)))
    real = sp.count_subset_sum
    calls = []

    def spy(weights, target):
        calls.append(target)
        return real(weights, target)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", lambda *args: False)
        m.setattr(sp, "count_subset_sum", spy)
        before = mitm.partials.value
        value = sumprod(gates)
        grown = mitm.partials.value - before
    assert len(calls) == 1
    assert value == oracle_sumprod(gates, n)
    assert grown == 2 ** ((n + 1) // 2) + 2 ** (n // 2)


def test_rows_on_one_form_share_one_histogram_axis(monkeypatch):
    # a Boolean check of ReLU gates asks for g^2 h^2, and a threshold gate
    # may repeat another's form negated and scaled: the histogram takes one
    # axis per distinct form, so g g h h has the box of g h
    rng = random.Random(3)
    g, h = (ReluGate(_weights(rng, 24, 7), rng.randint(-5, 5)) for _ in range(2))
    assert chooses_histogram([g, g, h, h])
    axes = []
    real = mitm.histogram
    monkeypatch.setattr(mitm, "histogram",
                        lambda rows, n, window: axes.append(len(rows)) or real(rows, n, window))
    n = 12
    g, h = (ReluGate(_weights(rng, n, 7), rng.randint(-5, 5)) for _ in range(2))
    w = _weights(rng, n, 3)
    for gates in ([g, g, h, h], [h, g, h],
                  [ThresholdGate(w, 1), ThresholdGate(tuple(-2 * x for x in w), -9)]):
        axes.clear()
        assert assert_kernels_agree(gates, n) > 0
        assert axes == [2 if len(gates) > 2 else 1]
    # windows on one form that do not meet: 0, with no histogram built
    axes.clear()
    disjoint = [ThresholdGate(w, 1), ThresholdGate(tuple(-x for x in w), 0)]
    assert assert_kernels_agree(disjoint, n) == 0
    assert axes == []


# --- the bound filter on the split-and-list halves ---------------------------


def _distinct(digits) -> int:
    """How many distinct sums a half's digit columns hold (None: none)."""
    return 0 if digits is None else len(set(zip(*digits.tolist())))


def split_and_list(gates):
    """The answer with split and list forced, and each half's (distinct kept
    sums, distinct sums) as ``_pruned_half`` saw them."""
    real = sp._pruned_half
    sizes = []

    def spy(parts, windows):
        kept = real(parts, windows)
        everything = real(parts, [(-sum(map(abs, p)), sum(map(abs, p))) for p in parts])
        sizes.append((_distinct(kept), _distinct(everything)))
        return kept

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", lambda *args: False)
        m.setattr(sp, "_pruned_half", spy)
        return sumprod(gates), sizes


@st.composite
def placed_rows(draw, big=False):
    """(n, [(weights, first accepted sum)]) with 2-3 gates over n <= 12
    variables.  Each gate's weights share a factor of 1-3 and hold zeros and
    negatives; its first accepted sum sits near the top, the middle or the
    bottom of its achievable range.  ``big`` adds 2^62 times a small integer
    to one weight of each gate, and then only the first gate leaves the top,
    so that the other gates still expand into few targets."""
    n = draw(st.integers(2, 7 if big else 12))
    rows = []
    for _ in range(draw(st.integers(2, 3))):
        g = draw(st.sampled_from((1, 2, 3)))
        ws = [g * w for w in draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))]
        if big:
            ws[draw(st.integers(0, n - 1))] += draw(st.sampled_from((-2, 1, 3))) << 62
        lo, hi = sum(w for w in ws if w < 0), sum(w for w in ws if w > 0)
        place = draw(st.sampled_from((hi,) if big and rows else (hi, (lo + hi) // 2, lo)))
        rows.append((ws, place + draw(st.integers(-2, 2))))
    return n, rows


def thr_and_relu(rows):
    """The THR and the ReLU product whose gates accept sums from each row's
    first accepted sum t up: thresholds t, and biases 1 - t."""
    return ([ThresholdGate(tuple(ws), t) for ws, t in rows],
            [ReluGate(tuple(ws), 1 - t) for ws, t in rows])


@SETTINGS
@given(placed_rows())
def test_pruned_split_and_list_matches_the_oracle(case):
    n, rows = case
    for gates in thr_and_relu(rows):
        assert split_and_list(gates)[0] == oracle_sumprod(gates, n)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(placed_rows(big=True))
def test_pruned_split_and_list_on_python_ints(case):
    n, rows = case
    for gates in thr_and_relu(rows):
        assert split_and_list(gates)[0] == oracle_sumprod(gates, n)


def test_bottom_of_range_gates_prune_nothing():
    rng = random.Random(5)
    rows = [(_weights(rng, 12, 9), -200) for _ in range(3)]
    for gates in thr_and_relu(rows):
        value, sizes = split_and_list(gates)
        assert value == oracle_sumprod(gates)
        assert all(kept == everything for kept, everything in sizes)


def test_survivors_of_the_filter_reach_a_nonzero_answer():
    # the gates share their weights' signs, so the point that takes every
    # positive weight tops all three, and a few sums of each half survive
    rng = random.Random(3)
    rows = []
    for terms in (30, 20, 40):
        ws = [rng.randint(1, 20) * (-1) ** (j % 5 == 0) for j in range(16)]
        rows.append((ws, sum(w for w in ws if w > 0) - terms))
    for gates in thr_and_relu(rows):
        value, sizes = split_and_list(gates)
        assert value == oracle_sumprod(gates) > 0
        assert all(0 < kept < everything for kept, everything in sizes)


def test_a_half_pruned_to_empty_keeps_the_tally_and_the_cap():
    # the shape of thr-wide's ("thr", 26, (10, 10, 10), 100) queries, at an
    # odd n so that the halves differ
    n = 25
    rng = random.Random(n)
    gates = [_thr(rng, n, 10, 100) for _ in range(3)]
    value, sizes = split_and_list(gates)
    assert value == 0
    assert sizes[0][0] == 0 < sizes[0][1]
    # the tally still counts both halves in full
    before = mitm.partials.value
    assert forced(gates, False) == 0
    assert mitm.partials.value - before == 2 ** ((n + 1) // 2) + 2 ** (n // 2)
    # 10 x 10 expanded tuples: the cap refuses them before any half exists
    before = mitm.partials.value
    with pytest.raises(CapExceeded, match=r"^product expansion needs > 99 tuples$"):
        sumprod_thr(gates, tuple_cap=99)
    assert mitm.partials.value == before
    assert sumprod_thr(gates, tuple_cap=100) == 0


def test_an_empty_first_half_builds_no_second_half_and_no_upper_tuple(monkeypatch):
    # the gates of the test above: the first half's 13 weights per gate are
    # all that is ever doubled, and the answer comes before any packing
    n, h = 25, 13
    rng = random.Random(n)
    gates = [_thr(rng, n, 10, 100) for _ in range(3)]
    tables, calls = [], []
    real_table = sp._half_table

    def table(parts, dtype):
        tables.append(len(parts[0]))
        return real_table(parts, dtype)

    def refuse(name):
        def called(*args):
            calls.append(name)
            raise AssertionError(f"{name} after an empty first half")
        return called

    monkeypatch.setattr(sp, "_use_histogram", lambda *args: False)
    monkeypatch.setattr(sp, "_half_table", table)
    for name in ("_affine", "_packed_keys", "_packed_weights"):
        monkeypatch.setattr(sp, name, refuse(name))
    before = mitm.partials.value
    assert sumprod(gates) == 0
    assert mitm.partials.value - before == 2 ** h + 2 ** (n - h)
    assert sum(tables) == h and calls == []


@st.composite
def mid_band_rows(draw):
    """(n, [(weights, first accepted sum)]) with 2-3 gates over n <= 10
    variables whose weights are a shared magnitude of 2^40-2^58 per
    variable, with a sign per variable and gate, plus a small offset.  The
    first two weights of a gate differ by 1, so its primitive form keeps
    them.  Each gate's own sums stay below 2^62, but a packed key of two or
    more gates does not.  The first gate accepts from a random subset sum
    (below its top) up, and the others only their top 0-30 integers, so
    they expand into few targets."""
    n = draw(st.integers(2, 10))
    mags = [draw(st.integers(2**40, 2**58)) for _ in range(n - 1)]
    mags.insert(1, mags[0] + 1)
    rows = []
    for i in range(draw(st.integers(2, 3))):
        signs = [draw(st.sampled_from((1, 1, -1))) for _ in range(n - 1)]
        offsets = [draw(st.integers(-20, 20)) for _ in range(n - 1)]
        signs.insert(1, signs[0])
        offsets.insert(1, offsets[0])
        ws = [sign * m + e for sign, m, e in zip(signs, mags, offsets)]
        top = sum(w for w in ws if w > 0)
        if i == 0:
            picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows.append((ws, min(top - 1, sum(w for w, p in zip(ws, picks) if p))))
        else:
            rows.append((ws, top - draw(st.integers(0, 30))))
    return n, rows


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mid_band_rows())
def test_mid_band_weights_filter_on_int64_digits_under_python_int_keys(case):
    n, rows = case
    tables, packed = [], []
    real_table, real_affine = sp._half_table, sp._affine

    def table(parts, dtype):
        tables.append(dtype)
        return real_table(parts, dtype)

    def affine(row, a, b, dtype):
        packed.append(dtype)
        return real_affine(row, a, b, dtype)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", lambda *args: False)
        m.setattr(sp, "_half_table", table)
        m.setattr(sp, "_affine", affine)
        for gates in thr_and_relu(rows):
            assert sumprod(gates) == oracle_sumprod(gates, n)
    assert tables and all(dtype is np.int64 for dtype in tables)
    assert all(dtype is object for dtype in packed)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(placed_rows(), st.integers(0, 3))
def test_bound_filter_blocks_match_the_oracle(case, block_log):
    # blocks of 2^block_log digits over all the gates: most halves span
    # several blocks, each shifted by its own sum of the later weights
    n, rows = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_BLOCK_LOG", block_log)
        for gates in thr_and_relu(rows):
            assert forced(gates, False) == oracle_sumprod(gates, n)


def test_bound_filter_peak_memory_at_n36():
    # three gates at n = 36 that accept their top 8 sums: a filter that
    # holds a whole packed half, 2^18 int64 sums, and its mask peaks at
    # 2.57 MiB; the digit blocks stay well below
    n = 36
    rng = random.Random(n)
    gates = [_thr(rng, n, 8, 8) for _ in range(3)]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", lambda *args: False)
        assert sumprod(gates) == 0  # as the 8^3 exact-threshold conjunctions count
        tracemalloc.start()
        try:
            sumprod(gates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 3 << 20


# --- the histogram kernel: complemented, ascending, window-pruned passes ----


def dict_histogram(rows, n):
    """{(s_1, ..., s_d): count} of the points' sums, one variable at a time."""
    counts = {(0,) * len(rows): 1}
    for j in range(n):
        grown = dict(counts)
        for sums, c in counts.items():
            key = tuple(s + row[j] for s, row in zip(sums, rows))
            grown[key] = grown.get(key, 0) + c
        counts = grown
    return counts


def assert_histogram_cells(rows, n, window=None):
    """The cells of ``mitm.histogram`` inside ``window`` (the whole box when
    None) equal a dict DP's."""
    counts, lows = mitm.histogram(rows, n, window)
    if window is None:
        window = [(lo, lo + size - 1) for lo, size in zip(lows, counts.shape)]
    expect = np.zeros([b - a + 1 for a, b in window], dtype=object)
    for sums, c in dict_histogram(rows, n).items():
        if all(a <= s <= b for s, (a, b) in zip(sums, window)):
            expect[tuple(s - a for s, (a, _) in zip(sums, window))] = c
    cells = counts[tuple(slice(a - lo, b - lo + 1) for (a, b), lo in zip(window, lows))]
    assert (cells == expect).all()


@st.composite
def histogram_products(draw):
    """(n, [(weights, constant)]) with 1-3 gates over n <= 10 variables and
    weights in {0, +-1, ..., +-50}, a drawn set of columns zero in every
    gate; each constant sits at the bottom, the middle or the top of its
    gate's achievable range, or outside it.  Only a gate of a one- or
    two-gate product reaches +-50, so the box stays below 2^18 cells."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 3))
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = []
    for i in range(k):
        bound = draw(st.sampled_from((1, 3, 50) if i == 0 or k < 3 else (1, 2)))
        ws = [0 if z else w for z, w in zip(
            zero, draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)))]
        lo, hi = sum(w for w in ws if w < 0), sum(w for w in ws if w > 0)
        place = draw(st.sampled_from((lo, (lo + hi) // 2, hi, lo - 3, hi + 3)))
        rows.append((ws, place + draw(st.integers(-2, 2))))
    return n, rows


@SETTINGS
@given(histogram_products())
def test_histogram_kernel_matches_the_oracle(case):
    n, rows = case
    for gates in (
        [ThresholdGate(tuple(ws), t) for ws, t in rows],
        [ExactThresholdGate(tuple(ws), t) for ws, t in rows],
        [ReluGate(tuple(ws), 1 - t) for ws, t in rows],
    ):
        assert forced(gates, True) == oracle_sumprod(gates, n)
    weights = [ws for ws, _ in rows]
    assert_histogram_cells(weights, n)
    # windows from each gate's constant c, clipped to the box: [c, top],
    # [bottom, c] and [c, c]
    ends = []
    for ws, t in rows:
        lo, hi = sum(w for w in ws if w < 0), sum(w for w in ws if w > 0)
        ends.append((lo, min(max(t, lo), hi), hi))
    for window in ([(c, hi) for _, c, hi in ends], [(lo, c) for lo, c, _ in ends],
                   [(c, c) for _, c, _ in ends]):
        assert_histogram_cells(weights, n, window)


# --- identities at n = 34-40, where the oracle cannot reach -----------------


@st.composite
def planted_products(draw):
    """(n, family, [(weights, constant)]) with 1-3 narrow gates over
    n = 34-40 variables whose constants come from a drawn point: a THR
    threshold and the sum at which a ReLU gate turns positive sit at most 3
    below the point's sum, and an ETHR target is that sum, so the answers
    are nonzero.  Weights are in +-3, or +-1 in a three-gate product, so
    every product takes the histogram."""
    n = draw(st.integers(34, 40))
    family = draw(st.sampled_from((ThresholdGate, ExactThresholdGate, ReluGate)))
    k = draw(st.integers(1, 3))
    bound = 1 if k == 3 else 3
    point = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = []
    for _ in range(k):
        ws = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        hit = sum(w for w, b in zip(ws, point) if b)
        rows.append((ws, hit if family is ExactThresholdGate else hit - draw(st.integers(0, 3))))
    return n, family, rows


def planted(family, rows):
    if family is ReluGate:
        return [ReluGate(tuple(ws), 1 - t) for ws, t in rows]
    return [family(tuple(ws), t) for ws, t in rows]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(planted_products(), st.data())
def test_flipping_variables_keeps_the_sum_product(case, data):
    # x_j -> 1 - x_j on J: w_j -> -w_j, and every sum drops by sum_J w_j
    n, family, rows = case
    flip = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flipped = [([-w if f else w for w, f in zip(ws, flip)],
                t - sum(w for w, f in zip(ws, flip) if f)) for ws, t in rows]
    gates = planted(family, rows)
    assert chooses_histogram(gates)
    value = sumprod(gates)
    assert value > 0
    assert sumprod(planted(family, flipped)) == value


@settings(derandomize=True, deadline=None, max_examples=25)
@given(planted_products(), st.randoms(use_true_random=False))
def test_permuting_variables_keeps_the_sum_product(case, rng):
    n, family, rows = case
    order = list(range(n))
    rng.shuffle(order)
    permuted = [([ws[j] for j in order], t) for ws, t in rows]
    gates = planted(family, rows)
    assert chooses_histogram(gates)
    value = sumprod(gates)
    assert value > 0
    assert sumprod(planted(family, permuted)) == value


@st.composite
def complement_products(draw):
    """(n, G, (weights, threshold)) with 1-2 THR or ETHR gates G over
    n = 30-40 variables, weights in +-2, planted as in ``planted_products``,
    and the nonzero integer weights in +-3 of a THR gate whose threshold
    sits near the point's sum, inside its range, so that neither the gate
    nor its complement is 0 everywhere."""
    n = draw(st.integers(30, 40))
    family = draw(st.sampled_from((ThresholdGate, ExactThresholdGate)))
    point = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gates = []
    for _ in range(draw(st.integers(1, 2))):
        ws = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        hit = sum(w for w, b in zip(ws, point) if b)
        if family is ThresholdGate:
            hit -= draw(st.integers(0, 3))
        gates.append(family(tuple(ws), hit))
    ws = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    lo, hi = sum(w for w in ws if w < 0), sum(w for w in ws if w > 0)
    t = sum(w for w, b in zip(ws, point) if b) + draw(st.integers(-3, 3))
    return n, gates, (ws, min(max(t, lo + 1), hi))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(complement_products())
def test_a_gate_and_its_complement_split_every_product(case):
    # for integer weights [<w,x> >= t] + [<-w,x> >= 1 - t] = 1 at every point,
    # and the two gates' rows share a form whose merged window is empty.  THR
    # and ETHR gates are rows of one range-sum body, which takes them mixed
    n, gates, (ws, t) = case
    g = ThresholdGate(tuple(ws), t)
    bar = ThresholdGate(tuple(-w for w in ws), 1 - t)

    def s(product, histogram=None):
        with pytest.MonkeyPatch.context() as m:
            if histogram is not None:
                m.setattr(sp, "_use_histogram", lambda *args: histogram)
            return sp._linear_sumprod(product, n, sp.DEFAULT_TUPLE_CAP)

    whole = s(gates)
    assert whole == sumprod(gates) > 0
    assert s([*gates, g]) + s([*gates, bar]) == whole
    # and with its two sides on different kernels
    assert s([*gates, g], False) + s([*gates, bar], True) == whole
    assert s([*gates, g, bar]) == s([bar, *gates, g]) == s([*gates, g, bar], True) == 0
