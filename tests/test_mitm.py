import importlib
import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import (
    ExactThresholdGate,
    oracle_sumprod,
)
from hypersum.mitm import count_subset_sum, half_sums, partials, split_point

mitm = importlib.import_module("hypersum.mitm")
sp = importlib.import_module("hypersum.sumprod")


def brute_count(ws, target):
    return sum(1 for point in product((0, 1), repeat=len(ws))
               if sum(w * b for w, b in zip(ws, point)) == target)


def test_split_point():
    assert split_point(5) == 3
    assert split_point(6) == 3
    assert split_point(1) == 1


def test_half_sums_order_and_values():
    sums = half_sums([3, -1])
    assert list(sums) == [0, 3, -1, 2]  # mask order: 00, 01, 10, 11


def test_half_sums_python_fallback_on_huge_weights():
    sums = half_sums([1 << 70, 1])
    assert isinstance(sums, list)
    assert sorted(sums) == [0, 1, 1 << 70, (1 << 70) + 1]


def test_count_subset_sum_random_vs_brute():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 12)
        ws = [rng.randint(-6, 6) for _ in range(n)]
        target = rng.randint(-10, 10)
        assert count_subset_sum(ws, target) == brute_count(ws, target)


def test_count_subset_sum_huge_weights_exact():
    ws = [1 << 68, -(1 << 68), 1]
    assert count_subset_sum(ws, 1) == 2  # {w3}, {w1, w2, w3}
    assert count_subset_sum(ws, 0) == 2


def test_enumeration_tally_is_structural():
    # the tally depends only on n, never on the weights
    for n in (3, 10, 17):
        for seed in (0, 1):
            rng = random.Random(seed)
            ws = [rng.randint(-100, 100) for _ in range(n)]
            partials.reset()
            count_subset_sum(ws, rng.randint(-5, 5))
            assert partials.value == 2 ** ((n + 1) // 2) + 2 ** (n // 2)


def test_count_subset_sum_unreachable_target_is_zero():
    # targets beyond int64 never reach the numpy matching; the tally stays structural
    partials.reset()
    assert count_subset_sum([1, 2, 3], 2**63) == 0
    assert partials.value == 2**2 + 2**1
    assert count_subset_sum([1, 2, 3], -(2**70)) == 0
    assert count_subset_sum([1, -2, 3], -3) == 0
    assert count_subset_sum([1, -2, 3], -2) == 1


def test_count_subset_sum_mixed_width_halves():
    # the first half alone fits int64 and the second does not; both are
    # matched on Python ints
    assert count_subset_sum([3, 1, 2**64, 1], 2**64 + 1) == 2


# -- the semi-join in count_subset_sum -----------------------------------------

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def sum_counts(ws):
    """Counter of every subset sum, by a dictionary dynamic program."""
    counts = Counter({0: 1})
    for w in ws:
        shifted = Counter({s + w: c for s, c in counts.items()})
        counts.update(shifted)
    return counts


def joined(m, on: bool):
    """Force the semi-join on (thresholds 0) or off, and record its calls as
    (entries in, first-half survivors, second-half survivors)."""
    calls = []
    if on:
        m.setattr(mitm, "_JOIN_MIN_LOG", 0)
        m.setattr(mitm, "_JOIN_SPAN_RATIO", 0)
    else:
        m.setattr(mitm, "_JOIN_MIN_LOG", 64)
    real = mitm._semi_join

    def recording(first, second, target, bits):
        # each half comes as (low, offsets), the blocks low + o
        out = real(first, second, target, bits)
        entries = sum(len(low) * len(offsets) for low, offsets in (first, second))
        calls.append((entries, len(out[0]), len(out[1])))
        return out

    m.setattr(mitm, "_semi_join", recording)
    return calls


def count_both_ways(ws, target):
    """count_subset_sum with the semi-join forced on and forced off."""
    out = []
    for on in (True, False):
        with pytest.MonkeyPatch.context() as m:
            calls = joined(m, on)
            out.append(count_subset_sum(ws, target))
            # the filter runs exactly when forced and both halves have a span
            h = split_point(len(ws))
            spans = [sum(map(abs, part)) for part in (ws[:h], ws[h:])]
            assert len(calls) == int(on and min(spans) > 0)
    return out


# weights of every width the kernel meets: narrow, wide, multiples of the
# largest presence table (every residue collides), and past int64
weight = st.one_of(
    st.integers(-6, 6),
    st.integers(-10**6, 10**6),
    st.integers(-5, 5).map(lambda k: k << 24),
    st.integers(-(1 << 70), 1 << 70),
)


@st.composite
def subset_sum_inputs(draw):
    n = draw(st.integers(1, 16))
    ws = draw(st.lists(weight, min_size=n, max_size=n))
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    reachable = sum(w for w, b in zip(ws, picks) if b)
    targets = [reachable, reachable + draw(st.integers(-3, 3)), draw(weight),
               -sum(map(abs, ws)) - 1]
    return ws, targets


@SETTINGS
@given(subset_sum_inputs())
def test_count_subset_sum_with_and_without_semi_join(case):
    ws, targets = case
    counts = sum_counts(ws)
    for t in targets:
        assert count_both_ways(ws, t) == [counts[t]] * 2


def test_semi_join_keeps_every_entry_when_all_residues_collide():
    ws = [(j % 5 + 1) << 24 for j in range(12)]
    target = sum(ws[::3])
    with pytest.MonkeyPatch.context() as m:
        calls = joined(m, True)
        assert count_subset_sum(ws, target) == sum_counts(ws)[target]
    assert calls == [(2 * 64, 64, 64)]


def test_semi_join_where_nothing_survives():
    # even weights never sum to an odd target, and their low bits show it
    ws = [2 * (j + 1) * 1000 for j in range(14)]
    for target in (1, -7, 2**63 + 1):
        with pytest.MonkeyPatch.context() as m:
            calls = joined(m, True)
            assert count_subset_sum(ws, target) == 0
        assert [c[1:] for c in calls] == [(0, 0)]


def test_semi_join_on_python_ints_and_mixed_width_halves():
    big = 1 << 64
    assert count_both_ways([3, 1, big, 1], big + 1) == [2, 2]
    ws = [big + j for j in range(6)] + [-(1 << 62), 5, 7]
    for target in (big + 1 + 5, 2 * big + 1 - (1 << 62), -(1 << 62) + 12, -1):
        assert count_both_ways(ws, target) == [sum_counts(ws)[target]] * 2


def test_tally_is_structural_while_the_semi_join_runs():
    for n in (2, 5, 10, 16):
        ws = [(-1) ** j * (1000 + 7 * j) for j in range(n)]
        with pytest.MonkeyPatch.context() as m:
            calls = joined(m, True)
            partials.reset()
            count_subset_sum(ws, 3)
        assert len(calls) == 1
        assert partials.value == 2 ** ((n + 1) // 2) + 2 ** (n // 2)


@st.composite
def ethr_conjunctions(draw):
    """2-3 exact-threshold gates over n <= 18 variables, targets taken at one
    point or offset from it."""
    n = draw(st.integers(2, 18))
    x = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    gates = []
    for _ in range(draw(st.integers(2, 3))):
        ws = draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
        t = sum(w for w, b in zip(ws, x) if b) + draw(st.sampled_from((0, 0, 1, -2)))
        gates.append(ExactThresholdGate(tuple(ws), t))
    return n, gates


@settings(derandomize=True, deadline=None, max_examples=30)
@given(ethr_conjunctions())
def test_packed_ethr_conjunctions_with_the_semi_join(case):
    n, gates = case
    with pytest.MonkeyPatch.context() as m:
        joined(m, True)
        m.setattr(sp, "_use_histogram", lambda *args: False)
        assert sp.sumprod_ethr(gates) == oracle_sumprod(gates, n)


def joined_in_blocks(ws, target, block_log):
    """count_subset_sum with the semi-join forced on and halves of
    2^block_log-sum blocks: (count, partials added, recorded calls)."""
    with pytest.MonkeyPatch.context() as m:
        calls = joined(m, True)
        m.setattr(mitm, "_BLOCK_LOG", block_log)
        partials.reset()
        count = count_subset_sum(ws, target)
    return count, partials.value, calls


@SETTINGS
@given(subset_sum_inputs(), st.integers(0, 3))
def test_semi_join_across_block_boundaries(case, block_log):
    ws, targets = case
    counts = sum_counts(ws)
    n = len(ws)
    for t in targets:
        count, tally, calls = joined_in_blocks(ws, t, block_log)
        assert count == counts[t]
        assert tally == 2 ** ((n + 1) // 2) + 2 ** (n // 2)
        # one block per half gives the same survivors
        assert calls == joined_in_blocks(ws, t, 64)[2]


def packed_ethr(n, seed):
    """(packed weights, target) of three ETHR gates with weights in +-1000
    over n variables, packed as ``sumprod`` packs them for
    ``count_subset_sum``, with targets taken at a random point."""
    rng = random.Random(seed)
    x = [rng.random() < 0.5 for _ in range(n)]
    gates = []
    for _ in range(3):
        ws = [rng.randint(-1000, 1000) for _ in range(n)]
        gates.append(ExactThresholdGate(tuple(ws), sum(w for w, b in zip(ws, x) if b)))
    captured = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sp, "_use_histogram", lambda *args: False)
        m.setattr(sp, "count_subset_sum", lambda ws, t: captured.append((ws, t)) or 0)
        sp.sumprod_ethr(gates)
    return captured[0]


def joined_peak(ws, target):
    """(count, tracemalloc peak) of count_subset_sum, which must take the
    semi-join on its own."""
    import tracemalloc

    with pytest.MonkeyPatch.context() as m:
        calls = []
        real = mitm._semi_join
        m.setattr(mitm, "_semi_join", lambda *args: calls.append(1) or real(*args))
        count_subset_sum(ws, target)
    assert calls == [1]
    tracemalloc.start()
    try:
        count = count_subset_sum(ws, target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return count, peak


def test_semi_join_memory_stays_below_the_halves():
    # n = 36: halves of 2^18 sums, four blocks each; both halves held whole
    # took 12 MiB
    count, peak = joined_peak(*packed_ethr(36, 3))
    assert count >= 1
    assert peak < 3 * 8 * 2**18


def test_semi_join_memory_when_most_sums_survive():
    # about 90% of the sums survive, so the survivors are held nearly whole;
    # the peak must still not exceed that of holding both halves whole,
    # 8.13 and 13.18 MiB at n = 34 and 36
    for n, bound in ((34, 8.2), (36, 13.2)):
        rng = random.Random(4)
        ws = [rng.randint(-1000, 1000) + (rng.randint(-1000, 1000) << 17)
              for _ in range(n)]
        target = sum(w for w in ws if rng.random() < 0.5)
        count, peak = joined_peak(ws, target)
        assert count >= 1
        assert peak <= bound * 2**20


def test_histogram_memory_stays_near_the_box():
    # two gates at n = 20 with weights in +-99: a box of about 10^6 int64
    # cells; a shift that wrote above its source buffered up to one more box
    import tracemalloc

    rng = random.Random(7)
    rows = [[rng.randint(-99, 99) for _ in range(20)] for _ in range(2)]
    cells = math.prod(sum(map(abs, row)) + 1 for row in rows)
    assert 5 * 10**5 < cells < 2 * 10**6
    tracemalloc.start()
    try:
        counts, _ = mitm.histogram(rows, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 2**20
    assert peak < 1.25 * 8 * cells
