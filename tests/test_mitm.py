import importlib
import io
import json
import math
import os
import random
import sys
import threading
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersum import (
    ExactThresholdGate,
    oracle_sumprod,
)
from hypersum.cli import main
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


def test_half_enumerations_leave_the_tally_alone():
    # the kernels that enumerate add to the tally, once per call, on the
    # calling thread; the helpers that build halves never do
    ws = [(-1) ** j * (3 + j) for j in range(10)]
    partials.reset()
    half_sums(ws)
    half_sums([1 << 70, *ws])
    mitm._half_blocks(ws, np.int64)
    assert partials.value == 0


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


def planted_ethr(n, seed, k=3):
    """k ETHR gates with weights in +-1000 over n variables, their targets
    taken at a random point."""
    rng = random.Random(seed)
    x = [rng.random() < 0.5 for _ in range(n)]
    gates = []
    for _ in range(k):
        ws = [rng.randint(-1000, 1000) for _ in range(n)]
        gates.append(ExactThresholdGate(tuple(ws), sum(w for w, b in zip(ws, x) if b)))
    return gates


def packed_ethr(n, seed, k=3):
    """(packed weights, target) of ``planted_ethr(n, seed, k)``, packed as
    ``sumprod`` packs them for ``count_subset_sum``."""
    gates = planted_ethr(n, seed, k)
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


# -- the semi-join's runs on helper threads ------------------------------------


def bounded(fn, *args, timeout=60):
    """(value, exception) of fn(*args), called on a thread named "caller"
    that is joined with a timeout."""
    out = [None, None]

    def target():
        try:
            out[0] = fn(*args)
        except BaseException as exc:
            out[1] = exc

    thread = threading.Thread(target=target, name="caller")
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive()
    return out


def run_counts(m):
    """Record the runs each ``_in_runs`` call splits its blocks into."""
    runs = []
    real = mitm._in_runs

    def recording(step, count, most):
        runs.append(min(count, most))
        real(step, count, most)

    m.setattr(mitm, "_in_runs", recording)
    return runs


@SETTINGS
@given(subset_sum_inputs(), st.integers(0, 3), st.integers(1, 3))
def test_semi_join_in_one_to_three_runs(case, block_log, cpus):
    # more runs than this machine may have CPUs, over blocks that do not
    # split evenly between them
    ws, targets = case
    counts = sum_counts(ws)
    n = len(ws)
    blocks = 1 << max(0, split_point(n) - block_log)  # of the first half
    for t in targets:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mitm, "_usable_cpus", lambda: cpus)
            runs = run_counts(m)
            count, tally, calls = joined_in_blocks(ws, t, block_log)
        assert count == counts[t]
        assert tally == 2 ** ((n + 1) // 2) + 2 ** (n // 2)
        assert calls == joined_in_blocks(ws, t, 64)[2]
        if calls:
            assert max(runs) == min(cpus, blocks)


def test_semi_join_runs_agree_under_rapid_thread_switches():
    # eight runs over 256 blocks per half, switching threads every
    # microsecond: a lost store into a shared table would drop survivors
    ws, target = packed_ethr(28, 5)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mitm, "_usable_cpus", lambda: 1)
        expected = joined_in_blocks(ws, target, 6)
    assert expected[0] >= 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mitm, "_usable_cpus", lambda: 8)
            for _ in range(3):
                got, error = bounded(joined_in_blocks, ws, target, 6)
                assert error is None
                assert got == expected
    finally:
        sys.setswitchinterval(interval)


def test_one_cpu_starts_no_thread():
    ws, target = packed_ethr(36, 3)

    def start(self):
        raise AssertionError("a helper thread started")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(mitm, "_usable_cpus", lambda: 1)
        m.setattr(threading.Thread, "start", start)
        count = count_subset_sum(ws, target)
    assert count == count_subset_sum(ws, target) >= 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_usable_cpus_follow_the_affinity_mask():
    mask = os.sched_getaffinity(0)
    assert mitm._usable_cpus() == len(mask)
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert mitm._usable_cpus() == 1
    finally:
        os.sched_setaffinity(0, mask)


def test_a_helper_failure_is_raised_unchanged_after_every_join(capsys):
    error = MemoryError("probe failed")
    real = mitm._probe

    def probe(*args):
        if threading.current_thread().name != "caller":
            raise error
        return real(*args)

    # n = 34: halves of 2^17 sums, two blocks each, one per run
    gates = planted_ethr(34, 1, k=2)
    ws, target = packed_ethr(34, 1, k=2)
    doc = {"family": "ethr", "n": 34,
           "gates": [{"weights": [int(w) for w in g.weights], "target": int(g.target)}
                     for g in gates]}
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mitm, "_usable_cpus", lambda: 2)
        m.setattr(mitm, "_probe", probe)
        value, raised = bounded(count_subset_sum, ws, target)
        assert raised is error and value is None
        assert threading.active_count() == before
        m.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, raised = bounded(main, ["sumprod", "-"])
    assert threading.active_count() == before
    assert raised is None and code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "Traceback" not in out.err
    assert json.loads(out.err) == {"error": "probe failed"}


@pytest.mark.parametrize("k", [2, 3])
def test_semi_join_counts_keep_under_permutation_and_flips(k):
    # past the oracle's reach, on this machine's own runs: permuting the
    # variables moves weights between the halves, and flipping x_j -> 1 - x_j
    # for j in J negates w_j and shifts the target by -w_j
    rng = random.Random(k)
    for n in (34, 35, 36):
        ws, target = packed_ethr(n, 10 * k + n, k)
        perm = rng.sample(ws, n)
        flips = {j for j in range(n) if rng.random() < 0.5}
        flipped = [-w if j in flips else w for j, w in enumerate(ws)]
        shifted = target - sum(ws[j] for j in flips)
        with pytest.MonkeyPatch.context() as m:
            calls = []
            real = mitm._semi_join
            m.setattr(mitm, "_semi_join", lambda *args: calls.append(1) or real(*args))
            counts = [count_subset_sum(*case)
                      for case in ((ws, target), (perm, target), (flipped, shifted))]
        assert len(calls) == 3
        assert counts[0] >= 1
        assert counts == [counts[0]] * 3


# -- the match: in-place sorts and one ascending search ------------------------


@st.composite
def duplicate_heavy_inputs(draw):
    """Weights from {1, 2, 3} or {-7, 7}, so most subset sums repeat."""
    n = draw(st.integers(1, 16))
    ws = draw(st.lists(st.sampled_from(draw(st.sampled_from(((1, 2, 3), (-7, 7))))),
                       min_size=n, max_size=n))
    picks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    reachable = sum(w for w, b in zip(ws, picks) if b)
    return ws, [reachable, reachable + draw(st.integers(-3, 3)), 0, sum(ws) + 1]


@SETTINGS
@given(duplicate_heavy_inputs(), st.booleans(), st.integers(0, 3), st.integers(1, 3))
def test_duplicate_heavy_halves_in_one_to_three_runs(case, on, block_log, cpus):
    ws, targets = case
    counts = sum_counts(ws)
    blocks = 1 << max(0, split_point(len(ws)) - block_log)
    for t in targets:
        with pytest.MonkeyPatch.context() as m:
            calls = joined(m, on)
            m.setattr(mitm, "_BLOCK_LOG", block_log)
            m.setattr(mitm, "_usable_cpus", lambda: cpus)
            runs = run_counts(m)
            assert count_subset_sum(ws, t) == counts[t]
        assert len(calls) == int(on and len(ws) > 1)
        # the sorts and the search split like the semi-join's passes
        assert max(runs) == min(cpus, blocks)


@pytest.mark.parametrize("n", [32, 34, 36])
def test_semi_joined_match_agrees_on_int64_and_python_ints(n):
    ws, target = packed_ethr(n, n, k=2)
    counts = []
    for bound in (mitm._INT64_BOUND, 0):
        with pytest.MonkeyPatch.context() as m:
            # a zero bound sends the halves down the Python-int path
            m.setattr(mitm, "_INT64_BOUND", bound)
            calls = []
            real = mitm._semi_join

            def recording(first, second, target, bits):
                calls.append(first[0].dtype)
                return real(first, second, target, bits)

            m.setattr(mitm, "_semi_join", recording)
            counts.append(count_subset_sum(ws, target))
        assert len(calls) == 1
        assert calls[0] == (np.int64 if bound else object)
    assert counts[0] == counts[1] >= 1


@pytest.mark.parametrize("step", ["_sort", "_match"])
def test_a_sort_or_match_failure_is_raised_unchanged_after_every_join(step, capsys):
    error = MemoryError(f"{step} failed")
    real = getattr(mitm, step)

    def failing(*args):
        if threading.current_thread().name != "caller":
            raise error
        return real(*args)

    # n = 34: halves of 2^17 sums, two blocks each, so two runs
    gates = planted_ethr(34, 1, k=2)
    ws, target = packed_ethr(34, 1, k=2)
    doc = {"family": "ethr", "n": 34,
           "gates": [{"weights": [int(w) for w in g.weights], "target": int(g.target)}
                     for g in gates]}
    before = threading.active_count()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mitm, "_usable_cpus", lambda: 2)
        m.setattr(mitm, step, failing)
        value, raised = bounded(count_subset_sum, ws, target)
        assert raised is error and value is None
        assert threading.active_count() == before
        m.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, raised = bounded(main, ["sumprod", "-"])
    assert threading.active_count() == before
    assert raised is None and code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "Traceback" not in out.err
    assert json.loads(out.err) == {"error": f"{step} failed"}
