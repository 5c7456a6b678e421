import random
from itertools import product

from hypersum import count_subset_sum, half_sums, partials, split_point


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
