"""Split-and-list counting and subset-sum histograms over the hypercube.

The variables are split into a first half of ceil(n/2) and a second half of
floor(n/2); all partial assignments of each half are enumerated, and
``count_subset_sum`` counts the pairs of sums A and B with A + B = target.
It turns the first half's sums into target - A in place, sorts both arrays
in place, reads the distinct values of the second and their counts in one
pass, and searches the ascending target - A among them.  When the halves
are large and their sums spread wider than a quarter of a presence table
of about eight cells per entry, it first semi-joins them on the low bits
of their sums: an entry whose low bits match nothing on the other side
cannot match at all, so it is dropped before sorting and the count stays
exact.  The semi-join generates each half in blocks of 2^16 sums, one
subset sum of the half's later weights added to the table of its first 16
weights' sums, so only one block per run, the presence table and the
survivors are held at a time.  Each of its passes, and the search on
either path, splits its work into contiguous runs, one per CPU in the
process's affinity mask (so ``taskset`` limits them; there is no flag or
environment variable) and at most one per block of the first half, and
runs all but the first on helper threads; with two runs or more, the two
sorts run side by side.  numpy releases the GIL inside the passes'
additions, masks, stores and probes, and inside its sorts and searches.
A half of at most 2^16 sums is one block, so n <= 32 and a one-CPU
process start no thread.  A module-level tally records how many partial
assignments were enumerated (2^ceil(n/2) + 2^floor(n/2) per call,
independent of the weights), added once per call on the calling thread.
``histogram`` is the pseudo-polynomial alternative for small integer
weights: Bellman's subset-sum dynamic program over the box of
achievable sums of one or more linear forms.  It complements every variable
whose shift would point up, so each pass adds in place with no temporary,
and given a window of cells it updates only those that can still reach it.

One rule, ``int_dtype``, decides the integer width for every kernel: numpy
int64 when each magnitude a kernel can meet is below 2^62, and numpy object
arrays of Python ints otherwise.  Every kernel but ``half_sums``, which
returns a list past int64, has a single body that runs on either width.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# int64 is used only when every magnitude involved stays below this bound
_INT64_BOUND = 1 << 62
# the semi-join's presence table has at most 2^_JOIN_MAX_BITS cells
_JOIN_MAX_BITS = 24
# the semi-join runs only when each half has at least 2^_JOIN_MIN_LOG entries
# and both halves' sums span more than _JOIN_SPAN_RATIO times its table.
# Timed against matching without it at n = 8-40: it lost at nearly every
# n <= 16 (about 15 us of fixed cost), was mixed at n = 18-21 and won from
# n = 22 on; it won at every span from a fifth of the table up and lost at
# every span below a twentieth, where nearly every entry survives and the
# filter only adds work
_JOIN_MIN_LOG = 10
_JOIN_SPAN_RATIO = 0.25
# on the semi-join path each half is generated in blocks of 2^_BLOCK_LOG sums
# (512 KiB of int64).  Blocks of 2^13-2^17 sums timed alike at n = 40-44;
# 2^18 was slower at n = 40
_BLOCK_LOG = 16
# the match searches at most 2^14 needles at a time (128 KiB of int64)
_MATCH_CHUNK = 1 << 14
# a ``histogram`` box never holds more cells than this (32 MiB of int64)
_BOX_CELLS = 1 << 22


def int_dtype(*magnitudes: int):
    """np.int64 when every magnitude is below 2^62, else object (Python ints)."""
    return np.int64 if all(m < _INT64_BOUND for m in magnitudes) else object


class EnumerationTally:
    """Counts the distinct partial assignments the split-and-list kernels
    enumerate: 2^h for a half of h variables, however many passes generate
    its sums (a semi-joined half is generated twice, in blocks).  Only
    ``count_subset_sum`` and ``sumprod._range_sum`` add to it, once per call
    on the calling thread, so no helper reaches the non-atomic ``+=``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


partials = EnumerationTally()


def split_point(n: int) -> int:
    """Size of the first half: ceil(n/2)."""
    return (n + 1) // 2


def half_sums(weights: Sequence[int]):
    """All 2^h subset sums of ``weights`` in little-endian assignment order.

    Entry m is the sum over the variables whose bit is set in m.  Returns an
    int64 numpy array, 8 bytes per sum, when ``int_dtype`` allows it for the
    sum of |weights|, and a list of Python ints otherwise.  Its callers, not
    it, add the half's 2^h partial assignments to ``partials``.
    """
    if int_dtype(sum(abs(w) for w in weights)) is np.int64:
        sums = np.empty(1 << len(weights), dtype=np.int64)
        sums[0] = 0
        m = 1
        for w in weights:
            np.add(sums[:m], w, out=sums[m:2 * m])
            m *= 2
        return sums
    out = [0]
    for w in weights:
        out += [s + w for s in out]
    return out


def _half_blocks(part: Sequence[int], dtype):
    """(low, offsets): the subset sums of ``part``'s first ``_BLOCK_LOG``
    weights and of the rest, so that the blocks low + o, o in offsets, are
    the 2^len(part) sums of ``half_sums(part)`` in its order."""
    return tuple(np.asarray(half_sums(p), dtype=dtype)
                 for p in (part[:_BLOCK_LOG], part[_BLOCK_LOG:]))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, so ``taskset`` limits them."""
    import os  # imported on use, as threading is: only the runs need them

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_runs(step, count: int, runs: int) -> None:
    """Calls step(run, lo, hi) on contiguous ranges [lo, hi) that cover
    range(count), one per run, at most ``runs`` and at most ``count`` of them.

    The calling thread takes run 0 and one helper thread each of the others.
    Every helper is joined before this returns or raises; then the first
    exception a helper raised is raised again, unchanged.  A single run
    starts no thread."""
    runs = min(runs, count)
    if runs <= 1:
        step(0, 0, count)
        return
    import threading

    errors = []

    def helper(run):
        try:
            step(run, count * run // runs, count * (run + 1) // runs)
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)

    threads = []
    try:
        for run in range(1, runs):
            thread = threading.Thread(target=helper, args=(run,))
            thread.start()
            threads.append(thread)
        step(0, 0, count // runs)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _cells(o, low, negate: bool, mask: int, buffers):
    """The cells (o - low if ``negate`` else o + low) & mask, computed in a
    run's (sums, cells) buffers and returned as the cells buffer."""
    sums, cells = (b[:len(low)] for b in buffers)
    (np.subtract if negate else np.add)(o, low, out=sums)
    np.bitwise_and(sums, mask, out=cells, casting="unsafe")
    return cells


# put and take use mode="clip" on indices that are always in range: in its
# default mode, take copies ``out`` before writing it
def _mark(table, blocks, negate: bool, buffers) -> None:
    """Stores True into ``table`` at the cells of each (o, low) block."""
    for o, low in blocks:
        np.put(table, _cells(o, low, negate, len(table) - 1, buffers), True, mode="clip")


def _probe(table, blocks, negate: bool, buffers, hits, counts) -> None:
    """hits[i] = ``table`` at the cells of block i; counts[i] = its hits."""
    for i, (o, low) in enumerate(blocks):
        cells = _cells(o, low, negate, len(table) - 1, buffers)
        table.take(cells, out=hits[i], mode="clip")
        counts[i] = np.count_nonzero(hits[i])


def _gather(low, offsets, hits, pieces) -> None:
    """pieces[i] = the sums low + offsets[i] that hits[i] keeps."""
    for o, hit, piece in zip(offsets, hits, pieces):
        low.take(np.flatnonzero(hit), out=piece, mode="clip")
        piece += o


def _semi_join(first, second, target: int, bits: int):
    """(A, B): the sums A of half ``first`` and B of half ``second`` for which
    target - A and B share their low bits with some entry on the other side,
    each in ``half_sums`` order.

    Each half is a ``_half_blocks`` pair (low, offsets), the blocks low + o.
    B's cells mod 2^bits are marked in a presence table, and each A block is
    probed against it; the survivors' cells then go into a second table of
    about 8 cells per survivor (at most 2^bits), against which B's blocks,
    generated again, are probed.  Every pass splits its blocks into
    contiguous runs, one per usable CPU and at most one per block, and the
    survivors keep their order.  Only one block per run, the tables, one
    hit flag per A sum and the survivors are held at a time.

    The calling thread allocates the tables, the block buffers, the hit
    flags and the survivors: glibc gives each thread its own malloc arena,
    which keeps what the thread freed, so large buffers allocated on helpers
    would add to the process's resident memory.  A helper allocates only
    numpy's index list of one block's survivors, in ``_gather``.  Runs share
    a table only to store True into it, a single byte that is never read and
    written back, so no store is lost; no bitset is shared.  Helpers call
    nothing traced and never add to ``partials``, which only the calling
    thread's ``count_subset_sum`` does."""
    (a_low, a_offsets), (b_low, b_offsets) = first, second
    runs = min(_usable_cpus(), len(a_offsets))  # the first half has the most blocks
    sums = np.empty((runs, len(a_low)), dtype=a_low.dtype)
    cells = sums if sums.dtype == np.intp else np.empty(sums.shape, dtype=np.intp)
    buffers = list(zip(sums, cells))
    flags = np.empty(len(a_offsets) * len(a_low), dtype=bool)

    def pass_over(step, table, blocks, negate: bool, *arrays):
        # step(table, blocks, negate, buffers, *arrays) on each run's blocks
        # and its slices of the per-block arrays
        _in_runs(lambda r, i, j: step(table, blocks[i:j], negate, buffers[r],
                                      *(a[i:j] for a in arrays)),
                 len(blocks), runs)

    def keep(table, low, offsets, negate: bool):
        # the sums s = low + o, o in offsets, whose cell (of target - s if
        # negate, else of s) is marked in table, in order
        hits = flags[:len(offsets) * len(low)].reshape(len(offsets), -1)
        counts = np.empty(len(offsets), dtype=np.intp)
        blocks = [(target - o if negate else o, low) for o in offsets]
        pass_over(_probe, table, blocks, negate, hits, counts)
        ends = np.cumsum(counts)
        kept = np.empty(int(ends[-1]), dtype=low.dtype)
        pieces = np.split(kept, ends[:-1])
        _in_runs(lambda r, i, j: _gather(low, offsets[i:j], hits[i:j], pieces[i:j]),
                 len(offsets), runs)
        return kept

    present = np.zeros(1 << bits, dtype=bool)
    pass_over(_mark, present, [(o, b_low) for o in b_offsets], False)
    kept = keep(present, a_low, a_offsets, True)
    del present
    if not len(kept):
        return kept, kept
    partners = np.zeros(1 << min(bits, len(kept).bit_length() + 3), dtype=bool)
    size = len(a_low)
    pass_over(_mark, partners, [(target, kept[i:i + size]) for i in range(0, len(kept), size)],
              True)
    return kept, keep(partners, b_low, b_offsets, False)


def _sort(arrays) -> None:
    """Sorts each array in place."""
    for a in arrays:
        a.sort()


def _keys(b):
    """(keys, counts): the distinct values of the sorted array ``b``, in
    ascending order, and how often each occurs in it."""
    starts = np.flatnonzero(np.not_equal(b[1:], b[:-1]))
    starts += 1  # where each value but the first starts
    bounds = np.concatenate(([0], starts, [len(b)]))
    return b[bounds[:-1]], np.diff(bounds)


def _match(needles, keys, counts) -> int:
    """The sum of counts[i] over the needles equal to keys[i], for ascending
    ``needles`` and ascending distinct ``keys``.

    The needles go in chunks of at most ``_MATCH_CHUNK``, so the
    temporaries stay a few hundred KiB, and each chunk is searched only
    among the keys from its first needle to its last."""
    total = 0
    for i in range(0, len(needles), _MATCH_CHUNK):
        chunk = needles[i:i + _MATCH_CHUNK]
        lo = keys.searchsorted(chunk[0])
        hi = keys.searchsorted(chunk[-1], side="right")
        if lo == hi:
            continue
        near = keys[lo:hi]
        # a needle past the last near key gets the last one, which differs
        idx = near.searchsorted(chunk)
        hit = near.take(idx, mode="clip") == chunk
        total += int(np.dot(counts[lo:hi].take(idx, mode="clip"), hit))
    return total


def count_subset_sum(weights: Sequence[int], target: int) -> int:
    """|{x in {0,1}^n : <w, x> = target}| by splitting the variables in half.

    Enumerates 2^ceil(n/2) + 2^floor(n/2) partial assignments (recorded in
    ``partials``) regardless of the weights.  Both halves are matched on the
    width ``int_dtype`` picks from the sum of |weights| and |target|.

    A first-half sum A pairs with a second-half sum B when B = target - A.
    When each half has at least 2^``_JOIN_MIN_LOG`` entries and the sums of
    both halves span more than ``_JOIN_SPAN_RATIO`` times 2^bits values (bits
    is the bit length of the larger half plus 2, at most ``_JOIN_MAX_BITS``),
    the halves are first semi-joined on their low ``bits`` bits: a presence
    table of the residues of every B drops each A whose target - A has an
    absent residue, and a second table, of about 8 cells per surviving A
    (at most 2^bits), drops each B whose residue no survivor shares.  Equal
    integers agree in every bit (two's complement for negative ones), so
    only entries without a partner are dropped and the count is exact;
    the match then sees only the survivors.  On this path no
    half is held whole: ``_half_blocks`` splits each into blocks of
    2^``_BLOCK_LOG`` sums (512 KiB of int64), and the semi-join passes over
    them in one contiguous run of blocks per usable CPU, one block per run
    at a time.  Narrower sums skip the filter, since nearly every entry
    would survive it, and build each half whole.

    The match works in place on the arrays this call built: A becomes
    target - A, the two arrays are sorted as two runs, one pass over sorted
    B reads its distinct values and their counts, and target - A is split
    into contiguous runs that each search ascending chunks of at most
    ``_MATCH_CHUNK`` needles among those values and total the counts of the
    hits.  There are as many runs as the semi-join's passes have, one per
    usable CPU and at most one per block of the first half, so n <= 32 and
    a one-CPU process start no thread.
    """
    ws = [int(w) for w in weights]
    if not ws:
        raise ValueError("need at least one weight")
    target = int(target)
    dtype = int_dtype(sum(abs(w) for w in ws), abs(target))
    h = split_point(len(ws))
    partials.add((1 << h) + (1 << (len(ws) - h)))
    halves = ws[:h], ws[h:]
    bits = min(h + 3, _JOIN_MAX_BITS)  # the larger half has 2^h entries
    span = min(sum(abs(w) for w in part) for part in halves)
    if len(ws) - h >= _JOIN_MIN_LOG and span > _JOIN_SPAN_RATIO * (1 << bits):
        a, b = _semi_join(*(_half_blocks(p, dtype) for p in halves), target, bits)
        if not len(b):
            return 0
    else:
        a, b = (np.asarray(half_sums(part), dtype=dtype) for part in halves)
    runs = min(_usable_cpus(), 1 << max(0, h - _BLOCK_LOG))  # the semi-join's rule
    np.subtract(target, a, out=a)  # A pairs with each B equal to target - A
    _in_runs(lambda r, i, j: _sort((a, b)[i:j]), 2, runs)
    keys, counts = _keys(b)
    totals = [0] * runs

    def match(run, i, j):
        totals[run] = _match(a[i:j], keys, counts)

    _in_runs(match, len(a), runs)
    return sum(totals)


def histogram(weight_rows: Sequence[Sequence[int]], n: int, window=None):
    """(N, lows): N[s_1 - lo_1, ..., s_d - lo_d] = |{x : <w_i, x> = s_i for
    all i}| over the box of achievable sums, lo_i the sum of the negative
    weights of row i.

    Bellman's dynamic program on ``int_dtype(1 << n)`` cells.  The box is
    flattened in C order, so variable j shifts every count by its packed
    weight x_j = sum_i w_ij * stride_i; a count's shifted cell is itself an
    achievable sum, so shifts never wrap between rows.  Every variable with
    x_j > 0 is complemented (x_j -> 1 - x_j, which permutes the points): the
    counts start at the cell of the point that sets exactly those variables,
    and every shift is -|x_j|.  Each pass then adds the counts into cells at
    or below the ones it reads, which numpy does in place without a
    temporary, so the box is the only array.  The passes run in ascending
    |x_j| and each covers only the flat range reached so far; a zero shift
    doubles every cell.

    ``window``, a list of one [a_i, b_i] per row, asks only for the cells
    of the box prod [a_i, b_i]: with every shift pointing down, a cell c can
    still reach it only if wmin <= c <= wmax + rest, wmin and wmax the
    window's lowest and highest flat cells and rest the sum of the shifts
    not yet applied, so each pass updates no other cell.  Only the cells
    inside the window are then exact.
    """
    lows = [sum(w for w in row if w < 0) for row in weight_rows]
    shape = [sum(abs(w) for w in row) + 1 for row in weight_rows]
    last = math.prod(shape) - 1
    packed, start, stride, strides = [0] * n, 0, last + 1, []
    for row, lo, size in zip(weight_rows, lows, shape):
        stride //= size
        strides.append(stride)
        packed = [p + stride * w for p, w in zip(packed, row)]
        start -= stride * lo
    start += sum(x for x in packed if x > 0)
    if window is None:
        window = [(lo, lo + size - 1) for lo, size in zip(lows, shape)]
    wmin, wmax = (sum(d * (ends[k] - lo) for d, ends, lo in zip(strides, window, lows))
                  for k in (0, 1))
    shifts = sorted(abs(x) for x in packed)
    counts = np.zeros(last + 1, dtype=int_dtype(1 << n))
    counts[start] = 1
    a, rest = start, sum(shifts)  # a..start holds every nonzero count
    for x in shifts:
        rest -= x
        i, j = max(a, wmin + x), min(start, wmax + rest + x)
        if i <= j:
            counts[i - x:j - x + 1] += counts[i:j + 1]
            a = min(a, i - x)
    return counts.reshape(shape), lows
