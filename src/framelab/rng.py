"""Deterministic random streams, keyed by (seed, domain tag).

One-off draws (input vectors, families, probes, sampled subsets) take a PCG64
generator from ``substream(seed, domain, index)``.  Monte Carlo trials read a
counter-based Philox stream (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC'11) keyed by ``SeedSequence([seed, domain],
spawn_key=(STREAM_VERSION,))``; without the spawn key the key would repeat
the state of ``substream(seed, domain)``.  Trial t of a draw of ``width``
uniforms reads counters [t s, (t + 1) s), s = ceil(width / 4), and maps each
64-bit word w to (w >> 11) 2^-53.  A trial's values depend only on (seed,
domain, t, width): results do not depend on block size or trial order, any
trial can be regenerated alone, and a block of trials is one vectorized
draw.  One block loop runs an estimator's kernel, which maps B rows to B
values, on rows from either source: ``mc_values`` feeds it Monte Carlo
uniforms, ``pattern_values`` the 0/1 rows of all 2^width patterns.  Its
block rule, ``trial_ranges``, also cuts the isometry check's family and the
column subsets of a robustness scan.

A Monte Carlo call allocates its scratch once, not once per block: one
Philox stream, advanced by each block's draw, and one buffer of uniforms,
whose rows are valid only until the kernel returns.  Kernels keep their own
scratch in ``block_buffer``s the same way, in per-call closures.  The first
block of ``trial_ranges`` is its largest, so it sizes every buffer.

Sampled column subsets are replayed from the raw PCG64 words of
``substream(seed, SUBSETS)``: ``subset_blocks`` yields, block by block, the
subsets that successive ``Generator.choice(N, K, replace=False)`` calls give
under NumPy 2.x, without calling it.  NEP 19 keeps a bit generator's raw
stream stable, not the Generator's methods, so ``choice`` is only the tests'
oracle.  Each word gives two 32-bit halves, low half first.  A draw on
[0, j] takes a half h, forms m = h (j + 1) and returns m >> 32, drawing again
while m mod 2^32 < 2^32 mod (j + 1) (Lemire, ACM TOMACS 2019); a draw on
[0, 0] takes no half.  When N <= 10,000 or K <= N // 50 the subset is
Floyd's (Bentley and Floyd, CACM 1987): for j = N - K, ..., N - 1 it adds
draw[0, j], or j when that is already picked, then K - 1 discarded shuffle
draws on [0, i], i = K - 1, ..., 1, follow.  Otherwise it is the last K
entries of arange(N) after idx[i] is swapped with idx[draw[0, i]] for
i = N - 1 down to max(N - K, 1).  The draws are vectorized over a chunk of
subsets cut by ``trial_ranges``, never made all at once; a rejected draw
shifts every later one by a half, fixed up in sequence, and unused halves
carry over to the next chunk.
"""

import math

import numpy as np

# Values are frozen: changing the Philox key, addressing or conversion changes
# every Monte Carlo output, and must bump this version and the package's.
STREAM_VERSION = 2

# Domain tags. Values are frozen: changing them changes every golden output.
MASK = 0      # erasure masks, one Philox counter block per trial
INPUT = 1     # deterministic test input vectors
SIGNS = 2     # Bernoulli +-1 draws, one Philox counter block per trial
COEFFS = 3    # random coefficient vectors (lambda)
SUBSETS = 4   # sampled column subsets
PROBE = 5     # probe vectors x
FAMILY = 6    # random matrix families
DISTR = 7     # probe-coefficient distribution draws, one counter block per trial

# A block of trials (Monte Carlo trials, patterns or subsets) holds at most
# _BLOCK_TRIALS trials and about _BLOCK_BYTES (4 MB) of scratch, so the block,
# not the trial count or a trial's size, sets a batched loop's peak memory.
# Larger blocks buy no speed once the per-block Python overhead is
# amortized, and cost memory beyond the block itself: with 16 MB blocks,
# freed block scratch left the allocator's heap larger, and a run of
# file-driven CLI commands (perfbench's pipeline workload, 12 passes)
# peaked at 77 MB instead of 72 MB (NumPy 2.4, glibc malloc, x86-64).
_BLOCK_TRIALS = 256
_BLOCK_BYTES = 1 << 22

# Longest pattern (mask length, sign count) that is enumerated exactly.
ENUM_LIMIT = 20

# Generator.choice(N, K, replace=False) runs Floyd's algorithm unless
# N > _FLOYD_N and K > N // 50, where it shuffles the tail of arange(N).
_FLOYD_N = 10_000


def substream(seed, domain, index=0):
    """Return a fresh ``numpy.random.Generator`` keyed by (seed, domain, index)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _philox_key(seed, domain) -> np.ndarray:
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain)]
    ss = np.random.SeedSequence(entropy, spawn_key=(STREAM_VERSION,))
    return ss.generate_state(2, np.uint64)


def _draw(bitgen, stride, out) -> np.ndarray:
    """Fill ``out`` with the uniforms of the stream's next len(out) trials.

    Each trial takes ``stride`` counters, four words each, and keeps the
    first out.shape[1] words w as (w >> 11) 2^-53.
    """
    raw = bitgen.random_raw((len(out), 4 * stride))
    raw >>= 11
    return np.multiply(raw[:, :out.shape[1]], 2.0**-53, out=out)


def uniforms(seed, domain, start, stop, width) -> np.ndarray:
    """(stop - start, width) uniforms in [0, 1) of trials [start, stop)."""
    stride = -(-width // 4)   # counters per trial; each yields four words
    bitgen = np.random.Philox(key=_philox_key(seed, domain))
    bitgen.advance(start * stride)
    return _draw(bitgen, stride, np.empty((stop - start, width)))


def block_buffer(shape, dtype=np.float64):
    """A function b -> (b, *shape) view of one buffer, for a block's scratch.

    The buffer is allocated at the first call, which in a block loop is its
    largest block, and only grows if a later call is larger.
    """
    buffer = np.empty((0, *shape), dtype)

    def rows(b):
        nonlocal buffer
        if len(buffer) < b:
            buffer = np.empty((b, *shape), dtype)
        return buffer[:b]
    return rows


def rademacher(u: np.ndarray) -> np.ndarray:
    """Random signs from uniforms: -1 where u < 1/2, +1 otherwise."""
    return np.where(u < 0.5, -1.0, 1.0)


def trial_ranges(trials, row_bytes, min_trials=1):
    """Cut ``range(trials)`` into (start, stop) blocks of consecutive trials.

    A trial is whatever a batched loop evaluates one at a time: a Monte Carlo
    trial, a pattern, a family member, a column subset.  ``row_bytes`` is the
    scratch one trial needs.  A block holds at most ``_BLOCK_TRIALS`` trials
    and ``_BLOCK_BYTES`` of scratch, but at least ``min_trials`` trials
    (capped at ``_BLOCK_TRIALS``), for kernels whose per-block cost does not
    shrink with the block.
    """
    fit = _BLOCK_BYTES // max(1, int(row_bytes))
    step = max(1, min(_BLOCK_TRIALS, max(min_trials, fit)))
    return [(start, min(start + step, trials)) for start in range(0, trials, step)]


def subset_blocks(seed, N, K, samples, row_bytes):
    """Sorted (B, K) blocks of ``samples`` uniform K-subsets of range(N).

    Subset s is the one the s-th call of ``substream(seed, SUBSETS).choice(N,
    K, replace=False)`` picks, replayed from the generator's raw words (see
    the module docstring).  Blocks are those of ``trial_ranges(samples,
    row_bytes)``; the draw cuts its own work by the block rule too, so that
    neither its scratch nor its per-chunk Python loop depends on the scan's
    block size.
    """
    bitgen = substream(seed, SUBSETS).bit_generator
    floyd = N <= _FLOYD_N or K <= N // 50
    first = max(N - K, 1)   # a draw on [0, 0] takes no half
    # bound + 1 of each draw of one subset, in stream order: Floyd's picks and
    # its discarded shuffle, or the partial Fisher-Yates swaps.  All are at
    # most N < 2^32, so a product h * span fits 64 bits and NumPy's 32-bit
    # Lemire route is the one to replay.
    spans = (np.r_[first:N, K - 1:0:-1] if floyd else np.arange(N - 1, first - 1, -1)) + 1
    spans = spans.astype(np.uint64)
    reject = np.uint64(2**32) % spans   # Lemire: draw again while m mod 2^32 < this
    width, used, low = len(spans), N - first, np.uint64(0xFFFFFFFF)
    halves = np.empty(0, np.uint64)     # unused 32-bit halves, carried across chunks

    def take(count):                    # at least ``count`` halves, low half first
        nonlocal halves
        if len(halves) < count:
            words = bitgen.random_raw(-(-(count - len(halves)) // 2))
            halves = np.concatenate([halves, np.column_stack((words & low, words >> 32)).ravel()])

    def draws(b):                       # (b, used): the draws of b subsets the picks use
        nonlocal halves
        n, skip = b * width, 0
        take(n)
        m = halves[:n].reshape(b, width) * spans
        flat, hits = m.ravel(), np.flatnonzero((m & low) < reject)
        while hits.size:                # a rejected half shifts every later draw by one
            r, skip = int(hits[0]), skip + 1
            take(n + skip)
            col = np.arange(r, n) % width
            flat[r:] = halves[r + skip:n + skip] * spans[col]
            hits = r + np.flatnonzero((flat[r:] & low) < reject[col])
        halves = halves[n + skip:].copy()
        return (m[:, :used] >> 32).astype(np.intp)

    def pick(v):                        # Floyd: j's draw, or j if already picked
        rows = np.arange(len(v)) * N
        kept = np.zeros(len(v) * N, bool)
        kept[rows] = N == K
        for c, j in enumerate(range(first, N)):
            x = rows + v[:, c]
            kept[np.where(kept[x], rows + j, x)] = True
        return np.flatnonzero(kept).reshape(len(v), K) - rows[:, None]

    def swap(v):                        # partial Fisher-Yates: the last K of arange(N)
        idx, rows = np.tile(np.arange(N), (len(v), 1)), np.arange(len(v))
        for c, i in enumerate(range(N - 1, first - 1, -1)):
            other = idx[rows, v[:, c]]
            idx[rows, v[:, c]] = idx[:, i]
            idx[:, i] = other
        return np.sort(idx[:, N - K:], axis=1)

    def subsets(b):                     # a draw's half, product and temporaries: 48 bytes
        v = np.concatenate([draws(j - i) for i, j in trial_ranges(b, 48 * width)])
        return pick(v) if floyd else swap(v)

    # a subset's values and picks, and its mask or index row
    chunks = (subsets(j - i) for i, j in
              trial_ranges(samples, 16 * K + (N if floyd else 16 * N)))
    ready = np.empty((0, K), np.intp)
    for start, stop in trial_ranges(samples, row_bytes):
        while len(ready) < stop - start:
            ready = np.concatenate([ready, next(chunks)])
        yield ready[:stop - start]
        ready = ready[stop - start:]


def _block_values(count, row_bytes, rows, kernel, min_trials=1) -> np.ndarray:
    """``kernel(rows(start, stop))`` over the blocks of ``trial_ranges``."""
    values = np.empty(count)
    for start, stop in trial_ranges(count, row_bytes, min_trials):
        values[start:stop] = kernel(rows(start, stop))
    return values


def mc_values(seed, domain, trials, width, row_bytes, kernel, min_trials=1) -> np.ndarray:
    """Values of ``trials`` Monte Carlo trials, evaluated block by block.

    ``kernel`` maps the (B, width) uniforms of a block's trials [start,
    stop), ``uniforms(seed, domain, start, stop, width)``, to their B values.
    The rows live in one buffer that the next block overwrites: they are
    valid only until the kernel returns.  The kernel needs ``row_bytes`` of
    scratch per trial, on top of the draw's own, which is counted as
    3 width + 3 words and holds the raw words (at most width + 3, shifted in
    place) and the uniforms.
    """
    bitgen, rows = np.random.Philox(key=_philox_key(seed, domain)), block_buffer((width,))
    stride = -(-width // 4)
    return _block_values(trials, row_bytes + 8 * (3 * width + 3), lambda start, stop:
                         _draw(bitgen, stride, rows(stop - start)), kernel, min_trials)


def pattern_values(width, row_bytes, kernel) -> np.ndarray:
    """Values of all 2^width 0/1 patterns, evaluated block by block.

    Row i holds the bits of i, bit j in column j, as float64.  ``kernel``
    maps a block's (B, width) rows to its B values and needs ``row_bytes`` of
    scratch per row, on top of the rows' own (indices, bits and floats).
    """
    return _block_values(1 << width, row_bytes + 24 * width,
                         lambda start, stop: pattern_rows(width, start, stop), kernel)


def pattern_rows(width, start=0, stop=None) -> np.ndarray:
    """Float64 0/1 rows of patterns [start, stop), all 2^width by default.

    Row i holds the bits of i, bit j in column j.
    """
    stop = 1 << width if stop is None else stop
    return ((np.arange(start, stop)[:, None] >> np.arange(width)) & 1).astype(np.float64)


def mean_stderr(values) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single value)."""
    trials = len(values)
    stderr = float(np.std(values, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(values)), stderr
