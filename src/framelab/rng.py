"""Deterministic random streams, keyed by (seed, domain tag).

One-off draws (input vectors, families, probes) take a PCG64 generator from
``substream(seed, domain, index)``.  Monte Carlo trials and sampled subsets
read a counter-based Philox stream (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11) keyed by ``SeedSequence([seed, domain],
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

Sampled column subsets read the Philox stream too: subset s is row s of
the ``SUBSETS`` stream, K uniforms u, fed to Floyd's algorithm (Bentley and
Floyd, CACM 1987).  For c, j in enumerate(range(N - K, N)) it adds
d = floor(u[c] (j + 1)), or j when d is already picked.  d never reaches
j + 1: u <= 1 - 2^-53 puts the exact product at least (j + 1) 2^-53 below
j + 1, more than half the spacing of the doubles just below it, so rounding
to nearest keeps it below.  u takes 2^53 equally likely values, and rounding
the product moves each edge between two values of d by at most one of them,
so every d in [0, j] has probability 1/(j + 1) to within 2^-52: a relative
bias of at most (j + 1) 2^-52.  ``subset_blocks`` makes the draws one
vectorized chunk at a time, with one Python loop over the K columns.
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
SUBSETS = 4   # sampled column subsets, one Philox row per subset
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


def subset_blocks(seed, N, K, samples):
    """Sorted (B, K) blocks of ``samples`` uniform K-subsets of range(N).

    Subset s is Floyd's pick from row s of the ``SUBSETS`` stream (see the
    module docstring), so it does not depend on how the blocks are cut.  The
    blocks are those of ``trial_ranges`` for the draw's own scratch; a caller
    with a larger row cuts them further.
    """
    bitgen, rows = np.random.Philox(key=_philox_key(seed, SUBSETS)), block_buffer((K,))
    stride, spans = -(-K // 4), np.arange(N - K + 1, N + 1)
    # the raw words, uniforms and picks, a subset's mask, and its sorted row
    for start, stop in trial_ranges(samples, 40 * K + N):
        u = _draw(bitgen, stride, rows(stop - start))
        u *= spans
        base = np.arange(stop - start)[:, None] * N
        picks = u.astype(np.intp) + base
        kept = np.zeros((stop - start) * N, bool)
        for c, j in enumerate(range(N - K, N)):
            x = picks[:, c]
            kept[np.where(kept[x], base[:, 0] + j, x)] = True
        yield np.flatnonzero(kept).reshape(-1, K) - base


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
