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


def substream(seed, domain, index=0):
    """Return a fresh ``numpy.random.Generator`` keyed by (seed, domain, index)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _philox_key(seed, domain) -> np.ndarray:
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain)]
    ss = np.random.SeedSequence(entropy, spawn_key=(STREAM_VERSION,))
    return ss.generate_state(2, np.uint64)


def uniforms(seed, domain, start, stop, width) -> np.ndarray:
    """(stop - start, width) uniforms in [0, 1) of trials [start, stop)."""
    stride = -(-width // 4)   # counters per trial; each yields four words
    bitgen = np.random.Philox(key=_philox_key(seed, domain))
    bitgen.advance(start * stride)
    raw = bitgen.random_raw((stop - start) * stride * 4)
    return (raw.reshape(stop - start, 4 * stride)[:, :width] >> 11) * 2.0**-53


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


def _block_values(count, row_bytes, rows, kernel, min_trials=1) -> np.ndarray:
    """``kernel(rows(start, stop))`` over the blocks of ``trial_ranges``."""
    values = np.empty(count)
    for start, stop in trial_ranges(count, row_bytes, min_trials):
        values[start:stop] = kernel(rows(start, stop))
    return values


def mc_values(seed, domain, trials, width, row_bytes, kernel, min_trials=1) -> np.ndarray:
    """Values of ``trials`` Monte Carlo trials, evaluated block by block.

    ``kernel`` maps a block's (B, width) uniforms to its B trial values and
    needs ``row_bytes`` of scratch per trial, on top of the draw's own: the
    raw words (at most width + 3), the shifted words and the uniforms.
    """
    return _block_values(trials, row_bytes + 8 * (3 * width + 3), lambda start, stop:
                         uniforms(seed, domain, start, stop, width), kernel, min_trials)


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
