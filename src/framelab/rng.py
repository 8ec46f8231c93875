"""Deterministic random-stream derivation.

Every stochastic routine derives an independent generator from
``(seed, domain, index)``, so per-trial results never depend on execution
order or on how much randomness an earlier trial consumed.  Domain tags
keep different uses of the same experiment seed from colliding.

Monte Carlo estimators evaluate their trials in blocks: ``trial_ranges``
cuts the trials into blocks of bounded size, and ``trial_rows`` stacks the
draws of one block.  Trial t still draws from its
own ``substream(seed, domain, t)`` with the same calls, so the samples do not
depend on the block size; only the linear algebra after the draw is batched.
"""

import numpy as np

# Domain tags. Values are frozen: changing them changes every golden output.
MASK = 0      # erasure masks, one stream per trial
INPUT = 1     # deterministic test input vectors
SIGNS = 2     # Bernoulli +-1 draws, one stream per trial
COEFFS = 3    # random coefficient vectors (lambda)
SUBSETS = 4   # sampled column subsets
PROBE = 5     # probe vectors x
FAMILY = 6    # random matrix families
DISTR = 7     # probe-coefficient distribution draws, one stream per trial

# A block of Monte Carlo trials holds at most _BLOCK_TRIALS trials and about
# _BLOCK_BYTES (4 MB) of scratch, so the block, not the trial count, sets an
# estimator's peak memory.  Larger blocks buy no speed once the per-block
# Python overhead is amortized, and cost memory beyond the block itself: with
# 16 MB blocks, freed block scratch left the allocator's heap larger, and a
# run of file-driven CLI commands (perfbench's pipeline workload, 12 passes)
# peaked at 77 MB instead of 72 MB (NumPy 2.4, glibc malloc, x86-64).
_BLOCK_TRIALS = 256
_BLOCK_BYTES = 1 << 22


def substream(seed, domain, index=0):
    """Return a fresh ``numpy.random.Generator`` keyed by (seed, domain, index)."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF, int(domain), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def trial_ranges(trials, row_bytes, min_trials=1):
    """Cut ``range(trials)`` into (start, stop) blocks of consecutive trials.

    ``row_bytes`` is the scratch one trial needs.  A block holds at most
    ``_BLOCK_TRIALS`` trials and ``_BLOCK_BYTES`` of scratch, but at least
    ``min_trials`` trials (capped at ``_BLOCK_TRIALS``), for kernels whose
    per-block cost does not shrink with the block.
    """
    fit = _BLOCK_BYTES // max(1, int(row_bytes))
    step = max(1, min(_BLOCK_TRIALS, max(min_trials, fit)))
    return [(start, min(start + step, trials)) for start in range(0, trials, step)]


def trial_rows(seed, domain, start, stop, draw):
    """Rows ``draw(substream(seed, domain, t))`` for t in [start, stop), stacked."""
    return np.stack([draw(substream(seed, domain, t)) for t in range(start, stop)])
