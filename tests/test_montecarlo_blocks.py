"""Block evaluation of the Monte Carlo estimators.

Each estimator evaluates its trials in blocks of ``rng._BLOCK_TRIALS``
(fewer when a trial's scratch is large).  The block size must not change the
samples: every estimate matches a per-trial reference loop written here, the
erasure errors are bit-identical across block sizes, and memory does not grow
with the trial count.
"""

import math
import tracemalloc

import numpy as np
import pytest

from framelab import (
    SignEnsemble,
    circulant_dictionary,
    concentration_estimate,
    deterministic_unit_vector,
    harmonic_frame,
    khintchine_check,
    mc_error_estimate,
    regroup,
    rng,
    rudelson_check,
)
from framelab.erasure import _contributions, per_trial_errors
from framelab.inequalities import sign_mc_expectation

BLOCKS = [1, 7, rng._BLOCK_TRIALS]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", request.param)
    return request.param


def mean_stderr(values):
    values = np.asarray(values)
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def top_singular_value(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def signs(seed, t, count):
    return rng.substream(seed, rng.SIGNS, t).integers(0, 2, size=count) * 2.0 - 1.0


def test_trial_ranges_cover_trials_in_order():
    for trials in (1, 7, 255, 256, 257, 1000):
        for row_bytes in (1, 8, 1 << 20, 1 << 30):
            ranges = rng.trial_ranges(trials, row_bytes)
            assert ranges[0][0] == 0 and ranges[-1][1] == trials
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            sizes = [stop - start for start, stop in ranges]
            assert all(1 <= s <= rng._BLOCK_TRIALS for s in sizes)
            assert all(s == 1 or s * row_bytes <= rng._BLOCK_BYTES for s in sizes)
            floored = [stop - start for start, stop in rng.trial_ranges(trials, row_bytes, 16)]
            assert all(min(16, trials) <= s <= rng._BLOCK_TRIALS for s in floored[:-1])


def test_trial_rows_use_one_substream_per_trial():
    rows = rng.trial_rows(3, rng.MASK, 5, 9, lambda s: s.random(4))
    assert np.array_equal(rows, [rng.substream(3, rng.MASK, t).random(4) for t in range(5, 9)])


@pytest.mark.parametrize("n, M, keep_prob", [(2, 8, 0.5), (4, 16, 0.3)])
def test_erasure_matches_per_trial_loop(block, n, M, keep_prob):
    f = harmonic_frame(n, M)
    x = deterministic_unit_vector(n, 3)
    b = _contributions(f, x, keep_prob)
    reference = []
    for t in range(40):
        kept = rng.substream(11, rng.MASK, t).random(M) < keep_prob
        reference.append(np.linalg.norm(x - b[:, kept].sum(axis=1)))
    errors = per_trial_errors(f, x, 40, 11, keep_prob)
    assert np.allclose(errors, reference, rtol=0.0, atol=1e-12)
    report = mc_error_estimate(f, x, 40, 11, keep_prob)
    mean, stderr = mean_stderr(reference)
    assert report.mean_error == pytest.approx(mean, rel=1e-12)
    assert report.stderr == pytest.approx(stderr, rel=1e-12)


def test_erasure_bit_identical_across_block_sizes(monkeypatch):
    f = harmonic_frame(4, 16)
    x = deterministic_unit_vector(4, 5)
    runs = []
    for size in BLOCKS:
        monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
        runs.append(per_trial_errors(f, x, 50, 9))
    assert all(np.array_equal(runs[0], other) for other in runs[1:])


def test_rudelson_matches_per_trial_loop(block):
    f = harmonic_frame(4, 12)
    v = f.array
    values = [top_singular_value((v * signs(5, t, 12)[None, :]) @ v.conj().T)
              for t in range(30)]
    est = rudelson_check(f, SignEnsemble(count=12, trials=30, seed=5))
    mean, stderr = mean_stderr(values)
    assert est.lhs == pytest.approx(mean, rel=1e-12)
    assert est.lhs_stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_khintchine_matches_per_trial_loop(block, complex_mode):
    stream = np.random.default_rng(4)
    family = stream.standard_normal((5, 3, 4))
    if complex_mode:
        family = family + 1j * stream.standard_normal((5, 3, 4))
    m = 2
    powers = [float(np.sum(np.linalg.svd(np.tensordot(signs(8, t, 5), family, 1),
                                         compute_uv=False) ** (2 * m)))
              for t in range(30)]
    est = khintchine_check(family, m, SignEnsemble(count=5, trials=30, seed=8))
    mean, stderr = mean_stderr(powers)
    lhs = mean ** (1.0 / (2 * m))
    assert est.lhs == pytest.approx(lhs, rel=1e-12)
    assert est.lhs_stderr == pytest.approx(stderr * lhs / (2 * m * mean), rel=1e-12)


def test_sign_mc_expectation_matches_per_trial_loop(block):
    mats = np.random.default_rng(2).standard_normal((4, 3, 3))
    values = [top_singular_value(np.tensordot(signs(6, t, 4), mats, 1)) for t in range(30)]
    mean, stderr = sign_mc_expectation(mats, top_singular_value, 30, 6)
    assert mean == pytest.approx(mean_stderr(values)[0], rel=1e-12)
    assert stderr == pytest.approx(mean_stderr(values)[1], rel=1e-12)


@pytest.mark.parametrize("distribution", ["rademacher", "uniform"])
def test_concentration_matches_per_trial_loop(block, distribution):
    n = 6
    t_stack = regroup(circulant_dictionary(n))
    devs = []
    for t in range(30):
        stream = rng.substream(4, rng.DISTR, t)
        x = (stream.integers(0, 2, size=n) * 2.0 - 1.0 if distribution == "rademacher"
             else stream.uniform(-1.0, 1.0, size=n))
        devs.append(top_singular_value(np.tensordot(x, t_stack, 1)))
    est = concentration_estimate(t_stack, distribution, 30, 4)
    assert est.mean_dev == pytest.approx(float(np.mean(devs)), rel=1e-12)


ESTIMATORS = {
    "erasure": lambda trials: per_trial_errors(
        harmonic_frame(2, 8), deterministic_unit_vector(2, 1), trials, 1),
    "rudelson": lambda trials: rudelson_check(
        harmonic_frame(2, 6), SignEnsemble(count=6, trials=trials, seed=1)),
    "khintchine": lambda trials: khintchine_check(
        np.eye(2)[None].repeat(3, axis=0), 1, SignEnsemble(count=3, trials=trials, seed=1)),
    "concentration": lambda trials: concentration_estimate(
        regroup(circulant_dictionary(3)), "rademacher", trials, 1),
}


def traced_peak(run, trials):
    tracemalloc.start()
    try:
        run(trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_peak_memory_does_not_grow_with_trials(name):
    run = ESTIMATORS[name]
    small = traced_peak(run, 2_000)
    large = traced_peak(run, 20_000)
    assert large <= small + (1 << 20), (small, large)
