"""The Monte Carlo stream contract and block evaluation of the estimators.

Trial t of a Philox stream reads its own counter block, so a block of trials
draws exactly what the trials draw one at a time, and the draws are pinned.
Each estimator evaluates its trials in blocks of ``rng._BLOCK_TRIALS``
(fewer when a trial's scratch is large).  The block size must not change the
samples: a kernel sees exactly the uniforms of its block, every estimate
matches a per-trial reference loop written here that regenerates each trial
on its own, the erasure errors are bit-identical across block sizes, and
memory does not grow with the trial count.  A call's blocks share one buffer
of uniforms, valid only until the kernel returns.

The two structured inputs, the circulant family and the harmonic frame,
take their own kernels (an FFT per trial); their per-trial values are
bit-identical across block sizes too, and the generic kernels, which every
other input takes, keep their per-trial reference loops.

Exact sign modes run the same block kernels on the rows of
``rng.pattern_values``: row i holds the bits of i, and every exact average
matches a loop over ``itertools.product`` that takes one SVD or norm per
pattern.  The exact erasure average is taken by meet in the middle instead;
it matches the mask kernel run on all 2^M rows, and never holds the 2^M
errors.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from framelab import (
    SignEnsemble,
    circulant_dictionary,
    concentration_estimate,
    contraction_check,
    deterministic_unit_vector,
    exact_error_expectation,
    harmonic_frame,
    khintchine_check,
    mc_error_estimate,
    regroup,
    rng,
    rudelson_check,
)
from framelab.erasure import _contributions, _error_kernel, per_trial_errors

BLOCKS = [1, 7, rng._BLOCK_TRIALS]

# rng.uniforms(0, rng.MASK, 0, 2, 3) under stream version 2
GOLDEN = [[0.9329842082654152, 0.4845214076217217, 0.6838308121893845],
          [0.3106637558126717, 0.3367613917511273, 0.7489783629703008]]


@pytest.fixture(params=BLOCKS, ids=lambda b: f"block{b}")
def block(request, monkeypatch):
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", request.param)
    return request.param


def mean_stderr(values):
    values = np.asarray(values)
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def top_singular_value(a):
    return float(np.linalg.svd(a, compute_uv=False)[0])


def trial_uniforms(seed, domain, t, width):
    """Trial t's uniforms, drawn on their own."""
    return rng.uniforms(seed, domain, t, t + 1, width)[0]


def signs(seed, t, count):
    return np.where(trial_uniforms(seed, rng.SIGNS, t, count) < 0.5, -1.0, 1.0)


@pytest.mark.parametrize("width", [1, 3, 4, 5, 4096])
def test_block_draw_equals_single_trial_draws(width):
    block = rng.uniforms(3, rng.MASK, 5, 12, width)
    single = [trial_uniforms(3, rng.MASK, t, width) for t in range(5, 12)]
    assert block.shape == (7, width)
    assert np.array_equal(block, single)
    assert np.all((0.0 <= block) & (block < 1.0))


@pytest.mark.parametrize("width", [1, 3, 5, 4096])
def test_kernel_sees_the_uniforms_of_its_block(block, width):
    seen = []

    def kernel(u):
        seen.append(u.copy())
        return u[:, 0]

    values = rng.mc_values(9, rng.SIGNS, 600, width, 8 * width, kernel)
    assert len(seen) >= 600 // block
    start = 0
    for u in seen:
        assert np.array_equal(u, rng.uniforms(9, rng.SIGNS, start, start + len(u), width))
        start += len(u)
    assert start == 600
    assert np.array_equal(values, rng.uniforms(9, rng.SIGNS, 0, 600, width)[:, 0])


def test_blocks_of_a_call_share_one_buffer_of_uniforms(block):
    addresses = []

    def kernel(u):
        addresses.append(u.__array_interface__["data"][0])
        return np.zeros(len(u))

    rng.mc_values(2, rng.MASK, 3 * block + 1, 5, 0, kernel)
    assert len(addresses) == 4 and len(set(addresses)) == 1


def test_philox_key_is_apart_from_substream_state():
    for seed, domain in [(0, rng.MASK), (7, rng.SIGNS), (-3, rng.DISTR)]:
        key = rng._philox_key(seed, domain)
        state = rng.substream(seed, domain, 0).bit_generator.seed_seq.generate_state(
            2, np.uint64)
        assert not np.array_equal(key, state)
        # without the spawn key, SeedSequence([s, d]) would give the same words
        bare = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, domain])
        assert np.array_equal(bare.generate_state(2, np.uint64), state)


def test_stream_contract_golden_values():
    # A failure here is a change of the Monte Carlo stream contract: every
    # Monte Carlo output changes, and rng.STREAM_VERSION must be bumped.
    assert rng.STREAM_VERSION == 2
    assert rng.uniforms(0, rng.MASK, 0, 2, 3).tolist() == GOLDEN


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


@pytest.mark.parametrize("n, M, keep_prob", [(2, 8, 0.5), (4, 16, 0.3)])
def test_erasure_matches_per_trial_loop(block, n, M, keep_prob):
    f = harmonic_frame(n, M)
    x = deterministic_unit_vector(n, 3)
    b = _contributions(f, x, keep_prob)
    reference = []
    for t in range(40):
        kept = trial_uniforms(11, rng.MASK, t, M) < keep_prob
        reference.append(np.linalg.norm(x - b[:, kept].sum(axis=1)))
    errors = per_trial_errors(f, x, 40, 11, keep_prob)
    assert np.allclose(errors, reference, rtol=0.0, atol=1e-12)
    report = mc_error_estimate(f, x, 40, 11, keep_prob)
    mean, stderr = mean_stderr(reference)
    assert report.mean_error == pytest.approx(mean, rel=1e-12)
    assert report.stderr == pytest.approx(stderr, rel=1e-12)


def test_erasure_bit_identical_across_block_sizes(monkeypatch):
    for n, M, keep_prob in [(4, 16, 0.5), (4, 16, 0.3), (4, 16, 1.0), (3, 7, 0.5)]:
        f = harmonic_frame(n, M)
        x = deterministic_unit_vector(n, 5)
        runs = []
        for size in BLOCKS:
            monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
            runs.append(per_trial_errors(f, x, 50, 9, keep_prob))
        assert all(np.array_equal(runs[0], other) for other in runs[1:]), (M, keep_prob)


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


def test_sign_average_matches_per_trial_loop(block):
    # odd m splits tr(G^3) unevenly, as the sum of conj(G^2) * G
    mats = np.random.default_rng(2).standard_normal((4, 3, 3))
    m = 3
    powers = [float(np.sum(np.linalg.svd(np.tensordot(signs(6, t, 4), mats, 1),
                                         compute_uv=False) ** (2 * m)))
              for t in range(30)]
    est = khintchine_check(mats, m, SignEnsemble(count=4, trials=30, seed=6))
    mean, stderr = mean_stderr(powers)
    lhs = mean ** (1.0 / (2 * m))
    assert est.lhs == pytest.approx(lhs, rel=1e-12)
    assert est.lhs_stderr == pytest.approx(stderr * lhs / (2 * m * mean), rel=1e-12)


@pytest.mark.parametrize("distribution", ["rademacher", "uniform"])
def test_concentration_matches_per_trial_loop(block, distribution):
    n = 6
    t_stack = regroup(circulant_dictionary(n))
    devs = []
    for t in range(30):
        u = trial_uniforms(4, rng.DISTR, t, n)
        x = np.where(u < 0.5, -1.0, 1.0) if distribution == "rademacher" else 2.0 * u - 1.0
        devs.append(top_singular_value(np.tensordot(x, t_stack, 1)))
    est = concentration_estimate(t_stack, distribution, 30, 4)
    assert est.mean_dev == pytest.approx(float(np.mean(devs)), rel=1e-12)


def test_generic_rudelson_matches_per_trial_loop(block):
    f = harmonic_frame(4, 12, row_set=(0, 1, 2, 5))
    v = f.array
    values = [top_singular_value((v * signs(5, t, 12)[None, :]) @ v.conj().T)
              for t in range(30)]
    est = rudelson_check(f, SignEnsemble(count=12, trials=30, seed=5))
    assert est.route == "generic"
    mean, stderr = mean_stderr(values)
    assert est.lhs == pytest.approx(mean, rel=1e-12)
    assert est.lhs_stderr == pytest.approx(stderr, rel=1e-12)


@pytest.mark.parametrize("distribution", ["rademacher", "uniform"])
def test_generic_concentration_matches_per_trial_loop(block, distribution):
    n = 6
    t_stack = np.random.default_rng(6).standard_normal((n, n, n))
    devs = []
    for t in range(30):
        u = trial_uniforms(4, rng.DISTR, t, n)
        x = np.where(u < 0.5, -1.0, 1.0) if distribution == "rademacher" else 2.0 * u - 1.0
        devs.append(top_singular_value(np.tensordot(x, t_stack, 1)))
    est = concentration_estimate(t_stack, distribution, 30, 4)
    assert est.route == "generic"
    assert est.mean_dev == pytest.approx(float(np.mean(devs)), rel=1e-12)


STRUCTURED = {
    "circulant": lambda: concentration_estimate(
        regroup(circulant_dictionary(9)), "uniform", 300, 3),
    "harmonic": lambda: rudelson_check(
        harmonic_frame(4, 14), SignEnsemble(count=14, trials=300, seed=3)),
}


@pytest.mark.parametrize("route", sorted(STRUCTURED))
def test_structured_kernels_bit_identical_across_block_sizes(monkeypatch, mc_spy, route):
    estimates = []
    for size in BLOCKS:
        monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
        estimates.append(STRUCTURED[route]())
        assert estimates[-1].route == route
    assert all(np.array_equal(mc_spy[0], other) for other in mc_spy[1:])
    assert len(mc_spy) == len(BLOCKS) and len(set(estimates)) == 1


def test_exact_harmonic_route_bit_identical_across_block_sizes(monkeypatch):
    means = set()
    for size in BLOCKS:
        monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
        est = rudelson_check(harmonic_frame(4, 10), SignEnsemble(count=10, exact=True))
        assert est.route == "harmonic"
        means.add(est.lhs)
    assert len(means) == 1


def sign_patterns(count):
    return [np.array(eps) for eps in itertools.product((-1.0, 1.0), repeat=count)]


@pytest.mark.parametrize("width", [0, 1, 5, 10])
def test_pattern_rows_are_bits_of_their_index(block, width):
    rows = []

    def kernel(r):
        rows.append(r.copy())
        return np.zeros(len(r))

    values = rng.pattern_values(width, 0, kernel)
    rows = np.concatenate(rows)
    assert values.shape == (1 << width,)
    assert rows.dtype == np.float64
    assert rows.tolist() == [[(i >> j) & 1 for j in range(width)] for i in range(1 << width)]


def test_pattern_values_bit_identical_across_block_sizes(monkeypatch):
    f = harmonic_frame(4, 12)
    x = deterministic_unit_vector(4, 5)
    runs, means = [], []
    for size in BLOCKS:
        monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
        runs.append(rng.pattern_values(f.M, 32 * f.n, _error_kernel(f, x, 0.5)))
        means.append(exact_error_expectation(f, x))
    assert all(np.array_equal(runs[0], other) for other in runs[1:])
    assert len(set(means)) == 1


@pytest.mark.parametrize("M", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("real", [False, True], ids=["complex_frame", "real_frame"])
@pytest.mark.parametrize("input_kind", ["real", "complex", "zero"])
def test_meet_in_the_middle_matches_the_mask_kernel(M, real, input_kind):
    n = min(3, (M + 1) // 2)
    f = harmonic_frame(n, M, real=real)
    x = deterministic_unit_vector(n, M)
    if input_kind == "complex":
        x = x + 1j * deterministic_unit_vector(n, M + 1)
    elif input_kind == "zero":
        x = np.zeros(n)
    want = float(np.mean(rng.pattern_values(M, 32 * n, _error_kernel(f, x, 0.5))))
    assert exact_error_expectation(f, x) == pytest.approx(want, rel=1e-13)


def test_exact_expectation_keeps_no_array_of_all_masks():
    # 2^20 errors alone would take 8 MB; the two half tables take 64 KB each
    f = harmonic_frame(4, 20)
    x = deterministic_unit_vector(4, 2012)
    tracemalloc.start()
    try:
        exact_error_expectation(f, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_exact_rudelson_matches_pattern_loop(block):
    f = harmonic_frame(4, 10)
    v = f.array
    values = [top_singular_value((v * eps[None, :]) @ v.conj().T) for eps in sign_patterns(10)]
    est = rudelson_check(f, SignEnsemble(count=10, exact=True))
    assert est.lhs == pytest.approx(float(np.mean(values)), rel=1e-12)
    assert est.lhs_stderr == 0.0 and est.trials == 1 << 10


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("complex_mode", [False, True])
def test_exact_khintchine_matches_pattern_loop(block, m, complex_mode):
    stream = np.random.default_rng(12)
    family = stream.standard_normal((7, 3, 4))
    if complex_mode:
        family = family + 1j * stream.standard_normal((7, 3, 4))
    powers = [float(np.sum(np.linalg.svd(np.tensordot(eps, family, 1),
                                         compute_uv=False) ** (2 * m)))
              for eps in sign_patterns(7)]
    est = khintchine_check(family, m, SignEnsemble(count=7, exact=True))
    assert est.lhs == pytest.approx(float(np.mean(powers)) ** (1.0 / (2 * m)), rel=1e-12)
    assert est.lhs_stderr == 0.0 and est.trials == 1 << 7


@pytest.mark.parametrize("shape", [(5,), (3, 4)], ids=["vectors", "matrices"])
def test_exact_contraction_matches_pattern_loop(block, shape):
    stream = np.random.default_rng(9)
    summands = stream.standard_normal((8, *shape))
    x = stream.uniform(-1.0, 1.0, size=8)
    norm = np.linalg.norm if len(shape) == 1 else top_singular_value
    lhs = np.mean([norm(np.tensordot(eps * x, summands, 1)) for eps in sign_patterns(8)])
    rhs = np.mean([norm(np.tensordot(eps, summands, 1)) for eps in sign_patterns(8)])
    report = contraction_check(list(summands), x, 1.0)
    assert report.lhs == pytest.approx(float(lhs), rel=1e-12)
    assert report.rhs == pytest.approx(float(rhs), rel=1e-12)


ESTIMATORS = {
    "erasure": lambda trials: per_trial_errors(
        harmonic_frame(2, 8), deterministic_unit_vector(2, 1), trials, 1),
    "erasure-wide": lambda trials: per_trial_errors(
        harmonic_frame(16, 1024), deterministic_unit_vector(16, 1), trials, 1),
    "rudelson": lambda trials: rudelson_check(
        harmonic_frame(2, 6), SignEnsemble(count=6, trials=trials, seed=1)),
    "rudelson-wide": lambda trials: rudelson_check(
        harmonic_frame(16, 64), SignEnsemble(count=64, trials=trials, seed=1)),
    "rudelson-generic": lambda trials: rudelson_check(
        harmonic_frame(2, 6, row_set=(0, 3)), SignEnsemble(count=6, trials=trials, seed=1)),
    "khintchine": lambda trials: khintchine_check(
        np.eye(2)[None].repeat(3, axis=0), 1, SignEnsemble(count=3, trials=trials, seed=1)),
    "concentration": lambda trials: concentration_estimate(
        regroup(circulant_dictionary(3)), "rademacher", trials, 1),
    "concentration-generic": lambda trials: concentration_estimate(
        np.eye(3)[:, None].repeat(3, axis=1), "rademacher", trials, 1),
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
