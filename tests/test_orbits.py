"""The rotation-orbit scan of harmonic frames against the generic scan.

The generic scan, forced by making ``frames.harmonic_rows`` report no row
set, is the oracle: on the orbit route ``worst_cond`` and ``worst_subset``
are bit-identical to it, and so are ``subsets_examined`` and a refutation.
Sampled scans, which screen each orbit among their draws once, are checked
against one SVD per draw.
"""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from framelab import (
    DenseMatrix,
    Frame,
    RankDeficient,
    difference_set_etf,
    find_difference_set,
    harmonic_frame,
    renormalize,
    robustness,
    rng,
    worst_condition,
)
from framelab.cli import main
from framelab.frames import harmonic_rows, scaled_onb_frame
from test_robustness import BLOCK_SIZES, per_subset_scan, sampled_draws, scan_outcome

# the difference-set ETFs whose certificates were checked against the generic scan
ETF_CASES = [(7, 3, 3), (7, 3, 4), (13, 4, 8), (21, 5, 15), (21, 5, 17),
             (31, 6, 26), (57, 8, 54)]


def etf(N, M):
    return difference_set_etf(find_difference_set(N, M))


def outcome(f, K):
    """The certificate's result fields, or the refuted certificate's."""
    try:
        cert = worst_condition(f, K)
    except RankDeficient as exc:
        cert = exc.certificate
    return (cert.worst_cond, cert.worst_subset, cert.subsets_examined, cert.mode), cert.route


def generic_outcome(monkeypatch, f, K):
    with monkeypatch.context() as mp:
        mp.setattr(robustness, "harmonic_rows", lambda array: None)
        result, route = outcome(f, K)
    assert route == "generic"
    return result


@pytest.mark.parametrize("N, M, K", ETF_CASES)
def test_orbit_scan_is_bit_identical_to_the_generic_scan(monkeypatch, N, M, K):
    f = etf(N, M)
    got, route = outcome(f, K)
    assert route == "orbits"
    assert got == generic_outcome(monkeypatch, f, K)
    assert got[2] == math.comb(N, K)


def test_refusal_is_the_lexicographically_first_deficient_subset(monkeypatch):
    # columns 0 and 2 (and 1 and 3) of this frame coincide
    f = harmonic_frame(2, 4, row_set=(0, 2))
    got, route = outcome(f, 2)
    assert route == "orbits"
    assert got == (math.inf, (0, 2), 2, "exhaustive") == generic_outcome(monkeypatch, f, 2)
    with pytest.raises(RankDeficient, match=r"columns \(0, 2\)"):
        worst_condition(f, 2)


@pytest.mark.parametrize("K, met, first", [
    (3, (0, 2, 4), (0, 1, 6)),
    (4, (0, 2, 4, 6), (0, 1, 6, 7)),
])
def test_a_refutation_is_found_again_in_lexicographic_order(monkeypatch, K, met, first):
    # the orbit representatives meet a deficient subset after the first one
    f = harmonic_frame(3, 12, row_set=(0, 2, 6))
    row = 3 * f.array[:, :K].nbytes
    assert robustness._scan(f.array, row, *robustness._orbits(12, K, row))[1] == met
    got, route = outcome(f, K)
    assert route == "orbits"
    assert got[:2] == (math.inf, first)
    assert got == generic_outcome(monkeypatch, f, K)


def small_harmonic_frames():
    """Every row set of n <= 3 rows of Z_M, M <= 8, in both normalizations.

    Row sets with a common factor with M repeat columns, so many of these
    scans are refuted; M = 6 and 8 have orbits shorter than M.
    """
    for M in range(2, 9):
        for n in range(1, min(M, 3) + 1):
            for rows in combinations(range(M), n):
                f = harmonic_frame(n, M, row_set=rows)
                yield f
                yield renormalize(f, "unit")


def test_small_harmonic_frames_match_the_generic_scan(monkeypatch):
    scans = 0
    for f in small_harmonic_frames():
        for K in range(f.n, f.M + 1):
            got, route = outcome(f, K)
            assert route == "orbits"
            assert got == generic_outcome(monkeypatch, f, K), (f.n, f.M, K)
            scans += 1
    assert scans > 600


@pytest.mark.parametrize("N, M, K", [(13, 4, 8), (21, 5, 17)])
def test_orbit_scan_does_not_depend_on_block_size(monkeypatch, N, M, K):
    f = etf(N, M)
    expected = outcome(f, K)
    for block_bytes in (1 << 10, 1 << 14, 1 << 18):
        with monkeypatch.context() as mp:
            mp.setattr(rng, "_BLOCK_BYTES", block_bytes)
            assert outcome(f, K) == expected, block_bytes
    g = harmonic_frame(2, 4, row_set=(0, 2))
    with monkeypatch.context() as mp:
        mp.setattr(rng, "_BLOCK_BYTES", 1)
        assert outcome(g, 2)[0] == (math.inf, (0, 2), 2, "exhaustive")


def test_detector_reads_the_row_set():
    assert harmonic_rows(harmonic_frame(4, 9).array) == (0, 1, 2, 3)
    assert harmonic_rows(harmonic_frame(3, 9, row_set=(5, 0, 7)).array) == (5, 0, 7)
    assert harmonic_rows(etf(21, 5).array) == find_difference_set(21, 5).elements
    assert harmonic_rows(harmonic_frame(1, 1).array) == (0,)
    # real frames, and a harmonic frame times -1, are not harmonic frames
    assert harmonic_rows(harmonic_frame(3, 8, real=True).array) is None
    assert harmonic_rows(scaled_onb_frame(2, 3).array) is None
    assert harmonic_rows(-harmonic_frame(2, 5).array) is None


def test_frames_that_are_not_exactly_harmonic_take_the_generic_scan():
    f = etf(21, 5)
    reference = worst_condition(f, 15)
    a = f.array.copy()
    a[2, 7] = np.nextafter(a[2, 7].real, 2.0) + 1j * a[2, 7].imag
    one_ulp = Frame(n=5, M=21, vectors=DenseMatrix(a), normalization="unit")
    assert harmonic_rows(one_ulp.array) is None
    cert = worst_condition(one_ulp, 17)
    assert cert.route == "generic"
    perm = np.random.default_rng(5).permutation(21)
    permuted = Frame(n=5, M=21, vectors=DenseMatrix(f.array[:, perm]), normalization="unit")
    cert = worst_condition(permuted, 15)
    assert cert.route == "generic"
    assert cert.worst_cond == pytest.approx(reference.worst_cond, rel=1e-12)
    assert cert.subsets_examined == reference.subsets_examined
    # sampled mode keeps its draws, and screens them once per orbit
    assert worst_condition(f, 15, mode="sampled", samples=20, seed=1).route == "orbits"


def test_a_frame_file_written_by_the_cli_takes_the_orbit_scan(tmp_path, capsys):
    frame, cert = tmp_path / "etf.json", tmp_path / "cert.json"
    assert main(["construct", "--kind", "etf", "--N", "21", "--M", "5",
                 "--out", str(frame)]) == 0
    capsys.readouterr()
    assert main(["ner", "--frame", str(frame), "--K", "17", "--json", str(cert)]) == 0
    manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert manifest["counters"]["route"] == "orbits"
    doc = json.loads(cert.read_text())["certificate"]
    assert "route" not in doc
    expected = worst_condition(etf(21, 5), 17)
    assert (doc["worst_cond"], tuple(doc["worst_subset"]), doc["subsets_examined"]) == (
        expected.worst_cond, expected.worst_subset, expected.subsets_examined)


def test_orbit_scan_memory_is_bounded_by_the_block_rule():
    # the 54,264 subsets are streamed in blocks, never built at once
    f = etf(21, 5)
    tracemalloc.start()
    try:
        cert = worst_condition(f, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.route == "orbits"
    assert peak <= 2 * rng._BLOCK_BYTES, peak


def permuted_etf21():
    f = etf(21, 5)
    perm = np.random.default_rng(5).permutation(21)
    return Frame(n=5, M=21, vectors=DenseMatrix(f.array[:, perm]), normalization="unit")


@pytest.mark.parametrize("make, K, route", [
    (lambda: etf(21, 5), 15, "orbits"),
    (lambda: etf(13, 4), 8, "orbits"),
    (lambda: harmonic_frame(3, 40), 20, "generic"),   # C(40, 20) is over the budget
], ids=["etf21_5", "etf13_4", "harmonic3_40"])
@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_scan_of_harmonic_frames_equals_per_subset_scan(monkeypatch, make, K, route, seed):
    f = make()
    expected = per_subset_scan(f, K, "sampled", samples=1000, seed=seed)
    for size in BLOCK_SIZES:
        with monkeypatch.context() as mp:
            mp.setattr(rng, "_BLOCK_TRIALS", size)
            cert = worst_condition(f, K, mode="sampled", samples=1000, seed=seed)
        assert (cert.worst_cond, cert.worst_subset) == expected, size
        assert (cert.subsets_examined, cert.route) == (1000, route)


def least_rotation(subset, N):
    return min(tuple(sorted((c + t) % N for c in subset)) for t in range(N))


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_sampled_scan_screens_each_orbit_among_its_draws_once(monkeypatch, size):
    draws = sampled_draws(4, 21, 15, 3000)
    orbits = {least_rotation(s, 21) for s in draws}
    assert len(orbits) < len(set(draws)) < len(draws)
    rows, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(rng, "_BLOCK_TRIALS", size)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: rows.append(len(g)) or eigvalsh(g))
    cert = worst_condition(etf(21, 5), 15, mode="sampled", samples=3000, seed=4)
    assert cert.route == "orbits"
    assert sum(rows) == len(orbits)


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_sampled_refutation_of_a_harmonic_frame_is_the_first_deficient_draw(monkeypatch, seed):
    # columns 0 and 2, and 1 and 3, coincide: (0, 2) and (1, 3) are one orbit
    f = harmonic_frame(2, 4, row_set=(0, 2))
    expected = per_subset_scan(f, 2, "sampled", samples=50, seed=seed)
    for size in BLOCK_SIZES:
        with monkeypatch.context() as mp:
            mp.setattr(rng, "_BLOCK_TRIALS", size)
            assert scan_outcome(f, 2, "sampled", 50, seed) == expected, size
    with pytest.raises(RankDeficient) as info:
        worst_condition(f, 2, mode="sampled", samples=50, seed=seed)
    assert info.value.certificate.route == "orbits"


@pytest.mark.parametrize("make, K", [
    (permuted_etf21, 15),
    (lambda: harmonic_frame(2, 65), 3),    # a mask of 65 columns overflows a uint64
    (lambda: harmonic_frame(3, 40), 20),   # C(40, 20) is over the budget
], ids=["permuted-etf21_5", "N65", "over-budget"])
def test_other_sampled_scans_take_the_generic_route(make, K):
    f = make()
    cert = worst_condition(f, K, mode="sampled", samples=200, seed=2)
    assert cert.route == "generic"
    assert (cert.worst_cond, cert.worst_subset) == per_subset_scan(f, K, "sampled", 200, 2)


def test_a_sampled_scan_of_a_frame_file_reports_the_orbit_route(tmp_path, capsys):
    frame, cert = tmp_path / "etf.json", tmp_path / "cert.json"
    assert main(["construct", "--kind", "etf", "--N", "21", "--M", "5",
                 "--out", str(frame)]) == 0
    capsys.readouterr()
    assert main(["ner", "--frame", str(frame), "--K", "15", "--mode", "sampled",
                 "--samples", "500", "--seed", "1", "--json", str(cert)]) == 0
    manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert manifest["counters"]["route"] == "orbits"
    assert b"route" not in cert.read_bytes()
