"""The benchmark's workloads: fixed job lists built from a workload seed.

Each workload is a list of jobs.  A job calls public framelab functions
and returns a plain dict of its results; its check returns the list of
problems found in such a dict (empty when the output is right).  Checks hold
for any workload seed: deterministic values are compared with
``reference.json`` and seeded estimates with exact values or with the
inequalities the paper's experiments establish.  No check compares bytes,
so a deliberate change of the random-stream contract is not a failure while
a wrong number is.

Why these three workloads (job sizes are for one BLAS thread):

* ``montecarlo`` - the seeded estimators, about 6 s a pass.  Per-trial
  ``rng.substream`` set-up dominates the tiny-n jobs and the top singular
  value the n >= 64 ones, so a trial-engine change and an eigvalsh change
  each have a job that isolates them.  ``robustness`` and ``frames`` idle.
* ``exhaustive`` - deterministic enumeration, about 5 s a pass.
  ``robustness``, ``linalg.condition_number``, ``frames`` and the two 2^M
  enumerators carry the time; ``rng`` makes one call.  It uses ``erasure``
  and ``inequalities`` the opposite way to ``montecarlo``, so a merged
  engine that speeds one side and slows the other shows.
* ``pipeline`` - file-driven ``framelab.cli.main`` runs, about 1.5 s a pass,
  with compute kept small so that CLI parsing, validation, the
  ``DenseMatrix`` JSON codec, atomic writes and SHA-256 dominate.  The
  other two workloads bypass ``cli`` entirely.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from framelab import cli, erasure, frames, inequalities, probing, rng, robustness
from framelab.errors import IllConditioned, Singular

REFERENCE = Path(__file__).with_name("reference.json")

# Inputs of the deterministic jobs are fixed, not drawn from the workload
# seed, so that their outputs can be compared with values in reference.json.
FIXED_SEED = 2012

DIFFERENCE_SETS = ((7, 3), (13, 4), (21, 5), (31, 6), (57, 8), (73, 9), (91, 10))
REL_TOL = 1e-9
PROBE_COND_LIMIT = 1e6


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]


@dataclass
class Workload:
    jobs: list
    inputs: dict                 # what the jobs consume, for fingerprinting
    scratch: Path | None = None

    def close(self):
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)

    def fingerprint(self) -> str:
        """SHA-256 over the job names, in order, and every input."""
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(job.name.encode() + b"\0")
        for key in sorted(self.inputs):
            h.update(key.encode() + b"\0")
            value = self.inputs[key]
            h.update(np.ascontiguousarray(value).tobytes() if isinstance(value, np.ndarray)
                     else json.dumps(value, sort_keys=True).encode())
        return h.hexdigest()


def job_seed(seed: int, tag: str) -> int:
    """Seed of one job, derived from the workload seed and the job's tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# -- check helpers ---------------------------------------------------------

def _close(name, got, want, problems):
    if not (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= REL_TOL * abs(want)):
        problems.append(f"{name} = {got!r}, reference {want!r}")


def _at_most(name, got, bound, problems):
    if not (isinstance(got, (int, float)) and math.isfinite(got) and got <= bound):
        problems.append(f"{name} = {got!r} exceeds {bound!r}")


def _finite_values(obj, where, problems):
    if isinstance(obj, dict):
        for key, value in obj.items():
            _finite_values(value, f"{where}.{key}", problems)
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _finite_values(value, f"{where}[{i}]", problems)
    elif isinstance(obj, float) and not math.isfinite(obj):
        problems.append(f"{where} is not finite: {obj!r}")


# -- montecarlo ------------------------------------------------------------

def _estimate(est) -> dict:
    return {"lhs": est.lhs, "lhs_stderr": est.lhs_stderr, "rhs": est.rhs,
            "ratio": est.ratio, "trials": est.trials}


def check_mc_vs_exact(r):
    problems = []
    _at_most("|mean_error - exact| / stderr",
             abs(r["mean_error"] - r["exact"]) / r["stderr"], 5.0, problems)
    return problems


def check_sweep(r):
    problems = []
    errors = r["mean_errors"]
    if not all(b < a for a, b in zip(errors, errors[1:])):
        problems.append(f"sweep mean errors do not decrease: {errors}")
    for M, ratio in zip(r["M"], r["ratios"]):
        _at_most(f"sweep ratio at M={M}", ratio, 3.0, problems)
    return problems


def check_rudelson(r):
    problems = []
    _at_most("Rudelson ratio", r["ratio"], 4.0, problems)
    return problems


def check_khintchine_mc(r):
    problems = []
    _at_most("Khintchine ratio less 5 relative stderr",
             r["ratio"] * (1.0 - 5.0 * r["lhs_stderr"] / r["lhs"]), 1.0, problems)
    return problems


def check_concentration(r):
    problems = []
    _at_most("concentration ratio", r["ratio"], 4.0, problems)
    return problems


def check_probes(r):
    problems = []
    _at_most("roundtrip rel_error with cond <= 1e6", r["max_rel_error"], 1e-10, problems)
    if r["refused"] >= r["roundtrips"]:
        problems.append("every probe was refused")
    return problems


def montecarlo(seed: int, scratch_root: Path) -> Workload:
    s = {tag: job_seed(seed, tag) for tag in
         ("mc_2x8", "sweep", "rudelson_16x64", "rudelson_64x256", "khintchine_mc",
          "concentration_64", "concentration_128", "probes")}
    h2x8 = frames.harmonic_frame(2, 8)
    x2x8 = erasure.deterministic_unit_vector(2, s["mc_2x8"])
    exact2x8 = erasure.exact_error_expectation(h2x8, x2x8)
    h16x64 = frames.harmonic_frame(16, 64)
    h64x256 = frames.harmonic_frame(64, 256)
    family = rng.substream(s["khintchine_mc"], rng.FAMILY).standard_normal((8, 6, 6))
    t64 = probing.regroup(probing.circulant_dictionary(64))
    t128 = probing.regroup(probing.circulant_dictionary(128))
    u16 = probing.circulant_dictionary(16)
    n_probes = 500
    lams = np.stack([rng.substream(s["probes"], rng.COEFFS, i).standard_normal(16)
                     for i in range(n_probes)])
    xs = np.stack([rng.substream(s["probes"], rng.PROBE, i).integers(0, 2, size=16) * 2.0 - 1.0
                   for i in range(n_probes)])

    def mc_2x8():
        r = erasure.mc_error_estimate(h2x8, x2x8, 10_000, s["mc_2x8"])
        return {"mean_error": r.mean_error, "stderr": r.stderr, "exact": exact2x8}

    def sweep():
        reports = erasure.redundancy_sweep(16, [64, 256, 1024, 4096], 2000, s["sweep"])
        return {"M": [r.M for r in reports], "mean_errors": [r.mean_error for r in reports],
                "ratios": [r.ratio for r in reports]}

    def rudelson(frame, tag):
        ens = inequalities.SignEnsemble(count=frame.M, trials=2000, seed=s[tag])
        return lambda: _estimate(inequalities.rudelson_check(frame, ens))

    def khintchine_mc():
        ens = inequalities.SignEnsemble(count=8, trials=4000, seed=s["khintchine_mc"])
        return _estimate(inequalities.khintchine_check(family, 2, ens))

    def concentration(t, tag):
        def run():
            est = probing.concentration_estimate(t, probing.RADEMACHER, 1000, s[tag])
            return {"ratio": est.ratio, "mean_dev": est.mean_dev}
        return run

    def probes():
        refused, max_rel = 0, 0.0
        for lam, x in zip(lams, xs):
            try:
                r = probing.probe_roundtrip(u16, lam, x, cond_limit=PROBE_COND_LIMIT)
            except (Singular, IllConditioned):
                refused += 1
                continue
            max_rel = max(max_rel, r.rel_error)
        return {"roundtrips": n_probes, "refused": refused, "max_rel_error": max_rel}

    jobs = [
        Job("mc_2x8", mc_2x8, check_mc_vs_exact),
        Job("sweep", sweep, check_sweep),
        Job("rudelson_16x64", rudelson(h16x64, "rudelson_16x64"), check_rudelson),
        Job("rudelson_64x256", rudelson(h64x256, "rudelson_64x256"), check_rudelson),
        Job("khintchine_mc", khintchine_mc, check_khintchine_mc),
        Job("concentration_64", concentration(t64, "concentration_64"), check_concentration),
        Job("concentration_128", concentration(t128, "concentration_128"), check_concentration),
        Job("probes", probes, check_probes),
    ]
    inputs = {"seeds": s, "x2x8": x2x8, "family": family, "lams": lams, "xs": xs}
    return Workload(jobs, inputs)


# -- exhaustive ------------------------------------------------------------

def _reference_check(key, ref, *, at_most=None):
    """Compare a result with its reference entry: floats to 1e-9, the rest exactly."""
    def check(r):
        problems = []
        for name, want in ref[key].items():
            got = r.get(name)
            if isinstance(want, float):
                _close(f"{key}.{name}", got, want, problems)
            elif got != want:
                problems.append(f"{key}.{name} = {got!r}, reference {want!r}")
        for name, bound in (at_most or {}).items():
            _at_most(f"{key}.{name}", r.get(name), bound, problems)
        return problems
    return check


def _certificate(cert) -> dict:
    return {"worst_cond": cert.worst_cond, "worst_subset": list(cert.worst_subset),
            "subsets_examined": cert.subsets_examined}


def exhaustive(seed: int, scratch_root: Path) -> Workload:
    ref = json.loads(REFERENCE.read_text())
    sampled_seed = job_seed(seed, "ner_21_5_K15_sampled")
    etf13 = frames.difference_set_etf(frames.find_difference_set(13, 4))
    etf21 = frames.difference_set_etf(frames.find_difference_set(21, 5))
    x4 = erasure.deterministic_unit_vector(4, FIXED_SEED)
    h4x16 = frames.harmonic_frame(4, 16)
    h4x20 = frames.harmonic_frame(4, 20)
    h4x14 = frames.harmonic_frame(4, 14)
    family = rng.substream(FIXED_SEED, rng.FAMILY).standard_normal((14, 6, 6))
    summands = rng.substream(FIXED_SEED, rng.COEFFS).standard_normal((12, 4, 4))
    coeffs = rng.substream(FIXED_SEED, rng.PROBE).uniform(-1.0, 1.0, size=12)

    def difference_sets():
        out = {}
        for N, M in DIFFERENCE_SETS:
            ds = frames.find_difference_set(N, M)
            frames.difference_set_etf(ds)
            out[f"{N},{M}"] = list(ds.elements)
        return out

    def sampled():
        cert = robustness.worst_condition(etf21, 15, mode=robustness.SAMPLED,
                                          samples=20_000, seed=sampled_seed)
        return _certificate(cert)

    def check_sampled(r):
        problems = []
        worst = ref["ner_21_5_K15"]["worst_cond"]
        _at_most("sampled worst_cond", r["worst_cond"], worst * (1.0 + REL_TOL), problems)
        if r["subsets_examined"] != 20_000:
            problems.append(f"sampled subsets_examined = {r['subsets_examined']}")
        return problems

    def exact_error(frame):
        return lambda: {"expectation": erasure.exact_error_expectation(frame, x4)}

    def khintchine_exact():
        ens = inequalities.SignEnsemble(count=14, exact=True)
        return _estimate(inequalities.khintchine_check(family, 2, ens))

    def rudelson_exact():
        ens = inequalities.SignEnsemble(count=14, exact=True)
        return _estimate(inequalities.rudelson_check(h4x14, ens))

    def contraction():
        r = probing.contraction_check(list(summands), coeffs, 1.0)
        return {"lhs": r.lhs, "rhs": r.rhs, "holds": r.holds}

    jobs = [
        Job("difference_sets", difference_sets, _reference_check("difference_sets", ref)),
        Job("ner_13_4_K8", lambda: _certificate(robustness.worst_condition(etf13, 8)),
            _reference_check("ner_13_4_K8", ref)),
        Job("ner_21_5_K15", lambda: _certificate(robustness.worst_condition(etf21, 15)),
            _reference_check("ner_21_5_K15", ref)),
        Job("ner_21_5_K15_sampled", sampled, check_sampled),
        Job("exact_4x16", exact_error(h4x16), _reference_check("exact_4x16", ref)),
        Job("exact_4x20", exact_error(h4x20), _reference_check("exact_4x20", ref)),
        Job("khintchine_exact", khintchine_exact,
            _reference_check("khintchine_exact", ref, at_most={"ratio": 1.0})),
        Job("rudelson_exact", rudelson_exact,
            _reference_check("rudelson_exact", ref, at_most={"ratio": 4.0})),
        Job("contraction", contraction, _reference_check("contraction", ref)),
    ]
    inputs = {"sampled_seed": sampled_seed, "x4": x4, "family": family,
              "summands": summands, "coeffs": coeffs}
    return Workload(jobs, inputs)


# -- pipeline --------------------------------------------------------------

def _call_cli(argv):
    """Run ``framelab.cli.main(argv)`` in-process; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:   # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_manifest(r, expect=None, refusal_ok=False):
    """Exit 0, every digest matches the file written, every value finite.

    ``expect`` gives result values the manifest must carry.  With
    ``refusal_ok`` a probe refused for its conditioning (exit 3 with
    ``Singular`` or ``IllConditioned``) is an expected outcome, not a failure.
    """
    if r["exit_code"] == 3 and refusal_ok:
        try:
            if json.loads(r["stdout"]).get("error") in ("Singular", "IllConditioned"):
                return []
        except ValueError:
            pass
    if r["exit_code"] != 0:
        return [f"exit code {r['exit_code']}: {r['stdout'].strip()[:200]}"]
    problems = []
    try:
        manifest = json.loads(r["stdout"], parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"manifest is not standard JSON: {exc}"]
    result = manifest.get("result", {})
    _finite_values(result, "result", problems)
    for path, digest in manifest.get("outputs", {}).items():
        data = Path(path).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            problems.append(f"digest of {path} does not match the manifest")
        if path.endswith(".csv"):
            for line in data.decode().splitlines()[1:]:
                _finite_values([float(v) for v in line.split(",")], path, problems)
        else:
            try:
                _finite_values(json.loads(data, parse_constant=_reject_constant),
                               path, problems)
            except ValueError as exc:
                problems.append(f"{path} is not standard JSON: {exc}")
    for key, want in (expect or {}).items():
        if result.get(key) != want:
            problems.append(f"result.{key} = {result.get(key)!r}, expected {want!r}")
    return problems


def pipeline(seed: int, scratch_root: Path) -> Workload:
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="pipeline-", dir=scratch_root))
    f = {name: scratch / f"{name}.json" for name in ("h16x4096", "h64x256", "etf21_5")}
    s = {tag: job_seed(seed, tag) for tag in ("erasure", "rudelson", "probe", "sweep")}
    C = robustness.min_cond_bound(1.0 - 17 / 21)
    config = scratch / "sweep_config.json"
    config.write_text(json.dumps({
        "command": "sweep", "seed": s["sweep"],
        "params": {"n": 8, "M_list": [32, 128, 512], "trials": 300},
        "output": str(scratch / "sweep.csv")}))
    commands = [
        ("construct_h16x4096", ["construct", "--kind", "harmonic", "--n", 16, "--M", 4096,
                                "--out", f["h16x4096"]], check_manifest),
        ("construct_h64x256", ["construct", "--kind", "harmonic", "--n", 64, "--M", 256,
                               "--out", f["h64x256"]], check_manifest),
        ("construct_etf21_5", ["construct", "--kind", "etf", "--N", 21, "--M", 5,
                               "--out", f["etf21_5"]], check_manifest),
        ("erasure_h16x4096", ["erasure", "--frame", f["h16x4096"], "--trials", 300,
                              "--seed", s["erasure"], "--csv", scratch / "erasure.csv"],
         check_manifest),
        ("erasure_h64x256", ["erasure", "--frame", f["h64x256"], "--trials", 300,
                             "--seed", s["erasure"], "--csv", scratch / "erasure64.csv"],
         check_manifest),
        ("rudelson_h64x256", ["rudelson", "--frame", f["h64x256"], "--trials", 200,
                              "--seed", s["rudelson"], "--json", scratch / "rudelson.json"],
         check_manifest),
        ("ner_etf21_5_K17", ["ner", "--frame", f["etf21_5"], "--K", 17, "--C", repr(C),
                             "--json", scratch / "ner.json"],
         functools.partial(check_manifest, expect={"passed": True})),
        ("probe_n9", ["probe", "--n", 9, "--trials", 500, "--seed", s["probe"],
                      "--json", scratch / "probe.json"],
         functools.partial(check_manifest, refusal_ok=True)),
        ("stirling", ["stirling", "--json", scratch / "stirling.json"],
         functools.partial(check_manifest, expect={"all_hold": True})),
        ("sweep_config", ["sweep", "--config", config], check_manifest),
    ]

    def command(argv):
        def run():
            code, stdout = _call_cli(argv)
            return {"exit_code": code, "stdout": stdout}
        return run

    jobs = [Job(name, command(argv), check) for name, argv, check in commands]
    # The scratch directory's name differs per set-up; fingerprint the rest.
    argvs = [[str(a).replace(str(scratch), "<scratch>") for a in argv]
             for _, argv, _ in commands]
    return Workload(jobs, {"seeds": s, "argv": argvs}, scratch)


WORKLOADS = {"montecarlo": montecarlo, "exhaustive": exhaustive, "pipeline": pipeline}


def setup(name: str, seed: int, scratch_root: Path) -> Workload:
    """Build the named workload's inputs and job list from the workload seed."""
    return WORKLOADS[name](seed, scratch_root)
