#!/usr/bin/env python3
"""framelab benchmark: time the workloads end to end, or trace them per module.

Run one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 36 --trace 0

or every workload, each in a fresh process, untraced and traced, with a
table of every metric::

    python3 perfbench/run.py --seed 1

A run builds the workload from ``--seed`` (see ``workloads.py``), then runs
passes over its fixed job list until ``--seconds`` have gone by, checking
every job's output after each pass.  With ``--trace 0`` it reports the
end-to-end metrics; set-up is repeated in fresh processes and its median
reported.  With ``--trace 1`` it alternates untraced and traced passes and
reports per-module metrics, per traced pass, plus the tracing overhead.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs, over all passes) and ``metrics``.  The environment block and
every sample go to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and
a traced run's spans to ``perfbench/out/spans-<workload>-seed<seed>.jsonl.gz``.

BLAS and OpenMP are pinned to one thread before NumPy loads, so all load
comes from one process and ``cpu_s`` shows any parallelism a change adds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("montecarlo", "exhaustive", "pipeline")
SETUP_SAMPLES = 7          # set-up timings per run: its own, the rest in fresh processes
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _mc_trials(args, kwargs, est):
    return {} if est.exact else {"inequalities.mc_trials": est.trials}


# Work counted at the call that does it; see Tracer.
HOOKS = {
    "erasure.per_trial_errors": lambda a, k, r: {"erasure.mc_trials": len(r)},
    "erasure.exact_error_expectation":
        lambda a, k, r: {"erasure.exact_masks": 1 << _arg(a, k, 0, "f").M},
    "robustness.worst_condition": lambda a, k, r: {"robustness.subsets": r.subsets_examined},
    "inequalities.rudelson_check": _mc_trials,
    "inequalities.khintchine_check": _mc_trials,
    "inequalities.exact_sign_expectation":
        lambda a, k, r: {"inequalities.exact_patterns": 1 << (len(_arg(a, k, 0, "summands")) - 1)},
    "probing.concentration_estimate":
        lambda a, k, r: {"probing.concentration_trials": r.trials},
    "cli.run": lambda a, k, r: {"cli.bytes_written":
                                sum(os.path.getsize(p) for p in r["outputs"])},
    "cli.main": lambda a, k, r: {"cli.exit_nonzero": int(r != 0)},
}


class Pass(NamedTuple):
    wall: float
    cpu: float
    job_walls: dict    # job name -> seconds
    failures: list     # one line per job that failed


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(workload, tracer=None):
    """Run every job once, timing the whole pass; then check every output."""
    gc.collect()   # every pass starts from a collected heap
    results, job_walls = {}, {}
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    cpu0, t0 = _cpu_s(), perf_counter()
    with span("bench.pass"):
        for job in workload.jobs:
            job_t0 = perf_counter()
            with span(f"bench.{job.name}"):
                try:
                    results[job.name] = job.run()
                except Exception as exc:   # a failed job is counted, not fatal
                    results[job.name] = exc
            job_walls[job.name] = perf_counter() - job_t0
    wall, cpu = perf_counter() - t0, _cpu_s() - cpu0
    failures = []
    for job in workload.jobs:
        result = results[job.name]
        if isinstance(result, Exception):
            failures.append(f"{job.name}: raised {type(result).__name__}: {result}")
            continue
        try:
            problems = job.check(result)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(f"{job.name}: " + "; ".join(problems))
    return Pass(wall, cpu, job_walls, failures)


def measure(workload, seconds, tracer=None):
    """Run passes until ``seconds`` are used; with a tracer, odd passes are traced."""
    passes, start = [], perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer.installed():
                passes.append(run_pass(workload, tracer))
        else:
            passes.append(run_pass(workload))
        elapsed = perf_counter() - start
        enough = tracer is None or len(passes) >= 2
        # stop when another pass would end nearer past the budget than before it
        if enough and elapsed + passes[-1].wall / 2 >= seconds:
            return passes


def layer_metrics(tracer, traced, untraced, fail_ratio):
    """Per-module metrics of the traced passes, per pass; rates are over busy time."""
    from tracer import BENCH, LAYERS
    n = len(traced)
    walls = [p.wall for p in traced]
    m = {
        "fail_ratio": (fail_ratio, "ratio"),
        "trace.wall_s": (statistics.median(walls), "s"),
        "trace.overhead_s": (statistics.median(walls)
                             - statistics.median(p.wall for p in untraced), "s"),
        f"{BENCH}.self_s": (tracer.self_s[BENCH] / n, "s"),
        "rng.substream.calls": (tracer.calls["rng.substream"] / n, "count"),
        "rng.substream.self_s": (tracer.name_self_s["rng.substream"] / n, "s"),
        "linalg.singular_values.calls": (tracer.calls["linalg.singular_values"] / n, "count"),
        "linalg.condition_number.calls": (tracer.calls["linalg.condition_number"] / n, "count"),
        "linalg.codec_s": ((tracer.inclusive_s["linalg.DenseMatrix.to_json_dict"]
                            + tracer.inclusive_s["linalg.DenseMatrix.from_json_dict"]) / n, "s"),
        "frames.difference_set_s": (tracer.inclusive_s["frames.find_difference_set"] / n, "s"),
        "erasure.mc_trials_per_s": (tracer.rate("erasure.mc_trials"), "1/s"),
        "erasure.exact_masks_per_s": (tracer.rate("erasure.exact_masks"), "1/s"),
        "robustness.subsets_examined": (tracer.counts["robustness.subsets"] / n, "count"),
        "robustness.subsets_per_s": (tracer.rate("robustness.subsets"), "1/s"),
        "inequalities.mc_trials_per_s": (tracer.rate("inequalities.mc_trials"), "1/s"),
        "inequalities.exact_patterns_per_s": (tracer.rate("inequalities.exact_patterns"), "1/s"),
        "probing.concentration_trials_per_s": (tracer.rate("probing.concentration_trials"),
                                               "1/s"),
        "probing.roundtrips": (tracer.calls["probing.probe_roundtrip"] / n, "count"),
        "probing.roundtrip_refused": (tracer.raised["probing.probe_roundtrip"] / n, "count"),
        "cli.commands": (tracer.calls["cli.main"] / n, "count"),
        "cli.bytes_written": (tracer.counts["cli.bytes_written"] / n, "B"),
        "cli.exit_nonzero": (tracer.counts["cli.exit_nonzero"] / n, "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s")
        m[f"{layer}.errors"] = (tracer.errors[layer] / n, "count")
    return m


def git_revision():
    """Commit of the checkout from .git, or None where the checkout has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_1m):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": load_1m,
        "git_revision": git_revision(),
    }


def timed_setup(name, seed):
    """Import framelab and build the workload; return (workload, seconds)."""
    t0 = perf_counter()
    import framelab
    import workloads
    workload = workloads.setup(name, seed, OUT)
    elapsed = perf_counter() - t0
    if not Path(framelab.__file__).resolve().is_relative_to(SRC):
        workload.close()
        raise SystemExit(f"framelab was imported from {framelab.__file__}, not from {SRC}")
    return workload, elapsed


def setup_in_fresh_process(name, seed):
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def run_workload(name, seed, seconds, trace):
    load_1m = os.getloadavg()[0]
    OUT.mkdir(parents=True, exist_ok=True)
    workload, setup_s = timed_setup(name, seed)
    try:
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer(HOOKS)
        passes = measure(workload, seconds, tracer)
    finally:
        workload.close()
    env = environment(load_1m)
    attempted = sum(len(p.job_walls) for p in passes)
    failures = [f for p in passes for f in p.failures]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "failures": failures,
              "wall_s_samples": [p.wall for p in passes],
              "cpu_s_samples": [p.cpu for p in passes],
              "job_wall_s_samples": {job: [p.job_walls[job] for p in passes]
                                     for job in passes[0].job_walls}}
    if trace:
        untraced, traced = passes[0::2], passes[1::2]
        record["traced_passes"] = list(range(1, len(passes), 2))
        metrics = layer_metrics(tracer, traced, untraced, len(failures) / attempted)
        record["job_layer_self_s"] = {
            f"{job}|{layer}": s / len(traced) for (job, layer), s in tracer.job_self_s.items()}
        record["inclusive_s"] = {k: v / len(traced) for k, v in tracer.inclusive_s.items()}
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl.gz")
    else:
        setup_samples = [setup_s] + [setup_in_fresh_process(name, seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
        record["setup_s_samples"] = setup_samples
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"{name}: seed {seed}, {len(passes)} passes, {attempted} jobs, "
          f"{len(failures)} failed")
    for failure in failures:
        print(f"  FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<38} {value:<14.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in a fresh process."""
    rows, ok = [], True
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                raise SystemExit(f"{name} --trace {trace} exited with {out.returncode}")
            result = json.loads(out.stdout.splitlines()[-1])
            ok = ok and result["correct"]
            rows.append(f"{name} (trace {trace}): {result['attempted']} jobs, "
                        f"{result['failed']} failed")
            rows += [f"  {key:<38} {m['value']:<14.6g} {m['unit']}"
                     for key, m in result["metrics"].items()]
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "framelab" / "__init__.py").is_file():
        sys.stderr.write(f"framelab sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    if args.setup_only:
        workload, elapsed = timed_setup(args.workload, args.seed)
        workload.close()
        print(repr(elapsed))
        return 0
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
