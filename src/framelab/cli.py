"""Command-line entry point for reproducible framelab experiments.

Every run resolves its configuration from three layers (defaults, then a
JSON config file, then command-line flags), validates it against a
per-command schema that rejects unknown keys, executes exactly one module
operation, writes outputs atomically, and prints a manifest to stdout.

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, rng
from .errors import ConfigInvalid, FramelabError, NonFiniteEntry
from .frames import (
    Frame,
    RECON,
    UNIT,
    difference_set_etf,
    find_difference_set,
    harmonic_frame,
    renormalize,
    scaled_onb_frame,
)
from .erasure import deterministic_unit_vector, mc_error_estimate, redundancy_sweep
from .robustness import EXHAUSTIVE, SAMPLED, certify, worst_condition
from .inequalities import (
    SignEnsemble,
    khintchine_check,
    rudelson_check,
    stirling_bound_check,
)
from .probing import (
    RADEMACHER,
    UNIFORM,
    check_scaled_isometry,
    circulant_dictionary,
    concentration_estimate,
    probe_roundtrip,
    regroup,
)
from .linalg import DenseMatrix


# --------------------------------------------------------------------------
# configuration schema
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    name: str
    kind: str            # int | float | str | bool | int_list | str_path
    required: bool = False
    default: object = None


_SCHEMAS: dict[str, tuple[Param, ...]] = {
    "construct": (
        Param("kind", "str", required=True),
        Param("n", "int"),
        Param("M", "int"),
        Param("copies", "int", default=1),
        Param("N", "int"),
        Param("normalization", "str"),
        Param("real", "bool", default=False),
    ),
    "erasure": (
        Param("frame", "str_path", required=True),
        Param("trials", "int", required=True),
        Param("keep_prob", "float", default=0.5),
    ),
    "sweep": (
        Param("n", "int", required=True),
        Param("M_list", "int_list", required=True),
        Param("trials", "int", required=True),
        Param("keep_prob", "float", default=0.5),
    ),
    "ner": (
        Param("frame", "str_path", required=True),
        Param("K", "int", required=True),
        Param("mode", "str", default=EXHAUSTIVE),
        Param("samples", "int", default=0),
        Param("C", "float"),
    ),
    "rudelson": (
        Param("frame", "str_path", required=True),
        Param("trials", "int", required=True),
    ),
    "khintchine": (
        Param("m", "int", required=True),
        Param("count", "int", required=True),
        Param("dim", "int", required=True),
        Param("trials", "int", default=0),
        Param("exact", "bool", default=False),
    ),
    "probe": (
        Param("n", "int", required=True),
        Param("family", "str", default="circulant"),
        Param("family_file", "str_path"),
        Param("dist", "str", default=RADEMACHER),
        Param("trials", "int", required=True),
        Param("lambda_file", "str_path"),
        Param("cond_limit", "float", default=1e8),
    ),
    "stirling": (
        Param("m_max", "int", default=150),
    ),
}

# commands whose resolved configuration consumes randomness
_ALWAYS_SEEDED = {"erasure", "sweep", "rudelson", "khintchine", "probe"}

_OUTPUT_REQUIRED = {"construct", "erasure", "sweep", "ner", "probe"}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int | None
    params: dict
    output: str | None

    def echo(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "params": dict(self.params),
            "output": self.output,
        }


def _coerce(param: Param, value, where: str):
    kind = param.kind
    try:
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError
            if isinstance(value, float) and not value.is_integer():
                raise ValueError
            return int(value)
        if kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError
            if not math.isfinite(value):
                raise ValueError
            return float(value)
        if kind == "bool":
            if not isinstance(value, bool):
                raise ValueError
            return value
        if kind in ("str", "str_path"):
            if not isinstance(value, str):
                raise ValueError
            return value
        if kind == "int_list":
            if isinstance(value, str):
                value = [v for v in value.split(",") if v]
            if not isinstance(value, (list, tuple)) or not value:
                raise ValueError
            return [int(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigInvalid(f"{where}: expected {kind}, got {value!r}", field=where)
    raise ConfigInvalid(f"{where}: unknown parameter kind {kind}", field=where)


def validate(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping into an ExperimentConfig.

    Unknown keys are rejected by name; documented defaults are filled in;
    stochastic commands must carry a seed.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object", field="")
    allowed_top = {"command", "seed", "params", "output"}
    for key in raw:
        if key not in allowed_top:
            raise ConfigInvalid(f"unknown config key {key!r}", field=key)
    command = raw.get("command")
    if command not in _SCHEMAS:
        raise ConfigInvalid(
            f"command must be one of {sorted(_SCHEMAS)}, got {command!r}",
            field="command",
        )
    params_in = raw.get("params") or {}
    if not isinstance(params_in, dict):
        raise ConfigInvalid("params must be an object", field="params")
    schema = {p.name: p for p in _SCHEMAS[command]}
    for key in params_in:
        if key not in schema:
            raise ConfigInvalid(f"unknown parameter params.{key}", field=f"params.{key}")
    params: dict = {}
    for name, param in schema.items():
        if name in params_in and params_in[name] is not None:
            params[name] = _coerce(param, params_in[name], f"params.{name}")
        elif param.required:
            raise ConfigInvalid(f"missing required parameter params.{name}",
                                field=f"params.{name}")
        elif param.default is not None or param.kind == "bool":
            params[name] = param.default
    seed = raw.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigInvalid("seed must be an integer", field="seed")
    # khintchine stays seeded even in exact mode: the seed feeds the family
    stochastic = command in _ALWAYS_SEEDED or (
        command == "ner" and params.get("mode") == SAMPLED
    )
    if stochastic and seed is None:
        raise ConfigInvalid(f"command {command!r} requires a seed", field="seed")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigInvalid("output must be a path string", field="output")
    if output is None and command in _OUTPUT_REQUIRED:
        raise ConfigInvalid(f"command {command!r} requires an output path", field="output")
    _validate_ranges(command, params)
    return ExperimentConfig(command=command, seed=seed, params=params, output=output)


def _validate_ranges(command: str, params: dict):
    def bad(field, msg):
        raise ConfigInvalid(f"params.{field}: {msg}", field=f"params.{field}")

    if command == "construct":
        kind = params["kind"]
        if kind not in ("scaled-onb", "harmonic", "etf"):
            bad("kind", f"must be scaled-onb, harmonic or etf, got {kind!r}")
        if kind == "scaled-onb" and params.get("n") is None:
            bad("n", "required for scaled-onb")
        if kind == "harmonic" and (params.get("n") is None or params.get("M") is None):
            bad("n", "harmonic needs n and M")
        if kind == "etf" and (params.get("N") is None or params.get("M") is None):
            bad("N", "etf needs N (modulus) and M (set size)")
        norm = params.get("normalization")
        if norm is not None and norm not in (RECON, UNIT):
            bad("normalization", f"must be recon or unit, got {norm!r}")
    if "keep_prob" in params and not 0.0 < params["keep_prob"] <= 1.0:
        bad("keep_prob", f"must be in (0, 1], got {params['keep_prob']}")
    if "trials" in params and command != "khintchine" and params["trials"] < 1:
        bad("trials", "must be >= 1")
    if command == "khintchine":
        if not params["exact"] and params["trials"] < 1:
            bad("trials", "must be >= 1 unless exact mode is set")
    if command == "ner":
        if params["mode"] not in (EXHAUSTIVE, SAMPLED):
            bad("mode", f"must be exhaustive or sampled, got {params['mode']!r}")
        if params["mode"] == SAMPLED and params["samples"] < 1:
            bad("samples", "sampled mode needs samples >= 1")
    if command == "probe":
        if params["family"] not in ("circulant", "file"):
            bad("family", f"must be circulant or file, got {params['family']!r}")
        if params["dist"] not in (RADEMACHER, UNIFORM):
            bad("dist", f"must be rademacher or uniform, got {params['dist']!r}")
    if command == "stirling" and not 1 <= params["m_max"] <= 150:
        bad("m_max", "must be in 1..150")


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteEntry(f"non-finite value {x!r} in CSV output")
    return format(float(x), ".17g")


def _write_atomic(path: str, data: bytes) -> str:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".framelab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _dumps(obj, **kwargs) -> str:
    """Standard JSON only: a NaN or Inf anywhere in ``obj`` is a numerical error."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NonFiniteEntry(f"non-finite value in JSON output: {exc}") from exc


def _json_bytes(obj) -> bytes:
    return (_dumps(obj, indent=2) + "\n").encode()


_EREPORT_FIELDS = ("n", "M", "keep_prob", "trials", "mean_error", "stderr",
                   "epsilon", "input_norm", "ratio", "seed")


def _erasure_csv(reports) -> bytes:
    lines = [",".join(_EREPORT_FIELDS)]
    for r in reports:
        row = [str(r.n), str(r.M), _fmt(r.keep_prob), str(r.trials),
               _fmt(r.mean_error), _fmt(r.stderr), _fmt(r.epsilon),
               _fmt(r.input_norm), _fmt(r.ratio), str(r.seed)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read JSON file {path}: {exc}", field=path)


def _per_s(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _trial_counters(trials: int, seconds: float) -> dict:
    # stdout only: output files carry no timing, so reruns stay byte-identical
    return {"trials": trials, "trials_per_s": _per_s(trials, seconds)}


def _load_frame(path: str) -> Frame:
    try:
        return Frame.from_json_dict(_load_json(path))
    except ValueError as exc:
        raise ConfigInvalid(f"invalid frame file {path}: {exc}", field=path)


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

def _run_construct(cfg: ExperimentConfig):
    p = cfg.params
    kind = p["kind"]
    if kind == "scaled-onb":
        f = scaled_onb_frame(p["n"], p["copies"])
    elif kind == "harmonic":
        f = harmonic_frame(p["n"], p["M"], real=p["real"])
    else:
        ds = find_difference_set(p["N"], p["M"])
        f = difference_set_etf(ds)
    norm = p.get("normalization")
    if norm is not None:
        f = renormalize(f, norm)
    digest = _write_atomic(cfg.output, _json_bytes(f.to_json_dict()))
    return {cfg.output: digest}, {"n": f.n, "M": f.M, "kind": f.kind,
                                  "normalization": f.normalization}, {}


def _run_erasure(cfg: ExperimentConfig):
    p = cfg.params
    f = _load_frame(p["frame"])
    renormalized = f.normalization != RECON
    if renormalized:
        f = renormalize(f, RECON)
    x = deterministic_unit_vector(f.n, cfg.seed)
    start = time.perf_counter()
    report = mc_error_estimate(f, x, p["trials"], cfg.seed, p["keep_prob"])
    counters = _trial_counters(report.trials, time.perf_counter() - start)
    digest = _write_atomic(cfg.output, _erasure_csv([report]))
    return {cfg.output: digest}, {"mean_error": report.mean_error,
                                  "ratio": report.ratio,
                                  "renormalized": renormalized}, counters


def _run_sweep(cfg: ExperimentConfig):
    p = cfg.params
    start = time.perf_counter()
    reports = redundancy_sweep(p["n"], p["M_list"], p["trials"], cfg.seed,
                               p["keep_prob"])
    counters = _trial_counters(sum(r.trials for r in reports),
                               time.perf_counter() - start)
    digest = _write_atomic(cfg.output, _erasure_csv(reports))
    return ({cfg.output: digest}, {"mean_errors": [r.mean_error for r in reports]},
            counters)


def _run_ner(cfg: ExperimentConfig):
    p = cfg.params
    f = _load_frame(p["frame"])
    start = time.perf_counter()
    if p.get("C") is not None:
        result = certify(f, C=p["C"], K=p["K"], mode=p["mode"],
                         samples=p["samples"], seed=cfg.seed or 0)
        cert = result.certificate
        doc = {"passed": result.passed, "required_cond": result.required_cond,
               "certificate": cert.to_json_dict()}
    else:
        cert = worst_condition(f, p["K"], mode=p["mode"], samples=p["samples"],
                               seed=cfg.seed or 0)
        doc = {"certificate": cert.to_json_dict()}
    scan_s = time.perf_counter() - start
    # stdout only: the certificate file stays byte-identical across reruns
    counters = {"subsets_examined": cert.subsets_examined,
                "subsets_per_s": _per_s(cert.subsets_examined, scan_s)}
    digest = _write_atomic(cfg.output, _json_bytes(doc))
    return {cfg.output: digest}, doc, counters


def _run_rudelson(cfg: ExperimentConfig):
    p = cfg.params
    f = _load_frame(p["frame"])
    ens = SignEnsemble(count=f.M, exact=False, trials=p["trials"], seed=cfg.seed)
    start = time.perf_counter()
    est = rudelson_check(f, ens)
    counters = _trial_counters(est.trials, time.perf_counter() - start)
    doc = est.to_json_dict()
    outputs = {}
    if cfg.output:
        outputs[cfg.output] = _write_atomic(cfg.output, _json_bytes(doc))
    return outputs, doc, counters


def _run_khintchine(cfg: ExperimentConfig):
    p = cfg.params
    family = rng.substream(cfg.seed, rng.FAMILY).standard_normal(
        (p["count"], p["dim"], p["dim"])
    )
    ens = SignEnsemble(count=p["count"], exact=p["exact"],
                       trials=p["trials"], seed=cfg.seed)
    start = time.perf_counter()
    est = khintchine_check(family, p["m"], ens)
    seconds = time.perf_counter() - start
    counters = {} if est.exact else _trial_counters(est.trials, seconds)
    doc = est.to_json_dict()
    outputs = {}
    if cfg.output:
        outputs[cfg.output] = _write_atomic(cfg.output, _json_bytes(doc))
    return outputs, doc, counters


def _run_probe(cfg: ExperimentConfig):
    p = cfg.params
    n = p["n"]
    if p["family"] == "circulant":
        family = circulant_dictionary(n)
    else:
        if not p.get("family_file"):
            raise ConfigInvalid("family 'file' needs params.family_file",
                                field="params.family_file")
        mats = [DenseMatrix.from_json_dict(d) for d in _load_json(p["family_file"])]
        family = np.stack([m.data for m in mats])
    if p.get("lambda_file"):
        lam = np.asarray(_load_json(p["lambda_file"]), dtype=np.float64)
    else:
        lam = rng.substream(cfg.seed, rng.COEFFS).standard_normal(n)
    x = rng.substream(cfg.seed, rng.PROBE).integers(0, 2, size=n) * 2.0 - 1.0
    iso = check_scaled_isometry(regroup(family))
    round_ = probe_roundtrip(family, lam, x, cond_limit=p["cond_limit"])
    start = time.perf_counter()
    conc = concentration_estimate(regroup(family), p["dist"], p["trials"], cfg.seed)
    counters = _trial_counters(conc.trials, time.perf_counter() - start)
    doc = {
        "n": n,
        "family": p["family"],
        "isometry": {"max_residual": iso.max_residual, "passed": iso.passed},
        "roundtrip": {
            "lambda": [float(v) for v in lam],
            "lambda_hat": [[float(v.real), float(v.imag)]
                           for v in np.atleast_1d(round_.lambda_hat)],
            "rel_error": round_.rel_error,
            "cond": round_.cond,
        },
        "concentration": conc.to_json_dict(),
    }
    digest = _write_atomic(cfg.output, _json_bytes(doc))
    return {cfg.output: digest}, {"rel_error": round_.rel_error,
                                  "concentration_ratio": conc.ratio}, counters


def _run_stirling(cfg: ExperimentConfig):
    rows = [stirling_bound_check(m).to_json_dict()
            for m in range(1, cfg.params["m_max"] + 1)]
    doc = {"m_max": cfg.params["m_max"],
           "all_hold": all(r["holds"] for r in rows),
           "rows": rows}
    outputs = {}
    if cfg.output:
        outputs[cfg.output] = _write_atomic(cfg.output, _json_bytes(doc))
    return outputs, {"m_max": doc["m_max"], "all_hold": doc["all_hold"]}, {}


_RUNNERS = {
    "construct": _run_construct,
    "erasure": _run_erasure,
    "sweep": _run_sweep,
    "ner": _run_ner,
    "rudelson": _run_rudelson,
    "khintchine": _run_khintchine,
    "probe": _run_probe,
    "stirling": _run_stirling,
}


def run(cfg: ExperimentConfig) -> dict:
    """Execute one validated command and return its manifest.

    ``counters`` reports the work done: subsets examined and the scan rate
    for ``ner``; Monte Carlo trials and the trial rate for ``erasure``,
    ``sweep``, ``rudelson``, ``khintchine`` (Monte Carlo mode) and ``probe``
    (its concentration estimate).  It is empty for the other commands.
    """
    start = time.monotonic()
    outputs, result, counters = _RUNNERS[cfg.command](cfg)
    return {
        "command": cfg.command,
        "config": cfg.echo(),
        "version": __version__,
        "duration_seconds": time.monotonic() - start,
        "outputs": outputs,
        "result": result,
        "counters": counters,
    }


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Tight-frame erasure, robustness, and sign-inequality experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(cmd, *, output_flag, params):
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", help="JSON config file providing defaults")
        sp.add_argument("--seed", type=int, default=None)
        if output_flag:
            sp.add_argument(output_flag, dest="output", default=None)
        for flag, kwargs in params.items():
            sp.add_argument(flag, **kwargs)
        return sp

    add("construct", output_flag="--out", params={
        "--kind": {"choices": ["scaled-onb", "harmonic", "etf"]},
        "--n": {"type": int}, "--M": {"type": int},
        "--copies": {"type": int}, "--N": {"type": int},
        "--normalization": {"choices": [RECON, UNIT]},
        "--real": {"action": "store_const", "const": True, "default": None},
    })
    add("erasure", output_flag="--csv", params={
        "--frame": {}, "--trials": {"type": int}, "--keep-prob": {"type": float},
    })
    add("sweep", output_flag="--csv", params={
        "--n": {"type": int}, "--M-list": {}, "--trials": {"type": int},
        "--keep-prob": {"type": float},
    })
    add("ner", output_flag="--json", params={
        "--frame": {}, "--K": {"type": int},
        "--mode": {"choices": [EXHAUSTIVE, SAMPLED]},
        "--samples": {"type": int}, "--C": {"type": float},
    })
    add("rudelson", output_flag="--json", params={
        "--frame": {}, "--trials": {"type": int},
    })
    add("khintchine", output_flag="--json", params={
        "--m": {"type": int}, "--count": {"type": int}, "--dim": {"type": int},
        "--trials": {"type": int},
        "--exact": {"action": "store_const", "const": True, "default": None},
    })
    add("probe", output_flag="--json", params={
        "--n": {"type": int}, "--family": {}, "--family-file": {},
        "--dist": {}, "--trials": {"type": int}, "--lambda-file": {},
        "--cond-limit": {"type": float},
    })
    add("stirling", output_flag="--json", params={
        "--m-max": {"type": int},
    })
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer flag values over config-file values over schema defaults."""
    raw = {"command": args.command, "params": {}}
    if args.config:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigInvalid("config file must hold a JSON object", field="")
        if "command" in file_cfg and file_cfg["command"] != args.command:
            raise ConfigInvalid(
                f"config file is for command {file_cfg['command']!r}", field="command"
            )
        raw["seed"] = file_cfg.get("seed")
        raw["output"] = file_cfg.get("output")
        params = file_cfg.get("params", {})
        if not isinstance(params, dict):
            raise ConfigInvalid("params must be an object", field="params")
        raw["params"].update(params)
        for key in file_cfg:
            if key not in ("command", "seed", "params", "output"):
                raise ConfigInvalid(f"unknown config key {key!r}", field=key)
    schema_names = {p.name for p in _SCHEMAS[args.command]}
    for key, value in vars(args).items():
        if key in ("command", "config", "seed", "output") or value is None:
            continue
        if key not in schema_names:
            raise ConfigInvalid(f"unknown parameter params.{key}", field=f"params.{key}")
        raw["params"][key] = value
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "output", None) is not None:
        raw["output"] = args.output
    return raw


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = validate(_merge_config(args))
    except ConfigInvalid as exc:
        print(_dumps({"error": "ConfigInvalid", "detail": str(exc), "field": exc.field}))
        return 2
    try:
        manifest = _dumps(run(cfg))
    except ConfigInvalid as exc:
        print(_dumps({"error": "ConfigInvalid", "detail": str(exc), "field": exc.field}))
        return 2
    except FramelabError as exc:
        print(_dumps({"error": type(exc).__name__, "detail": str(exc),
                      "config": cfg.echo()}))
        return 3
    print(manifest)
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
