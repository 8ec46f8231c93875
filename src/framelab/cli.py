"""Command-line entry point for reproducible framelab experiments.

Every run resolves its configuration from three layers (defaults, then a
JSON config file, then command-line flags), validates it, executes exactly
one module operation, writes outputs atomically, and prints a manifest to
stdout.

One table, ``_COMMANDS``, declares each command once: its parameters (kind,
default, choices, bounds), its output flag, whether it needs an output and a
seed, and its runner.  The argparse flags are derived from it (``--`` plus
the parameter name in kebab case), and :func:`validate` checks flags and
config files alike against it, so every bad value it sees exits 2 with the
same ``ConfigInvalid`` document naming its ``field``.  What argparse refuses
first (an unknown flag, ``--n abc``) exits 2 with its usage message instead.

:func:`run` times three phases, reported as the manifest's ``timings`` and
summed in ``duration_seconds``: ``load`` decodes, once, each file whose
parameter declares a decoder (``Param.load``), ``compute`` runs the runner on
the config and those files, and ``write`` writes its bytes.  Runners hold no
timer: they return raw work counts, and one rule, ``_RATES``, turns each into
a rate over the compute time.

One writer, ``_json_bytes``, makes every JSON output file, and its bytes are
``json.dumps(doc, sort_keys=True, allow_nan=False, indent=2) + "\\n"``.  With
an indent ``json`` falls back to its pure-Python encoder, so a NumPy array in
``doc`` (a frame's matrix entries, from ``Frame.json_fields``) skips it: the
encoder's ``default`` hook dumps a placeholder string where the array is, and
each placeholder is then replaced by its array, which after a vectorized
finite check is rendered by one ``%`` into a layout of the same separators,
each distinct float rendered once.

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, rng
from .errors import ConfigInvalid, FramelabError, NonFiniteEntry
from .frames import (
    Frame,
    RECON,
    UNIT,
    check_tight,
    difference_set_etf,
    find_difference_set,
    harmonic_frame,
    renormalize,
    scaled_onb_frame,
)
from .erasure import (ErasureTrialReport, deterministic_unit_vector, mc_error_estimate,
                      redundancy_sweep)
from .robustness import EXHAUSTIVE, EXHAUSTIVE_BUDGET, SAMPLED, certify, worst_condition
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
from .linalg import DenseMatrix, _no_booleans


# --------------------------------------------------------------------------
# configuration schema
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One parameter: config key ``name``, flag ``--name`` in kebab case."""

    name: str
    kind: str                  # int | float | str | bool | int_list
    required: bool = False
    default: object = None
    choices: tuple = ()
    ge: float | None = None    # value >= ge
    gt: float | None = None    # value > gt
    le: float | None = None    # value <= le
    load: Callable | None = None   # decodes the JSON file the value names


@dataclass(frozen=True)
class Command:
    params: tuple[Param, ...]
    output_flag: str           # --out, --csv or --json
    output_required: bool
    seeded: bool               # needs a seed whatever its params
    runner: Callable           # (config, decoded files) -> (bytes, result, counts)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    seed: int | None
    params: dict
    output: str | None

    def echo(self) -> dict:
        return asdict(self)


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError
    if isinstance(value, float) and not value.is_integer():
        raise ValueError
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError
    if not math.isfinite(value):
        raise ValueError
    return float(value)


def _as_type(t):
    def check(value):
        if not isinstance(value, t):
            raise ValueError
        return value
    return check


def _as_int_list(value) -> list[int]:
    if isinstance(value, str):    # a flag: comma-separated integers
        value = [int(v) for v in value.split(",") if v]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError
    return [_as_int(v) for v in value]


_KINDS = {"int": _as_int, "float": _as_float, "str": _as_type(str),
          "bool": _as_type(bool), "int_list": _as_int_list}

_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def _coerce(param: Param, value, where: str):
    try:
        value = _KINDS[param.kind](value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigInvalid(f"{where}: expected {param.kind}, got {value!r}", field=where)
    if param.load is not None and value == "":
        raise ConfigInvalid(f"{where}: must name a file, got {value!r}", field=where)
    if param.choices and value not in param.choices:
        raise ConfigInvalid(f"{where}: must be one of {', '.join(param.choices)}, "
                            f"got {value!r}", field=where)
    for op, bound in ((">=", param.ge), (">", param.gt), ("<=", param.le)):
        if bound is not None and not _OPS[op](value, bound):
            raise ConfigInvalid(f"{where}: must be {op} {bound}, got {value!r}", field=where)
    return value


def validate(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping into an ExperimentConfig.

    The one check of types, choices, bounds and unknown keys, for flags and
    config files alike.  Documented defaults are filled in; stochastic
    commands must carry a seed.
    """
    if not isinstance(raw, dict):
        raise ConfigInvalid("config must be a JSON object", field="")
    for key in raw:
        if key not in ("command", "seed", "params", "output"):
            raise ConfigInvalid(f"unknown config key {key!r}", field=key)
    command = raw.get("command")
    if command not in _COMMANDS:
        raise ConfigInvalid(
            f"command must be one of {sorted(_COMMANDS)}, got {command!r}",
            field="command",
        )
    spec = _COMMANDS[command]
    params_in = raw.get("params", {})
    if not isinstance(params_in, dict):
        raise ConfigInvalid("params must be an object", field="params")
    schema = {p.name: p for p in spec.params}
    for key in params_in:
        if key not in schema:
            raise ConfigInvalid(f"unknown parameter params.{key}", field=f"params.{key}")
    params: dict = {}
    for name, param in schema.items():
        if params_in.get(name) is not None:
            params[name] = _coerce(param, params_in[name], f"params.{name}")
        elif param.required:
            raise ConfigInvalid(f"missing required parameter params.{name}",
                                field=f"params.{name}")
        elif param.default is not None:
            params[name] = param.default
    seed = raw.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigInvalid("seed must be an integer", field="seed")
    stochastic = spec.seeded or (command == "ner" and params["mode"] == SAMPLED)
    if stochastic and seed is None:
        raise ConfigInvalid(f"command {command!r} requires a seed", field="seed")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigInvalid("output must be a path string", field="output")
    if not output and spec.output_required:
        raise ConfigInvalid(f"command {command!r} requires an output path", field="output")
    _validate_combinations(command, params)
    return ExperimentConfig(command=command, seed=seed, params=params, output=output)


_CONSTRUCT_NEEDS = {"scaled-onb": ("n",), "harmonic": ("n", "M"), "etf": ("N", "M")}


def _validate_combinations(command: str, params: dict):
    """The rules that tie one parameter to another."""
    def bad(field, msg):
        raise ConfigInvalid(f"params.{field}: {msg}", field=f"params.{field}")

    if command == "construct":
        kind = params["kind"]
        for name in _CONSTRUCT_NEEDS[kind]:
            if params.get(name) is None:
                bad(name, f"required for kind {kind}")
        if kind == "harmonic":
            n, M = params["n"], params["M"]
            least = n + 1 if params["real"] and n % 2 == 0 else n   # the library's rule
            if M < least:
                bad("M", f"must be >= {least} for a harmonic frame of n = {n}")
    if command == "khintchine" and not params["exact"] and params["trials"] < 1:
        bad("trials", "must be >= 1 unless exact mode is set")
    if command == "khintchine" and params["exact"] and params["count"] > rng.ENUM_LIMIT:
        bad("count", f"exact mode enumerates 2^count patterns: must be <= {rng.ENUM_LIMIT}")
    if command == "ner" and params["mode"] == SAMPLED and params["samples"] < 1:
        bad("samples", "sampled mode needs samples >= 1")
    if command == "sweep" and min(params["M_list"]) < params["n"]:
        bad("M_list", f"every M must be >= n = {params['n']}")
    if command == "probe" and params["family"] == "file" and not params.get("family_file"):
        bad("family_file", "family 'file' needs params.family_file")
    if command == "probe" and params["family"] == "circulant" and params.get("family_file"):
        bad("family_file", "read only with family 'file'")
    if command == "probe" and params["family"] == "circulant" and params["n"] < 3:
        bad("n", "the circulant family needs n >= 3: every probe at n = 2 is singular")


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteEntry(f"non-finite value {x!r} in CSV output")
    return format(float(x), ".17g")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: str, data: bytes) -> str:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".framelab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
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


_SLOT = "\0array {}"   # stands in for the i-th ndarray while the document is dumped


def _json_bytes(doc) -> bytes:
    """The output file of ``doc``, an ndarray anywhere in it standing for its ``tolist()``.

    The bytes are ``json.dumps(doc, sort_keys=True, allow_nan=False, indent=2)
    + "\\n"``.  The encoder's ``default`` hook records each value it cannot
    encode and dumps its slot string in its place.  Each slot, last first so
    that the text before it is still as dumped, is then replaced by the array
    as :func:`_render_array` renders it at the depth of the slot's line.  At
    most two copies of the text (the 4.7 MB of harmonic(16, 4096)) are alive
    at once.
    """
    arrays: list = []

    def slot(a):
        arrays.append(a)
        return _SLOT.format(len(arrays) - 1)

    text = _dumps(doc, indent=2, default=slot) + "\n"
    for i in reversed(range(len(arrays))):
        placeholder = json.dumps(_SLOT.format(i))
        line = text[:text.index(placeholder)].rsplit("\n", 1)[-1]
        depth = (len(line) - len(line.lstrip(" "))) // 2
        text = text.replace(placeholder, _render_array(arrays[i], depth), 1)
    return text.encode()


def _render_array(a: np.ndarray, depth: int) -> str:
    """``json.dumps(a.tolist(), indent=2)`` nested ``depth`` levels deep.

    Only a float64 ndarray is rendered; any other value raises ``TypeError``,
    as ``json`` does.  ``json`` writes a float as its ``float.__repr__``.
    Each distinct bit pattern is rendered once: an argsort of the ``uint64``
    view groups equal entries (``np.unique`` on the floats would merge -0.0
    into 0.0), and the strings are gathered back to entry order.
    harmonic(16, 4096) holds 40,271 patterns in 131,072 entries.  One ``%``
    fills a layout of the ``indent=2`` separators with them.  ``np.unique``
    of the view groups them alike, but made perfbench ``pipeline`` slower
    on a shared 2-vCPU host: its ``erasure_h16x4096`` job, which runs after
    the frame writes, took 12-16 ms more, though peak RSS fell by 2.4 MB.
    """
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        raise TypeError(f"only float64 arrays are written, got {getattr(a, 'dtype', type(a))}")
    if not np.isfinite(a).all():
        raise NonFiniteEntry("non-finite value in JSON output")
    bits = a.reshape(-1).view(np.uint64)
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(bits.size, dtype=bool)   # the first entry of each pattern
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    texts = np.array([repr(v) for v in ordered[first].view(np.float64).tolist()],
                     dtype=object)
    gathered = np.empty(bits.size, dtype=object)
    gathered[order] = texts[np.cumsum(first) - 1]
    return _layout(a.shape, depth) % tuple(gathered.tolist())


def _layout(shape: tuple, depth: int) -> str:
    """The ``indent=2`` text of a nested list of ``shape``, ``%s`` for each number."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    item = _layout(shape[1:], depth + 1)
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + "\n" + "  " * depth + "]"


def _erasure_csv(reports) -> bytes:
    lines = [",".join(f.name for f in fields(ErasureTrialReport))]
    for r in reports:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in astuple(r)))
    return ("\n".join(lines) + "\n").encode()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or bad UTF-8
        raise ConfigInvalid(f"cannot read JSON file {path}: {exc}", field=path)


def _decode(path: str, decode):
    """``decode`` of the JSON document in ``path``; a malformed one exits 2."""
    doc = _load_json(path)
    try:
        return decode(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"invalid file {path}: {exc}", field=path)


def _family_from_json(doc) -> np.ndarray:
    if not isinstance(doc, list):
        raise ValueError("a family file holds a list of matrix objects")
    return np.stack([DenseMatrix.from_json_dict(d).data for d in doc])


def _lambda_from_json(doc) -> np.ndarray:
    if not isinstance(doc, list) or not all(isinstance(v, (int, float))
                                            for v in _no_booleans(doc)):
        raise ValueError("a lambda file holds a list of numbers")
    lam = np.array(doc, dtype=np.float64)
    if not np.all(np.isfinite(lam)):   # JSON NaN and Infinity decode as floats
        raise NonFiniteEntry("lambda file holds NaN or Inf")
    return lam


def _fields(record, counters: bool = False) -> dict:
    """A record's result fields, or with ``counters`` its work counters: the
    fields declared ``compare=False``, which go to stdout and never to a file."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.compare != counters}


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------

# A runner maps (config, decoded files) to (output bytes, result, work counts).
# It encodes its own output: a variant that left encoding to run() raised
# perfbench pipeline's peak RSS by 3.4 MB (67.6 -> 71.0): construct then frees
# its Frame before building the 4.7 MB text, which changes glibc's heap layout.

def _run_construct(cfg: ExperimentConfig, files: dict):
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
    return _json_bytes(f.json_fields()), {"n": f.n, "M": f.M, "kind": f.kind,
                                          "normalization": f.normalization}, {}


def _frame_n2(files: dict) -> Frame:   # both statistics divide by sqrt(ln n)
    if files["frame"].n < 2:
        raise ConfigInvalid("params.frame: need n >= 2 so that ln(n) > 0, got n = 1",
                            field="params.frame")
    return files["frame"]


def _run_erasure(cfg: ExperimentConfig, files: dict):
    p = cfg.params
    f = _frame_n2(files)
    renormalized = f.normalization != RECON
    if renormalized:
        f = renormalize(f, RECON)
    # the estimator is unbiased only for a tight frame: E y = (1/M) S x
    tight = check_tight(f)
    if not tight.passed:
        raise ConfigInvalid(f"params.frame: not a tight frame, residual "
                            f"{tight.residual:.3g} of alpha*S - I", field="params.frame")
    x = deterministic_unit_vector(f.n, cfg.seed)
    report = mc_error_estimate(f, x, p["trials"], cfg.seed, p["keep_prob"])
    result = {"mean_error": report.mean_error, "ratio": report.ratio,
              "renormalized": renormalized, "tight_residual": tight.residual}
    return _erasure_csv([report]), result, {"trials": report.trials}


def _run_sweep(cfg: ExperimentConfig, files: dict):
    p = cfg.params
    reports = redundancy_sweep(p["n"], p["M_list"], p["trials"], cfg.seed,
                               p["keep_prob"])
    return (_erasure_csv(reports), {"mean_errors": [r.mean_error for r in reports]},
            {"trials": sum(r.trials for r in reports)})


def _run_ner(cfg: ExperimentConfig, files: dict):
    p = cfg.params
    f = files["frame"]
    if not f.n <= p["K"] <= f.M:
        raise ConfigInvalid(f"params.K: must be in {f.n}..{f.M} for a frame of "
                            f"n = {f.n}, M = {f.M}, got {p['K']}", field="params.K")
    if p.get("C") is not None:
        result = certify(f, C=p["C"], K=p["K"], mode=p["mode"],
                         samples=p["samples"], seed=cfg.seed or 0)
        cert = result.certificate
        doc = {"passed": result.passed, "required_cond": result.required_cond}
    else:
        cert = worst_condition(f, p["K"], mode=p["mode"], samples=p["samples"],
                               seed=cfg.seed or 0)
        doc = {}
    doc["certificate"] = _fields(cert)
    if cert.worst_cond == math.inf:   # refuted: standard JSON has no Infinity
        doc["certificate"]["worst_cond"] = "inf"
    counts = {"subsets_examined": cert.subsets_examined, **_fields(cert, counters=True)}
    return _json_bytes(doc), doc, counts


def _run_rudelson(cfg: ExperimentConfig, files: dict):
    f = _frame_n2(files)
    ens = SignEnsemble(count=f.M, exact=False, trials=cfg.params["trials"], seed=cfg.seed)
    est = rudelson_check(f, ens)
    doc = _fields(est)
    return _json_bytes(doc), doc, {"trials": est.trials, **_fields(est, counters=True)}


def _run_khintchine(cfg: ExperimentConfig, files: dict):
    p = cfg.params
    family = rng.substream(cfg.seed, rng.FAMILY).standard_normal(
        (p["count"], p["dim"], p["dim"])
    )
    ens = SignEnsemble(count=p["count"], exact=p["exact"],
                       trials=p["trials"], seed=cfg.seed)
    est = khintchine_check(family, p["m"], ens)
    doc = _fields(est)
    return _json_bytes(doc), doc, {"patterns" if est.exact else "trials": est.trials}


def _run_probe(cfg: ExperimentConfig, files: dict):
    p = cfg.params
    n = p["n"]
    # validate() allows a family file exactly when the family is "file"
    family = files["family_file"] if "family_file" in files else circulant_dictionary(n)
    lam = (files["lambda_file"] if "lambda_file" in files
           else rng.substream(cfg.seed, rng.COEFFS).standard_normal(n))
    for name, value, shape in (("family_file", family, (n, n, n)),
                               ("lambda_file", lam, (n,))):
        if value.shape != shape:   # only a file can differ from n
            raise ConfigInvalid(f"params.{name}: shape {value.shape}, need {shape}",
                                field=f"params.{name}")
    x = rng.substream(cfg.seed, rng.PROBE).integers(0, 2, size=n) * 2.0 - 1.0
    t = regroup(family)
    iso = check_scaled_isometry(t)
    round_ = probe_roundtrip(family, lam, x, cond_limit=p["cond_limit"])
    lam_hat = np.atleast_1d(round_.lambda_hat)
    conc = concentration_estimate(t, p["dist"], p["trials"], cfg.seed)
    doc = {
        "n": n,
        "family": p["family"],
        "isometry": _fields(iso),
        "roundtrip": {
            "lambda": lam,
            "lambda_hat": np.stack((lam_hat.real, lam_hat.imag), axis=1),
            "rel_error": round_.rel_error,
            "cond": round_.cond,
        },
        "concentration": _fields(conc),
    }
    return (_json_bytes(doc), {"rel_error": round_.rel_error,
                               "concentration_ratio": conc.ratio},
            {"trials": conc.trials, **_fields(conc, counters=True)})


def _run_stirling(cfg: ExperimentConfig, files: dict):
    rows = [_fields(stirling_bound_check(m)) for m in range(1, cfg.params["m_max"] + 1)]
    doc = {"m_max": cfg.params["m_max"],
           "all_hold": all(r["holds"] for r in rows),
           "rows": rows}
    return _json_bytes(doc), {"m_max": doc["m_max"], "all_hold": doc["all_hold"]}, {}


# --------------------------------------------------------------------------
# command table
# --------------------------------------------------------------------------

_FRAME = Param("frame", "str", required=True, load=Frame.from_json_dict)
_TRIALS = Param("trials", "int", required=True, ge=1)
_KEEP_PROB = Param("keep_prob", "float", default=0.5, gt=0.0, le=1.0)

_COMMANDS: dict[str, Command] = {
    "construct": Command((
        Param("kind", "str", required=True, choices=("scaled-onb", "harmonic", "etf")),
        Param("n", "int", ge=1),
        Param("M", "int", ge=1),
        Param("copies", "int", default=1, ge=1),
        Param("N", "int"),
        Param("normalization", "str", choices=(RECON, UNIT)),
        Param("real", "bool", default=False),
    ), "--out", output_required=True, seeded=False, runner=_run_construct),
    "erasure": Command((_FRAME, _TRIALS, _KEEP_PROB),
                       "--csv", output_required=True, seeded=True, runner=_run_erasure),
    "sweep": Command((
        Param("n", "int", required=True, ge=2),
        Param("M_list", "int_list", required=True),
        _TRIALS,
        _KEEP_PROB,
    ), "--csv", output_required=True, seeded=True, runner=_run_sweep),
    "ner": Command((
        _FRAME,
        Param("K", "int", required=True, ge=1),
        Param("mode", "str", default=EXHAUSTIVE, choices=(EXHAUSTIVE, SAMPLED)),
        Param("samples", "int", default=0, ge=0, le=EXHAUSTIVE_BUDGET),
        Param("C", "float", ge=1),
    ), "--json", output_required=True, seeded=False, runner=_run_ner),
    "rudelson": Command((_FRAME, _TRIALS),
                        "--json", output_required=False, seeded=True, runner=_run_rudelson),
    # seeded even in exact mode: the seed feeds the family
    "khintchine": Command((
        Param("m", "int", required=True, ge=1, le=30),
        Param("count", "int", required=True, ge=1),
        Param("dim", "int", required=True, ge=1),
        Param("trials", "int", default=0, ge=0),
        Param("exact", "bool", default=False),
    ), "--json", output_required=False, seeded=True, runner=_run_khintchine),
    "probe": Command((
        Param("n", "int", required=True, ge=2),
        Param("family", "str", default="circulant", choices=("circulant", "file")),
        Param("family_file", "str", load=_family_from_json),
        Param("dist", "str", default=RADEMACHER, choices=(RADEMACHER, UNIFORM)),
        _TRIALS,
        Param("lambda_file", "str", load=_lambda_from_json),
        Param("cond_limit", "float", default=1e8, ge=1),
    ), "--json", output_required=True, seeded=True, runner=_run_probe),
    "stirling": Command((
        Param("m_max", "int", default=150, ge=1, le=150),
    ), "--json", output_required=False, seeded=False, runner=_run_stirling),
}


# stdout only: output files carry no timing, so reruns stay byte-identical
_RATES = {"trials": "trials_per_s", "subsets_examined": "subsets_per_s",
          "patterns": "patterns_per_s"}


def _git_revision(root: Path) -> str | None:
    """The commit checked out at ``root``, read from its ``.git`` files; None outside a checkout."""
    git = root / ".git"
    try:
        if git.is_file():   # a linked worktree or a submodule: "gitdir: <path>"
            git = root / git.read_text().split(":", 1)[1].strip()
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):   # a detached HEAD holds the commit
            return head
        ref = head[len("ref: "):]
        shared = git / "commondir"   # a linked worktree keeps its refs in the main .git
        common = git / shared.read_text().strip() if shared.is_file() else git
        for base in (git, common):
            if (base / ref).is_file():
                return (base / ref).read_text().strip()
        for line in (common / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except (OSError, IndexError):
        pass
    return None


@functools.cache
def _source_revision() -> str | None:
    """The git revision of the source checkout two levels above this package
    (its ``src`` layout), read once per process; None for an installed package."""
    return _git_revision(Path(__file__).resolve().parents[2])


def run(cfg: ExperimentConfig) -> dict:
    """Execute one validated command and return its manifest.

    ``timings`` holds the seconds of ``load``, ``compute`` (the runner, with
    the encoding of its output) and ``write`` (the atomic write and digest),
    and ``duration_seconds`` their sum.  ``counters`` holds the runner's work
    counts: trials, subsets examined, and a result record's ``compare=False``
    fields, which no output file carries; ``trials`` and ``subsets_examined``
    gain their rates over the compute time, and so does exact ``khintchine``'s
    ``patterns``.  ``env`` names what the results depend on besides the
    config: the Python, NumPy and BLAS versions, the BLAS thread pins (None
    when unset), the git revision and the Monte Carlo stream version.
    """
    spec = _COMMANDS[cfg.command]
    start = time.perf_counter()
    files = {p.name: _decode(cfg.params[p.name], p.load) for p in spec.params
             if p.load is not None and cfg.params.get(p.name) is not None}
    loaded = time.perf_counter()
    data, result, counters = spec.runner(cfg, files)
    computed = time.perf_counter()
    compute = computed - loaded
    try:
        outputs = {cfg.output: _write_atomic(cfg.output, data)} if cfg.output else {}
    except OSError as exc:   # a directory, or a path that cannot be created
        raise ConfigInvalid(f"cannot write output {cfg.output}: {exc}", field="output")
    timings = {"load": loaded - start, "compute": compute,
               "write": time.perf_counter() - computed}
    counters.update({rate: counters[count] / compute if compute > 0 else 0.0
                     for count, rate in _RATES.items() if count in counters})
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "command": cfg.command,
        "config": cfg.echo(),
        "version": __version__,
        "duration_seconds": sum(timings.values()),
        "timings": timings,
        "outputs": outputs,
        "result": result,
        "counters": counters,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": {"name": blas.get("name"), "version": blas.get("version")},
                **{pin: os.environ.get(pin) for pin in ("OPENBLAS_NUM_THREADS",
                                                        "OMP_NUM_THREADS")},
                "git_revision": _source_revision(), "stream_version": rng.STREAM_VERSION},
    }


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

_FLAG_TYPES = {"int": int, "float": float}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One flag per schema parameter: ``--`` plus its name in kebab case.

    Flags carry no choices or bounds: :func:`validate` checks them, so a
    bad flag value and a bad config-file value fail alike.  Built once per
    process (about 1 ms): parsing reads the parser and never changes it.
    """
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Tight-frame erasure, robustness, and sign-inequality experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file providing defaults")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument(spec.output_flag, dest="output", default=None)
        for p in spec.params:
            flag = "--" + p.name.replace("_", "-")
            if p.kind == "bool":
                sp.add_argument(flag, dest=p.name, action="store_const", const=True,
                                default=None)
            else:
                metavar = "{" + ",".join(p.choices) + "}" if p.choices else None
                sp.add_argument(flag, dest=p.name, type=_FLAG_TYPES.get(p.kind, str),
                                default=None, metavar=metavar)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer flag values over config-file values over schema defaults."""
    raw = {"command": args.command}
    if args.config:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigInvalid("config file must hold a JSON object", field="")
        if file_cfg.get("command", args.command) != args.command:
            raise ConfigInvalid(
                f"config file is for command {file_cfg['command']!r}", field="command"
            )
        raw.update(file_cfg)
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config", "seed", "output") and value is not None}
    params = raw.get("params", {})
    raw["params"] = {**params, **flags} if isinstance(params, dict) else params
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.output is not None:
        raw["output"] = args.output
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = validate(_merge_config(args))
        manifest = _dumps(run(cfg))
    except ConfigInvalid as exc:
        print(_dumps({"error": "ConfigInvalid", "detail": str(exc), "field": exc.field}))
        return 2
    except FramelabError as exc:  # validate raises only ConfigInvalid: cfg is set
        print(_dumps({"error": type(exc).__name__, "detail": str(exc),
                      "config": cfg.echo()}))
        return 3
    print(manifest)
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
