"""The CLI contract: the flag set of every command, and fuzzed configs."""

import argparse
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framelab import (DenseMatrix, circulant_dictionary, harmonic_frame, stirling_bound_check,
                      worst_condition)
from framelab.cli import _build_parser, _fields, main
from framelab.frames import difference_set_etf, find_difference_set

# Sorted option strings of each subcommand, as the CLI has always offered them.
FLAGS = {
    "construct": ["--M", "--N", "--config", "--copies", "--help", "--kind", "--n",
                  "--normalization", "--out", "--real", "--seed", "-h"],
    "erasure": ["--config", "--csv", "--frame", "--help", "--keep-prob", "--seed",
                "--trials", "-h"],
    "sweep": ["--M-list", "--config", "--csv", "--help", "--keep-prob", "--n",
              "--seed", "--trials", "-h"],
    "ner": ["--C", "--K", "--config", "--frame", "--help", "--json", "--mode",
            "--samples", "--seed", "-h"],
    "rudelson": ["--config", "--frame", "--help", "--json", "--seed", "--trials", "-h"],
    "khintchine": ["--config", "--count", "--dim", "--exact", "--help", "--json", "--m",
                   "--seed", "--trials", "-h"],
    "probe": ["--cond-limit", "--config", "--dist", "--family", "--family-file",
              "--help", "--json", "--lambda-file", "--n", "--seed", "--trials", "-h"],
    "stirling": ["--config", "--help", "--json", "--m-max", "--seed", "-h"],
}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_flag_set_of_every_command():
    flags = {name: sorted(o for a in sp._actions for o in a.option_strings)
             for name, sp in _subparsers().items()}
    assert flags == FLAGS


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("argv, field", [
    (["construct", "--kind", "bogus", "--n", "3"], "params.kind"),
    (["construct", "--kind", "harmonic", "--n", "3", "--M", "5",
      "--normalization", "tight"], "params.normalization"),
    (["ner", "--frame", "f.json", "--K", "3", "--mode", "random"], "params.mode"),
    (["probe", "--n", "3", "--trials", "5", "--seed", "0", "--dist", "gaussian"],
     "params.dist"),
])
def test_bad_choice_flag_exits_2_with_field(tmp_path, capsys, argv, field):
    code = main(argv + ["--" + ("out" if argv[0] == "construct" else "json"),
                        str(tmp_path / "out.json")])
    assert code == 2
    doc = last_json(capsys)
    assert doc["error"] == "ConfigInvalid"
    assert doc["field"] == field
    assert not (tmp_path / "out.json").exists()


def test_bad_choice_flag_matches_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "construct", "output": str(tmp_path / "f.json"),
                               "params": {"kind": "bogus", "n": 3}}))
    assert main(["construct", "--config", str(cfg)]) == 2
    from_file = last_json(capsys)
    assert main(["construct", "--kind", "bogus", "--n", "3",
                 "--out", str(tmp_path / "f.json")]) == 2
    assert last_json(capsys) == from_file


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    """A refused argv leaves the cached parser fit for the commands after it."""
    parser = _build_parser()
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    with pytest.raises(SystemExit) as refused:
        main(["construct", "--kind", "etf", "--N", "abc"])
    assert refused.value.code == 2
    frame, cert, rows = (tmp_path / name for name in ("frame.json", "cert.json", "rows.json"))
    assert main(["construct", "--kind", "etf", "--N", "7", "--M", "3", "--out", str(frame)]) == 0
    assert main(["ner", "--frame", str(frame), "--K", "4", "--json", str(cert)]) == 0
    assert main(["stirling", "--m-max", "6", "--json", str(rows)]) == 0
    capsys.readouterr()
    assert built == [] and _build_parser() is parser
    etf = difference_set_etf(find_difference_set(7, 3))
    expected = {frame: etf.to_json_dict(),
                cert: {"certificate": _fields(worst_condition(etf, 4))},
                rows: {"m_max": 6, "all_hold": True,
                       "rows": [_fields(stirling_bound_check(m)) for m in range(1, 7)]}}
    for path, doc in expected.items():
        text = json.dumps(doc, sort_keys=True, allow_nan=False, indent=2) + "\n"
        assert path.read_bytes() == text.encode(), path.name


# --------------------------------------------------------------------------
# fuzzed configs: exit 0, 2 or 3, never an uncaught exception
# --------------------------------------------------------------------------

def _matrix(entries):
    return {"rows": 1, "cols": 2, "mode": "real", "entries": entries}


_FILES = {
    "frame.json": json.dumps(harmonic_frame(2, 5).to_json_dict()),
    "float_n_frame.json": json.dumps(dict(harmonic_frame(2, 5).to_json_dict(), n=2.0)),
    "bool_M_frame.json": json.dumps(dict(harmonic_frame(1, 1).to_json_dict(), M=True)),
    "family.json": json.dumps([DenseMatrix(m).to_json_dict()
                               for m in circulant_dictionary(3)]),
    "bad_family.json": json.dumps([_matrix([[1.0], [0.0]])]),
    "lam.json": "[0.5, -0.25, 1.0]",
    "nan_lam.json": "[NaN, 1.0, 2.0]",
    "bad_lam.json": '[0.5, "x", 1.0]',
    "list.json": "[1, [2], {}]",
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# "@name" stands for the file of that name in the work directory
_FILE_VALUES = st.sampled_from(["@", "@missing.json"] + ["@" + name for name in _FILES])

_ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.floats(-2.0, 9.0) | st.sampled_from([float("nan"), float("inf")]),
    st.sampled_from(["", "x", "3", "8,16", "etf", "sampled", "file"]),
    _FILE_VALUES,
    st.lists(st.integers(-1, 12) | st.floats(0, 12) | st.booleans(), max_size=3),
    st.dictionaries(st.just("k"), st.integers(), max_size=1),
)


def _mostly(good, bad):
    """``good`` in about nineteen draws of twenty, else ``bad``."""
    return st.integers(0, 19).flatmap(lambda i: bad if i == 0 else good)


# values of the right type, so that fuzzed configs also reach the commands
_TYPED_VALUE = {
    "kind": st.sampled_from(["scaled-onb", "harmonic", "etf"]),
    "normalization": st.sampled_from(["recon", "unit"]),
    "mode": st.sampled_from(["exhaustive", "sampled"]),
    "family": st.sampled_from(["circulant", "file"]),
    "dist": st.sampled_from(["rademacher", "uniform"]),
    "real": st.booleans(),
    "exact": st.booleans(),
    "frame": _mostly(st.just("@frame.json"), _FILE_VALUES),
    "family_file": _mostly(st.just("@family.json"), _FILE_VALUES),
    "lambda_file": _mostly(st.sampled_from([None, "@lam.json"]), _FILE_VALUES),
    "M_list": st.lists(st.integers(1, 12), min_size=1, max_size=3) | st.just("4,8"),
    "keep_prob": st.floats(0.0, 1.0),
    "C": st.floats(0.5, 9.0),
    "cond_limit": st.floats(1.0, 1e12),
}


def _config(command):
    names = [o[2:].replace("-", "_") for o in FLAGS[command]
             if o not in ("-h", "--help", "--config", "--seed", "--out", "--csv", "--json")]
    params = st.fixed_dictionaries({
        name: _mostly(_TYPED_VALUE.get(name, st.integers(1, 9)), _ANY_VALUE)
        for name in names
    })
    config = st.fixed_dictionaries({
        "command": st.just(command),
        "seed": _mostly(st.integers(0, 5), _ANY_VALUE),
        "params": _mostly(params, _ANY_VALUE),
        "output": _mostly(st.just("@out.json"), _ANY_VALUE),
    })
    extra = _mostly(st.just({}), st.fixed_dictionaries({"extra": _ANY_VALUE}))
    return st.tuples(config, extra).map(lambda pair: {**pair[0], **pair[1]})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=st.sampled_from(sorted(FLAGS)).flatmap(_config))
def test_fuzzed_configs_exit_0_2_or_3(work, cfg):
    def resolve(v):
        return str(work / v[1:]) if isinstance(v, str) and v.startswith("@") else v

    cfg = {k: {n: resolve(v) for n, v in val.items()} if isinstance(val, dict)
           else resolve(val) for k, val in cfg.items()}
    if isinstance(cfg.get("output"), str):   # "" is the work directory itself
        cfg["output"] = str(work / cfg["output"])
    for name, text in _FILES.items():   # a fuzzed output may overwrite one
        (work / name).write_text(text)
    path = work / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([cfg["command"], "--config", str(path)]) in (0, 2, 3)
