"""CLI exit contract for non-finite and malformed input, and the work counters."""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from framelab import (ConcentrationEstimate, ConfigInvalid, DenseMatrix, Frame,
                      InequalityEstimate, NerCertificate, StirlingBound, circulant_dictionary,
                      harmonic_frame, worst_condition)
from framelab import cli
from framelab.cli import _fields, main, validate
from framelab.probing import IsometryReport


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(capsys, *argv):
    """Exit code and the last stdout line, which must be standard JSON."""
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1], parse_constant=_reject_constant)


@pytest.fixture
def nan_frame(tmp_path):
    doc = harmonic_frame(2, 6).to_json_dict()
    doc["matrix"]["entries"][3] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("argv", [
    ("erasure", "--trials", 20, "--seed", 1, "--csv", "out.csv"),
    ("rudelson", "--trials", 20, "--seed", 1, "--json", "out.json"),
    ("ner", "--K", 4, "--json", "out.json"),
    ("ner", "--K", 4, "--mode", "sampled", "--samples", 10, "--seed", 1,
     "--json", "out.json"),
])
def test_nan_frame_exits_3(tmp_path, capsys, nan_frame, argv):
    command, *rest = argv
    rest = [tmp_path / a if a in ("out.csv", "out.json") else a for a in rest]
    code, doc = run_cli(capsys, command, "--frame", nan_frame, *rest)
    assert code == 3
    assert doc["error"] == "NonFiniteEntry"
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


def test_erasure_refuses_a_frame_that_is_not_tight(tmp_path, capsys):
    # unit columns e1, e1, e2: S = diag(2, 1), so alpha*S - I has norm 1/3
    cols = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    frame = tmp_path / "loose.json"
    frame.write_text(json.dumps(Frame(n=2, M=3, vectors=DenseMatrix(cols),
                                      normalization="unit").to_json_dict()))
    out = tmp_path / "out.csv"
    code, doc = run_cli(capsys, "erasure", "--frame", frame, "--trials", 10, "--seed", 0,
                        "--csv", out)
    assert code == 2
    assert doc["error"] == "ConfigInvalid"
    assert doc["field"] == "params.frame"
    assert not out.exists()


def test_erasure_reports_the_tightness_residual(tmp_path, capsys):
    frame = tmp_path / "h.json"
    frame.write_text(json.dumps(harmonic_frame(4, 12).to_json_dict()))
    code, manifest = run_cli(capsys, "erasure", "--frame", frame, "--trials", 10,
                             "--seed", 0, "--csv", tmp_path / "out.csv")
    assert code == 0
    assert 0.0 <= manifest["result"]["tight_residual"] <= 1e-10


def test_subnormal_keep_prob_exits_3_without_output(tmp_path, capsys):
    frame = tmp_path / "h.json"
    frame.write_text(json.dumps(harmonic_frame(4, 8).to_json_dict()))
    out = tmp_path / "out.csv"
    code, doc = run_cli(capsys, "erasure", "--frame", frame, "--trials", 10, "--seed", 0,
                        "--keep-prob", "5e-324", "--csv", out)
    assert code == 3
    assert doc["error"] == "OutOfRange"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("erasure", "--trials", 10, "--seed", 0, "--csv", "out.csv"),
    ("rudelson", "--trials", 10, "--seed", 0, "--json", "out.json"),
])
def test_one_dimensional_frame_exits_2_without_output(tmp_path, capsys, argv):
    # both statistics divide by sqrt(ln n), which is 0 at n = 1: the input
    # alone decides, so it is a configuration error naming the frame
    frame = tmp_path / "h.json"
    frame.write_text(json.dumps(harmonic_frame(1, 4).to_json_dict()))
    command, *rest = argv
    rest = [tmp_path / a if a in ("out.csv", "out.json") else a for a in rest]
    code, doc = run_cli(capsys, command, "--frame", frame, *rest)
    assert code == 2
    assert doc["error"] == "ConfigInvalid"
    assert doc["field"] == "params.frame"
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


def test_nonfinite_result_exits_3_without_output(tmp_path, capsys):
    lam = tmp_path / "lam.json"
    lam.write_text("[NaN, 1.0, 2.0]")
    out = tmp_path / "probe.json"
    code, doc = run_cli(capsys, "probe", "--n", 3, "--trials", 10, "--seed", 0,
                        "--lambda-file", lam, "--json", out)
    assert code == 3
    assert doc["error"] == "NonFiniteEntry"
    assert not out.exists()


def test_nonfinite_float_flag_exits_2(tmp_path, capsys):
    code, doc = run_cli(capsys, "ner", "--frame", tmp_path / "f.json", "--K", 5,
                        "--C", "inf", "--json", tmp_path / "c.json")
    assert code == 2
    assert doc["field"] == "params.C"


def test_ner_counters_on_stdout_only(tmp_path, capsys):
    frame = tmp_path / "etf.json"
    run_cli(capsys, "construct", "--kind", "etf", "--N", 7, "--M", 3, "--out", frame)
    certs = []
    for name in ("a.json", "b.json"):
        code, manifest = run_cli(capsys, "ner", "--frame", frame, "--K", 5,
                                 "--json", tmp_path / name)
        assert code == 0
        assert manifest["counters"]["subsets_examined"] == 21
        assert manifest["counters"]["subsets_per_s"] > 0
        # the one rate rule: a count over the compute phase
        assert manifest["counters"]["subsets_per_s"] == 21 / manifest["timings"]["compute"]
        certs.append((tmp_path / name).read_bytes())
    assert certs[0] == certs[1]
    assert "counters" not in json.loads(certs[0])


@pytest.mark.parametrize("entries", [
    "one-number entry",
    7,
    "string entry",
    "entry of three numbers",
])
def test_malformed_frame_entries_exit_2(tmp_path, capsys, entries):
    doc = harmonic_frame(2, 6).to_json_dict()
    if entries == "one-number entry":
        doc["matrix"]["entries"][3] = [1.0]
    elif entries == "string entry":
        doc["matrix"]["entries"][3] = ["1.0", 0.0]
    elif entries == "entry of three numbers":
        doc["matrix"]["entries"] = [e + [0.0] for e in doc["matrix"]["entries"]]
    else:
        doc["matrix"]["entries"] = entries
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code, result = run_cli(capsys, "ner", "--frame", bad, "--K", 3, "--json", out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert "[re, im] pairs" in result["detail"]
    assert not out.exists()


_FRAME_COMMANDS = [
    ("erasure", "--trials", 10, "--seed", 0, "--csv"),
    ("ner", "--K", 1, "--json"),
    ("rudelson", "--trials", 10, "--seed", 0, "--json"),
]


@pytest.mark.parametrize("argv", _FRAME_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("n, M, key, value", [
    (2, 5, "n", 2.0),
    (2, 5, "M", 5.0),
    (1, 5, "n", True),
    (1, 1, "M", True),
    (2, 5, "n", "2"),
    (1, 5, "rows", True),
])
def test_frame_header_must_hold_json_integers(tmp_path, capsys, argv, n, M, key, value):
    doc = harmonic_frame(n, M).to_json_dict()
    (doc if key in ("n", "M") else doc["matrix"])[key] = value
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, result = run_cli(capsys, argv[0], "--frame", frame, *argv[1:], out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == str(frame)
    assert f"{key} must be an integer" in result["detail"]
    assert not out.exists()


@pytest.mark.parametrize("argv", _FRAME_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("kind", [7, None, ["harmonic"]], ids=["number", "null", "list"])
def test_frame_kind_must_be_a_string(tmp_path, capsys, argv, kind):
    doc = dict(harmonic_frame(2, 5).to_json_dict(), kind=kind)
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, result = run_cli(capsys, argv[0], "--frame", frame, *argv[1:], out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == str(frame)
    assert "kind must be a string" in result["detail"]
    assert not out.exists()


@pytest.mark.parametrize("argv", _FRAME_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("key, value, error", [
    ("n", 3, "ShapeMismatch"),
    ("M", 4, "ShapeMismatch"),
    ("normalization", "bogus", "OutOfRange"),
])
def test_frame_header_mismatch_exits_3(tmp_path, capsys, argv, key, value, error):
    doc = dict(harmonic_frame(2, 5).to_json_dict(), **{key: value})
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code, result = run_cli(capsys, argv[0], "--frame", frame, *argv[1:], out)
    assert code == 3
    assert result["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--M-list", "4,8", "--trials", 10, "--seed", 0, "--csv"),
    ("probe", "--trials", 10, "--seed", 0, "--json"),
], ids=lambda argv: argv[0])
def test_n_below_two_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, result = run_cli(capsys, argv[0], "--n", 1, *argv[1:], out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == "params.n"
    assert not out.exists()
    # n = 2 passes the schema for sweep; every probe of the 2-cycle family is singular
    code, result = run_cli(capsys, argv[0], "--n", 2, *argv[1:], out)
    if argv[0] == "sweep":
        assert code == 0
    else:
        assert code == 2
        assert result["field"] == "params.n"
        assert not out.exists()


@pytest.mark.parametrize("option, doc", [
    ("--family-file", [dict(DenseMatrix(m).to_json_dict(), entries=[[1.0]] * 9)
                       for m in circulant_dictionary(3)]),
    ("--family-file", {"0": DenseMatrix(np.eye(3)).to_json_dict()}),
    ("--family-file", [1.0, 2.0, 3.0]),
    ("--lambda-file", [0.5, "x", 1.0]),
])
def test_malformed_probe_files_exit_2(tmp_path, capsys, option, doc):
    files = {"--family-file": [DenseMatrix(m).to_json_dict()
                               for m in circulant_dictionary(3)],
             "--lambda-file": [0.5, -0.25, 1.0],
             option: doc}
    out = tmp_path / "probe.json"
    argv = ["probe", "--n", 3, "--family", "file", "--trials", 10, "--seed", 0,
            "--json", out]
    for flag, content in files.items():
        path = tmp_path / f"{flag[2:]}.json"
        path.write_text(json.dumps(content))
        argv += [flag, path]
    code, result = run_cli(capsys, *argv)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == str(tmp_path / f"{option[2:]}.json")
    assert not out.exists()


@pytest.mark.parametrize("lam", [
    [True, 0.5, 1.0],
    [1.0, 0.5, "1.0"],
    [[0.5], -0.25, 1.0],
    {"lambda": [0.5, -0.25, 1.0]},
    0.5,
    [0.5, 10**400, 1.0],
])
def test_lambda_file_must_be_a_list_of_numbers(tmp_path, capsys, lam):
    path = tmp_path / "lam.json"
    path.write_text(json.dumps(lam))
    out = tmp_path / "probe.json"
    code, result = run_cli(capsys, "probe", "--n", 3, "--trials", 10, "--seed", 0,
                           "--lambda-file", path, "--json", out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == str(path)
    assert not out.exists()


@pytest.mark.parametrize("n, lam, field", [
    (4, [0.5] * 4, "params.family_file"),
    (2, [0.5] * 2, "params.family_file"),
    (3, [0.5, -0.25], "params.lambda_file"),
])
def test_probe_file_of_another_size_than_n_exits_2(tmp_path, capsys, n, lam, field):
    family = tmp_path / "family.json"
    family.write_text(json.dumps([DenseMatrix(m).to_json_dict()
                                  for m in circulant_dictionary(3)]))
    lam_path = tmp_path / "lam.json"
    lam_path.write_text(json.dumps(lam))
    out = tmp_path / "probe.json"
    code, result = run_cli(capsys, "probe", "--n", n, "--family", "file",
                           "--family-file", family, "--lambda-file", lam_path,
                           "--trials", 10, "--seed", 0, "--json", out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == field
    assert not out.exists()


@pytest.fixture(scope="module")
def nonfinite_work(tmp_path_factory):
    return tmp_path_factory.mktemp("nonfinite")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["erasure", "rudelson", "ner", "family", "lambda"]),
       index=st.integers(0, 1 << 16), part=st.integers(0, 1),
       value=st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_nonfinite_input_file_exits_3(nonfinite_work, target, index, part, value):
    frame = harmonic_frame(2, 6).to_json_dict()
    family = [DenseMatrix(m).to_json_dict() for m in circulant_dictionary(3)]
    lam = [0.5, -0.25, 1.0]
    if target == "family":
        entries = family[index % 3]["entries"]
    elif target != "lambda":
        entries = frame["matrix"]["entries"]
    if target == "lambda":
        lam[index % 3] = value
    else:
        entries[index % len(entries)][part] = value
    paths = {}
    for name, doc in (("frame", frame), ("family", family), ("lam", lam)):
        paths[name] = nonfinite_work / f"{name}.json"
        paths[name].write_text(json.dumps(doc))   # NaN, Infinity, -Infinity
    out = nonfinite_work / "out.json"
    if out.exists():
        out.unlink()
    if target in ("family", "lambda"):
        argv = ["probe", "--n", 3, "--family", "file", "--family-file", paths["family"],
                "--lambda-file", paths["lam"], "--trials", 10, "--seed", 0]
    else:
        argv = [target, "--frame", paths["frame"], "--seed", 0]
        argv += ["--K", 4] if target == "ner" else ["--trials", 10]
    code = main([str(a) for a in argv + ["--json" if target != "erasure" else "--csv", out]])
    assert code == 3
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (("khintchine", "--m", 31, "--count", 2, "--dim", 2, "--seed", 1, "--exact",
      "--json"), "params.m"),
    (("khintchine", "--m", 0, "--count", 2, "--dim", 2, "--seed", 1, "--exact",
      "--json"), "params.m"),
    # exact mode enumerates 2^count sign patterns, at most rng.ENUM_LIMIT = 20
    (("khintchine", "--m", 2, "--count", 21, "--dim", 2, "--seed", 1, "--exact",
      "--json"), "params.count"),
    (("construct", "--kind", "scaled-onb", "--n", 2, "--copies", 0, "--out"),
     "params.copies"),
    # copies is range-checked even where the kind ignores it
    (("construct", "--kind", "harmonic", "--n", 2, "--M", 4, "--copies", 0, "--out"),
     "params.copies"),
    (("construct", "--kind", "harmonic", "--n", 0, "--M", 4, "--out"), "params.n"),
    (("construct", "--kind", "scaled-onb", "--n", 0, "--out"), "params.n"),
    (("construct", "--kind", "harmonic", "--n", 4, "--M", 2, "--out"), "params.M"),
    # a real harmonic frame of even n needs M > n
    (("construct", "--kind", "harmonic", "--n", 4, "--M", 4, "--real", "--out"),
     "params.M"),
    (("sweep", "--n", 4, "--M-list", "2,8", "--trials", 10, "--seed", 1, "--csv"),
     "params.M_list"),
    # cond(D) >= 1, so a lower limit refuses every probe
    (("probe", "--n", 4, "--trials", 10, "--seed", 1, "--cond-limit", 0, "--json"),
     "params.cond_limit"),
    (("probe", "--n", 4, "--trials", 10, "--seed", 1, "--cond-limit", -1, "--json"),
     "params.cond_limit"),
    # the circulant family never reads a family file
    (("probe", "--n", 3, "--family-file", "f.json", "--trials", 5, "--seed", 1, "--json"),
     "params.family_file"),
    # each kind reports the first parameter it needs and lacks
    (("construct", "--kind", "harmonic", "--n", 4, "--out"), "params.M"),
    (("construct", "--kind", "harmonic", "--M", 4, "--out"), "params.n"),
    (("construct", "--kind", "etf", "--N", 7, "--out"), "params.M"),
    (("construct", "--kind", "etf", "--M", 3, "--out"), "params.N"),
    (("construct", "--kind", "scaled-onb", "--out"), "params.n"),
    # counts are range-checked even where the mode ignores them, before any file is read
    (("ner", "--frame", "etf7.json", "--K", 5, "--samples", -4, "--json"), "params.samples"),
    (("ner", "--frame", "etf7.json", "--K", 5, "--mode", "sampled", "--samples", 10**6 + 1,
      "--json"), "params.samples"),
    (("khintchine", "--m", 2, "--count", 3, "--dim", 2, "--seed", 1, "--exact",
      "--trials", -7, "--json"), "params.trials"),
    # sampled mode needs a sample count, and a file family its file
    (("ner", "--frame", "etf7.json", "--K", 5, "--mode", "sampled", "--seed", 1, "--json"),
     "params.samples"),
    (("probe", "--n", 3, "--family", "file", "--trials", 5, "--seed", 1, "--json"),
     "params.family_file"),
], ids=["m-31", "m-0", "exact-count-21", "copies-0", "copies-0-harmonic", "harmonic-n-0",
        "onb-n-0", "harmonic-M-below-n", "real-harmonic-M-n", "sweep-M-below-n",
        "cond-limit-0", "cond-limit-negative", "family-file-circulant", "harmonic-no-M",
        "harmonic-no-n", "etf-no-M", "etf-no-N", "onb-no-n", "samples-negative",
        "samples-above-budget", "trials-negative", "sampled-no-samples",
        "family-file-missing"])
def test_schema_ranges_are_the_library_ranges(tmp_path, capsys, argv, field):
    out = tmp_path / "out.json"
    code, result = run_cli(capsys, *argv, out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == field
    assert not out.exists()


@pytest.mark.parametrize("argv, config, field", [
    (("construct", "--kind", "harmonic", "--n", 2, "--M", 4), None, "output"),
    (("stirling",), [], ""),
    (("stirling",), {"output": 5}, "output"),
], ids=["construct-no-out", "config-list", "config-output-number"])
def test_config_refusals_name_their_field(tmp_path, capsys, argv, config, field):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ("--config", path)
    code, doc = run_cli(capsys, *argv)
    assert code == 2
    assert (doc["error"], doc["field"]) == ("ConfigInvalid", field)
    assert [p.name for p in tmp_path.iterdir()] == ([] if config is None else ["cfg.json"])


def test_validate_refuses_a_config_that_is_not_an_object():
    with pytest.raises(ConfigInvalid) as exc:
        validate([])
    assert exc.value.field == ""


@pytest.mark.parametrize("value", [{1, 2}, np.int64(3), np.array([1, 2]), np.ones(2, np.float32)],
                         ids=["set", "int64", "int-array", "float32-array"])
def test_output_values_other_than_float64_arrays_raise_type_error(value):
    # json's own default hook raises TypeError too
    with pytest.raises(TypeError):
        cli._json_bytes({"a": [1.5, value, np.zeros(2)]})


def test_output_path_that_is_a_directory_exits_2_without_a_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    code, doc = run_cli(capsys, "stirling", "--m-max", 3, "--json", out)
    assert code == 2
    assert (doc["error"], doc["field"]) == ("ConfigInvalid", "output")
    assert list(tmp_path.iterdir()) == [out]
    assert list(out.iterdir()) == []


def test_monte_carlo_khintchine_count_has_no_enumeration_cap(tmp_path, capsys):
    code, manifest = run_cli(capsys, "khintchine", "--m", 2, "--count", 21, "--dim", 2,
                             "--seed", 1, "--trials", 10, "--json", tmp_path / "k.json")
    assert code == 0
    assert manifest["counters"]["trials"] == 10


def test_schema_range_ends_pass_validation():
    raw = {"command": "khintchine", "seed": 1, "output": None,
           "params": {"m": 30, "count": 2, "dim": 2, "exact": True}}
    assert validate(raw).params["m"] == 30
    raw["params"] = {"m": 2, "count": 20, "dim": 2, "exact": True}
    assert validate(raw).params["count"] == 20
    raw = {"command": "construct", "seed": None, "output": "x.json",
           "params": {"kind": "scaled-onb", "n": 2, "copies": 1}}
    assert validate(raw).params["copies"] == 1
    for n, M, real in ((4, 4, False), (4, 5, True), (3, 3, True)):
        raw["params"] = {"kind": "harmonic", "n": n, "M": M, "real": real}
        assert validate(raw).params["M"] == M
    raw = {"command": "sweep", "seed": 1, "output": "x.csv",
           "params": {"n": 4, "M_list": [4, 8], "trials": 10}}
    assert validate(raw).params["M_list"] == [4, 8]
    raw = {"command": "probe", "seed": 1, "output": "x.json",
           "params": {"n": 3, "trials": 10, "cond_limit": 1}}
    assert validate(raw).params["cond_limit"] == 1
    # a family file may hold a 2 x 2 family that is not singular
    raw["params"] = {"n": 2, "trials": 10, "family": "file", "family_file": "f.json"}
    assert validate(raw).params["n"] == 2


@pytest.mark.parametrize("m_list", [[8.7, 16], [True, 16], ["8", 16]])
def test_int_list_elements_follow_the_int_rule(m_list):
    raw = {"command": "sweep", "seed": 1, "output": "x.csv",
           "params": {"n": 4, "M_list": m_list, "trials": 10}}
    with pytest.raises(ConfigInvalid) as exc:
        validate(raw)
    assert exc.value.field == "params.M_list"
    raw["params"]["M_list"] = [8.0, 16]
    assert validate(raw).params["M_list"] == [8, 16]


@pytest.fixture
def etf7(tmp_path, capsys):
    frame = tmp_path / "etf.json"
    run_cli(capsys, "construct", "--kind", "etf", "--N", 7, "--M", 3, "--out", frame)
    return frame


@pytest.mark.parametrize("flags, field", [
    (("--K", 0), "params.K"),
    (("--K", 2), "params.K"),   # below n = 3
    (("--K", 9), "params.K"),   # above N = 7
    # no condition number is below 1, so a lower C fails after a whole scan
    (("--K", 4, "--C", 0.5), "params.C"),
    (("--K", 4, "--C", -1), "params.C"),
], ids=["K-0", "K-below-n", "K-above-N", "C-half", "C-negative"])
def test_ner_refuses_K_and_C_out_of_range(tmp_path, capsys, etf7, flags, field):
    out = tmp_path / "cert.json"
    code, result = run_cli(capsys, "ner", "--frame", etf7, *flags, "--json", out)
    assert code == 2
    assert result["error"] == "ConfigInvalid"
    assert result["field"] == field
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--K", 3), ("--K", 7), ("--K", 4, "--C", 1)],
                         ids=["K-n", "K-N", "C-1"])
def test_ner_K_and_C_range_ends_run(tmp_path, capsys, etf7, flags):
    code, _ = run_cli(capsys, "ner", "--frame", etf7, *flags, "--json", tmp_path / "c.json")
    assert code == 0


@pytest.mark.parametrize("argv, route", [
    (("rudelson", "--frame", "HARMONIC"), "harmonic"),
    (("rudelson", "--frame", "ETF"), "generic"),
    (("probe", "--n", 5, "--cond-limit", 1e12), "circulant"),
    (("probe", "--n", 4, "--family", "file", "--family-file", "FAMILY"), "generic"),
], ids=["harmonic", "etf", "circulant", "family-file"])
def test_route_counter_on_stdout_only(tmp_path, capsys, argv, route):
    paths = {name: tmp_path / f"{name}.json" for name in ("HARMONIC", "ETF", "FAMILY")}
    run_cli(capsys, "construct", "--kind", "harmonic", "--n", 4, "--M", 12,
            "--out", paths["HARMONIC"])
    run_cli(capsys, "construct", "--kind", "etf", "--N", 7, "--M", 3, "--out", paths["ETF"])
    # U_j = e_j e_j^T: every +-1 probe gives D = diag(x)
    paths["FAMILY"].write_text(json.dumps(
        [DenseMatrix(np.diag(np.eye(4)[j])).to_json_dict() for j in range(4)]))
    out = tmp_path / "out.json"
    code, manifest = run_cli(capsys, *[paths.get(a, a) for a in argv],
                             "--trials", 20, "--seed", 1, "--json", out)
    assert code == 0
    assert manifest["counters"]["route"] == route
    assert b"route" not in out.read_bytes()


def test_refuted_certificate_counters(tmp_path, capsys):
    cols = np.array([[1.0, 1.0, 0.0, 0.6], [0.0, 0.0, 1.0, 0.8]])
    frame = tmp_path / "dup.json"
    frame.write_text(json.dumps(Frame(n=2, M=4, vectors=DenseMatrix(cols),
                                      normalization="unit").to_json_dict()))
    out = tmp_path / "cert.json"
    code, manifest = run_cli(capsys, "ner", "--frame", frame, "--K", 2, "--C", 5,
                             "--json", out)
    assert code == 0
    assert manifest["result"]["passed"] is False
    # (0, 1) is the first subset in lexicographic order, and deficient
    assert manifest["counters"]["subsets_examined"] == 1
    assert json.loads(out.read_text())["certificate"]["subsets_examined"] == 1


def test_ner_reports_subsets_sent_to_the_svd(tmp_path, capsys):
    frame = tmp_path / "etf.json"
    run_cli(capsys, "construct", "--kind", "etf", "--N", 13, "--M", 4, "--out", frame)
    out = tmp_path / "cert.json"
    code, manifest = run_cli(capsys, "ner", "--frame", frame, "--K", 8, "--json", out)
    assert code == 0
    counters = manifest["counters"]
    assert counters["subsets_examined"] == 1287
    # the Gram screen spares the SVD most subsets of an ETF
    cert = worst_condition(Frame.from_json_dict(json.loads(frame.read_text())), 8)
    assert counters["subsets_svd"] == cert.subsets_svd
    assert 1 <= counters["subsets_svd"] < counters["subsets_examined"] // 10
    # stdout only: the certificate file is what it was without the counter
    assert json.loads(out.read_text()) == {
        "certificate": {**_fields(cert), "worst_subset": list(cert.worst_subset)}}
    assert "subsets_svd" not in _fields(cert)


def test_refuted_certificate_counts_svd_subsets_up_to_the_deficient_one(tmp_path, capsys):
    # columns e1, (0.6, 0.8), e2, e2, (0.28, 0.96): the pairs' conditions run
    # 2, 1, 1, 4/3, 3, 3, 5.5, then (2, 3) is rank deficient, and (2, 4) and
    # (3, 4) hold the chunk's top trusted estimate, 7.  Of the 8 subsets up to
    # (2, 3) the SVD saw only (2, 3), which the screen cannot trust.
    cols = np.array([[1.0, 0.6, 0.0, 0.0, 0.28], [0.0, 0.8, 1.0, 1.0, 0.96]])
    frame = tmp_path / "dup.json"
    frame.write_text(json.dumps(Frame(n=2, M=5, vectors=DenseMatrix(cols),
                                      normalization="unit").to_json_dict()))
    code, manifest = run_cli(capsys, "ner", "--frame", frame, "--K", 2, "--C", 5,
                             "--json", tmp_path / "cert.json")
    assert code == 0
    assert manifest["result"]["passed"] is False
    assert manifest["counters"]["subsets_examined"] == 8
    assert manifest["counters"]["subsets_svd"] == 1


@pytest.mark.parametrize("argv, trials", [
    (("erasure", "--frame", "FRAME", "--trials", 30, "--seed", 1, "--csv", "OUT"), 30),
    (("sweep", "--n", 4, "--M-list", "8,16", "--trials", 20, "--seed", 1,
      "--csv", "OUT"), 40),
    (("rudelson", "--frame", "FRAME", "--trials", 25, "--seed", 1, "--json", "OUT"), 25),
    (("khintchine", "--m", 2, "--count", 4, "--dim", 3, "--trials", 35, "--seed", 1,
      "--json", "OUT"), 35),
    (("probe", "--n", 5, "--trials", 45, "--seed", 1, "--cond-limit", 1e12,
      "--json", "OUT"), 45),
])
def test_monte_carlo_trial_counters_on_stdout_only(tmp_path, capsys, argv, trials):
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(harmonic_frame(4, 12).to_json_dict()))
    outputs = []
    for name in ("a.out", "b.out"):
        args = [frame if a == "FRAME" else tmp_path / name if a == "OUT" else a
                for a in argv]
        code, manifest = run_cli(capsys, *args)
        assert code == 0
        assert manifest["counters"]["trials"] == trials
        assert manifest["counters"]["trials_per_s"] > 0
        assert manifest["counters"]["trials_per_s"] == trials / manifest["timings"]["compute"]
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    assert b"trials_per_s" not in outputs[0]


@pytest.mark.parametrize("argv", [
    ("construct", "--kind", "harmonic", "--n", 4, "--M", 12, "--out", "OUT"),
    ("erasure", "--frame", "FRAME", "--trials", 10, "--seed", 1, "--csv", "OUT"),
    ("sweep", "--n", 4, "--M-list", "8", "--trials", 10, "--seed", 1, "--csv", "OUT"),
    ("ner", "--frame", "FRAME", "--K", 8, "--json", "OUT"),
    ("rudelson", "--frame", "FRAME", "--trials", 10, "--seed", 1),
    ("khintchine", "--m", 2, "--count", 4, "--dim", 3, "--exact", "--seed", 1),
    ("probe", "--n", 4, "--family", "file", "--family-file", "FAMILY", "--lambda-file",
     "LAMBDA", "--trials", 10, "--seed", 1, "--json", "OUT"),
    ("stirling", "--m-max", 4),
], ids=lambda argv: argv[0])
def test_every_manifest_times_load_compute_and_write(tmp_path, capsys, monkeypatch, argv):
    paths = {name: tmp_path / f"{name}.json" for name in ("FRAME", "FAMILY", "LAMBDA", "OUT")}
    paths["FRAME"].write_text(json.dumps(harmonic_frame(4, 12).to_json_dict()))
    # U_j = e_j e_j^T: every +-1 probe gives D = diag(x)
    paths["FAMILY"].write_text(json.dumps(
        [DenseMatrix(np.diag(np.eye(4)[j])).to_json_dict() for j in range(4)]))
    paths["LAMBDA"].write_text(json.dumps([0.5, -0.25, 1.0, 2.0]))
    decoded = []
    decode = cli._decode
    monkeypatch.setattr(cli, "_decode", lambda path, load: decoded.append(path) or
                        decode(path, load))
    code, manifest = run_cli(capsys, *[paths.get(a, a) for a in argv])
    assert code == 0
    # the load phase decodes each file the command names, once
    assert sorted(decoded) == sorted(str(paths[a]) for a in argv
                                     if a in ("FRAME", "FAMILY", "LAMBDA"))
    timings = manifest["timings"]
    assert set(timings) == {"load", "compute", "write"}
    assert all(t >= 0.0 for t in timings.values())
    assert sum(timings.values()) == pytest.approx(manifest["duration_seconds"], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("erasure", "--trials", 10, "--seed", 1, "--csv"),
    ("ner", "--K", 2, "--json"),
    ("rudelson", "--trials", 10, "--seed", 1, "--json"),
], ids=lambda argv: argv[0])
def test_empty_frame_path_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, doc = run_cli(capsys, argv[0], "--frame", "", *argv[1:], out)
    assert code == 2
    assert doc["error"] == "ConfigInvalid"
    assert doc["field"] == "params.frame"
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (("--lambda-file", ""), "params.lambda_file"),
    (("--family", "file", "--family-file", ""), "params.family_file"),
], ids=["lambda", "family"])
def test_empty_optional_path_exits_2(tmp_path, capsys, argv, field):
    # an empty path names no file: it is refused, not read as an absent option
    out = tmp_path / "out"
    code, doc = run_cli(capsys, "probe", "--n", 4, *argv, "--trials", 10, "--seed", 1,
                        "--json", out)
    assert code == 2
    assert (doc["error"], doc["field"]) == ("ConfigInvalid", field)
    assert not out.exists()


def test_exact_khintchine_reports_its_pattern_count(tmp_path, capsys):
    out = tmp_path / "k.json"
    code, manifest = run_cli(capsys, "khintchine", "--m", 2, "--count", 4, "--dim", 3,
                             "--exact", "--seed", 1, "--json", out)
    assert code == 0
    counters = manifest["counters"]
    assert set(counters) == {"patterns", "patterns_per_s"}
    assert counters["patterns"] == 2 ** 4
    assert counters["patterns_per_s"] == 2 ** 4 / manifest["timings"]["compute"]
    assert "patterns" not in out.read_text()


def test_manifest_env_names_blas_thread_pins_and_revision(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "rows.json"
    code, manifest = run_cli(capsys, "stirling", "--m-max", 3, "--json", out)
    assert code == 0
    env = manifest["env"]
    assert set(env) == {"python", "numpy", "blas", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "git_revision", "stream_version"}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas.get("name"), "version": blas.get("version")}
    assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"]) == ("3", None)
    assert env["git_revision"] == cli._git_revision(Path(cli.__file__).resolve().parents[2])
    for key in env:   # output files carry no environment
        assert key not in out.read_text()


def _checkout(root, head, refs=None, packed=None):
    git = root / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text(head + "\n")
    for ref, sha in (refs or {}).items():
        (git / ref).write_text(sha + "\n")
    if packed is not None:
        (git / "packed-refs").write_text(packed)
    return git


def test_git_revision_is_read_from_the_git_files(tmp_path):
    a, b = "a" * 40, "b" * 40
    cases = {
        "detached": (a, {}, None),
        "loose": ("ref: refs/heads/main", {"refs/heads/main": a}, f"{b} refs/heads/main\n"),
        "packed": ("ref: refs/heads/main", {},
                   f"# pack-refs with: peeled\n{b} refs/heads/other\n{a} refs/heads/main\n"),
    }
    for name, (head, refs, packed) in cases.items():
        _checkout(tmp_path / name, head, refs, packed)
        assert cli._git_revision(tmp_path / name) == a, name
    # a linked worktree: .git names its own HEAD, and its refs live in the main .git
    main_git = _checkout(tmp_path / "main", "ref: refs/heads/main", {"refs/heads/main": b})
    linked = main_git / "worktrees" / "side"
    linked.mkdir(parents=True)
    (linked / "HEAD").write_text("ref: refs/heads/main\n")
    (linked / "commondir").write_text("../..\n")
    (tmp_path / "side").mkdir()
    (tmp_path / "side" / ".git").write_text(f"gitdir: {linked}\n")
    assert cli._git_revision(tmp_path / "side") == b
    # outside a checkout, and with a branch that has no commit yet
    assert cli._git_revision(tmp_path / "none") is None
    _checkout(tmp_path / "unborn", "ref: refs/heads/main")
    assert cli._git_revision(tmp_path / "unborn") is None


@pytest.mark.parametrize("argv, records, counted", [
    (("ner", "--frame", "ETF", "--K", 4), lambda d: [(d["certificate"], NerCertificate)],
     True),
    (("ner", "--frame", "DUP", "--K", 2, "--C", 5),
     lambda d: [(d["certificate"], NerCertificate)], True),
    (("rudelson", "--frame", "ETF", "--trials", 20, "--seed", 1),
     lambda d: [(d, InequalityEstimate)], True),
    # the Khintchine check always takes the generic kernel: its route tells nothing
    (("khintchine", "--m", 2, "--count", 4, "--dim", 3, "--trials", 20, "--seed", 1),
     lambda d: [(d, InequalityEstimate)], False),
    (("probe", "--n", 5, "--trials", 20, "--seed", 1, "--cond-limit", 1e12),
     lambda d: [(d["isometry"], IsometryReport), (d["concentration"], ConcentrationEstimate)],
     True),
    (("stirling", "--m-max", 4), lambda d: [(row, StirlingBound) for row in d["rows"]],
     False),
], ids=["ner", "ner-refuted", "rudelson", "khintchine", "probe", "stirling"])
def test_records_split_between_file_and_counters(tmp_path, capsys, argv, records, counted):
    """A record's compare=True fields are written; its compare=False fields are counters."""
    paths = {"ETF": tmp_path / "etf.json", "DUP": tmp_path / "dup.json"}
    run_cli(capsys, "construct", "--kind", "etf", "--N", 7, "--M", 3, "--out", paths["ETF"])
    cols = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])   # (0, 1) is rank deficient
    paths["DUP"].write_text(json.dumps(Frame(n=2, M=3, vectors=DenseMatrix(cols),
                                             normalization="unit").to_json_dict()))
    out = tmp_path / "out.json"
    code, manifest = run_cli(capsys, *[paths.get(a, a) for a in argv], "--json", out)
    assert code == 0
    text = out.read_text()
    found = records(json.loads(text))
    assert found
    for record, cls in found:
        assert set(record) == {f.name for f in fields(cls) if f.compare}
        for name in (f.name for f in fields(cls) if not f.compare):
            assert f'"{name}"' not in text
            assert (name in manifest["counters"]) == counted
