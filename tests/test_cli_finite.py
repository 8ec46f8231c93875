"""CLI exit contract for non-finite values, and the ner work counters."""

import json

import pytest

from framelab import harmonic_frame
from framelab.cli import main


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
        certs.append((tmp_path / name).read_bytes())
    assert certs[0] == certs[1]
    assert "counters" not in json.loads(certs[0])
