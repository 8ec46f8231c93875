"""The JSON output writer keeps the bytes of the stdlib ``indent=2`` layout.

Every output file is ``json.dumps(doc, sort_keys=True, allow_nan=False,
indent=2) + "\\n"``; the writer renders NumPy arrays itself instead of handing
nested lists to the pure-Python encoder, so each test compares it with that
expression.
"""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framelab import DenseMatrix, Frame, NonFiniteEntry, harmonic_frame, scaled_onb_frame
from framelab.cli import _json_bytes, main
from framelab.frames import difference_set_etf, find_difference_set, renormalize


def stdlib_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, allow_nan=False, indent=2) + "\n").encode()


# floats whose text is easy to get wrong: signed zero, the smallest
# subnormal, the extremes, integral values and 17-significant-digit values
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
            1.7976931348623157e308, 1.0, -3.0, 1e16, 123456789012345.0,
            0.1 + 0.2, 1 / 3, -2.718281828459045, 1e-7, 1.5e-5]


@pytest.mark.parametrize("argv, frame", [
    (("--kind", "harmonic", "--n", 1, "--M", 1), harmonic_frame(1, 1)),
    (("--kind", "harmonic", "--n", 4, "--M", 4), harmonic_frame(4, 4)),
    (("--kind", "harmonic", "--n", 3, "--M", 7), harmonic_frame(3, 7)),
    (("--kind", "harmonic", "--n", 4, "--M", 10, "--real"),
     harmonic_frame(4, 10, real=True)),
    (("--kind", "harmonic", "--n", 3, "--M", 3, "--real"), harmonic_frame(3, 3, real=True)),
    (("--kind", "scaled-onb", "--n", 1), scaled_onb_frame(1, 1)),
    (("--kind", "scaled-onb", "--n", 3), scaled_onb_frame(3, 1)),
    (("--kind", "scaled-onb", "--n", 2, "--copies", 3), scaled_onb_frame(2, 3)),
    (("--kind", "etf", "--N", 7, "--M", 3), difference_set_etf(find_difference_set(7, 3))),
    (("--kind", "etf", "--N", 21, "--M", 5),
     difference_set_etf(find_difference_set(21, 5))),
])
@pytest.mark.parametrize("normalization", [None, "recon", "unit"])
def test_construct_writes_the_stdlib_bytes(tmp_path, capsys, argv, frame, normalization):
    out = tmp_path / "frame.json"
    extra = ("--normalization", normalization) if normalization else ()
    assert main([str(a) for a in ("construct", *argv, *extra, "--out", out)]) == 0
    capsys.readouterr()
    if normalization:
        frame = renormalize(frame, normalization)
    assert out.read_bytes() == stdlib_bytes(frame.to_json_dict())


def _matrices():
    value = st.one_of(st.sampled_from(SPECIALS),
                      st.floats(allow_nan=False, allow_infinity=False))
    shape = st.tuples(st.integers(1, 4), st.integers(1, 4))
    return shape.flatmap(lambda s: st.tuples(
        st.lists(value, min_size=s[0] * s[1], max_size=s[0] * s[1]),
        st.lists(value, min_size=s[0] * s[1], max_size=s[0] * s[1]),
        st.booleans(), st.just(s)))


def _matrix(re, im, shape) -> np.ndarray:
    """Real parts ``re``, imaginary parts ``im`` (None: a real matrix), signs of zero kept."""
    if im is None:
        return np.array(re, dtype=np.float64).reshape(shape)
    data = np.empty(shape, dtype=np.complex128)
    data.real = np.reshape(re, shape)
    data.imag = np.reshape(im, shape)
    return data


@given(_matrices())
def test_matrix_bytes_match_the_stdlib_encoder(case):
    re, im, complex_mode, shape = case
    m = DenseMatrix(_matrix(re, im if complex_mode else None, shape))
    assert _json_bytes(m.json_fields()) == stdlib_bytes(m.to_json_dict())
    # deeper in a document, beside other values and a second array
    doc = {"z": [m.json_fields(), {"m": m.json_fields()}], "a": 1.5, "k": "s"}
    plain = {"z": [m.to_json_dict(), {"m": m.to_json_dict()}], "a": 1.5, "k": "s"}
    assert _json_bytes(doc) == stdlib_bytes(plain)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_special_floats_keep_their_text(complex_mode):
    im = SPECIALS[::-1] if complex_mode else None
    m = DenseMatrix(_matrix(SPECIALS, im, (1, len(SPECIALS))))
    assert _json_bytes(m.json_fields()) == stdlib_bytes(m.to_json_dict())
    entries = m.to_json_dict()["entries"]
    assert [str(e[0]) for e in entries] == [repr(v) for v in SPECIALS]
    assert str(entries[1][0]) == "-0.0"


@pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 0), (1, 1), (2, 3, 2)])
def test_arrays_of_any_shape_match_their_lists(shape):
    a = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7.0
    assert _json_bytes(a) == stdlib_bytes(a.tolist())
    nested = {"x": [a, {"y": a}]}
    assert _json_bytes(nested) == stdlib_bytes({"x": [a.tolist(), {"y": a.tolist()}]})


# each distinct bit pattern is rendered once and gathered back to its entries

def test_interleaved_signed_zeros_keep_their_own_text():
    a = np.tile([0.0, -0.0, -0.0, 0.0, 1.0], 2000).reshape(-1, 2)
    text = _json_bytes(a)
    assert text == stdlib_bytes(a.tolist())
    numbers = [line.strip().rstrip(",") for line in text.decode().splitlines()
               if line.strip().rstrip(",") not in ("[", "]")]
    assert numbers == [repr(v) for v in a.ravel().tolist()]
    assert numbers.count("-0.0") == 4000


@pytest.mark.parametrize("values, patterns", [
    (np.full(3000, 0.1), 1),
    (np.random.default_rng(0).standard_normal(3000), 3000),
    (np.random.default_rng(1).choice(np.array(SPECIALS), 3000), len(SPECIALS)),
], ids=["all-equal", "all-distinct", "repeated-in-random-order"])
def test_any_share_of_distinct_values_gives_the_stdlib_bytes(values, patterns):
    a = values.reshape(1500, 2)
    assert np.unique(a.view(np.uint64)).size == patterns
    assert _json_bytes({"m": [a]}) == stdlib_bytes({"m": [a.tolist()]})


def test_documents_without_arrays_are_the_stdlib_bytes():
    doc = {"b": [1, 2.5, None, True, "x", (3, 4)], "a": {"c": -0.0, "d": []}}
    assert _json_bytes(doc) == stdlib_bytes(doc)


@pytest.mark.parametrize("complex_mode", [False, True])
def test_entries_are_bit_identical_to_a_per_entry_loop(complex_mode):
    im = [-0.0, 2.5, 0.0, -1e308] if complex_mode else None
    m = DenseMatrix(_matrix([1.0, -0.0, 5e-324, 2.0], im, (2, 2)))
    fields = m.json_fields()
    assert fields["entries"].dtype == np.float64
    assert fields["entries"].shape == (4, 2)
    assert {**fields, "entries": fields["entries"].tolist()} == m.to_json_dict()
    loop = [[float(v.real), float(v.imag)] for v in m.data.ravel()]
    bits = np.array(m.to_json_dict()["entries"]).view(np.uint64)
    assert np.array_equal(bits, np.array(loop).view(np.uint64))
    if not complex_mode:   # imaginary parts are +0.0
        assert not np.signbit(fields["entries"][:, 1]).any()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_array_raises(value):
    a = np.array([[1.0, 0.0], [value, 0.0]])
    with pytest.raises(NonFiniteEntry):
        _json_bytes({"entries": a})


def test_only_float64_arrays_are_written():
    with pytest.raises(TypeError):
        _json_bytes({"flags": np.array([True, False])})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_nonfinite_frame_exits_3_without_output(tmp_path, capsys, monkeypatch, value):
    # a frame cannot hold NaN or Inf, so the value goes in after json_fields
    json_fields = Frame.json_fields

    def poisoned(self):
        fields = json_fields(self)
        fields["matrix"]["entries"][0, 1] = value
        return fields

    monkeypatch.setattr(Frame, "json_fields", poisoned)
    out = tmp_path / "frame.json"
    code = main(["construct", "--kind", "harmonic", "--n", "2", "--M", "4", "--out", str(out)])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3
    assert doc["error"] == "NonFiniteEntry"
    assert list(tmp_path.iterdir()) == []


def test_output_files_take_the_umask_mode(tmp_path, capsys, monkeypatch):
    # the file is written to a temporary name and moved into place; both a
    # new and a rewritten output get 0666 & ~umask from open() itself, so the
    # writer never sets the process umask, which another thread would see
    out = tmp_path / "frame.json"
    argv = ["construct", "--kind", "harmonic", "--n", "2", "--M", "4", "--out", str(out)]
    umask = os.umask

    def refuse(mask):
        raise AssertionError("the writer set the process umask")

    monkeypatch.setattr(os, "umask", refuse)
    modes = []
    for mask in (0o022, 0o027):
        old = umask(mask)
        try:
            out.unlink(missing_ok=True)
            assert main(argv) == 0
            modes.append(stat.S_IMODE(out.stat().st_mode))
            assert main(argv) == 0
            modes.append(stat.S_IMODE(out.stat().st_mode))
        finally:
            umask(old)
    capsys.readouterr()
    assert modes == [0o644, 0o644, 0o640, 0o640]
    assert [p.name for p in tmp_path.iterdir()] == ["frame.json"]
