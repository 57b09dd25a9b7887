"""Reader fuzzing: every reader, fed mutated valid files or arbitrary bytes,
returns a result or raises IngestError, never another exception type; and
through ``cli ingest``, such a file either ingests or gives exactly one JSON
error line and exit status 1."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import GraphBasis, LinkStreamMatrix, full_space, synth
from linkspectra import io as lio
from linkspectra.io import IngestError

from conftest import run_cli


def _written(write, *args) -> bytes:
    """The bytes that ``write(path, *args)`` puts in a file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        write(path, *args)
        return path.read_bytes()


_STREAM = LinkStreamMatrix(full_space(2, ["a", "b"]), 3,
                           np.array([[1.0, 0.0, -2.5, 0.0], [0.0, 1.0, 0.0, 4.0]]))

# edits that reach the parsers' corners: field and line separators, numbers
# past float and int64 range, JSON syntax, nesting past the recursion limit,
# bytes that are not UTF-8 and names the labels reserve
_PIECES = [b",", b"\n", b"\r", b" ", b"\t", b"\x00", b"\xff", b"\xc3", b"\xe2\x80\xa8",
           b"-", b".", b"e", b"0", b"7", b"9" * 25, b"1e999", b"nan", b"inf", b"->", b"~pad",
           b"~", b"[", b"]", b"{", b"}", b'"', b":", b"null", b"[" * 3000, b"t", b"kind"]

_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "replace"]),
                            st.floats(0, 1, exclude_max=True), st.sampled_from(_PIECES)),
                  max_size=4)


def _inputs(valid: bytes):
    """Mutated copies of ``valid``, and arbitrary bytes."""
    def mutate(edits):
        data = valid
        for op, at, piece in edits:
            i = int(at * len(data))
            keep = data[i + len(piece):] if op != "insert" else data[i:]
            data = data[:i] + (b"" if op == "delete" else piece) + keep
        return data
    return st.one_of(_EDITS.map(mutate), st.binary(max_size=80))


def _reads_or_refuses(tmp_path_factory, read, data: bytes):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    try:
        read(path)
    except IngestError:
        pass


_FUZZ = settings(max_examples=30, deadline=None)


_CSV = b"t,u,v\n0,alice,bob\n1,bob,alice,2.5\n\n3,carol,carol,-1e-3\n"
_NDJSON = b'{"t": 0, "u": "a", "v": "b"}\n{"t": 2, "u": "b", "v": "a", "w": 2.5}\n'


@_FUZZ
@given(_inputs(_CSV))
def test_fuzz_triplet_csv(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lambda p: lio.ingest_triplets(p, "csv"), data)


@_FUZZ
@given(_inputs(_NDJSON))
def test_fuzz_triplet_ndjson(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lambda p: lio.ingest_triplets(p, "ndjson"), data)


def _cli_ingest(tmp_path_factory, fmt: str, data: bytes):
    """Exit status and stderr lines of ``cli ingest`` on ``data``; the path."""
    d = tmp_path_factory.mktemp("cli-fuzz")
    path = d / f"input.{fmt}"
    path.write_bytes(data)
    code, _, err = run_cli("ingest", "--input", path, "--format", fmt, "--out", d / "out")
    return code, err.splitlines(), path


def _one_ingest_error(lines, path):
    (line,) = lines
    error = json.loads(line)["error"]
    assert error["type"] == "IngestError" and error["message"].startswith(f"{path}:")


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["csv", "ndjson"]), st.data())
def test_fuzz_cli_ingest_ingests_or_gives_one_error_line(tmp_path_factory, fmt, data):
    code, lines, path = _cli_ingest(tmp_path_factory, fmt, data.draw(
        _inputs(_CSV if fmt == "csv" else _NDJSON)))
    if code == 0:
        assert lines == []
    else:
        assert code == 1
        _one_ingest_error(lines, path)


@pytest.mark.parametrize("fmt, data", [
    ("csv", b"0,a\n"),
    ("csv", b"0,a,b,nan\n"),
    ("csv", b"0,a,b\n99999999999999999999999999,a,b\n"),
    ("csv", b"0,a,\xff\n"),
    ("ndjson", b'{"t": 0, "u": "a"}\n'),
    ("ndjson", b'{"t": 0, "u": "a", "v": "b"}\n' + b"[" * 3000 + b"\n"),
    ("ndjson", b'{"t": 0, "u": "a", "v": "b", "w": NaN}\n'),
], ids=["csv-short-row", "csv-nan", "csv-time-past-int64", "csv-not-utf8",
        "ndjson-missing-field", "ndjson-over-nested", "ndjson-nan"])
def test_cli_ingest_malformed_is_one_error_line(tmp_path_factory, fmt, data):
    code, lines, path = _cli_ingest(tmp_path_factory, fmt, data)
    assert code == 1
    _one_ingest_error(lines, path)


@_FUZZ
@given(_inputs(_written(lio.write_raw, _STREAM)))
def test_fuzz_raw(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lio.read_raw, data)


@_FUZZ
@given(_inputs(_written(lio.write_dense_csv, _STREAM)))
def test_fuzz_dense_csv(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lio.read_dense_csv, data)


@_FUZZ
@given(_inputs(_written(lio.write_tree_json, synth.fig_partition(), synth.oscillating_space())))
def test_fuzz_tree_json(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory,
                      lambda p: lio.read_tree_json(p, synth.oscillating_space()), data)


@_FUZZ
@given(_inputs(b"kind,level,index,value\ns,3,0,1\nw,3,1,0.5\nw,1,3,-2\n"))
def test_fuzz_structural_filter_csv(tmp_path_factory, data):
    basis = GraphBasis(synth.fig_partition(), 3)
    _reads_or_refuses(tmp_path_factory,
                      lambda p: lio.read_structural_response_csv(p, basis), data)


@_FUZZ
@given(_inputs(b"freq_index,re,im\n0,1,0\n3,0.5,-0.5\n"))
def test_fuzz_frequency_filter_csv(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lambda p: lio.read_frequency_filter_csv(p, 8), data)
