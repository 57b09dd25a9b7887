"""Reader fuzzing: every reader, fed mutated valid files or arbitrary bytes,
returns a result or raises IngestError, never another exception type."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import GraphBasis, LinkStreamMatrix, full_space, synth
from linkspectra import io as lio
from linkspectra.io import IngestError


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


@_FUZZ
@given(_inputs(b"t,u,v\n0,alice,bob\n1,bob,alice,2.5\n\n3,carol,carol,-1e-3\n"))
def test_fuzz_triplet_csv(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lambda p: lio.ingest_triplets(p, "csv"), data)


@_FUZZ
@given(_inputs(b'{"t": 0, "u": "a", "v": "b"}\n{"t": 2, "u": "b", "v": "a", "w": 2.5}\n'))
def test_fuzz_triplet_ndjson(tmp_path_factory, data):
    _reads_or_refuses(tmp_path_factory, lambda p: lio.ingest_triplets(p, "ndjson"), data)


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
