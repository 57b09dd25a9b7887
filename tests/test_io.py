import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import (
    LinkStreamMatrix,
    RelationSpace,
    active_space,
    analyze,
    full_space,
    restrict_stream,
)
from linkspectra import io as lio
from linkspectra import synth
from linkspectra.cli import main
from linkspectra.io import IngestError
from linkspectra.graphbasis import GraphBasis
from linkspectra.partition import PartitionTree
from linkspectra.spectra import CoefficientMatrix


TRIPLETS = """\
0,alice,bob
0,bob,alice
1,alice,carol,2.5
2,bob,bob
"""


def test_ingest_csv(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text(TRIPLETS)
    result = lio.ingest_triplets(path, "csv")
    stream = result.stream
    assert stream.space.vertices == ("alice", "bob", "carol")
    assert stream.t0 == 0 and stream.num_times == 3
    assert stream.space.num_vertices == 3
    assert stream.values[0, stream.space.index_of(0, 1)] == 1.0
    assert stream.values[1, stream.space.index_of(0, 2)] == 2.5
    assert stream.values[2, stream.space.index_of(1, 1)] == 1.0


def test_ingest_duplicates_sum(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("0,a,b\n0,a,b\n0,a,b,0.5\n")
    stream = lio.ingest_triplets(path, "csv").stream
    assert stream.values[0, stream.space.index_of(0, 1)] == 2.5
    assert not stream.slice_at(0).is_unweighted


def test_ingest_window_drops_and_counts(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("0,a,b\n5,a,b\n1,b,a\n")
    result = lio.ingest_triplets(path, "csv", window=(0, 2))
    assert result.dropped == 1
    assert result.stream.num_times == 2


@pytest.mark.parametrize("text", ["-9223372036854775809:10", "9223372036854775807:2",
                                  "0:9223372036854775809"])
def test_window_outside_int64_is_refused(text):
    with pytest.raises(IngestError, match=re.escape(
            f"window {text!r} reaches outside the int64 time range")):
        lio.parse_window(text)


def test_window_at_int64_edges_is_accepted():
    assert lio.parse_window("-9223372036854775808:1") == (-(1 << 63), 1)
    assert lio.parse_window("9223372036854775806:2") == ((1 << 63) - 2, 2)


def test_ingest_csv_and_ndjson_agree(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(TRIPLETS)
    nd_path = tmp_path / "in.ndjson"
    lines = []
    for line in TRIPLETS.strip().splitlines():
        parts = line.split(",")
        rec = {"t": int(parts[0]), "u": parts[1], "v": parts[2]}
        if len(parts) == 4:
            rec["w"] = float(parts[3])
        lines.append(json.dumps(rec))
    nd_path.write_text("\n".join(lines) + "\n")
    a = lio.ingest_triplets(csv_path, "csv")
    b = lio.ingest_triplets(nd_path, "ndjson")
    assert np.array_equal(a.stream.values, b.stream.values)
    assert a.stream.space.vertices == b.stream.space.vertices


def test_ingest_malformed_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,a,b\nnonsense\n")
    with pytest.raises(IngestError, match="line 2"):
        lio.ingest_triplets(path, "csv")
    path.write_text("0,a\n")
    with pytest.raises(IngestError, match="line 1"):
        lio.ingest_triplets(path, "csv")


def _ndjson_records_loads(path, lines):
    """The NDJSON triplet parser written with ``json.loads`` per line and
    ``isinstance`` type checks: the oracle for the records it accepts and the
    line it refuses."""
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            t, u, v, w = rec["t"], rec["u"], rec["v"], rec.get("w", 1.0)
            if type(t) is not int:
                raise ValueError("time is not an integer")
            if any(isinstance(x, bool) or not isinstance(x, (str, int)) for x in (u, v)):
                raise ValueError("vertex name is not a string or an integer")
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise ValueError("weight is not a number")
            t, u, v, w = int(t), str(u), str(v), lio._float(w)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError):
            raise IngestError(f"{path}: line {lineno}: malformed NDJSON record") from None
        yield t, u, v, w


def _outcome(records):
    try:
        return list(records)
    except IngestError as exc:
        return str(exc)


_NDJSON_VALID = (
    '{"t": 0, "u": "a", "v": "b"}\n'
    '{"t": 1, "u": "b", "v": "a", "w": 2.5}\n'
    '  {"u": "c", "t": 3, "v": "a", "w": -1e-3}\t\n'
    '\n'
    '{"t": 4, "u": 7, "v": "c", "w": 1}\n'
)
_NDJSON_PIECES = ["{", "}", "[", "]", '"', ",", ":", " ", "\t", "\n", "\r", "\ufeff",
                  "\x0b", "\x1c", "\xa0", "\u2028", "0", "1", "-", ".", "e", "x", "null",
                  "NaN", "Infinity", "1e999", '"t"', '"w"', '{"t": 9, "u": "a", "v": "a"}']


@pytest.mark.parametrize("text, where", [
    ('{"t": 0, "u": "a", "v": "b"} {"t": 1, "u": "a", "v": "b"}\n', "line 1"),
    ('{"t": 0, "u": "a", "v": "b"}\n{"t": 1, "u": "a",\n "v": "b"}\n', "line 2"),
    ('{"t": 0, "u": "a", "v": "b"}\n\ufeff{"t": 1, "u": "a", "v": "b"}\n', "line 2"),
    ('{"t": 0, "u": "a", "v": "b"}x\n', "line 1"),
], ids=["two-records-one-line", "record-split-over-lines", "bom", "trailing-data"])
def test_ndjson_refuses_what_json_loads_refuses(tmp_path, text, where):
    path = tmp_path / "in.ndjson"
    path.write_text(text)
    want = _outcome(_ndjson_records_loads(path, text.splitlines()))
    assert want == f"{path}: {where}: malformed NDJSON record"
    assert _outcome(lio._iter_triplets_ndjson(path, text.splitlines())) == want
    with pytest.raises(IngestError, match=re.escape(want)):
        lio.ingest_triplets(path, "ndjson")


@pytest.mark.parametrize("t", ["0.5", "true", "3.0", '"5"', "null"])
def test_ndjson_refuses_a_time_that_is_not_an_integer(tmp_path, capsys, t):
    # the CSV reader refuses 0.5 and 3.0 too; int() would truncate them and
    # parse the string "5"
    path = tmp_path / "in.ndjson"
    path.write_text(f'{{"t": 0, "u": "a", "v": "b"}}\n{{"t": {t}, "u": "b", "v": "a"}}\n')
    want = f"{path}: line 2: malformed NDJSON record"
    with pytest.raises(IngestError, match=re.escape(want)):
        lio.ingest_triplets(path, "ndjson")
    assert main(["ingest", "--input", str(path), "--format", "ndjson",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line)["error"]["message"] for line in err] == [want]


@pytest.mark.parametrize("field, value", [
    ("w", '"2.5"'), ("w", "true"), ("w", "null"),
    ("u", '["x"]'), ("u", '{"x": 1}'), ("u", "null"), ("u", "true"), ("u", "1.5"),
    ("v", '["x"]'),
])
def test_ndjson_refuses_a_name_or_weight_of_the_wrong_type(tmp_path, field, value):
    # names are JSON strings or integers and weights JSON numbers: str() and
    # float() would read ["x"] as a vertex "['x']" and "2.5" or true as weights
    record = {"t": "1", "u": '"b"', "v": '"a"', field: value}
    text = ('{"t": 0, "u": "a", "v": "b"}\n{'
            + ", ".join(f'"{key}": {x}' for key, x in record.items()) + "}\n")
    path = tmp_path / "in.ndjson"
    path.write_text(text)
    want = f"{path}: line 2: malformed NDJSON record"
    assert _outcome(_ndjson_records_loads(path, text.splitlines())) == want
    with pytest.raises(IngestError, match=re.escape(want)):
        lio.ingest_triplets(path, "ndjson")


def test_ndjson_valid_records_keep_their_values():
    want = [(0, "a", "b", 1.0), (1, "b", "a", 2.5), (3, "c", "a", -1e-3), (4, "7", "c", 1.0)]
    lines = _NDJSON_VALID.splitlines()
    assert _outcome(lio._iter_triplets_ndjson("in.ndjson", lines)) == want
    assert _outcome(_ndjson_records_loads("in.ndjson", lines)) == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "join", "split"]),
                          st.floats(0, 1, exclude_max=True), st.sampled_from(_NDJSON_PIECES)),
                max_size=4))
def test_ndjson_parse_matches_json_loads_on_mutated_files(mutations):
    text = _NDJSON_VALID
    for op, at, piece in mutations:
        i = int(at * len(text))
        if op == "insert":
            text = text[:i] + piece + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + len(piece):]
        elif op == "join" and "\n" in text[i:]:  # two records on one line
            j = text.index("\n", i)
            text = text[:j] + " " + text[j + 1:]
        elif op == "split":  # one record over two lines
            text = text[:i] + "\n" + text[i:]
    lines = text.splitlines()
    want = _outcome(_ndjson_records_loads("in.ndjson", lines))
    assert _outcome(lio._iter_triplets_ndjson("in.ndjson", lines)) == want


def test_sparse_long_window_ingest_holds_one_grid(tmp_path):
    # two records 4000 steps apart over four vertices: a 4001 x 16 grid that
    # the stream adopts; a second copy of it would double the peak
    path = tmp_path / "in.csv"
    path.write_text("0,a,b\n4000,c,d\n")
    lio.ingest_triplets(path, "csv")   # warm-up
    tracemalloc.start()
    try:
        stream = lio.ingest_triplets(path, "csv").stream
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.values.shape == (4001, 16)
    assert peak < 1.5 * stream.values.nbytes


def test_ingest_empty_input(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(IngestError):
        lio.ingest_triplets(path, "csv")


def test_ingest_pad_vertices(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("0,a,b\n0,b,c\n")
    result = lio.ingest_triplets(path, "csv", pad_vertices=True)
    assert result.stream.space.num_vertices == 4
    assert result.stream.space.vertices == ("a", "b", "c", "~v3")


_BAD_NAME = "holds '->', ',', a line break or a lone surrogate"
_PAD_NAME = "starts with '~', which is reserved for padding vertices"


@pytest.mark.parametrize("fmt, name, message", [
    ("csv", "a->b", _BAD_NAME),
    ("ndjson", "a->b", _BAD_NAME),
    ("ndjson", "a,b", _BAD_NAME),
    ("ndjson", "a\nb", _BAD_NAME),
    ("ndjson", "a\u2028b", _BAD_NAME),
    ("ndjson", "a\ud800", _BAD_NAME),
    ("csv", "~pad0", _PAD_NAME),
    ("ndjson", "~pad0", _PAD_NAME),
    ("csv", "~v3", _PAD_NAME),
], ids=["csv-arrow", "ndjson-arrow", "ndjson-comma", "ndjson-newline", "ndjson-separator",
        "ndjson-surrogate", "csv-pad", "ndjson-pad", "csv-pad-vertex"])
def test_vertex_names_the_labels_cannot_carry_are_refused(tmp_path, capsys, fmt, name, message):
    path = tmp_path / f"in.{fmt}"
    write_triplets(path, [(0, "a", "c", None), (1, "c", name, None)], fmt)
    with pytest.raises(IngestError, match=re.escape(f"{path}: vertex name {name!r} {message}")):
        lio.ingest_triplets(path, fmt)
    code = main(["ingest", "--input", str(path), "--format", fmt,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err == {"type": "IngestError", "message": f"{path}: vertex name {name!r} {message}"}


# names that the label format can carry: no '->', ',', line break or lone
# surrogate, no leading '~'; CSV fields are stripped, so no surrounding white
# space either
SAFE_NAMES = st.text(max_size=4).filter(
    lambda s: "->" not in s and "," not in s and "".join(s.splitlines()) == s
    and not any("\ud800" <= c <= "\udfff" for c in s)
    and not s.startswith("~") and s == s.strip())


@settings(max_examples=60, deadline=None)
@given(names=st.lists(SAFE_NAMES, min_size=1, max_size=5, unique=True),
       records=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4),
                                  st.integers(-3, 3)), min_size=1, max_size=20),
       fmt=st.sampled_from(["csv", "ndjson"]), pad=st.booleans())
def test_vertex_names_round_trip_triplets_raw_dense(tmp_path_factory, names, records, fmt, pad):
    d = tmp_path_factory.mktemp("names")
    lines = [(t, names[u % len(names)], names[v % len(names)], float(w))
             for t, u, v, w in records]
    write_triplets(d / f"in.{fmt}", lines, fmt)
    stream = lio.ingest_triplets(d / f"in.{fmt}", fmt, pad_vertices=pad).stream
    lio.write_raw(d / "s.raw", stream)
    raw = lio.read_raw(d / "s.raw").stream
    lio.write_dense_csv(d / "s.csv", raw)
    dense = lio.read_dense_csv(d / "s.csv").stream
    first_seen = list(dict.fromkeys(nm for _, u, v, _ in lines for nm in (u, v)))
    assert stream.space.vertices[: len(first_seen)] == tuple(first_seen)
    assert raw.space == dense.space == stream.space
    assert lio.relation_labels(dense.space) == lio.relation_labels(stream.space)
    assert np.array_equal(raw.values, stream.values)
    assert np.array_equal(dense.values, stream.values)


def test_ingest_refuses_a_grid_over_the_cell_limit(tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text("0,a,b\n3,b,c\n")     # T = 4, M = 16 (3 vertices, padded)
    monkeypatch.setattr(lio, "MAX_INGEST_CELLS", 64)
    assert lio.ingest_triplets(path, "csv").stream.values.shape == (4, 16)
    monkeypatch.setattr(lio, "MAX_INGEST_CELLS", 63)
    with pytest.raises(IngestError, match=re.escape(
            f"{path}: a T = 4 by M = 16 stream needs 512 bytes, over the 504-byte"
            " ingest limit")):
        lio.ingest_triplets(path, "csv")


def test_active_ingest_refuses_a_grid_over_the_cell_limit(tmp_path, monkeypatch):
    path = tmp_path / "in.ndjson"
    write_triplets(path, [(0, "a", "b", None), (1, "b", "c", None), (5, "c", "a", None)],
                   "ndjson")                # T = 6, three active relations padded to M = 4
    monkeypatch.setattr(lio, "MAX_INGEST_CELLS", 24)
    assert lio.ingest_triplets(path, "ndjson", active_only=True).stream.values.shape == (6, 4)
    monkeypatch.setattr(lio, "MAX_INGEST_CELLS", 23)
    with pytest.raises(IngestError, match=re.escape(
            f"{path}: a T = 6 by M = 4 stream needs 192 bytes, over the 184-byte"
            " ingest limit")):
        lio.ingest_triplets(path, "ndjson", active_only=True)


@pytest.mark.parametrize("basis", ["svd", "bfs"])
def test_huge_window_is_refused_before_allocation(tmp_path, capsys, basis):
    path = tmp_path / "in.csv"
    path.write_text("0,a,b\n1,b,a\n")
    code = main(["regularity", "--input", str(path), "--window", "0:1000000000",
                 "--basis", basis, "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    m = 4 if basis == "svd" else 2
    assert err == {"type": "IngestError", "message": (
        f"{path}: a T = 1000000000 by M = {m} stream needs {8 * m * 10 ** 9} bytes,"
        f" over the {8 * lio.MAX_INGEST_CELLS}-byte ingest limit")}


def write_triplets(path, records, fmt):
    """Triplet file of (t, u, v, w) records; ``w`` None leaves the weight out."""
    lines = []
    for t, u, v, w in records:
        if fmt == "csv":
            lines.append(f"{t},{u},{v}" + ("" if w is None else f",{w!r}"))
        else:
            rec = {"t": t, "u": u, "v": v}
            if w is not None:
                rec["w"] = w
            lines.append(json.dumps(rec))
    path.write_text("\n".join(lines) + "\n")


def aggregate_pairs(stream):
    """Relations whose all-time aggregate is nonzero: the BFS active set."""
    return [stream.space.relations[k] for k in sorted(stream.aggregate_graph().edge_set)]


# (t, u, v, kind): kind 'split' writes two half-weight records, 'zero' a
# zero-weight one (a zero-weight self-loop leaves an isolated vertex).
RECORDS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers(0, 5),
                             st.sampled_from(["plain", "split", "double", "zero"])),
                   min_size=1, max_size=40)


@settings(max_examples=80, deadline=None)
@given(records=RECORDS,
       window=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(1, 6))),
       fmt=st.sampled_from(["csv", "ndjson"]))
def test_active_ingest_equals_restricted_full_ingest(tmp_path_factory, records, window, fmt):
    weights = {"plain": [None], "split": [0.5, 0.5], "double": [2.0], "zero": [0.0]}
    lines = [(t, f"n{u}", f"n{v}", w)
             for t, u, v, kind in records for w in weights[kind]]
    path = tmp_path_factory.mktemp("active") / f"in.{fmt}"
    write_triplets(path, lines, fmt)
    try:
        full = lio.ingest_triplets(path, fmt, window=window)
    except IngestError:
        with pytest.raises(IngestError, match="no triplets inside the window"):
            lio.ingest_triplets(path, fmt, window=window, active_only=True)
        return
    active = lio.ingest_triplets(path, fmt, window=window, active_only=True)
    assert active.stream.space.vertices == full.stream.space.vertices
    assert active.dropped == full.dropped
    pairs = aggregate_pairs(full.stream)
    if not pairs:   # every weight in the window is zero
        assert active.stream.space.num_active == 0
        assert not active.stream.values.any()
        return
    expected = restrict_stream(full.stream, active_space(full.stream.space.num_vertices, pairs))
    assert active.stream.space == expected.space
    assert active.stream.t0 == expected.t0
    assert np.array_equal(active.stream.values, expected.values)


def test_active_ingest_keeps_zero_aggregate_relation_for_refusal(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("0,a,b,1\n1,a,b,-1\n0,b,a\n0,a,a\n1,b,b\n2,b,c\n")
    active = lio.ingest_triplets(path, "csv", active_only=True).stream
    assert active.space.relations == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2),
                                      None, None, None)
    space = active_space(3, aggregate_pairs(active))
    assert space.relations == ((0, 0), (1, 0), (1, 1), (1, 2))
    for stream in (active, lio.ingest_triplets(path, "csv").stream):
        with pytest.raises(ValueError, match=re.escape(
                "active relation (0, 1) is outside the restricted space")):
            restrict_stream(stream, space)


@pytest.mark.parametrize("patch", [{"labels": [5]}, {"labels": [None]},
                                   {"vertices": [5]}, {"vertices": "a"}])
def test_raw_header_non_string_label(tmp_path, capsys, patch):
    path = tmp_path / "bad.raw"
    header = {"T": 1, "M": 1, "t0": 0, "labels": ["a->a"], "vertices": ["a"], **patch}
    path.write_bytes((json.dumps(header) + "\n").encode() + np.ones(1, "<f8").tobytes())
    with pytest.raises(IngestError, match=re.escape(f"{path}: bad relation label")):
        lio.read_raw(path)
    code = main(["ingest", "--input", str(path), "--format", "raw",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err["type"] == "IngestError"
    assert err["message"].startswith(f"{path}: bad relation label")


@pytest.mark.parametrize("labels, vertices, message", [
    (["a->b", "b->a"], ["a", "a", "b"], "duplicate vertex 'a'"),
    (["a->b", "a->b"], ["a", "b"], "duplicate relation label 'a->b'"),
], ids=["vertex", "relation"])
def test_raw_header_duplicates(tmp_path, capsys, labels, vertices, message):
    path = tmp_path / "dup.raw"
    header = {"T": 1, "M": 2, "t0": 0, "labels": labels, "vertices": vertices}
    path.write_bytes((json.dumps(header) + "\n").encode() + np.ones(2, "<f8").tobytes())
    with pytest.raises(IngestError, match=re.escape(f"{path}: {message}")):
        lio.read_raw(path)
    code = main(["ingest", "--input", str(path), "--format", "raw",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err == {"type": "IngestError", "message": f"{path}: {message}"}


def test_dense_csv_duplicate_relation_label(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("t,a->b,b->a,a->b,~pad0\n0,1,0,1,0\n")
    with pytest.raises(IngestError, match=re.escape(f"{path}: duplicate relation label 'a->b'")):
        lio.read_dense_csv(path)


@pytest.mark.parametrize("fmt", ["raw", "dense"])
def test_nonzero_pad_column_names_the_file(tmp_path, capsys, fmt):
    # a label that starts with ~pad is an inert column, which must hold zeros
    if fmt == "raw":
        path = tmp_path / "pad.raw"
        header = {"T": 1, "M": 2, "t0": 0, "labels": ["~pad0->a", "a->a"]}
        path.write_bytes((json.dumps(header) + "\n").encode()
                         + np.array([1.0, 0.0], "<f8").tobytes())
    else:
        path = tmp_path / "pad.csv"
        path.write_text("t,~pad0->a,a->a\n0,1,0\n")
    message = f"{path}: inert (padding) columns must be zero"
    with pytest.raises(IngestError, match=re.escape(message)):
        lio.read_stream(path, fmt)
    code = main(["ingest", "--input", str(path), "--format", fmt,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err == {"type": "IngestError", "message": message}


def _read_struct(path):
    return lio.read_structural_response_csv(path, GraphBasis(synth.fig_partition(), 3))


def _read_freq(path):
    return lio.read_frequency_filter_csv(path, 8)


def _raw_with_payload(values):
    """read_raw after appending ``values`` as the payload of the header file."""
    def read(path):
        path.write_bytes(path.read_bytes() + np.array(values, dtype="<f8").tobytes())
        return lio.read_raw(path)
    return read


_RAW_1X2 = '{"T": 1, "M": 2, "t0": 0, "labels": ["a->b", "b->a"]}\n'
_RAW_1X1 = '{"T": 1, "M": 1, "t0": 0, "labels": ["c->c"], "vertices": ["c"]}\n'


# one JSON value nested far past the recursion limit
_DEEP = "[" * 100_000 + "]" * 100_000


def _tree_doc(**changes):
    doc = {"num_relations": 2, "labels": ["x", "y"], "leaf_order": [0, 1], "nested": ["x", "y"]}
    return json.dumps({**doc, **changes})


@pytest.mark.parametrize("reader, text, where", [
    (lio.read_dense_csv, "t,a->b\n0,1\n1,x\n", "line 3"),
    (lio.read_dense_csv, "t,a->b\n0.5,1\n", "line 2"),
    (_read_struct, "kind,level,index,value\ns,3,0,1\nw,3,one,0.5\n", "line 3"),
    (_read_struct, "s,3,0,half\n", "line 1"),
    (_read_freq, "freq_index,re,im\n0,1,x\n", "line 2"),
    (lio.read_tree_json, _tree_doc(nested=[["x", "y"], "y"]),
     "leaf node must be a single relation"),
    (lio.read_tree_json, _tree_doc(nested="x"), "internal node must have exactly two children"),
    (lambda p: lio.read_tree_json(p, RelationSpace(2, ((0, 1), (1, 0)))), _tree_doc(),
     "tree column 0 is labelled 'x', the stream's is '0->1'"),
    (lio.read_raw, _RAW_1X2.replace('"T": 1', '"T": -1'),
     "header has T = -1, the time window is empty"),
    (_read_freq, "1.5,1,0\n", "line 1"),
    (lio.read_tree_json, "not json\n", "malformed tree document"),
    (lambda p: lio.ingest_triplets(p, "csv"), "0,a\n", "line 1: expected 't,u,v[,w]', got '0,a'"),
    (lambda p: lio.ingest_triplets(p, "csv"), "t,u,v\n0,a,b,heavy\n",
     "line 2: malformed numeric field in '0,a,b,heavy'"),
    (lambda p: lio.ingest_triplets(p, "ndjson"), '{"t": 0, "u": "a"}\n',
     "line 1: malformed NDJSON record"),
    (lambda p: lio.ingest_triplets(p, "csv", window=(5, 2)), "0,a,b\n",
     "no triplets inside the window"),
    (lio.read_dense_csv, "t,a->b\n0,1,2\n", "line 2: expected 2 fields"),
    (lio.read_dense_csv, "t,a->b\n0,1\n2,1\n", "dense CSV times must be contiguous"),
    (lio.read_dense_csv, "t,a->b,b->a,a->a\n0,1,0,1\n", "relation count 3 is not a power of two"),
    (lio.read_raw, '{"T": 0, "M": 2, "t0": 0, "labels": ["a->b"]}\n',
     "header has M = 2 but 1 labels"),
    (_read_struct, "s,3,0\n", "line 1: expected 'kind,level,index,value'"),
    (_read_struct, "s,3,2,1\n", "line 1: scaling index out of range"),
    (_read_struct, "w,3,2,1\n", "line 1: wavelet index out of range"),
    (_read_struct, "w,4,0,1\n", "line 1: wavelet level 4 out of range 1..3"),
    (_read_struct, "v,3,0,1\n", "line 1: kind must be 's' or 'w'"),
    (_read_freq, "0,1\n", "line 1: expected 'freq_index,re,im'"),
    (_read_freq, "8,1,0\n", "line 1: frequency index 8 out of range"),
    (lambda p: lio.read_tree_json(p, full_space(1)), _tree_doc(),
     "tree has 2 relations, space has 1"),
    (lio.read_tree_json, _tree_doc(labels=["x"]),
     "label list length does not match num_relations"),
    (lio.read_tree_json, _tree_doc(leaf_order=[0, 0]),
     "leaf order is not a permutation of 0..M-1"),
    (lio.read_tree_json, _tree_doc(nested=["x", "y", "x"]),
     "nested nodes must have two children"),
    (lio.read_tree_json, _tree_doc(nested=["x", "z"]), "unknown relation label 'z' in tree"),
    (lio.read_tree_json, _tree_doc(nested=["x", {"y": 1}]),
     "unknown relation label {'y': 1} in tree"),
    (lio.read_tree_json, _tree_doc(nested=["x", "x"]),
     "nested tree does not cover all relations"),
    (lio.read_tree_json, _tree_doc(leaf_order=[1, 0]),
     "nested arrays disagree with the stored leaf order"),
    (lambda p: lio.ingest_triplets(p, "csv"), "0,a,b,nan\n",
     "line 1: malformed numeric field in '0,a,b,nan'"),
    (lambda p: lio.ingest_triplets(p, "csv"), "0,a,b\n1,a,b,-inf\n",
     "line 2: malformed numeric field in '1,a,b,-inf'"),
    (lambda p: lio.ingest_triplets(p, "ndjson"), '{"t": 0, "u": "a", "v": "b", "w": NaN}\n',
     "line 1: malformed NDJSON record"),
    (lambda p: lio.ingest_triplets(p, "ndjson"), '{"t": 0, "u": "a", "v": "b", "w": Infinity}\n',
     "line 1: malformed NDJSON record"),
    (lambda p: lio.ingest_triplets(p, "ndjson"), '{"t": Infinity, "u": "a", "v": "b"}\n',
     "line 1: malformed NDJSON record"),
    (lio.read_dense_csv, "t,a->b\n0,1\n1,nan\n", "line 3: malformed numeric field"),
    (_read_struct, "s,3,0,inf\n", "line 1: malformed numeric field"),
    (_read_freq, "0,nan,0\n", "line 1: malformed numeric field"),
    (_read_freq, "0,1,-inf\n", "line 1: malformed numeric field"),
    (_raw_with_payload([1.0, float("nan")]), _RAW_1X2, "payload holds non-finite values"),
    (lio.read_raw, _RAW_1X2.replace('"T": 1', '"T": 0'),
     "header has T = 0, the time window is empty"),
    (lio.read_raw, _RAW_1X2.replace('"T": 1', '"T": Infinity'), "malformed raw header"),
    (lio.read_tree_json, _tree_doc(num_relations=float("inf")), "malformed tree document"),
    (lio.read_tree_json, _tree_doc(nested=None).replace("null", "[" * 3000 + '"x"' + "]" * 3000),
     "malformed tree document"),
    (_raw_with_payload([1.0]), _RAW_1X1.replace('["c"]', '["c", "a->b"]'),
     f"vertex name 'a->b' {_BAD_NAME}"),
    (_raw_with_payload([1.0]), _RAW_1X1.replace('["c"]', '["c", "a,b"]'),
     f"vertex name 'a,b' {_BAD_NAME}"),
    (_raw_with_payload([1.0]), _RAW_1X1.replace('["c"]', '["c", "a\\nb"]'),
     f"vertex name 'a\\nb' {_BAD_NAME}"),
    (lambda p: lio.ingest_triplets(p, "ndjson"), _DEEP + "\n", "line 1: malformed NDJSON record"),
    (lio.read_raw, _DEEP + "\n", "malformed raw header"),
    (lambda p: lio.ingest_triplets(p, "csv"), b"t,u,v\n0,a,b\n1,a,\xffb\n",
     "line 3: not UTF-8 text"),
    (lambda p: lio.ingest_triplets(p, "ndjson"),
     b'{"t": 0, "u": "a", "v": "b"}\n{"t": 1, "u": "\xff", "v": "b"}\n',
     "line 2: not UTF-8 text"),
    (lio.read_dense_csv, b"t,a->b\n0,1\n1,\xff\n", "line 3: not UTF-8 text"),
    (_read_struct, b"kind,level,index,value\ns,3,0,1\xff\n", "line 2: not UTF-8 text"),
    (_read_freq, b"freq_index,re,im\r\n0,1,0\r\n\xff,0,0\r\n", "line 3: not UTF-8 text"),
    (lambda p: lio.ingest_triplets(p, "csv"), "0,a,b\n100000000000000000000,a,b\n",
     "line 2: malformed numeric field in '100000000000000000000,a,b'"),
    (lambda p: lio.ingest_triplets(p, "ndjson"),
     '{"t": 0, "u": "a", "v": "b"}\n{"t": 100000000000000000000, "u": "a", "v": "b"}\n',
     "line 2: malformed NDJSON record"),
    (lio.read_dense_csv, "t,a->b\n9223372036854775807,1\n9223372036854775808,0\n",
     "line 3: malformed numeric field"),
], ids=["dense-value", "dense-time", "struct-index", "struct-value", "freq-value",
        "tree-leaf-shape", "tree-internal-shape", "tree-stream-labels", "raw-negative-window",
        "freq-index", "tree-json", "csv-fields", "csv-weight", "ndjson-record",
        "empty-window", "dense-fields", "dense-gap", "dense-space", "raw-labels", "struct-fields", "struct-scaling-range",
        "struct-wavelet-range", "struct-wavelet-level", "struct-kind", "freq-fields",
        "freq-range", "tree-space", "tree-labels", "tree-leaf-order", "tree-children",
        "tree-label", "tree-leaf-type", "tree-cover", "tree-disagree",
        "csv-weight-nan", "csv-weight-inf", "ndjson-weight-nan", "ndjson-weight-inf",
        "ndjson-time-inf", "dense-value-nan", "struct-value-inf", "freq-re-nan",
        "freq-im-inf", "raw-payload-nan", "raw-empty-window", "raw-header-inf", "tree-inf",
        "tree-deep", "raw-vertex-arrow", "raw-vertex-comma", "raw-vertex-newline",
        "ndjson-deep", "raw-header-deep", "csv-not-utf8", "ndjson-not-utf8",
        "dense-not-utf8", "struct-not-utf8", "freq-not-utf8",
        "csv-time-int64", "ndjson-time-int64", "dense-time-int64"])
def test_malformed_numbers_name_file_and_line(tmp_path, reader, text, where):
    path = tmp_path / "bad.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(IngestError, match=re.escape(f"{path}: {where}")):
        reader(path)


@pytest.mark.parametrize("key, value", [
    ("t0", 0.5), ("t0", 2.9), ("t0", True), ("T", True), ("M", 2.0),   # int() truncates
    ("T", "1"), ("M", "2"), ("t0", "0"), ("t0", None),                 # int() parses
    ("t0", 1 << 63), ("t0", 1 << 70), ("t0", -(1 << 63) - 1)])         # not int64 times
def test_raw_header_refuses_a_number_that_is_not_an_integer(tmp_path, key, value):
    path = tmp_path / "in.raw"
    payload = np.zeros(2, dtype="<f8").tobytes()
    header = json.loads(_RAW_1X2)
    for t0 in (0, (1 << 63) - 1, -(1 << 63)):   # the int64 edges are times
        header["t0"] = t0
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        assert lio.read_raw(path).stream.t0 == t0
    header[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    refusal = ("malformed raw header" if type(value) is not int
               else f"header window {value}:1 reaches outside the int64 time range")
    with pytest.raises(IngestError, match=re.escape(f"{path}: {refusal}")):
        lio.read_raw(path)


@pytest.mark.parametrize("changes", [
    {"num_relations": "2"}, {"num_relations": 2.0}, {"num_relations": True},
    {"leaf_order": ["0", "1"]}, {"leaf_order": [0.5, 1.5]}, {"leaf_order": [0.0, 1.0]},
    {"leaf_order": [False, True]}, {"leaf_order": "01"}],
    ids=["size-string", "size-float", "size-bool", "order-strings", "order-halves",
         "order-floats", "order-bools", "order-text"])
def test_tree_json_refuses_a_number_that_is_not_an_integer(tmp_path, changes):
    path = tmp_path / "tree.json"
    path.write_text(_tree_doc())
    assert lio.read_tree_json(path).leaf_order.tolist() == [0, 1]
    path.write_text(_tree_doc(**changes))
    with pytest.raises(IngestError, match=re.escape(f"{path}: malformed tree document")):
        lio.read_tree_json(path)


def test_dense_csv_round_trip(tmp_path, rng):
    stream = LinkStreamMatrix(full_space(3), 7, np.round(rng.standard_normal((4, 16)), 3)
                              * (~full_space(3).inert))
    path = tmp_path / "dense.csv"
    lio.write_dense_csv(path, LinkStreamMatrix(full_space(3, ["x", "y", "z"]), 7, stream.values))
    back = lio.read_dense_csv(path)
    assert np.abs(back.stream.values - stream.values).max() < 1e-12
    assert back.stream.t0 == 7
    assert back.stream.space.vertices == ("x", "y", "z")


def test_raw_round_trip_bit_exact(tmp_path, rng):
    vals = rng.standard_normal((5, 16))
    stream = LinkStreamMatrix(full_space(4), -2, vals)
    path = tmp_path / "stream.raw"
    lio.write_raw(path, stream)
    back = lio.read_raw(path)
    assert np.array_equal(back.stream.values, stream.values)
    assert back.stream.t0 == -2


def test_raw_corrupt_payload(tmp_path):
    stream = synth.gen_oscillating(4)
    path = tmp_path / "stream.raw"
    lio.write_raw(path, stream)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(IngestError, match="payload"):
        lio.read_raw(path)


def test_float_export_golden_bytes(tmp_path):
    tricky = [0.1 + 0.2, 1e-300, -0.0, 1.0, 5e-324, 2**60 + 0.0]
    path = tmp_path / "grid.csv"
    lio.write_grid_csv(path, np.array([tricky, [-x for x in tricky]]), "t",
                       np.arange(-1, 1), list("abcdef"))
    text = path.read_text()
    assert text == (
        "t,a,b,c,d,e,f\n"
        "-1,0.30000000000000004,1e-300,-0,1,4.9406564584124654e-324,1.152921504606847e+18\n"
        "0,-0.30000000000000004,-1e-300,0,-1,-4.9406564584124654e-324,-1.152921504606847e+18\n"
    )
    back = [float(x) for x in text.splitlines()[1].split(",")[1:]]
    assert back == tricky and np.signbit(back[2])

    coeffs = CoefficientMatrix(
        np.array([[complex(0.1 + 0.2, -0.0), complex(1e-300, 5e-324)],
                  [complex(-0.0, 1.0), complex(2**60, -0.5)]]),
        GraphBasis(PartitionTree(np.arange(2)), 1),
        RelationSpace(2, ((0, 1), (1, 0))))
    lio.write_coefficient_matrix(tmp_path, coeffs)
    assert (tmp_path / "C_rect.csv").read_text() == (
        "freq,column,re,im\n"
        "0,0,0.30000000000000004,-0\n"
        "0,1,1e-300,4.9406564584124654e-324\n"
        "1,0,-0,1\n"
        "1,1,1.152921504606847e+18,-0.5\n"
    )


def _write_grid_rows(path, values, row_name, row_labels, col_labels):
    """The per-row ``%.17g`` writer that write_grid_csv must match byte for byte;
    its table is ``values`` flattened to ``(-1, width)`` in C order."""
    values = values.reshape(-1, values.shape[-1])
    fmt = "%s" + ",%.17g" * values.shape[1] + "\n"
    with open(path, "w") as fh:
        fh.write(row_name + "," + ",".join(col_labels) + "\n")
        for lab, row in zip(row_labels, values):
            fh.write(fmt % (lab, *row.tolist()))


# repeated values, signed zeros, subnormals and a large integer
_GRID_POOL = [0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 5e-324, -5e-324, 1e-310,
              2.2250738585072014e-308, 2.0**60, -(2.0**60), 1 / 3]


@settings(max_examples=80, deadline=None)
@given(width=st.sampled_from([1, 2, 3, 4095, 4096, 4097]), depth=st.sampled_from([None, 1, 3]),
       order=st.sampled_from("CF"), data=st.data())
def test_grid_writer_matches_per_row_writer(tmp_path_factory, width, depth, order, data):
    # a 2-D grid, or a 3-D one of ``depth`` table rows per slice of its first
    # axis, stored row- or column-major
    slices_per_block = max(1, 4096 // (width * (depth or 1)))
    # whole blocks, and slice counts that leave the last block part full
    num_slices = data.draw(st.sampled_from(
        [1, slices_per_block, slices_per_block + 1, 2 * slices_per_block + 3]))
    shape = (num_slices, width) if depth is None else (num_slices, depth, width)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = np.array(_GRID_POOL)[rng.integers(0, len(_GRID_POOL), shape)]
    fresh = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
    values[fresh] = rng.standard_normal(fresh.sum()) * 10.0 ** rng.integers(-320, 300, fresh.sum())
    values = np.asarray(values, order=order)
    num_rows = values.size // width
    if data.draw(st.booleans()):
        row_name, labels = "t", np.arange(num_rows) - data.draw(st.integers(0, 5))
    else:
        row_name, labels = "freq,column", [f"{i // 3},{i % 3}" for i in range(num_rows)]
    cols = [f"c{k}" for k in range(width)]
    d = tmp_path_factory.mktemp("grid")
    lio.write_grid_csv(d / "blocks.csv", values, row_name, iter(labels), cols)
    _write_grid_rows(d / "rows.csv", values, row_name, labels, cols)
    assert (d / "blocks.csv").read_bytes() == (d / "rows.csv").read_bytes()


def test_grid_exports_are_the_same_bytes_in_either_memory_order(tmp_path, rng):
    space = full_space(3)
    basis = GraphBasis(PartitionTree(rng.permutation(16)), 2)
    vals = rng.standard_normal((6, 16)) * ~space.inert
    grid = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
    grid[0, :3] = [-0.0, complex(0.0, -0.0), 5e-324]
    written = []
    for order in "CF":
        d = tmp_path / order
        stream = LinkStreamMatrix(space, -3, np.asarray(vals, order=order))
        coeffs = CoefficientMatrix(np.asarray(grid, order=order), basis, space)
        assert coeffs.values.flags[f"{order}_CONTIGUOUS"]
        lio.write_coefficient_matrix(d, coeffs)
        lio.write_raw(d / "stream.raw", stream)
        written.append([(d / f).read_bytes() for f in ("C_abs.csv", "C_rect.csv", "stream.raw")])
    assert written[0] == written[1]
    c_rect = written[0][1].decode().splitlines()
    assert c_rect[1:4] == ["0,0,-0,0", "0,1,0,-0", "0,2,4.9406564584124654e-324,0"]
    assert len(c_rect) == 1 + 6 * 16


def test_tree_json_round_trip(tmp_path, rng):
    tree = PartitionTree(rng.permutation(16))
    space = full_space(4)
    path = tmp_path / "tree.json"
    lio.write_tree_json(path, tree, space)
    back = lio.read_tree_json(path, space)
    assert np.array_equal(back.leaf_order, tree.leaf_order)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda e: st.permutations(range(2 ** e))))
def test_tree_json_round_trip_any_size(tmp_path_factory, perm):
    names = [f"v{i}" for i in range(8)]
    space = RelationSpace(8, tuple((u, v) for u in range(8) for v in range(8))[: len(perm)], names)
    tree = PartitionTree(perm)
    path = tmp_path_factory.mktemp("tree") / "tree.json"
    lio.write_tree_json(path, tree, space)
    back = lio.read_tree_json(path, space)
    assert np.array_equal(back.leaf_order, perm)
    text = path.read_text()
    lio.write_tree_json(path, back, space)
    assert path.read_text() == text


def test_tree_json_validates(tmp_path):
    tree = synth.fig_partition()
    space = synth.oscillating_space()
    path = tmp_path / "tree.json"
    lio.write_tree_json(path, tree, space)
    doc = json.loads(path.read_text())
    doc["leaf_order"][0], doc["leaf_order"][1] = doc["leaf_order"][1], doc["leaf_order"][0]
    path.write_text(json.dumps(doc))
    with pytest.raises(IngestError, match="disagree"):
        lio.read_tree_json(path, space)
    doc["leaf_order"] = [0] * 16
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        lio.read_tree_json(path, space)


def test_coefficient_csv(tmp_path, fig_basis):
    stream = synth.gen_oscillating(4)
    coeffs = analyze(stream.slice_at(0), fig_basis)
    path = tmp_path / "coeffs.csv"
    lio.write_coefficients_csv(path, coeffs)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,level,index,value"
    assert lines[1].startswith("s,3,0,")
    assert len(lines) == 17
    # read back as a structural response
    resp = lio.read_structural_response_csv(path, fig_basis)
    assert np.abs(resp - coeffs.values).max() < 1e-12


def test_structural_response_presets(fig_basis):
    coarse = lio.structural_response("coarse", fig_basis)
    assert coarse[:2].tolist() == [1.0, 1.0] and coarse[2:].max() == 0.0
    detail = lio.structural_response("detail", fig_basis)
    assert detail[:2].max() == 0.0 and detail[2:].min() == 1.0
    assert lio.structural_response("all", fig_basis).min() == 1.0


def test_frequency_filter_presets_and_csv(tmp_path):
    filt = lio.frequency_filter("agg:2", 8)
    assert abs(filt.response[4]) < 1e-12
    filt = lio.frequency_filter("lowpass:0.25", 8)
    assert filt.response[0] == 1.0 and filt.response[2] == 1.0 and filt.response[3] == 0.0
    assert filt.response[6] == 1.0  # folded mirror
    filt = lio.frequency_filter("diff", 8)
    assert filt.response[0] == 0.0
    path = tmp_path / "filt.csv"
    path.write_text("freq_index,re,im\n0,1,0\n4,0.5,0\n")
    filt = lio.frequency_filter(str(path), 8)
    assert filt.response[0] == 1.0 and filt.response[4] == 0.5 and filt.response[1] == 0.0
    with pytest.raises(IngestError):
        lio.read_frequency_filter_csv(path, 3)  # index 4 out of range


def test_plot_bundle(tmp_path, fig_basis):
    from linkspectra import decompose

    stream = synth.gen_oscillating(4)
    coeffs = lio.write_plot_bundle(tmp_path / "bundle", stream, fig_basis)
    assert coeffs.values.tobytes() == decompose(stream, fig_basis).values.tobytes()
    for name in ("L.csv", "X.csv", "F_abs.csv", "C_abs.csv", "C_rect.csv"):
        assert (tmp_path / "bundle" / name).exists()
    header = (tmp_path / "bundle" / "C_abs.csv").read_text().splitlines()[0]
    assert header.startswith("freq,s(3)[0],s(3)[1],w(3)[0]")


def test_each_product_analyses_the_stream_once(tmp_path, monkeypatch, fig_basis):
    from linkspectra import decompose, regularity

    calls = []
    analyze = GraphBasis.analyze_values

    def counting(self, values):
        calls.append(values.shape)
        return analyze(self, values)

    monkeypatch.setattr(GraphBasis, "analyze_values", counting)
    stream = synth.gen_oscillating(8)
    for product in (lambda: regularity(stream, fig_basis),
                    lambda: decompose(stream, fig_basis),
                    lambda: lio.write_plot_bundle(tmp_path, stream, fig_basis)):
        calls.clear()
        product()
        assert calls == [(8, 16)]
