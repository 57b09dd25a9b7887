"""File formats: triplet ingestion, dense/raw stream exports, tree JSON,
coefficient and filter CSVs.

Floats are written with 17 significant digits so every export re-ingests to
the same values and byte-identical reruns only depend on the seed.

Every reader maps its errors with ``_refusing`` and the CSV readers split
rows with ``_rows``, so malformed input, a byte that is not UTF-8 and
over-nested JSON alike raise an ``IngestError`` that starts with the path,
then the line where there is one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .graphbasis import GraphBasis, GraphCoefficients, coarse_pass_response, detail_pass_response
from .partition import PartitionTree
from .spectra import CoefficientMatrix, freq_relational, time_structure
from .stream import (
    LinkStreamMatrix,
    RelationSpace,
    _Fresh,
    _plain,
    active_space,
    full_space,
    is_power_of_two,
    next_power_of_two,
)
from .timebasis import (
    FourierBasis,
    FrequencyFilter,
    aggregation_filter,
    diff_filter,
    lowpass_filter,
)


class IngestError(ValueError):
    pass


# the largest T x M float64 grid that ingest or a synth generator allocates (1 GiB)
MAX_INGEST_CELLS = 1 << 27


@dataclass(frozen=True)
class IngestResult:
    stream: LinkStreamMatrix
    dropped: int = 0


def _in_int64(t0: int, count: int) -> bool:
    """Whether every step t0 .. t0 + count - 1 of a window is an int64 time."""
    return -(1 << 63) <= t0 and t0 + count - 1 < 1 << 63


def parse_window(text: str):
    """'t0:T' -> (t0, T); every step t0 .. t0 + T - 1 must be an int64 time."""
    try:
        t0, count = text.split(":")
        t0, count = int(_plain(t0)), int(_plain(count))
    except ValueError:
        raise IngestError(f"window must look like 't0:T', got {text!r}") from None
    if count < 1:
        raise IngestError("window length must be positive")
    if not _in_int64(t0, count):
        raise IngestError(f"window {text!r} reaches outside the int64 time range")
    return t0, count


def _float(text) -> float:
    """``float(text)``, refusing nan and +-inf with a ValueError."""
    x = float(_plain(text))
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text!r}")
    return x


def _integers(values) -> list:
    """``values``, refusing a string, float or bool in it, which ``int()`` would take."""
    if any(type(x) is not int for x in values):
        raise ValueError("number is not an integer")
    return values


def _time(value) -> int:
    """``int(value)``, refusing a time outside int64 with a ValueError."""
    t = int(_plain(value))
    if not _in_int64(t, 1):
        raise ValueError(f"time {value!r} outside the int64 range")
    return t


class _Cursor:
    """Where a reader is: its file and, while rows are read, the line."""

    def __init__(self, path):
        self.path, self.lineno, self.line = path, None, None

    def __str__(self):
        return f"{self.path}" if self.lineno is None else f"{self.path}: line {self.lineno}"


@contextmanager
def _refusing(path, what=None):
    """The one error rule: a ValueError (UnicodeDecodeError included),
    TypeError, KeyError, OverflowError or RecursionError raised in the block
    becomes ``IngestError("<cursor>: <what>")``, ``what`` formatted with the
    cursor's line; without ``what`` the exception keeps its message, and a
    byte that is not UTF-8 is located at its line. IngestError passes through.
    """
    at = _Cursor(path)
    try:
        yield at
    except IngestError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        if what is None and isinstance(exc, UnicodeDecodeError):
            at.lineno = len((exc.object[: exc.start].decode() + "x").splitlines())
            exc = "not UTF-8 text"
        raise IngestError(f"{at}: {exc if what is None else what.format(at.line)}") from None


def _text(path) -> str:
    """A file's text: every text format is UTF-8."""
    return Path(path).read_bytes().decode()


def _rows(at, lines, header: str, widths, shape: str):
    """The row splitter: the stripped comma-separated fields of each non-blank
    line, with the cursor ``at`` on it. Line 1 is skipped if its lowercased
    first field matches ``header``; a field count not in ``widths`` is refused
    as ``expected <shape>``, ``shape`` formatted with the line."""
    for at.lineno, line in enumerate(lines, start=1):
        at.line = line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if at.lineno == 1 and re.fullmatch(header, fields[0].lower()):
            continue
        if len(fields) not in widths:
            raise IngestError(f"{at}: expected {shape.format(line)}")
        yield fields


def _iter_triplets_csv(path, lines):
    with _refusing(path, "malformed numeric field in {!r}") as at:
        for f in _rows(at, lines, "t|time", (3, 4), "'t,u,v[,w]', got {!r}"):
            yield _time(f[0]), f[1], f[2], _float(f[3]) if len(f) == 4 else 1.0


# raw_decode skips the whitespace scans and the BOM check of json.loads: a
# stripped line has no surrounding JSON whitespace and a leading BOM does not
# decode, so a value that must end at len(line) accepts what loads accepts
_JSON = json.JSONDecoder()
# the JSON types of an NDJSON record's names and weight (type() is exact, so a
# boolean is neither): str() and float() would take a list, null, "2.5" or true
_NAME_TYPES, _WEIGHT_TYPES = (str, int), (int, float)


def _iter_triplets_ndjson(path, lines):
    # the error rule wraps the loop: a with block per line doubles the parse time
    with _refusing(path, "malformed NDJSON record") as at:
        for at.lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            rec, end = _JSON.raw_decode(line)
            if end != len(line):
                raise ValueError("extra data")
            t, u, v, w = rec["t"], rec["u"], rec["v"], rec.get("w", 1.0)
            if (type(t) is not int or type(u) not in _NAME_TYPES   # int() would take 0.5, "5"
                    or type(v) not in _NAME_TYPES or type(w) not in _WEIGHT_TYPES):
                raise ValueError("field of the wrong JSON type")
            yield _time(t), str(u), str(v), _float(w)


# stripped, non-blank NDJSON lines per json.loads call: only one chunk's
# records are alive at once
_NDJSON_CHUNK = 1024


def _ingest_records(path, records, window) -> tuple:
    """The in-window records (t, u, v, w) as ``(index, times, us, vs, ws,
    dropped)``: ``index`` maps each vertex name, checked when first seen, to
    its index in first-seen order (u before v); the others are arrays, u and
    v as indices. One record at a time: the oracle of ``_ndjson_chunks``."""
    index: dict = {}   # vertex name -> index, in first-seen order
    times, us, vs, ws = [], [], [], []
    dropped = 0
    for t, u, v, w in records:
        if window is not None and not (window[0] <= t < window[0] + window[1]):
            dropped += 1
            continue
        for name in (u, v):
            if name not in index:
                _check_vertex_name(path, name, triplets=True)
                index[name] = len(index)
        times.append(t)
        us.append(index[u])
        vs.append(index[v])
        ws.append(w)
    return (index, np.array(times, dtype=np.int64), np.array(us, dtype=np.int64),
            np.array(vs, dtype=np.int64), np.array(ws, dtype=np.float64), dropped)


def _ndjson_chunks(path, lines, window) -> tuple:
    """``_ingest_records`` of NDJSON ``lines``, parsed by one ``json.loads``
    call per chunk of lines, each chunk checked by C-level passes and kept
    only as int64 and float64 arrays.

    A record passes what the per-line reader checks: a dict whose ``t`` is
    an int64 JSON integer, ``u`` and ``v`` JSON strings or integers and
    ``w`` a finite JSON number. A chunk is parsed as its lines joined by
    ",\n", and must hold one "{" and one record per line, every line but the
    last ending with "}". Then each record is one line: a JSON string holds
    no raw line break, so each joining ",\n" is outside strings, after a "}"
    that closes an object; the lines end N objects and hold N "{", so there
    are N objects, all of them records. Where any check fails, the error
    raised (an ``IngestError`` for a refused vertex name) sends the file to
    the per-line reader.
    """
    index: dict = {}
    parts = []
    dropped = 0
    lines = list(filter(None, map(str.strip, lines)))
    for lo in range(0, len(lines), _NDJSON_CHUNK):
        chunk = lines[lo : lo + _NDJSON_CHUNK]
        text = "[" + ",\n".join(chunk) + "]"
        if text.count("},\n") != len(chunk) - 1 or text.count("{") != len(chunk):
            raise ValueError("a line is not one flat JSON object")
        recs = json.loads(text)
        if len(recs) != len(chunk):
            raise ValueError("the records are not the lines")
        # itemgetter("t") raises TypeError on any JSON value but a dict
        t, u, v = (list(map(operator.itemgetter(key), recs)) for key in "tuv")
        w = list(map(dict.get, recs, itertools.repeat("w"), itertools.repeat(1.0)))
        if set(map(type, t)) != {int} or not set(map(type, w)) <= {int, float}:
            raise TypeError("field of the wrong JSON type")
        try:
            "".join(u), "".join(v)   # a TypeError unless every name is a JSON string
        except TypeError:
            if not set(map(type, u + v)) <= {str, int}:
                raise
            u, v = list(map(str, u)), list(map(str, v))   # 7 names the vertex "7"
        # np.array raises OverflowError where _time and float() do
        t, w = np.array(t, dtype=np.int64), np.array(w, dtype=np.float64)
        if not np.isfinite(w).all():
            raise ValueError("non-finite weight")
        if window is not None:
            keep = (t >= window[0]) & (t < window[0] + window[1])
            t, w = t[keep], w[keep]
            u, v = (list(itertools.compress(x, keep.tolist())) for x in (u, v))
            dropped += len(keep) - len(t)
        try:
            us, vs = (np.fromiter(map(index.__getitem__, x), np.int64, len(x)) for x in (u, v))
        except KeyError:   # new names: checked and indexed in first-seen order, u before v
            for name in dict.fromkeys(itertools.chain.from_iterable(zip(u, v))):
                if name not in index:
                    _check_vertex_name(path, name, triplets=True)
                    index[name] = len(index)
            us, vs = (np.fromiter(map(index.__getitem__, x), np.int64, len(x)) for x in (u, v))
        parts.append((t, us, vs, w))
    times, us, vs, ws = (np.concatenate(arrays) for arrays in zip(*parts))
    return index, times, us, vs, ws, dropped


def ingest_triplets(path, fmt: str = "csv", window=None, pad_vertices: bool = False,
                    active_only: bool = False) -> IngestResult:
    """Read triplet records into a dense stream.

    Vertices are indexed in first-seen order; duplicate triplets sum in
    record order; out-of-window triplets are dropped and counted.
    ``pad_vertices`` grows the vertex set with ``_padded_names`` (required
    before SVD partitioning). By default the columns are the full relation
    space, the N^2 pairs; ``active_only`` keeps only the relations that have
    records in the window, in lexicographic order, so nothing of size N^2 is
    allocated (BFS mode). The aggregate graph alone picks the relations of a
    BFS basis (``cli._load``): a relation whose records cancel in every cell
    is an all-zero column here, which ``restrict_stream`` drops. A grid of
    more than ``MAX_INGEST_CELLS`` cells is refused before it is allocated.
    NDJSON is parsed in chunks (``_ndjson_chunks``); a file the chunks do not
    pass is read again line by line, which accepts it or refuses it at its
    line.
    """
    parse = {"csv": _iter_triplets_csv, "ndjson": _iter_triplets_ndjson}.get(fmt)
    if parse is None:
        raise IngestError(f"unknown triplet format {fmt!r}")
    with _refusing(path):
        text = _text(path)
        if not text or text.isspace():
            raise IngestError(f"{path}: empty input")
        lines = text.splitlines()
        found = None
        if fmt == "ndjson":
            try:
                found = _ndjson_chunks(path, lines, window)
            except (ValueError, TypeError, KeyError, OverflowError, RecursionError):
                pass   # the per-line reader below decides
        index, times, us, vs, ws, dropped = found or _ingest_records(path, parse(path, lines),
                                                                     window)
        if not len(times):
            raise IngestError(f"{path}: no triplets inside the window")
        if window is not None:
            t0, count = window
        else:
            t0 = int(times.min())
            count = int(times.max()) - t0 + 1
        names = _padded_names(index) if pad_vertices else list(index)
        n = len(names)
        rows = times - t0
        cols = us * n + vs
        if active_only:
            # np.unique sorts u * n + v, the lexicographic order of active_space
            keys, cols = np.unique(cols, return_inverse=True)
            _check_cells(count, len(keys))
            space = replace(active_space(n, [divmod(k, n) for k in keys.tolist()]), vertices=names)
        else:
            _check_cells(count, n * n)
            space = full_space(n, names)
        vals = np.zeros((count, space.num_relations))
        np.add.at(vals, (rows, cols), ws)
        return IngestResult(LinkStreamMatrix(space, t0, _Fresh(vals)), dropped)


def _padded_names(names) -> list:
    """``names``, then vertices ``~vK`` up to the next power of two: the
    package's one padding rule, which an SVD or tree-file basis needs."""
    return [*names, *(f"~v{i}" for i in range(len(names), next_power_of_two(len(names))))]


def _padded_stream(stream: LinkStreamMatrix) -> LinkStreamMatrix:
    """A full stream over a vertex count that is not a power of two, laid onto
    the full space of its padded vertex set as ``ingest_triplets`` pads it:
    relation (u, v) in column u * n + v, the other columns zero. Any other
    stream is returned as it is: a full power-of-two one needs no padding, and
    one over active relations (BFS mode) is never padded."""
    space = stream.space
    k = space.num_vertices
    if is_power_of_two(k) or not space.is_full:
        return stream
    for name in space.vertices:
        if name.startswith("~"):
            raise ValueError(_RESERVED.format(name))
    names = _padded_names(space.vertices)
    n = len(names)
    _check_cells(stream.num_times, n * n)
    vals = np.zeros((stream.num_times, n * n))
    vals.reshape(-1, n, n)[:, :k, :k] = stream.values.reshape(-1, k, k)
    return LinkStreamMatrix(full_space(n, names), stream.t0, _Fresh(vals))


def _check_cells(num_times: int, num_relations: int):
    """Refuse a T x M float64 grid over ``MAX_INGEST_CELLS`` cells."""
    cells = num_times * num_relations
    if cells > MAX_INGEST_CELLS:
        raise ValueError(f"a T = {num_times} by M = {num_relations} stream needs"
                         f" {cells * 8} bytes, over the {MAX_INGEST_CELLS * 8}-byte"
                         " ingest limit")


# ---------------------------------------------------------------------------
# relation labels and dense CSV

def _check_vertex_name(path, name: str, triplets: bool = False):
    """Refuse a vertex name that ``u->v`` labels and UTF-8 CSV rows cannot carry.

    In triplet input a leading ``~`` is refused too: it is reserved for the
    ``~vK`` vertices that padding adds.
    """
    if ("->" in name or "," in name or "".join(name.splitlines()) != name
            or any("\ud800" <= c <= "\udfff" for c in name)):
        raise IngestError(f"{path}: vertex name {name!r} holds '->', ',', a line break"
                          " or a lone surrogate")
    if triplets and name.startswith("~"):
        raise IngestError(f"{path}: {_RESERVED.format(name)}")


_RESERVED = "vertex name {!r} starts with '~', which is reserved for padding vertices"


def relation_labels(space: RelationSpace) -> list:
    """Column labels ``u->v`` by vertex name."""
    names = space.vertices
    return [f"{names[u]}->{names[v]}" for u, v in space.relations]


def _parse_labels(path, labels, vertices=None) -> RelationSpace:
    """Relation labels ``u->v`` to their relation space.

    Vertex indices follow ``vertices`` when given (it keeps isolated
    vertices), otherwise the order in which names first appear. A repeated
    vertex name or relation label is refused.
    """
    names = [] if vertices is None else vertices
    bad = [x for x in names if not isinstance(x, str)] if isinstance(names, list) else [names]
    if bad:
        raise IngestError(f"{path}: bad relation label vertex {bad[0]!r}")
    names = list(names)
    index = {nm: i for i, nm in enumerate(names)}
    rels = []
    seen = set()
    for lab in labels:
        pair = lab.split("->") if isinstance(lab, str) else ()
        if len(pair) != 2 or vertices is not None and not (pair[0] in index and pair[1] in index):
            raise IngestError(f"{path}: bad relation label {lab!r}")
        for nm in pair:
            if nm not in index:
                index[nm] = len(names)
                names.append(nm)
        if lab in seen:
            raise IngestError(f"{path}: duplicate relation label {lab!r}")
        seen.add(lab)
        rels.append((index[pair[0]], index[pair[1]]))
    for nm in names:
        _check_vertex_name(path, nm)
    return RelationSpace(len(names), tuple(rels), names)


def write_dense_csv(path, stream: LinkStreamMatrix):
    write_grid_csv(path, stream.values, "t", stream.times, relation_labels(stream.space))


def write_stream(outdir, stream: LinkStreamMatrix, stem: str = "stream"):
    """The two exports of a stream: ``<stem>.raw`` and ``<stem>.csv`` in ``outdir``."""
    write_raw(Path(outdir) / f"{stem}.raw", stream)
    write_dense_csv(Path(outdir) / f"{stem}.csv", stream)


def read_dense_csv(path) -> IngestResult:
    with _refusing(path):
        lines = _text(path).splitlines()
        if not lines:
            raise IngestError(f"{path}: empty input")
        header = lines[0].split(",")
        if header[0] != "t":
            raise IngestError(f"{path}: dense CSV must start with a 't' header column")
        space = _parse_labels(path, header[1:])
        times, rows = [], []
        with _refusing(path, "malformed numeric field") as at:
            for f in _rows(at, lines, "t", (len(header),), f"{len(header)} fields"):
                times.append(_time(f[0]))
                rows.append([_float(x) for x in f[1:]])
        if not rows:
            raise IngestError(f"{path}: no data rows")
        times = np.array(times)
        if not np.array_equal(times, np.arange(times[0], times[0] + len(times))):
            raise IngestError(f"{path}: dense CSV times must be contiguous")
        return IngestResult(LinkStreamMatrix(space, int(times[0]), _Fresh(np.array(rows))))


# ---------------------------------------------------------------------------
# raw binary

def write_raw(path, stream: LinkStreamMatrix):
    """JSON header line with T, M, t0, labels and vertex names, then
    little-endian float64 values in row-major order."""
    header = {
        "T": stream.num_times,
        "M": stream.num_relations,
        "t0": stream.t0,
        "labels": relation_labels(stream.space),
        "vertices": list(stream.space.vertices),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, separators=(",", ":")) + "\n").encode())
        fh.write(np.asarray(stream.values, dtype="<f8").tobytes(order="C"))


def read_raw(path) -> IngestResult:
    with _refusing(path), open(path, "rb") as fh:
        with _refusing(path, "malformed raw header"):
            header = json.loads(fh.readline())
            t, m, t0 = _integers([header[k] for k in ("T", "M", "t0")])
            labels = list(header["labels"])
        # a file's payload size is known before any grid is allocated; a pipe
        # is not seekable and is read whole
        data = None if fh.seekable() else fh.read()
        payload = os.fstat(fh.fileno()).st_size - fh.tell() if data is None else len(data)
        if len(labels) != m:
            raise IngestError(f"{path}: header has M = {m} but {len(labels)} labels")
        if t < 1:
            raise IngestError(f"{path}: header has T = {t}, the time window is empty")
        if not _in_int64(t0, t):
            raise IngestError(f"{path}: header window {t0}:{t} reaches outside the int64"
                              " time range")
        expected = t * m * 8
        if payload == expected and data is None:   # the grid the stream adopts
            vals = np.empty((t, m), dtype="<f8")
            payload = fh.readinto(vals)
        elif payload == expected:   # a view of the bytes read, which the stream copies
            vals = np.frombuffer(data, dtype="<f8").reshape(t, m)
        if payload != expected:
            raise IngestError(f"{path}: payload has {payload} bytes, expected {expected}")
        if not np.all(np.isfinite(vals)):
            raise IngestError(f"{path}: payload holds non-finite values")
        space = _parse_labels(path, labels, header.get("vertices"))
        return IngestResult(LinkStreamMatrix(space, t0, _Fresh(vals)))


def read_stream(path, fmt: str, window=None, pad_vertices: bool = False,
                active_only: bool = False) -> IngestResult:
    """Any input format: dense and raw streams, otherwise triplets.
    ``pad_vertices`` applies to every format (raw and dense streams through
    ``_padded_stream``); ``active_only`` to triplets."""
    if fmt not in ("dense", "raw"):
        return ingest_triplets(path, fmt, window=window, pad_vertices=pad_vertices,
                               active_only=active_only)
    if window is not None:
        raise IngestError(f"{path}: a time window applies to csv and ndjson input only")
    result = read_dense_csv(path) if fmt == "dense" else read_raw(path)
    if not pad_vertices:
        return result
    with _refusing(path):
        return IngestResult(_padded_stream(result.stream))


# ---------------------------------------------------------------------------
# partition trees

def write_tree_json(path, tree: PartitionTree, space: RelationSpace):
    """The labels, the leaf permutation and, as a check on reading, the
    nested [left, right] label arrays: the balanced halving of the leaves."""
    labels = relation_labels(space)
    leaves = [labels[k] for k in tree.position_to_relation.tolist()]

    def nested(lo: int, hi: int):
        if hi - lo == 1:
            return leaves[lo]
        mid = (lo + hi) // 2
        return [nested(lo, mid), nested(mid, hi)]

    doc = {
        "num_relations": tree.num_relations,
        "labels": labels,
        "leaf_order": tree.leaf_order.tolist(),
        "nested": nested(0, tree.num_relations),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_tree_json(path, space: RelationSpace = None) -> PartitionTree:
    """Load and validate a tree; cross-checks the nested arrays against the
    leaf order and, when a space is given, the size and the labels against
    ``relation_labels(space)``."""
    with _refusing(path, "malformed tree document"):
        doc = json.loads(_text(path))
        (m,) = _integers([doc["num_relations"]])
        labels = list(doc["labels"])
        index = {lab: k for k, lab in enumerate(labels)}
        leaf_order = np.array(_integers(doc["leaf_order"]), dtype=np.int64)
        nested = doc["nested"]

    with _refusing(path):
        if space is not None and space.num_relations != m:
            raise ValueError(f"tree has {m} relations, space has {space.num_relations}")
        if len(labels) != m:
            raise ValueError("label list length does not match num_relations")
        if space is not None:
            for k, (lab, want) in enumerate(zip(labels, relation_labels(space))):
                if lab != want:
                    raise ValueError(f"tree column {k} is labelled {lab!r},"
                                     f" the stream's is {want!r}")
        tree = PartitionTree(leaf_order)
        # (relation index, depth) of each leaf, left to right; an explicit stack,
        # so no nesting that json.loads accepts can exhaust the recursion limit
        leaves = []
        stack = [(nested, 0)]
        while stack:
            node, depth = stack.pop()
            if isinstance(node, list):
                if len(node) != 2:
                    raise ValueError("nested nodes must have two children")
                stack += [(node[1], depth + 1), (node[0], depth + 1)]
                continue
            if isinstance(node, dict) or node not in index:
                raise ValueError(f"unknown relation label {node!r} in tree")
            leaves.append((index[node], depth))
        # the shape is checked after the walk, so a bad node or label anywhere is
        # reported first; the balanced halving puts every leaf at depth floor(log2 m)
        bottom = m.bit_length() - 1
        for _, depth in leaves:
            if depth > bottom:
                raise ValueError("leaf node must be a single relation")
            if depth < bottom:
                raise ValueError("internal node must have exactly two children")
        order = [k for k, _ in leaves]
        if len(set(order)) != m:
            raise ValueError("nested tree does not cover all relations")
        if not np.array_equal(order, tree.position_to_relation):
            raise ValueError("nested arrays disagree with the stored leaf order")
    return tree


# ---------------------------------------------------------------------------
# coefficients and filters

def coefficient_labels(basis: GraphBasis) -> list:
    return [f"{k}({l})[{i}]" for k, l, i in basis.columns()]


def write_coefficients_csv(path, coeffs: GraphCoefficients):
    keys = (f"{k},{l},{i}" for k, l, i in coeffs.basis.columns())
    write_grid_csv(path, coeffs.values[:, None], "kind,level,index", keys, ["value"])


def read_structural_response_csv(path, basis: GraphBasis) -> np.ndarray:
    """Structural filter file (kind,level,index,value) to a response vector.

    Unlisted coefficients default to zero; a repeated coefficient is refused.
    """
    response = np.zeros(basis.num_relations)
    seen = np.zeros(basis.num_relations, dtype=bool)
    with _refusing(path):
        lines = _text(path).splitlines()
    with _refusing(path, "malformed numeric field") as at:
        for kind, level, idx, value in _rows(at, lines, "kind.*", (4,),
                                             "'kind,level,index,value'"):
            level, idx, value = int(_plain(level)), int(_plain(idx)), _float(value)
            if kind == "s":
                if level != basis.level or not (0 <= idx < basis.num_scaling):
                    raise IngestError(f"{at}: scaling index out of range")
                col = idx
            elif kind == "w":
                if not (1 <= level <= basis.level):
                    raise IngestError(f"{at}: wavelet level {level} out of range 1..{basis.level}")
                sl = basis.wavelet_slice(level)
                if not (0 <= idx < sl.stop - sl.start):
                    raise IngestError(f"{at}: wavelet index out of range")
                col = sl.start + idx
            else:
                raise IngestError(f"{at}: kind must be 's' or 'w'")
            if seen[col]:
                raise IngestError(f"{at}: duplicate coefficient {kind},{level},{idx}")
            response[col] = value
            seen[col] = True
    return response


def structural_response(spec: str, basis: GraphBasis) -> np.ndarray:
    if spec == "coarse":
        return coarse_pass_response(basis)
    if spec == "detail":
        return detail_pass_response(basis)
    if spec == "all":
        return np.ones(basis.num_relations)
    return read_structural_response_csv(spec, basis)


def read_frequency_filter_csv(path, length: int) -> FrequencyFilter:
    response = np.zeros(length, dtype=np.complex128)
    seen = np.zeros(length, dtype=bool)
    with _refusing(path):
        lines = _text(path).splitlines()
    with _refusing(path, "malformed numeric field") as at:
        for u, real, imag in _rows(at, lines, "freq.*", (3,), "'freq_index,re,im'"):
            u, real, imag = int(_plain(u)), _float(real), _float(imag)
            if not (0 <= u < length):
                raise IngestError(f"{at}: frequency index {u} out of range")
            if seen[u]:
                raise IngestError(f"{at}: duplicate frequency index {u}")
            response[u] = real + 1j * imag
            seen[u] = True
    if not seen.any():
        raise IngestError(f"{path}: empty frequency filter")
    return FrequencyFilter(response)


def frequency_filter(spec: str, length: int) -> FrequencyFilter:
    """Named presets ('lowpass:<cutoff>', 'agg:<k>', 'diff', 'all') or a CSV path."""
    if spec == "diff":
        return diff_filter(length)
    if spec == "all":
        return FrequencyFilter(np.ones(length))
    if spec.startswith(("agg:", "lowpass:")):
        name, arg = spec.split(":", 1)
        number, shape, make = ((int, "agg:<k>", aggregation_filter) if name == "agg"
                               else (float, "lowpass:<cutoff>", lowpass_filter))
        try:
            arg = number(_plain(arg))
        except ValueError:
            raise ValueError(f"freq {name} must look like {shape!r}, got {spec!r}") from None
        return make(arg, length)
    return read_frequency_filter_csv(spec, length)


# ---------------------------------------------------------------------------
# coefficient matrices and the plot bundle

# cells per write_grid_csv block: the grids repeat values heavily within a
# block, and a block's tokens stay small (whole-grid dedup doubles peak RSS)
_BLOCK_CELLS = 4096
# a block with fewer distinct values in the kernel's range is formatted by
# ``%``: below this the fixed cost of the kernel's array calls outweighs what
# it saves per value
_KERNEL_MIN_VALUES = 512


def _percent_tokens(floats) -> list:
    """``",%.17g" % x`` for each float of a sequence: the oracle of ``_g17``."""
    return (("\n,%.17g" * len(floats)) % tuple(floats)).split("\n")[1:]


@functools.cache
def _g17_tables():
    """The constant tables of ``_g17``.

    Per biased binary exponent of 1e-10 <= |x| < 1e15 (989 .. 1072, where
    x = f * 2^b, 2^52 <= f < 2^53): the significand at which x reaches the
    power of ten inside its binade; per (binade, reached) the decimal
    exponent X, the 32-bit limbs of 5^p, p = 16 - X, and the shift k with
    x * 10^p = f * 5^p / 2^k (5^p < 2^63, 0 < k < 64). Then the ASCII digits
    of 0000 .. 9999 as uint32 words in uint64, their trailing zeros, and per
    (X + 10) * 17 + significant digits - 1 three masks over a 32-byte row:
    the bytes kept from A (digit j at 7 + j), those kept from B (digit j at
    8 + j, the sign at 1) and those set: ",", the "0.0.." of -4 <= X < 0,
    the point, "e-XX" at 25 and the newline at 29.
    """
    reach, xs, m0, m1, shift = [], [], [], [], []
    for e in range(989, 1073):
        b = e - 1075
        x0 = len(str(2 ** (e - 1023))) - 1 if e >= 1023 else -len(str(2 ** (1023 - e)))
        y = x0 + 1
        reach.append(min(10**y << -b if y >= 0 else -(-(1 << -b) // 10**-y), 1 << 53))
        for x in (x0, y):
            xs.append(x)
            m0.append(5 ** (16 - x) & 0xFFFFFFFF)
            m1.append(5 ** (16 - x) >> 32)
            shift.append(x - 16 - b)
    ascii4 = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    zeros4 = (ascii4[:, ::-1] == 48).cumprod(axis=1).sum(axis=1)
    from_a, from_b, put = np.zeros((3, 25, 17, 32), dtype=np.uint8)
    for x in range(-10, 15):
        for n in range(1, 18):
            keep_a, keep_b, set_ = from_a[x + 10, n - 1], from_b[x + 10, n - 1], put[x + 10, n - 1]
            keep_b[1], set_[0], set_[29] = 255, ord(","), ord("\n")
            if -4 <= x < 0:
                prefix = b"0." + b"0" * (-x - 1)
                set_[7 - len(prefix) : 7] = list(prefix)
                keep_a[7 : 7 + n] = 255
                continue
            point = max(x, 0)   # the digit the point follows; integer digits all stay
            keep_a[7 : 8 + point] = 255
            if n > point + 1:
                set_[8 + point] = ord(".")
                keep_b[9 + point : 8 + n] = 255
            if x < -4:
                set_[25:29] = list(b"e-%02d" % -x)
    u64 = np.uint64
    return (np.array(reach, u64), np.array(xs), np.array(m0, u64), np.array(m1, u64),
            np.array(shift, u64), ascii4.view("<u4").ravel().astype(u64), zeros4,
            *(m.reshape(25 * 17, 32).view(u64).T.copy() for m in (from_a, from_b, put)))


def _g17(values: np.ndarray) -> str:
    """``",%.17g\n" % x`` for each x of ``values``, 1e-10 <= |x| < 1e15, as
    one string, computed on the array.

    The 17 digits are D = round-half-even(f * 5^p / 2^k) (see
    ``_g17_tables``), the product exact in 128 bits built from 32-bit limbs,
    so 10^16 <= D < 10^17: no double of the range lies within half a unit in
    the 17th digit below a power of ten, so none rounds up to 10^17. Each row
    is then laid out from its (X, significant digits) masks: fixed notation
    for -4 <= X < 17, exponent notation below, trailing zeros dropped, and
    the unset bytes (0) removed.
    """
    reach, xs, m0s, m1s, shifts, ascii4, zeros4, from_a, from_b, put = _g17_tables()
    bits = values.view(np.uint64)
    f = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    i = (bits >> 52 & 0x7FF).astype(np.intp) - 989
    i = 2 * i + (f >= reach[i])
    x, m0, m1, k = xs[i], m0s[i], m1s[i], shifts[i]
    f0, f1 = f & 0xFFFFFFFF, f >> 32
    low = f0 * m0
    mid = f1 * m0 + f0 * m1
    lo = low + (mid << 32)
    hi = f1 * m1 + (mid >> 32) + (lo < low)
    # floor(hi:lo / 2^k), rounded half to even on the remainder lo << (64 - k)
    q = hi << 64 - k | lo >> k
    q += (lo << 64 - k) + (q & 1) > 2**63
    d = q.view(np.int64)
    hi = d // 10**8
    lo = d - hi * 10**8
    first = hi // 10**8
    chunks = []   # digits 1-4, 5-8, 9-12, 13-16
    for part in (hi - first * 10**8, lo):
        upper = part // 10**4
        chunks += [upper, part - upper * 10**4]
    # the row's four words, word-major: A, then B = A one byte later
    a = np.zeros((4, len(d)), dtype=np.uint64)
    a[0] = (first + 48).astype(np.uint64) << 56
    a[1] = ascii4[chunks[0]] | ascii4[chunks[1]] << 32
    a[2] = ascii4[chunks[2]] | ascii4[chunks[3]] << 32
    b = a << 8
    b[1:] |= a[:-1] >> 56
    b[0] |= (bits >> 63) * np.uint64(ord("-") << 8)
    # the trailing zeros of D: a chunk counts only when all later ones are zero
    zeros = zeros4[chunks[3]]
    for j in (1, 2, 3):
        zeros += (zeros == 4 * j) * zeros4[chunks[3 - j]]
    key = (x + 10) * 17 + 16 - zeros
    a &= from_a.take(key, axis=1)
    b &= from_b.take(key, axis=1)
    a |= b
    a |= put.take(key, axis=1)
    out = np.ascontiguousarray(a.T).view(np.uint8).ravel()
    return out[out != 0].tobytes().decode("ascii")


def _cell_tokens(floats: np.ndarray, cell_float: np.ndarray) -> tuple:
    """The ``",%.17g" % x`` tokens of the floats ``floats`` as a list, and
    ``cell_float``, each cell's index into ``floats``, mapped to the index of
    its token: ``_g17`` formats the floats in its range and ``%`` the others
    (zeros, subnormals, huge values), all of them where the range holds
    fewer than ``_KERNEL_MIN_VALUES``."""
    if len(floats) >= _KERNEL_MIN_VALUES:
        fast = (np.abs(floats) >= 1e-10) & (np.abs(floats) < 1e15)
        if fast.sum() >= _KERNEL_MIN_VALUES:
            tokens = _g17(floats[fast]).split("\n")[:-1] + _percent_tokens(floats[~fast].tolist())
            at = np.where(fast, np.cumsum(fast), fast.sum() + np.cumsum(~fast)) - 1
            return tokens, at[cell_float]
    return _percent_tokens(floats.tolist()), cell_float


def write_grid_csv(path, values: np.ndarray, row_name: str, row_labels, col_labels):
    """The one float-to-text writer: a header, then one row per label.

    The table is ``values`` flattened to ``(-1, width)`` in C order, ``width``
    being its last axis, whatever the memory layout: a T x M x 2 view of a
    complex grid gives one (re, im) row per cell. ``row_name`` and each row
    label (written as ``str(label)``) may hold several comma-separated cells.
    Floats are written as ``%.17g``, which round-trips exactly. The grid
    streams to the file in blocks, each a contiguous copy of whole slices of
    its first axis (about ``_BLOCK_CELLS`` cells, at least one slice), so no
    whole-grid copy is made; each block formats every distinct float bit
    pattern once, so ``-0.0`` stays apart from ``0.0``, and its text is
    assembled by indexing those tokens, with no per-row formatting and no
    whole-file string.
    """
    values = np.asarray(values, dtype=np.float64)
    width = values.shape[-1]
    slices_per_block = max(1, _BLOCK_CELLS // max(values[:1].size, 1))
    labels = iter(row_labels)
    with open(path, "w") as fh:
        fh.write(row_name + "," + ",".join(col_labels) + "\n")
        for lo in range(0, len(values), slices_per_block):
            block = np.ascontiguousarray(values[lo : lo + slices_per_block]).reshape(-1, width)
            rows = len(block)
            bits, cell_token = np.unique(block.view(np.int64).ravel(), return_inverse=True)
            # tokens: the row labels, then ",<cell>" per distinct value, then "\n"
            tokens = np.empty(rows + len(bits) + 1, dtype=object)
            tokens[:rows] = [str(lab) for lab in itertools.islice(labels, rows)]
            cells, cell_token = _cell_tokens(bits.view(np.float64), cell_token)
            tokens[rows:-1] = cells
            tokens[-1] = "\n"
            layout = np.empty((rows, width + 2), dtype=np.intp)
            layout[:, 0] = np.arange(rows)
            layout[:, 1:-1] = cell_token.reshape(rows, width) + rows
            layout[:, -1] = len(tokens) - 1
            fh.write("".join(tokens[layout.ravel()].tolist()))


def write_coefficient_matrix(outdir, coeffs):
    """|C| grid plus the companion long-format (re, im) file."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t, m = coeffs.values.shape
    write_grid_csv(outdir / "C_abs.csv", np.abs(coeffs.values), "freq", range(t),
                   coefficient_labels(coeffs.basis))
    freqs = [f"{u}," for u in range(t)]
    cols = [str(k) for k in range(m)]
    write_grid_csv(outdir / "C_rect.csv", coeffs.values[..., None].view(np.float64),
                   "freq,column", (u + k for u in freqs for k in cols), ["re", "im"])


def write_plot_bundle(outdir, stream: LinkStreamMatrix, basis: GraphBasis):
    """Grids for L, X, |F| and |C|, the decomposition's three panels, from one
    analysis of L; returns C, built from that X."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    labels = relation_labels(stream.space)
    x = time_structure(stream, basis)
    coeffs = CoefficientMatrix(_Fresh(FourierBasis(stream.num_times).forward(x)), basis,
                               stream.space, stream.t0)
    write_grid_csv(outdir / "L.csv", stream.values, "t", stream.times, labels)
    write_grid_csv(outdir / "X.csv", x, "t", stream.times, coefficient_labels(basis))
    del x   # written: the export holds one grid fewer while |F| is made
    write_grid_csv(outdir / "F_abs.csv", np.abs(freq_relational(stream)), "freq",
                   range(stream.num_times), labels)
    write_coefficient_matrix(outdir, coeffs)
    return coeffs
