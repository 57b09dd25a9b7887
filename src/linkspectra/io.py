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

import itertools
import json
import math
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
    active_space,
    full_space,
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


def _plain(text):
    """``text``, refusing a string that holds ``_`` or a non-ASCII character
    with a ValueError: ``int()`` and ``float()`` would read ``1_0`` as 10 and
    a fullwidth digit three as 3. Every number parsed from text passes here;
    a number that is not a string (an NDJSON field) passes unchanged."""
    if type(text) is str and ("_" in text or not text.isascii()):
        raise ValueError(f"number {text!r} holds '_' or a non-ASCII character")
    return text


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


def ingest_triplets(path, fmt: str = "csv", window=None, pad_vertices: bool = False,
                    active_only: bool = False) -> IngestResult:
    """Read triplet records into a dense stream.

    Vertices are indexed in first-seen order; duplicate triplets sum in
    record order; out-of-window triplets are dropped and counted.
    ``pad_vertices`` grows the vertex set to the next power of two (required
    before SVD partitioning). By default the columns are the full relation
    space; ``active_only`` keeps only the relations that have records in the
    window, in lexicographic order and padded to a power of two, so nothing
    of size N^2 is allocated (BFS mode). The aggregate graph alone picks the
    relations of a BFS basis (``cli._load``): a relation whose records cancel
    in every cell is an all-zero column here, which ``restrict_stream`` drops.
    A grid of more than ``MAX_INGEST_CELLS`` cells is refused before it is
    allocated.
    """
    parse = {"csv": _iter_triplets_csv, "ndjson": _iter_triplets_ndjson}.get(fmt)
    if parse is None:
        raise IngestError(f"unknown triplet format {fmt!r}")
    with _refusing(path):
        text = _text(path)
        if not text.strip():
            raise IngestError(f"{path}: empty input")
        index: dict = {}   # vertex name -> index, in first-seen order
        times, us, vs, ws = [], [], [], []
        dropped = 0
        for t, u, v, w in parse(path, text.splitlines()):
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
        if not times:
            raise IngestError(f"{path}: no triplets inside the window")
        if window is not None:
            t0, count = window
        else:
            t0, count = min(times), max(times) - min(times) + 1
        n = next_power_of_two(len(index)) if pad_vertices else len(index)
        names = [*index, *(f"~v{i}" for i in range(len(index), n))]
        rows = np.array(times, dtype=np.int64) - t0
        cols = np.array(us, dtype=np.int64) * n + np.array(vs, dtype=np.int64)
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


def _check_cells(num_times: int, num_relations: int):
    """Refuse a T x next_pow2(M) float64 grid over ``MAX_INGEST_CELLS`` cells."""
    m = next_power_of_two(num_relations)
    cells = num_times * m
    if cells > MAX_INGEST_CELLS:
        raise ValueError(f"a T = {num_times} by M = {m} stream needs"
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
        raise IngestError(f"{path}: vertex name {name!r} starts with '~',"
                          " which is reserved for padding vertices")


def relation_labels(space: RelationSpace) -> list:
    """Column labels ``u->v`` by vertex name; inert pads are ``~padK``."""
    names = space.vertices
    pads = itertools.count()
    return [f"~pad{next(pads)}" if rel is None else f"{names[rel[0]]}->{names[rel[1]]}"
            for rel in space.relations]


def _parse_labels(path, labels, vertices=None) -> RelationSpace:
    """Relation labels ``u->v`` (pads ``~padK``) to their relation space.

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
        if isinstance(lab, str) and lab.startswith("~pad"):
            rels.append(None)
            continue
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
    """Any input format: dense and raw streams, otherwise triplets."""
    if fmt not in ("dense", "raw"):
        return ingest_triplets(path, fmt, window=window, pad_vertices=pad_vertices,
                               active_only=active_only)
    if window is not None:
        raise IngestError(f"{path}: a time window applies to csv and ndjson input only")
    return read_dense_csv(path) if fmt == "dense" else read_raw(path)


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

    Unlisted coefficients default to zero.
    """
    response = np.zeros(basis.num_relations)
    with _refusing(path):
        lines = _text(path).splitlines()
    with _refusing(path, "malformed numeric field") as at:
        for kind, level, idx, value in _rows(at, lines, "kind.*", (4,),
                                             "'kind,level,index,value'"):
            level, idx, value = int(_plain(level)), int(_plain(idx)), _float(value)
            if kind == "s":
                if level != basis.level or not (0 <= idx < basis.num_scaling):
                    raise IngestError(f"{at}: scaling index out of range")
                response[idx] = value
            elif kind == "w":
                if not (1 <= level <= basis.level):
                    raise IngestError(f"{at}: wavelet level {level} out of range 1..{basis.level}")
                sl = basis.wavelet_slice(level)
                if not (0 <= idx < sl.stop - sl.start):
                    raise IngestError(f"{at}: wavelet index out of range")
                response[sl.start + idx] = value
            else:
                raise IngestError(f"{at}: kind must be 's' or 'w'")
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
            floats = bits.view(np.float64).tolist()
            # tokens: the row labels, then ",<cell>" per distinct value, then "\n"
            tokens = np.empty(rows + len(floats) + 1, dtype=object)
            tokens[:rows] = [str(lab) for lab in itertools.islice(labels, rows)]
            tokens[rows:-1] = (("\n,%.17g" * len(floats)) % tuple(floats)).split("\n")[1:]
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
    write_grid_csv(outdir / "F_abs.csv", np.abs(freq_relational(stream)), "freq",
                   range(stream.num_times), labels)
    write_coefficient_matrix(outdir, coeffs)
    return coeffs
