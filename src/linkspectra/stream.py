"""Core data model: relation spaces, graph slices, and link-stream matrices.

A link stream over a bounded integer window [t0, t0+T-1] is stored as a dense
T x M matrix whose row t is the weight function of the graph observed at time
t0+t and whose column k is the time series of relation e_k. The relation space
holds distinct directed vertex pairs (self-loops included) in a fixed order:
every pair, or the active ones. A graph basis needs a power-of-two relation
count; only the vertex set is padded for it (``io._padded_names``).

Containers (``LinkStreamMatrix`` here, ``CoefficientMatrix`` in ``spectra``)
hold read-only arrays. Their constructors copy what a caller passes in, so
the caller's array stays the caller's. A grid the package has just computed
and hands over, wrapped in ``_Fresh``, is adopted instead: marked read-only
in place, not copied.

This module also holds the worker count, ``LINKSPECTRA_THREADS``,
``_in_parts``, which splits a kernel's grid over that many threads, and
``_plain``, the rule every number read from text passes (the worker count
and, through ``io``, every text format).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark an array the package has just computed read-only, in place."""
    return _write_flag(a, False)


def _write_flag(a: np.ndarray, write: bool) -> np.ndarray:
    """Set the write flag of ``a`` in place, the one place that does: off when
    a container adopts a grid, on when the package takes back the grid of a
    container it has just made, holds alone and drops (``spectra``)."""
    a.setflags(write=write)
    return a


class _Fresh:
    """A grid the package has just made, owns alone and hands to a container,
    which then adopts it rather than copying it (see ``_frozen``)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _frozen(x, dtype=None) -> np.ndarray:
    """A container's read-only copy of caller input, contiguous and in the
    input's memory order: each kernel's grid stays in the layout it was made
    in (a T x M grid from the filter bank is column-major), so no transposing
    copy runs between the FFT along time and the filter bank along relations.

    A ``_Fresh`` grid of the right dtype that owns its memory is adopted: marked
    read-only in place and returned. Any other ``_Fresh`` grid is copied."""
    if isinstance(x, _Fresh):
        a = x.array
        if (dtype is None or a.dtype == dtype) and a.base is None and a.flags.writeable:
            return _readonly(a)
        x = a
    return _readonly(np.array(x, dtype=dtype, order="K"))


def _plain(text):
    """``text``, refusing a string that holds ``_`` or a non-ASCII character
    with a ValueError: ``int()`` and ``float()`` would read ``1_0`` as 10 and
    a fullwidth digit three as 3. Every number parsed from text passes here;
    a number that is not a string (an NDJSON field) passes unchanged."""
    if type(text) is str and ("_" in text or not text.isascii()):
        raise ValueError(f"number {text!r} holds '_' or a non-ASCII character")
    return text


def _max_threads() -> int:
    """The worker cap for the Monte-Carlo pool and the spectral kernels:
    LINKSPECTRA_THREADS, else min(4, the CPUs this process may run on)."""
    raw = os.environ.get("LINKSPECTRA_THREADS", "")
    if raw.strip():
        try:
            value = int(_plain(raw))
        except ValueError:
            raise ValueError(f"LINKSPECTRA_THREADS={raw!r} is not an integer") from None
        if value < 1:
            raise ValueError("LINKSPECTRA_THREADS must be >= 1")
        return value
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    return min(4, usable or 1)


#: A grid with fewer cells runs on the calling thread alone. Each split call
#: starts and joins its threads (about 130 us each, bare), and on a 2-vCPU
#: Xeon VM (Python 3.11, numpy 2.4) two workers made decompose and
#: reconstruct slower at 2^16 and 2^17 cells and faster from 2^18 on
#: (T = 128: decompose 7.6 -> 4.9 ms at 2^18 cells, 33.6 -> 19.1 ms at 2^20).
_SPLIT_MIN_CELLS = 1 << 18
#: Bytes of the scratch blocks that one kernel call allocates over all its
#: workers: each of its p workers holds up to two blocks of
#: ``_block_bytes(p)``, so more workers make smaller blocks, not more scratch
#: (save that a block holds at least one filter-bank subtree or one column).
#: Two workers get blocks of 512 KiB: with 256 KiB, their per-block numpy
#: calls contend for the interpreter lock (2-vCPU VM, T = 128, M = 2^14,
#: median of 25 calls: synthesis 15.3 ms at 256 KiB, 11.0 ms at 512 KiB).
_SCRATCH_BYTES = 1 << 21


def _block_bytes(parts: int) -> int:
    """Bytes of each scratch block of one of ``parts`` workers. A lone worker
    gets the blocks of one of two: it runs every grid below the split floor,
    and alone 1 MiB blocks were no faster than 512 KiB (2-vCPU VM, T = 128,
    M = 2^14: analysis, synthesis, inverse and top-k within the run-to-run
    spread)."""
    return _SCRATCH_BYTES // (2 * max(2, parts))


def _in_parts(work, n: int, grid: np.ndarray, scratch=None) -> list:
    """Run ``work(part)`` for contiguous slices ``part`` that split
    ``range(n)``, the units of work on ``grid``, over up to ``_max_threads()``
    workers, and return the results in part order.

    The first part runs on the caller and the others on threads, all joined
    before this returns or raises; a worker's exception is raised here. When
    there is one worker, or ``grid`` is not 2-D or has fewer than
    ``_SPLIT_MIN_CELLS`` cells, the one part ``slice(0, n)`` runs on the
    caller. Workers write into arrays the caller allocated: an array a thread
    allocates comes from that thread's malloc arena, which keeps freed memory
    for its own later use and so raises the peak resident size. So a worker's
    own scratch comes from ``scratch(nbytes)``, when given, called on the
    caller once per part before any part runs with the bytes of each of the
    part's blocks, ``_block_bytes(parts)``: each part then runs as
    ``work(part, its scratch)``."""
    parts = min(_max_threads(), n)
    if parts <= 1 or grid.ndim != 2 or grid.size < _SPLIT_MIN_CELLS:
        slices = [slice(0, n)]
    else:
        bounds = [n * i // parts for i in range(parts + 1)]
        slices = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    nbytes = _block_bytes(len(slices))
    args = [(part,) if scratch is None else (part, scratch(nbytes)) for part in slices]
    if len(slices) == 1:
        return [work(*args[0])]
    results = [None] * len(slices)
    errors = []

    def run(i):
        try:
            results[i] = work(*args[i])
        except BaseException as exc:  # noqa: BLE001 - raised again on the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(slices))]
    for th in threads:
        th.start()
    try:
        results[0] = work(*args[0])
    finally:
        for th in threads:
            th.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True)
class RelationSpace:
    """Ordered space of distinct directed relations (u, v), of any count.

    Invariants: relation indices form a bijection onto 0..M-1, and
    ``vertices`` holds one distinct string per vertex (default "0".."N-1").
    """

    num_vertices: int
    relations: tuple
    vertices: tuple = None

    def __post_init__(self):
        names = tuple(map(str, range(self.num_vertices) if self.vertices is None
                          else self.vertices))
        if len(names) != self.num_vertices:
            raise ValueError(f"{len(names)} vertex names for {self.num_vertices} vertices")
        index = {nm: i for i, nm in enumerate(names)}
        if len(index) != len(names):
            dup = next(nm for i, nm in enumerate(names) if index[nm] != i)
            raise ValueError(f"duplicate vertex {dup!r}")
        object.__setattr__(self, "vertices", names)
        seen = set()
        for rel in self.relations:
            u, v = rel
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"relation {rel} out of vertex range")
            if rel in seen:
                raise ValueError(f"duplicate relation {rel}")
            seen.add(rel)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    @cached_property
    def _index(self) -> dict:
        return {rel: k for k, rel in enumerate(self.relations)}

    def index_of(self, u: int, v: int) -> int:
        try:
            return self._index[(u, v)]
        except KeyError:
            raise KeyError(f"relation ({u}, {v}) not in space") from None

    @cached_property
    def is_full(self) -> bool:
        """True when the relations are exactly V x V, lexicographic."""
        n = self.num_vertices
        if self.num_relations != n * n:
            return False
        expected = [(u, v) for u in range(n) for v in range(n)]
        return list(self.relations) == expected


def full_space(num_vertices: int, vertices=None) -> RelationSpace:
    """All num_vertices^2 directed pairs, lexicographic order."""
    rels = [(u, v) for u in range(num_vertices) for v in range(num_vertices)]
    return RelationSpace(num_vertices, tuple(rels), vertices)


def active_space(num_vertices: int, pairs) -> RelationSpace:
    """Restricted relation space (BFS mode): the distinct pairs, sorted
    lexicographically. An empty pair list gives an empty space, which
    ``partition_bfs`` refuses."""
    rels = sorted(set((int(u), int(v)) for u, v in pairs))
    return RelationSpace(num_vertices, tuple(rels))


def _as_weights(space: RelationSpace, weights) -> np.ndarray:
    w = _frozen(weights, np.float64)
    if w.shape != (space.num_relations,):
        raise ValueError(f"weights shape {w.shape} != ({space.num_relations},)")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


@dataclass(frozen=True)
class GraphSlice:
    """A single graph as a weight function over a relation space."""

    space: RelationSpace
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_weights(self.space, self.weights))

    @cached_property
    def edge_set(self) -> frozenset:
        return frozenset(int(k) for k in np.nonzero(self.weights)[0])

    @property
    def edge_count(self) -> int:
        return len(self.edge_set)

    @cached_property
    def is_unweighted(self) -> bool:
        return bool(np.all((self.weights == 0.0) | (self.weights == 1.0)))

    def adjacency(self) -> np.ndarray:
        """Dense num_vertices x num_vertices adjacency view (full spaces only)."""
        if not self.space.is_full:
            raise ValueError("adjacency requires a full relation space")
        n = self.space.num_vertices
        return self.weights.reshape(n, n)


def slice_from_edges(space: RelationSpace, edges) -> GraphSlice:
    w = np.zeros(space.num_relations)
    for e in edges:
        k = e if isinstance(e, (int, np.integer)) else space.index_of(*e)
        w[k] = 1.0
    return GraphSlice(space, w)


def _check_pair(g1: GraphSlice, g2: GraphSlice):
    if g1.space is not g2.space and g1.space != g2.space:
        raise ValueError("graphs live in different relation spaces")
    if not (g1.is_unweighted and g2.is_unweighted):
        raise ValueError("distance is defined for unweighted graphs only")


def graph_dist(g1: GraphSlice, g2: GraphSlice) -> int:
    """Number of edges of g1 absent from g2: |E1| - |E1 n E2|."""
    _check_pair(g1, g2)
    a = g1.weights != 0.0
    b = g2.weights != 0.0
    return int(a.sum() - (a & b).sum())


def graph_edit(g1: GraphSlice, g2: GraphSlice) -> int:
    """Symmetric edit distance: number of differing edges."""
    return graph_dist(g1, g2) + graph_dist(g2, g1)


@dataclass(frozen=True)
class LinkStreamMatrix:
    """Dense T x M link-stream matrix over a contiguous integer time window.

    Row t is the graph at time ``t0 + t``; column k the series of relation k.
    """

    space: RelationSpace
    t0: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _frozen(self.values, np.float64)
        if vals.ndim != 2 or vals.shape[1] != self.space.num_relations:
            raise ValueError(f"values shape {vals.shape} incompatible with M={self.space.num_relations}")
        if vals.shape[0] < 1:
            raise ValueError("empty time window")
        if vals.shape[1] < 1:
            raise ValueError("stream has no relations")
        if not np.all(np.isfinite(vals)):
            raise ValueError("stream values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def num_times(self) -> int:
        return self.values.shape[0]

    @property
    def num_relations(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.t0, self.t0 + self.num_times)

    def _row(self, t: int) -> int:
        r = t - self.t0
        if not (0 <= r < self.num_times):
            raise ValueError(f"time {t} outside window [{self.t0}, {self.t0 + self.num_times - 1}]")
        return r

    def slice_at(self, t: int) -> GraphSlice:
        """Graph slice at time label t."""
        return GraphSlice(self.space, self.values[self._row(t)])

    def edge_series(self, k: int) -> np.ndarray:
        """Time series of relation k over the window (a read-only view)."""
        if not (0 <= k < self.num_relations):
            raise ValueError(f"relation index {k} out of range")
        return self.values[:, k]

    def slices(self):
        for t in self.times:
            yield self.slice_at(int(t))

    def aggregate_graph(self) -> GraphSlice:
        """Sum of all slices; the all-time aggregate used to fix a basis.

        Summed over C-ordered values, which adds the slices one after another:
        over a column-major grid numpy would sum each column pairwise, which
        can change the last bits and so the basis."""
        return GraphSlice(self.space, np.ascontiguousarray(self.values).sum(axis=0))

    def with_values(self, values) -> "LinkStreamMatrix":
        """The same window and space with other values (copied; a ``_Fresh``
        grid is adopted)."""
        return LinkStreamMatrix(self.space, self.t0, values)


def stream_from_slices(slices, t0: int = 0) -> LinkStreamMatrix:
    slices = list(slices)
    if not slices:
        raise ValueError("no slices given")
    space = slices[0].space
    vals = np.stack([s.weights for s in slices])
    return LinkStreamMatrix(space, t0, _Fresh(vals))


def restrict_stream(stream: LinkStreamMatrix, space: RelationSpace) -> LinkStreamMatrix:
    """Project a stream onto a restricted relation space (BFS mode): the
    columns of the target's relations, in its order.

    Every active relation must be in the target space; vertex names are kept.
    """
    src = [stream.space.index_of(*rel) for rel in space.relations]
    rest = np.ones(stream.num_relations, dtype=bool)
    rest[src] = False
    others = np.flatnonzero(rest)
    outside = others[np.any(stream.values[:, others] != 0.0, axis=0)]
    if outside.size:
        rel = tuple(stream.space.vertices[i] for i in stream.space.relations[outside[0]])
        raise ValueError(f"active relation {rel} is outside the restricted space")
    return LinkStreamMatrix(replace(space, vertices=stream.space.vertices), stream.t0,
                            _Fresh(stream.values.take(src, axis=1)))
