"""Haar-style orthonormal basis for graphs and structural filters.

The basis at resolution level j consists of scaling functions (constant
2^{-j/2} on each level-j set) followed by wavelet functions (+-2^{-l/2} on
the two children of each level-l set, l = j..1). Coefficient vectors are laid
out as [s_0 .. s_{M/2^j - 1}, w^{(j)}, w^{(j-1)}, .., w^{(1)}], coarse first.

Transforms run as a matrix-free Haar filter bank on the leaf-reordered
weight vector: sums and differences are accumulated unnormalized and the
2^{-l/2} scale is applied once per output block, so integer inputs stay
exact until the final multiply. The bank writes each level's differences
straight into that level's slice of one output array (``np.subtract(...,
out=)``, then an in-place scale). Cost is O(M) per graph.

Blocks: the bank on a block of 2^k leaf positions is the bank on a subtree,
so both directions run levels 1..k a few whole subtrees at a time, in a
worker's scratch block (``stream._block_bytes``), and only the levels above
the subtrees see every column: they run on one column per subtree. Analysis
gathers a block's positions into its scratch, runs levels 1..k there and
keeps each subtree's sum for the upper levels; synthesis runs the upper
levels first, then levels k..1 of each block in two scratch blocks, and
writes the finest sums straight to their relation columns. No transform
allocates a grid-sized buffer besides its output.

Memory order: the bank's buffers and outputs are column-major, so a
T x M grid stays column-major through the bank and the FFT along time,
which then runs on contiguous columns; no transposing copy runs between the
two. The one transpose is the leaf-order gather of a row-major input, done
a few columns at a time through half a scratch block.

Threads: ``analyze_values`` and ``synthesize_values`` split the subtrees
over the ``LINKSPECTRA_THREADS`` workers (``stream._in_parts``); the levels
above them run on the caller. The caller allocates the output and each
worker's scratch blocks, whose sizes share one budget
(``stream._SCRATCH_BYTES``), and each worker writes its own columns, so
the bits and the memory order do not depend on the worker count or the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partition import PartitionTree
from .stream import GraphSlice, _frozen, _in_parts

#: The bank splits the leaf positions into at least this many subtrees.
_MIN_SUBTREES = 16

@dataclass(frozen=True)
class GraphBasis:
    """Partition tree plus a resolution level; rows of Phi are implicit."""

    tree: PartitionTree
    level: int = None

    def __post_init__(self):
        if self.tree.num_relations < 2:
            raise ValueError(f"a graph basis needs at least two relations, the tree has"
                             f" {self.tree.num_relations}")
        if self.level is None:
            object.__setattr__(self, "level", self.tree.num_levels)
        if not (1 <= self.level <= self.tree.num_levels):
            raise ValueError(f"level {self.level} out of range 1..{self.tree.num_levels}")

    @property
    def num_relations(self) -> int:
        return self.tree.num_relations

    @property
    def num_scaling(self) -> int:
        return self.num_relations >> self.level

    def wavelet_slice(self, level: int) -> slice:
        """Columns holding the level-``level`` wavelet coefficients, [M/2^l, M/2^(l-1))."""
        if not (1 <= level <= self.level):
            raise ValueError(f"wavelet level {level} out of range 1..{self.level}")
        return slice(self.num_relations >> level, self.num_relations >> (level - 1))

    def columns(self):
        """The coefficient layout as one ``(kind, level, index)`` per column."""
        for i in range(self.num_scaling):
            yield "s", self.level, i
        for l in range(self.level, 0, -1):
            for i in range(self.num_relations >> l):
                yield "w", l, i

    def analyze_values(self, values: np.ndarray) -> np.ndarray:
        """Filter-bank transform of weight vectors laid along the last axis."""
        values = np.asarray(values)
        if values.shape[-1] != self.num_relations:
            raise ValueError("last axis must have length M")
        if not (values.flags.c_contiguous or values.flags.f_contiguous):
            values = np.ascontiguousarray(values)
        out = np.empty(values.shape, np.result_type(values, 1.0), order="F")
        depth = self._subtree_depth()
        rows = values.shape[:-1]
        cells = values.size // self.num_relations
        scale = 2.0 ** (-self.level / 2.0)
        # the sums of the subtrees, for the levels above them; when there are
        # none, the subtrees are the scaling sets and their sums go to ``out``
        top = (None if depth == self.level else
               np.empty(rows + (self.num_relations >> depth,), values.dtype, order="F"))

        def scratch(nbytes):
            """A worker's block and, for a row-major input, its gather buffer
            of half a block (a worker's transposing copy stays in the cache)."""
            width = self._subtrees_per_block(nbytes, values) << depth
            block = np.empty(rows + (width,), values.dtype, order="F")
            if values.flags.f_contiguous:
                return block, None
            columns = max(1, min(width, nbytes // 2 // values.itemsize // cells))
            return block, np.empty(cells * columns, values.dtype)

        def part(subtrees, buffers):
            block, gather = buffers
            per = block.shape[-1] >> depth
            for lo in range(subtrees.start, subtrees.stop, per):
                hi = min(lo + per, subtrees.stop)
                pos = slice(lo << depth, hi << depth)
                s = block[..., : pos.stop - pos.start]
                _gather_columns(values, self.tree.position_to_relation[pos], s, gather)
                s = self._analysis_levels(s, out, range(1, depth + 1), pos.start)
                if top is None:
                    np.multiply(s, scale, out=out[..., lo:hi])
                else:
                    top[..., lo:hi] = s

        _in_parts(part, self.num_relations >> depth, out, scratch)
        if top is not None:
            s = self._analysis_levels(top, out, range(depth + 1, self.level + 1), 0)
            np.multiply(s, scale, out=out[..., : self.num_scaling])
        return out

    def synthesize_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform back to weight vectors in relation order."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.num_relations:
            raise ValueError("last axis must have length M")
        dtype = np.result_type(coeffs, 1.0)
        out = np.empty(coeffs.shape, dtype, order="F")
        depth = self._subtree_depth()
        rows = coeffs.shape[:-1]
        scale = 2.0 ** (self.level / 2.0)

        def pair(width):
            return tuple(np.empty(rows + (width,), dtype, order="F") for _ in range(2))

        top = None
        if depth < self.level:
            # the levels above the subtrees; ``top`` ends as the sums entering
            # the subtrees, one column each
            upper = pair(self.num_relations >> depth)
            top = np.multiply(coeffs[..., : self.num_scaling], scale,
                              out=upper[self.level % 2][..., : self.num_scaling])
            top = self._synthesis_levels(coeffs, upper, top, range(self.level, depth, -1), 0)

        def part(subtrees, buffers):
            per = buffers[0].shape[-1] >> depth
            for lo in range(subtrees.start, subtrees.stop, per):
                hi = min(lo + per, subtrees.stop)
                if top is None:   # the subtrees are the scaling sets
                    s = np.multiply(coeffs[..., lo:hi], scale,
                                    out=buffers[depth % 2][..., : hi - lo])
                else:
                    s = top[..., lo:hi]
                s = self._synthesis_levels(coeffs, buffers, s, range(depth, 0, -1), lo << depth)
                out.T[self.tree.position_to_relation[lo << depth : hi << depth]] = s.T

        _in_parts(part, self.num_relations >> depth, out,
                  lambda nbytes: pair(self._subtrees_per_block(nbytes, out) << depth))
        return out

    def _subtree_depth(self) -> int:
        """The levels 1..k that run a block of subtrees at a time, on blocks
        of 2^k leaf positions, at least ``_MIN_SUBTREES`` of them."""
        return max(0, min(self.level, self.tree.num_levels - _MIN_SUBTREES.bit_length() + 1))

    def _subtrees_per_block(self, nbytes: int, grid: np.ndarray) -> int:
        """The whole subtrees of ``grid``'s rows that fit in a scratch block of
        ``nbytes``: one when a single one is larger, all when they all fit."""
        depth = self._subtree_depth()
        subtree = (grid.size // self.num_relations << depth) * grid.itemsize
        return max(1, min(self.num_relations >> depth, nbytes // subtree))

    def _analysis_levels(self, s, out, levels, lo: int):
        """Analysis ``levels`` on the sums ``s`` of the positions from ``lo``:
        the differences go to their columns of ``out``, the sums stay in the
        even columns of ``s``, which are returned."""
        for l in levels:
            even = s[..., 0::2]
            odd = s[..., 1::2]
            start = (self.num_relations >> l) + (lo >> l)
            block = out[..., start : start + even.shape[-1]]
            np.subtract(even, odd, out=block)
            block *= 2.0 ** (-l / 2.0)
            s = np.add(even, odd, out=even)
        return s

    def _synthesis_levels(self, coeffs, buffers, s, levels, lo: int):
        """Synthesis ``levels`` from the sums ``s`` of the subtrees whose leaf
        positions start at ``lo``; level l writes the sums of the subtrees'
        halves into the first columns of ``buffers[(l - 1) % 2]``, and the
        last level's are returned."""
        for l in levels:
            width = s.shape[-1]
            nxt = buffers[(l - 1) % 2][..., : 2 * width]
            even = nxt[..., 0::2]
            w = nxt[..., 1::2]
            first = (self.num_relations >> l) + (lo >> l)
            np.multiply(coeffs[..., first : first + width], 2.0 ** (l / 2.0), out=w)
            np.add(s, w, out=even)
            np.subtract(s, w, out=w)
            nxt *= 0.5
            s = nxt
        return s

    def materialize(self) -> np.ndarray:
        """Dense M x M basis matrix Phi (test and inspection use)."""
        m = self.num_relations
        inv = self.tree.position_to_relation
        phi = np.zeros((m, m))
        row = 0
        width = 1 << self.level
        for k in range(m // width):
            phi[row, inv[k * width : (k + 1) * width]] = 2.0 ** (-self.level / 2.0)
            row += 1
        for l in range(self.level, 0, -1):
            w = 1 << l
            amp = 2.0 ** (-l / 2.0)
            for k in range(m // w):
                phi[row, inv[k * w : k * w + w // 2]] = amp
                phi[row, inv[k * w + w // 2 : (k + 1) * w]] = -amp
                row += 1
        return phi

    def _check_slice(self, g: GraphSlice):
        if g.space.num_relations != self.num_relations:
            raise ValueError("graph does not live in this basis's relation space")


def _gather_columns(src: np.ndarray, cols: np.ndarray, dst: np.ndarray, scratch):
    """``dst[..., j] = src[..., cols[j]]`` for a column-major ``dst`` and a C-
    or F-contiguous ``src``, with no temporary. A column-major ``src`` copies
    whole columns with ``np.take`` on the transposes. A row-major one goes
    through ``np.take`` into ``scratch``, a flat buffer of one column or more,
    a few columns at a time, which are then copied (transposed, in the cache)
    into ``dst``. ``mode="wrap"`` because with the default ``"raise"``
    ``np.take`` copies ``out`` first."""
    if src.flags.f_contiguous:
        np.take(src.T, cols, axis=0, out=dst.T, mode="wrap")
        return
    rows = src.size // src.shape[-1]
    step = scratch.size // rows
    for lo in range(0, cols.size, step):
        part = cols[lo : lo + step]
        block = scratch[: rows * part.size].reshape(src.shape[:-1] + part.shape)
        np.take(src, part, axis=-1, out=block, mode="wrap")
        dst[..., lo : lo + part.size] = block


@dataclass(frozen=True)
class GraphCoefficients:
    """Decomposition coefficients x = [s, w] of a single graph."""

    basis: GraphBasis
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _frozen(self.values, np.float64)
        if vals.shape != (self.basis.num_relations,):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "values", vals)

    @property
    def scaling(self) -> np.ndarray:
        return self.values[: self.basis.num_scaling]

    def wavelet(self, level: int) -> np.ndarray:
        return self.values[self.basis.wavelet_slice(level)]


def analyze(g: GraphSlice, basis: GraphBasis) -> GraphCoefficients:
    """Coefficients <f_G, phi_k> and <f_G, theta_k> via the fast filter bank.

    ``.values`` is the full embedding x = [s, w]; it preserves sizes, overlaps
    and edit distance.
    """
    basis._check_slice(g)
    return GraphCoefficients(basis, basis.analyze_values(g.weights))


def synthesize(coeffs: GraphCoefficients, space) -> GraphSlice:
    """Reconstruct the graph whose decomposition is ``coeffs``."""
    if space.num_relations != coeffs.basis.num_relations:
        raise ValueError("space size does not match the basis")
    return GraphSlice(space, coeffs.basis.synthesize_values(coeffs.values))


def edit_distance_spectrum(g1: GraphSlice, g2: GraphSlice, basis: GraphBasis) -> np.ndarray:
    """Per-coefficient squared differences; sums exactly to graph_edit."""
    if not (g1.is_unweighted and g2.is_unweighted):
        raise ValueError("edit-distance spectrum is defined for unweighted graphs")
    x1 = analyze(g1, basis).values
    x2 = analyze(g2, basis).values
    return (x1 - x2) ** 2


def structural_filter_graph(g: GraphSlice, basis: GraphBasis, response) -> GraphSlice:
    """Filter a graph by scaling its coefficients: analyze, multiply, synthesize.

    ``response`` is a length-M vector aligned with the coefficient layout
    (sigma entries for scaling columns, nu entries for wavelet columns).
    """
    response = np.asarray(response, dtype=np.float64)
    if response.shape != (basis.num_relations,):
        raise ValueError("filter response must have one entry per basis element")
    x = analyze(g, basis).values * response
    return GraphSlice(g.space, basis.synthesize_values(x))


def coarse_pass_response(basis: GraphBasis) -> np.ndarray:
    r = np.zeros(basis.num_relations)
    r[: basis.num_scaling] = 1.0
    return r


def detail_pass_response(basis: GraphBasis) -> np.ndarray:
    r = np.ones(basis.num_relations)
    r[: basis.num_scaling] = 0.0
    return r


def detail_filter(g: GraphSlice, basis: GraphBasis) -> GraphSlice:
    """Detail part f(e) - mean over the motif of e; the graph derivative."""
    return structural_filter_graph(g, basis, detail_pass_response(basis))


def graph_regularity(g: GraphSlice, basis: GraphBasis) -> float:
    """Squared norm of the graph derivative at the basis level.

    For unweighted graphs this equals sum_k (m_k - m_k^2 / 2^j) with m_k the
    motif edge counts, the expected distance to a uniformly drawn member of
    the same structural class.
    """
    d = detail_filter(g, basis)
    return float(np.sum(d.weights ** 2))


def motif_counts(g: GraphSlice, basis: GraphBasis) -> np.ndarray:
    """Edge counts m_k = |E n E_k| per level-j motif (unweighted graphs)."""
    if not g.is_unweighted:
        raise ValueError("motif counts are defined for unweighted graphs")
    basis._check_slice(g)
    active = (g.weights != 0.0)[basis.tree.position_to_relation]
    width = 1 << basis.level
    return active.reshape(-1, width).sum(axis=1).astype(np.int64)
