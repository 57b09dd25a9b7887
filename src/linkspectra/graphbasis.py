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
out=)``, then an in-place scale) and keeps its sums in the gather buffer;
synthesis builds the levels in two buffers, in turn. Cost is O(M) per graph.

Memory order: the bank's buffers and outputs are column-major, so a
T x M grid stays column-major through the bank and the FFT along time,
which then runs on contiguous columns; no transposing copy runs between the
two. The one transpose is the leaf-order gather of a row-major input, done
a small block of columns at a time.

Threads: the bank on a block of 2^k leaf positions is the bank on a subtree,
so ``analyze_values`` and ``synthesize_values`` split the columns, in whole
subtrees, over the ``LINKSPECTRA_THREADS`` workers (``stream._in_parts``);
the levels above those subtrees run on the caller over a few columns. The
caller allocates every grid-sized buffer and each worker writes its own
columns, so the bits and the memory order do not depend on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partition import PartitionTree
from .stream import GraphSlice, _frozen, _in_parts

#: The bank splits the leaf positions into at least this many subtrees.
_MIN_SUBTREES = 16
#: Cells of the scratch block through which a row-major gather is transposed:
#: 256 KiB of float64, which stays in the cache while it is copied. A worker
#: thread's malloc arena keeps it: with 1 MiB, a 2-worker analysis of a
#: T = 70, M = 2^12 grid peaked 2 MB above a 1-worker one.
_GATHER_CELLS = 1 << 15

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
        # scratch, made after ``out`` so that it is freed from the top of the
        # heap; it then holds each level's sums, in place
        gathered = np.empty(values.shape, values.dtype, order="F")
        depth = self._subtree_level()

        def part(blocks):
            pos = slice(blocks.start << depth, blocks.stop << depth)
            _gather_columns(values, self.tree.position_to_relation[pos], gathered[..., pos])
            self._analysis_levels(gathered[..., pos], out, range(1, depth + 1), pos.start)

        _in_parts(part, self.num_relations >> depth, out)
        s = self._analysis_levels(gathered[..., :: 1 << depth], out,
                                  range(depth + 1, self.level + 1), 0)
        np.multiply(s, 2.0 ** (-self.level / 2.0), out=out[..., : self.num_scaling])
        return out

    def synthesize_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform back to weight vectors in relation order."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.num_relations:
            raise ValueError("last axis must have length M")
        dtype = np.result_type(coeffs, 1.0)
        # level l reads buffers[l % 2] and writes buffers[(l - 1) % 2], so
        # the final level-1 sums land in ``finest``, and ``out`` is free for
        # the gather once they are made
        out = np.empty(coeffs.shape, dtype, order="F")
        finest = np.empty(coeffs.shape, dtype, order="F")   # scratch, after ``out``
        buffers = (finest, out)
        depth = self._subtree_level()
        s = np.multiply(coeffs[..., : self.num_scaling], 2.0 ** (self.level / 2.0),
                        out=buffers[self.level % 2][..., : self.num_scaling])
        # the sums entering the workers' levels, one column per subtree,
        # copied: the workers overwrite the buffer they are in
        s = self._synthesis_levels(coeffs, buffers, s, range(self.level, depth, -1), 0).copy()

        def part(blocks):
            self._synthesis_levels(coeffs, buffers, s[..., blocks], range(depth, 0, -1),
                                   blocks.start << depth)

        _in_parts(part, self.num_relations >> depth, out)
        _in_parts(lambda cols: _gather_columns(finest, self.tree.leaf_order[cols], out[..., cols]),
                  self.num_relations, out)
        return out

    def _subtree_level(self) -> int:
        """The levels 1..k that the workers run, each on its own subtrees:
        blocks of 2^k leaf positions, at least ``_MIN_SUBTREES`` of them."""
        return max(0, min(self.level, self.tree.num_levels - _MIN_SUBTREES.bit_length() + 1))

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
        halves into ``buffers[(l - 1) % 2]`` from column ``lo`` on, within
        those subtrees' positions, and the last level's are returned."""
        for l in levels:
            width = s.shape[-1]
            nxt = buffers[(l - 1) % 2][..., lo : lo + 2 * width]
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


def _gather_columns(src: np.ndarray, cols: np.ndarray, dst: np.ndarray):
    """``dst[..., j] = src[..., cols[j]]`` with no grid-sized temporary, for a
    C- or F-contiguous ``src``. Column-major arrays copy whole columns with
    ``np.take`` on their transposes. A row-major ``src`` goes through
    ``np.take`` into a scratch block of ``_GATHER_CELLS``, which is then
    copied (transposed, in the cache) into ``dst``. ``mode="wrap"`` because
    with the default ``"raise"`` ``np.take`` copies ``out`` first."""
    if src.flags.f_contiguous and dst.flags.f_contiguous:
        np.take(src.T, cols, axis=0, out=dst.T, mode="wrap")
        return
    rows = src.size // src.shape[-1]
    step = max(1, _GATHER_CELLS // rows)
    scratch = np.empty(rows * min(step, cols.size), src.dtype)
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
