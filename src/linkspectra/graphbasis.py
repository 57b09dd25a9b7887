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
out=)``, then an in-place scale), and synthesis builds each finer level in
one buffer. Cost is O(M) per graph.

Memory order: analysis allocates its output in the layout of the
leaf-order gather and synthesis each level's buffer in the layout of its
input grid. For a T x M grid the gather is column-major, so a grid stays
column-major through the bank and the FFT along time, which then runs on
contiguous columns; no transposing copy runs between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .partition import PartitionTree
from .stream import GraphSlice, _frozen

__all__ = [
    "GraphBasis",
    "GraphCoefficients",
    "analyze",
    "synthesize",
    "embed_coarse",
    "edit_distance_spectrum",
    "structural_filter_graph",
    "coarse_filter",
    "detail_filter",
    "template_graph",
    "graph_regularity",
    "motif_counts",
]


@dataclass(frozen=True)
class GraphBasis:
    """Partition tree plus a resolution level; rows of Phi are implicit."""

    tree: PartitionTree
    level: int = None

    def __post_init__(self):
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
        s = values[..., self.tree.position_to_relation]
        # keep the gather's memory layout (column-major for a T x M grid), so
        # the block writes here and a time-axis FFT after them stay contiguous
        out = np.empty_like(s, dtype=np.result_type(s, 1.0))
        for l in range(1, self.level + 1):
            even = s[..., 0::2]
            odd = s[..., 1::2]
            block = out[..., self.wavelet_slice(l)]
            np.subtract(even, odd, out=block)
            block *= 2.0 ** (-l / 2.0)
            s = even + odd
        np.multiply(s, 2.0 ** (-self.level / 2.0), out=out[..., : self.num_scaling])
        return out

    def synthesize_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform back to weight vectors in relation order."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.num_relations:
            raise ValueError("last axis must have length M")
        s = coeffs[..., : self.num_scaling] * 2.0 ** (self.level / 2.0)
        for l in range(self.level, 0, -1):
            # in the layout of the input grid: a T x 1 ``s`` is C and F at once
            nxt = np.empty_like(coeffs, s.dtype, shape=s.shape[:-1] + (2 * s.shape[-1],))
            even = nxt[..., 0::2]
            w = nxt[..., 1::2]
            np.multiply(coeffs[..., self.wavelet_slice(l)], 2.0 ** (l / 2.0), out=w)
            np.add(s, w, out=even)
            np.subtract(s, w, out=w)
            nxt *= 0.5
            s = nxt
        return s[..., self.tree.leaf_order]

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


def _clear_inert(space, values: np.ndarray) -> np.ndarray:
    """Force padding columns of a fresh synthesis output to exact zero, in place.

    Pads exist only to align M to a power of two; any mass the transform
    assigns them (or float residue on reconstruction) is a padding artifact.
    """
    values[..., space.inert] = 0.0
    return values


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
    return GraphSlice(space, _clear_inert(space, coeffs.basis.synthesize_values(coeffs.values)))


def embed_coarse(g: GraphSlice, basis: GraphBasis) -> np.ndarray:
    """Scaling-only view s; reflects structural classes, not single graphs."""
    return analyze(g, basis).scaling


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
    return GraphSlice(g.space, _clear_inert(g.space, basis.synthesize_values(x)))


def coarse_pass_response(basis: GraphBasis) -> np.ndarray:
    r = np.zeros(basis.num_relations)
    r[: basis.num_scaling] = 1.0
    return r


def detail_pass_response(basis: GraphBasis) -> np.ndarray:
    r = np.ones(basis.num_relations)
    r[: basis.num_scaling] = 0.0
    return r


def coarse_filter(g: GraphSlice, basis: GraphBasis) -> GraphSlice:
    """Coarse-grain approximation: each relation gets its motif mean weight."""
    return structural_filter_graph(g, basis, coarse_pass_response(basis))


def detail_filter(g: GraphSlice, basis: GraphBasis) -> GraphSlice:
    """Detail part f(e) - mean over the motif of e; the graph derivative."""
    return structural_filter_graph(g, basis, detail_pass_response(basis))


def template_graph(basis: GraphBasis, space) -> GraphSlice:
    """Graph with every decomposition coefficient equal to one."""
    return synthesize(GraphCoefficients(basis, np.ones(basis.num_relations)), space)


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
