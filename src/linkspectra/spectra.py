"""Joint frequency-structure analysis of link streams: L = Psi C Phi.

The coefficient matrix C = conj(Psi).T L Phi.T is indexed by temporal
frequency (rows) and graph-basis element (columns, scaling first). Joint
filters scale rows by a frequency response and columns by a structural
response; backbones retain a selected subset of coefficients; regularity
metrics take squared norms of the time and relation derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphbasis import GraphBasis, _clear_inert
from .partition import partition_svd
from .stream import LinkStreamMatrix, _Fresh, _frozen, _readonly
from .timebasis import (
    FourierBasis,
    FrequencyFilter,
    _realify,
    apply_frequency_filter,
)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Complex T x M coefficient grid plus everything needed to invert it.

    The constructor copies ``values``; ``decompose`` hands over the grid it
    has just made, wrapped in ``stream._Fresh``, which is adopted instead."""

    values: np.ndarray = field(repr=False)
    basis: GraphBasis
    space: object
    t0: int = 0

    def __post_init__(self):
        v = _frozen(self.values, np.complex128)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] != self.basis.num_relations:
            raise ValueError("coefficient grid shape does not match the bases")
        object.__setattr__(self, "values", v)

    @property
    def num_times(self) -> int:
        return self.values.shape[0]

    @property
    def num_relations(self) -> int:
        return self.values.shape[1]

    @cached_property
    def magnitude(self) -> np.ndarray:
        return _readonly(np.abs(self.values))

    def with_values(self, values) -> "CoefficientMatrix":
        return CoefficientMatrix(values, self.basis, self.space, self.t0)


@dataclass(frozen=True)
class JointFilter:
    """Frequency response (rows) and structural response (columns)."""

    freq: FrequencyFilter
    struct: np.ndarray = field(repr=False)

    def __post_init__(self):
        s = _frozen(self.struct, np.float64)
        if s.ndim != 1:
            raise ValueError("structural response must be a vector")
        object.__setattr__(self, "struct", s)


def default_basis(stream: LinkStreamMatrix, level: int = None, seed: int = 0) -> GraphBasis:
    """Basis fixed from the all-time aggregate graph via SVD partitioning."""
    tree = partition_svd(stream.aggregate_graph(), seed=seed)
    return GraphBasis(tree, level)


def time_structure(stream: LinkStreamMatrix, basis: GraphBasis) -> np.ndarray:
    """X = L Phi.T; row t holds the decomposition coefficients of G_t."""
    return basis.analyze_values(stream.values)


def structure_split(x: np.ndarray, basis: GraphBasis):
    """Split X = [S, W] into scaling and wavelet blocks."""
    return x[:, : basis.num_scaling], x[:, basis.num_scaling :]


def freq_relational(stream: LinkStreamMatrix) -> np.ndarray:
    """F = conj(Psi).T L; column k holds the Fourier transform of e_k(t)."""
    return FourierBasis(stream.num_times).forward(stream.values)


def decompose(stream: LinkStreamMatrix, basis: GraphBasis) -> CoefficientMatrix:
    """C = conj(Psi).T L Phi.T; graph-then-time and time-then-graph agree."""
    if basis.num_relations != stream.num_relations:
        raise ValueError("graph basis does not match the stream's relation space")
    c = FourierBasis(stream.num_times).forward(basis.analyze_values(stream.values))
    return CoefficientMatrix(_Fresh(c), basis, stream.space, stream.t0)


def _synthesize_stream(grid: np.ndarray, out: np.ndarray, basis: GraphBasis, space,
                       t0: int) -> LinkStreamMatrix:
    """L = Psi grid Phi for a grid laid out like C, realified before Phi (see _realify).

    The inverse FFT writes into ``out``: a complex128 grid the caller owns and
    gives up, which may be ``grid`` itself."""
    x = _realify(FourierBasis(grid.shape[0]).inverse(grid, out))
    return LinkStreamMatrix(space, t0, _Fresh(_clear_inert(space, basis.synthesize_values(x))))


def reconstruct(coeffs: CoefficientMatrix) -> LinkStreamMatrix:
    """L = Psi C Phi, realified (imaginary residue above tolerance is an error)."""
    return _synthesize_stream(coeffs.values, np.empty_like(coeffs.values), coeffs.basis,
                              coeffs.space, coeffs.t0)


def _check_fits(stream: LinkStreamMatrix, jf: JointFilter):
    """Refuse responses whose lengths are not the stream's T and M: numpy
    would broadcast a length-1 response into a wrong stream."""
    if (jf.freq.length, jf.struct.size) != (stream.num_times, stream.num_relations):
        raise ValueError(f"joint filter of {jf.freq.length} frequencies by {jf.struct.size} columns"
                         f" for a T = {stream.num_times} by M = {stream.num_relations} stream")


def apply_joint_filter(stream: LinkStreamMatrix, jf: JointFilter,
                       basis: GraphBasis) -> LinkStreamMatrix:
    """L_hat = Psi Lambda_H C Lambda_Q Phi in one pass through C."""
    _check_fits(stream, jf)
    c = decompose(stream, basis)
    filtered = jf.freq.response[:, None] * c.values
    del c
    filtered *= jf.struct[None, :]
    return _synthesize_stream(filtered, filtered, basis, stream.space, stream.t0)


def apply_joint_filter_sequential(stream: LinkStreamMatrix, jf: JointFilter,
                                  basis: GraphBasis) -> LinkStreamMatrix:
    """Equivalent two-step path: H^(filt) L followed by L Q^(filt)."""
    _check_fits(stream, jf)
    intermediate = apply_frequency_filter(stream, jf.freq)
    x = basis.analyze_values(intermediate.values) * jf.struct[None, :]
    return stream.with_values(_clear_inert(stream.space, basis.synthesize_values(x)))


@dataclass(frozen=True)
class KeepRule:
    """Coefficient selection for backbone extraction.

    ``top``: keep the k largest |C| entries (ties broken by frequency then
    basis index) plus the conjugate mirror (T-u, k) of each, so up to 2k
    entries. ``box``: keep folded frequencies u0..u1 (a frequency u counts as
    min(u, T-u)) crossed with basis columns k0..k1. Both rules keep every
    mirror pair whole, so real streams reconstruct to real backbones.
    """

    mode: str
    top: int = 0
    freq_range: tuple = None
    col_range: tuple = None

    @staticmethod
    def top_k(k: int) -> "KeepRule":
        if k < 1:
            raise ValueError("top-k selection needs k >= 1")
        return KeepRule("top", top=k)

    @staticmethod
    def box(freq_lo: int, freq_hi: int, col_lo: int, col_hi: int) -> "KeepRule":
        if freq_lo > freq_hi or col_lo > col_hi:
            raise ValueError("empty selection box")
        return KeepRule("box", freq_range=(freq_lo, freq_hi), col_range=(col_lo, col_hi))

    def mask(self, coeffs: CoefficientMatrix) -> np.ndarray:
        t, m = coeffs.values.shape
        if self.mode == "top":
            if self.top > t * m:
                raise ValueError("top-k selection larger than the coefficient grid")
            # everything above the k-th magnitude, then its ties in (u, k)
            # order, as documented: nonzero walks the transpose (row-major for
            # the filter bank's column-major grid) and the few ties are sorted
            mag = coeffs.magnitude
            flat = mag.ravel(order="K")
            thr = np.partition(flat, flat.size - self.top)[flat.size - self.top]
            mask = mag > thr
            need = self.top - np.count_nonzero(mask)
            k, u = np.nonzero((mag == thr).T)
            first = np.lexsort((k, u))[:need]
            mask[u[first], k[first]] = True
            mask[1:] |= mask[:0:-1]   # the mirror (T - u, k); numpy buffers the overlap
            return mask
        if self.mode == "box":
            if not (0 <= self.freq_range[0] and self.freq_range[1] <= t // 2):
                raise ValueError(f"folded frequency box must lie in 0..{t // 2}")
            if not (0 <= self.col_range[0] and self.col_range[1] < m):
                raise ValueError(f"column box must lie in 0..{m - 1}")
            folded = np.minimum(np.arange(t), t - np.arange(t))
            fr = (folded >= self.freq_range[0]) & (folded <= self.freq_range[1])
            cols = np.zeros(m, dtype=bool)
            cols[self.col_range[0] : self.col_range[1] + 1] = True
            return fr[:, None] & cols[None, :]
        raise ValueError(f"unknown keep mode {self.mode!r}")


def backbone(stream: LinkStreamMatrix, basis: GraphBasis, keep: KeepRule):
    """Reconstruct the stream from the selected coefficients only:
    ``backbone_from(decompose(stream, basis), keep)``.

    Returns the filtered stream and the boolean kept mask over (frequency,
    basis element).
    """
    return backbone_from(decompose(stream, basis), keep)


def backbone_from(coeffs: CoefficientMatrix, keep: KeepRule):
    """``backbone`` on a coefficient grid already computed: the stream made
    of the coefficients ``keep`` selects, and the boolean kept mask."""
    mask = keep.mask(coeffs)
    if not mask.any():
        raise ValueError("backbone selection is empty")
    kept = np.zeros_like(coeffs.values)
    np.copyto(kept, coeffs.values, where=mask)
    basis, space, t0 = coeffs.basis, coeffs.space, coeffs.t0
    # called from ``backbone`` this is the grid's last reference (CPython 3.11
    # and later hand a call's arguments over to it), so the grid and its cached
    # magnitude go before the synthesis
    del coeffs
    return _synthesize_stream(kept, kept, basis, space, t0), mask


@dataclass(frozen=True)
class RegularityReport:
    reg_t: float
    reg_e: float
    relaxed_reg_t: float
    boundary: str = "circular"

    @property
    def reg(self) -> float:
        return self.reg_t + self.reg_e

    def as_dict(self) -> dict:
        return {"reg_t": self.reg_t, "reg_e": self.reg_e, "reg": self.reg,
                "boundary": self.boundary, "relaxed_reg_t": self.relaxed_reg_t}


def _time_derivative(values: np.ndarray, boundary: str, order: str) -> np.ndarray:
    """d[t] = values[t] - values[t - 1] (wrapping at t = 0 when circular), laid
    out in memory ``order``: a sum adds in memory order, so a fixed order keeps
    the bits of a sum of squares the same for any input layout."""
    if boundary == "circular":
        d = np.empty_like(values, order=order)
        np.subtract(values[1:], values[:-1], out=d[1:])
        np.subtract(values[0], values[-1], out=d[0])
        return d
    if boundary == "linear":
        return np.subtract(values[1:], values[:-1], order=order)
    raise ValueError("boundary must be 'circular' or 'linear'")


def _sum_of_squares(a: np.ndarray) -> float:
    """sum(a * a), squaring the array it is given in place."""
    a *= a
    return float(np.sum(a))


def regularity(stream: LinkStreamMatrix, basis: GraphBasis,
               boundary: str = "circular") -> RegularityReport:
    """Total variation along time and relations, from one analysis of L.

    reg_t = ||H^(diff) L||_F^2 counts (for unweighted streams) the edge
    changes between consecutive graphs; reg_e = ||L Q^(diff)||_F^2 is the
    summed graph regularity of the slices; relaxed_reg_t = ||H^(diff) S||_F^2
    on the scaling block S of X = L Phi.T is zero iff the slices are
    structurally equal at the basis level.
    """
    # C: the layout of a stream read from a file; the synthesis below leaves
    # de column-major for any input, as its last step is a column gather
    reg_t = _sum_of_squares(_time_derivative(stream.values, boundary, "C"))
    x = basis.analyze_values(stream.values)
    scaling = x[:, : basis.num_scaling]
    relaxed = _sum_of_squares(_time_derivative(scaling, boundary, "F"))  # the filter bank's layout
    scaling[...] = 0.0   # the detail pass
    reg_e = _sum_of_squares(_clear_inert(stream.space, basis.synthesize_values(x)))
    return RegularityReport(reg_t, reg_e, relaxed, boundary)


def relaxed_time_regularity(stream: LinkStreamMatrix, basis: GraphBasis) -> float:
    """``regularity(stream, basis).relaxed_reg_t``, circular boundary."""
    return regularity(stream, basis).relaxed_reg_t
