"""Unitary DFT along the time axis and circulant frequency filters.

Conventions: the basis matrix has entries Psi[t, u] = exp(+2i pi u t / T) /
sqrt(T), so the forward (analysis) transform applies exp(-2i pi u t / T) and
both directions carry the 1/sqrt(T) factor. All time-domain operators are
circulant (periodic boundary), which makes them exactly diagonalizable by
the Fourier basis; an operator with kernel h acts as (H L)_t = sum_d h_d
L_{t-d} and has frequency response chi_u = sum_d h_d exp(-2i pi u d / T).

The Fourier dictionary is the only one implemented; any other orthonormal
time dictionary (wavelets, say) would slot in behind the same
forward/inverse surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .stream import LinkStreamMatrix, _Fresh, _frozen, _in_parts

#: imaginary residue above this magnitude is an error when realifying output
IMAG_TOL = 1e-9


@dataclass(frozen=True)
class FourierBasis:
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("window length must be positive")

    def matrix(self) -> np.ndarray:
        """Dense unitary DFT matrix (oracle and inspection use)."""
        t = np.arange(self.length)
        return np.exp(2j * np.pi * np.outer(t, t) / self.length) / np.sqrt(self.length)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Analysis transform along axis 0: F = conj(Psi).T @ values, as a new
        complex128 array in the memory order of ``values``."""
        values = np.asarray(values)
        return self._transform(values, np.empty_like(values, np.complex128), np.fft.fft,
                               np.divide)

    def inverse(self, coeffs: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Synthesis transform along axis 0: values = Psi @ coeffs, written into
        ``out`` and returned. ``out`` is a complex128 grid of the same shape,
        which may be ``coeffs`` itself; without it the result is a new array in
        the memory order of ``coeffs``, which is left as it is."""
        coeffs = np.asarray(coeffs)
        if out is None:
            out = np.empty_like(coeffs, np.complex128)
        return self._transform(coeffs, out, np.fft.ifft, np.multiply)

    def _transform(self, values, out, fft, rescale) -> np.ndarray:
        """``out = rescale(fft(values), sqrt(T))`` along axis 0. Each column
        is transformed on its own, so the columns are split over the workers;
        each copies its columns into ``out`` and transforms them there."""
        self._check_rows(values)
        root = np.sqrt(self.length)

        def part(cols):
            o = out[..., cols]
            if values is not out:
                np.copyto(o, values[..., cols])
            fft(o, axis=0, out=o)
            rescale(o, root, out=o)

        _in_parts(part, out.shape[-1], out)
        return out

    def _check_rows(self, grid: np.ndarray) -> np.ndarray:
        if grid.shape[0] != self.length:
            raise ValueError(f"{grid.shape[0]} time rows for a Fourier basis of length"
                             f" {self.length}")
        return grid


@dataclass(frozen=True)
class FrequencyFilter:
    """Diagonal frequency response chi_u, one complex entry per index."""

    response: np.ndarray = field(repr=False)

    def __post_init__(self):
        r = _frozen(self.response, np.complex128)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("frequency response must be a nonempty vector")
        object.__setattr__(self, "response", r)

    @property
    def length(self) -> int:
        return int(self.response.size)

    @cached_property
    def is_conjugate_symmetric(self) -> bool:
        idx = (-np.arange(self.length)) % self.length
        return bool(np.allclose(self.response[idx], np.conj(self.response), atol=1e-12))


@dataclass(frozen=True)
class CirculantOperator:
    """Time-domain circulant operator with kernel h: (H L)_t = sum h_d L_{t-d}."""

    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _frozen(self.kernel, np.float64))

    @property
    def length(self) -> int:
        return int(self.kernel.size)

    def matrix(self) -> np.ndarray:
        t = self.length
        idx = (np.arange(t)[:, None] - np.arange(t)[None, :]) % t
        return self.kernel[idx]

    def frequency_filter(self) -> FrequencyFilter:
        """Eigenvalues under the Fourier basis: chi = DFT of the kernel."""
        return FrequencyFilter(np.fft.fft(self.kernel))

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """Exact time-domain application by shifted sums (axis 0)."""
        values = np.asarray(values)
        t = values.shape[0]
        if t != self.length:
            raise ValueError(f"{t} time rows for a circulant operator of length {self.length}")
        out = np.zeros_like(values, dtype=np.result_type(values, self.kernel))
        term = None
        for d in np.nonzero(self.kernel)[0]:
            # out[t] += h_d * values[t - d], wrapping; a tap of 1 adds the
            # shifted rows straight in (multiplying by 1.0 is exact)
            tap = self.kernel[d]
            if tap == 1.0:
                out[d:] += values[: t - d]
                out[:d] += values[t - d :]
                continue
            if term is None:
                term = np.empty_like(out)
            np.multiply(values[: t - d], tap, out=term[d:])
            np.multiply(values[t - d :], tap, out=term[:d])
            out += term
        return out


def aggregation_operator(window: int, length: int) -> CirculantOperator:
    """k-sample aggregation: each row sums the current and k-1 previous rows."""
    if not (1 <= window <= length):
        raise ValueError(f"aggregation window {window} out of range 1..{length}")
    kernel = np.zeros(length)
    kernel[:window] = 1.0
    return CirculantOperator(kernel)


def time_diff_operator(length: int) -> CirculantOperator:
    """Circular first difference; high-pass with chi_0 = 0."""
    kernel = np.zeros(length)
    kernel[0] = 1.0
    kernel[1 % length] -= 1.0   # at length 1 the difference wraps onto itself
    return CirculantOperator(kernel)


def aggregation_filter(window: int, length: int) -> FrequencyFilter:
    return aggregation_operator(window, length).frequency_filter()


def diff_filter(length: int) -> FrequencyFilter:
    return time_diff_operator(length).frequency_filter()


def lowpass_filter(cutoff: float, length: int) -> FrequencyFilter:
    """Ideal low-pass keeping cyclic frequencies with |u/T| <= cutoff."""
    if not (0.0 <= cutoff <= 0.5):
        raise ValueError("cutoff is a cyclic frequency in [0, 0.5]")
    u = np.arange(length)
    folded = np.minimum(u, length - u) / length
    return FrequencyFilter((folded <= cutoff + 1e-12).astype(np.complex128))


def _realify(values: np.ndarray) -> np.ndarray:
    """Real part (a view) of a time-synthesized grid; imaginary residue above
    IMAG_TOL is an error. Exact before the graph synthesis too: Phi multiplies
    by real scalars only, so it never mixes real and imaginary parts. The
    residue is the largest of the workers' column blocks' residues."""
    imag = values.imag

    def part_residue(cols):
        part = imag[..., cols]
        return max(part.max(), -part.min())   # max |imag| without an |imag| array

    residue = float(max(_in_parts(part_residue, imag.shape[-1], imag)))
    if residue > IMAG_TOL:
        raise ValueError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_TOL:.0e};"
            " the frequency response is not conjugate-symmetric")
    return values.real


def apply_frequency_filter(stream: LinkStreamMatrix, filt: FrequencyFilter) -> LinkStreamMatrix:
    """L_hat = Psi diag(chi) conj(Psi).T L via the FFT."""
    if filt.length != stream.num_times:
        raise ValueError("filter length does not match the stream window")
    basis = FourierBasis(stream.num_times)
    grid = basis.forward(stream.values)
    np.multiply(filt.response[:, None], grid, out=grid)
    return stream.with_values(_realify(basis.inverse(grid, grid)))


def aggregate(stream: LinkStreamMatrix, window: int) -> LinkStreamMatrix:
    """Exact k-sample aggregation by shifted sums (integer-exact)."""
    op = aggregation_operator(window, stream.num_times)
    return stream.with_values(_Fresh(op.apply_values(stream.values)))
