import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import (
    FourierBasis,
    FrequencyFilter,
    LinkStreamMatrix,
    aggregate,
    aggregation_operator,
    apply_frequency_filter,
    freq_relational,
    full_space,
    time_diff_operator,
)
from linkspectra.timebasis import _realify, aggregation_filter, diff_filter, lowpass_filter
from linkspectra import synth


def make_stream(values, n=2):
    return LinkStreamMatrix(full_space(n), 0, values)


def test_dft_matrix_unitary():
    for t in (8, 12):
        psi = FourierBasis(t).matrix()
        assert np.abs(psi.conj().T @ psi - np.eye(t)).max() < 1e-12


def test_constant_column_concentrates_at_dc():
    stream = make_stream(np.full((16, 4), 3.0))
    f = freq_relational(stream)
    assert f[0, 0] == pytest.approx(np.sqrt(16) * 3.0)
    assert np.abs(f[1:, :]).max() < 1e-12


def test_alternating_column_two_frequencies():
    t = 16
    vals = np.zeros((t, 4))
    vals[0::2, 0] = 1.0
    f = freq_relational(make_stream(vals))
    col = np.abs(f[:, 0])
    assert col[0] == pytest.approx(np.sqrt(t) / 2)
    assert col[t // 2] == pytest.approx(np.sqrt(t) / 2)
    others = np.delete(col, [0, t // 2])
    assert others.max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([6, 8, 16, 31]))
def test_dft_round_trip_and_parseval(seed, t):
    rng = np.random.default_rng(seed)
    stream = make_stream(rng.standard_normal((t, 4)))
    f = freq_relational(stream)
    back = _realify(FourierBasis(t).inverse(f))
    assert np.abs(back - stream.values).max() < 1e-10
    assert np.linalg.norm(f) == pytest.approx(np.linalg.norm(stream.values), rel=1e-12)


def test_fft_matches_dense_oracle(rng):
    for t in (16, 12):  # power of two and not
        vals = rng.standard_normal((t, 4))
        stream = make_stream(vals)
        psi = FourierBasis(t).matrix()
        assert np.abs(freq_relational(stream) - psi.conj().T @ vals).max() < 1e-10


# ---------------------------------------------------------------------------
# circulant operators

def test_aggregation_identity():
    op = aggregation_operator(1, 8)
    assert np.array_equal(op.matrix(), np.eye(8))
    assert np.allclose(op.frequency_filter().response, 1.0)


def test_aggregation_kills_nyquist():
    chi = aggregation_filter(2, 16).response
    assert abs(chi[8]) < 1e-12
    assert chi[0] == pytest.approx(2.0)


def test_aggregation_of_oscillating_stream_is_clique():
    stream = synth.gen_oscillating(16)
    agg = aggregate(stream, 2)
    assert np.array_equal(agg.values, np.ones((16, 16)))


def test_diff_operator():
    t = 12
    op = time_diff_operator(t)
    assert np.abs(op.apply_values(np.full((t, 4), 2.5))).max() == 0.0
    vals = np.zeros((t, 4))
    vals[:, 1] = (-1.0) ** np.arange(t)
    assert np.array_equal(op.apply_values(vals)[:, 1], 2.0 * (-1.0) ** np.arange(t))
    chi = diff_filter(t).response
    assert chi[0] == 0.0
    u = np.arange(t)
    assert np.allclose(np.abs(chi), 2.0 * np.abs(np.sin(np.pi * u / t)), atol=1e-12)


def test_diff_on_one_step_wraps_onto_itself():
    assert np.array_equal(time_diff_operator(1).kernel, [0.0])
    assert np.array_equal(diff_filter(1).response, [0.0])
    assert np.array_equal(time_diff_operator(1).apply_values(np.full((1, 4), 3.0)), np.zeros((1, 4)))
    assert np.array_equal(time_diff_operator(2).kernel, [1.0, -1.0])


@pytest.mark.parametrize("t", [16, 64])
def test_circulant_diagonalization(t):
    psi = FourierBasis(t).matrix()
    for op in [aggregation_operator(k, t) for k in (1, 2, 5)] + [time_diff_operator(t)]:
        h = op.matrix()
        chi = op.frequency_filter().response
        assert np.abs(psi.conj().T @ h @ psi - np.diag(chi)).max() < 1e-10


def test_circulant_matches_its_matrix_and_refuses_other_lengths(rng):
    op = aggregation_operator(3, 6)
    values = rng.standard_normal((6, 4))
    assert np.abs(op.apply_values(values) - op.matrix() @ values).max() < 1e-12
    for rows in (2, 7):
        with pytest.raises(ValueError, match=f"{rows} time rows for a circulant operator of length 6"):
            op.apply_values(np.zeros((rows, 4)))


def test_fourier_basis_refuses_other_lengths():
    fourier = FourierBasis(8)
    for rows in (4, 9):
        grid = np.ones((rows, 2))
        for call in (fourier.forward, fourier.inverse):
            with pytest.raises(ValueError, match=f"^{rows} time rows for a Fourier basis of length 8$"):
                call(grid)


# ---------------------------------------------------------------------------
# frequency filtering

def test_allpass_is_identity(rng):
    stream = make_stream(rng.standard_normal((16, 4)))
    out = apply_frequency_filter(stream, FrequencyFilter(np.ones(16)))
    assert np.abs(out.values - stream.values).max() < 1e-10


def test_filter_equals_direct_circulant(rng):
    stream = make_stream(rng.standard_normal((16, 4)))
    op = aggregation_operator(2, 16)
    via_fft = apply_frequency_filter(stream, op.frequency_filter())
    direct = op.apply_values(stream.values)
    assert np.abs(via_fft.values - direct).max() < 1e-10


def test_dc_projection_gives_column_means(rng):
    stream = make_stream(rng.standard_normal((16, 4)))
    chi = np.zeros(16)
    chi[0] = 1.0
    out = apply_frequency_filter(stream, FrequencyFilter(chi))
    assert np.allclose(out.values, stream.values.mean(axis=0, keepdims=True), atol=1e-10)


def test_filter_composition(rng):
    stream = make_stream(rng.standard_normal((16, 4)))
    f1 = aggregation_filter(2, 16)
    f2 = lowpass_filter(0.25, 16)
    once = apply_frequency_filter(apply_frequency_filter(stream, f1), f2)
    combined = apply_frequency_filter(stream, FrequencyFilter(f1.response * f2.response))
    assert np.abs(once.values - combined.values).max() < 1e-10


def test_asymmetric_response_on_real_stream_errors(rng):
    stream = make_stream(rng.standard_normal((16, 4)))
    chi = np.zeros(16, dtype=complex)
    chi[3] = 1.0  # keeps one side only
    with pytest.raises(ValueError):
        apply_frequency_filter(stream, FrequencyFilter(chi))


def test_conjugate_symmetry_detection():
    assert lowpass_filter(0.2, 16).is_conjugate_symmetric
    assert aggregation_filter(3, 16).is_conjugate_symmetric
    chi = np.zeros(16, dtype=complex)
    chi[3] = 1.0
    assert not FrequencyFilter(chi).is_conjugate_symmetric


def test_window_bounds():
    with pytest.raises(ValueError):
        aggregation_operator(0, 8)
    with pytest.raises(ValueError):
        aggregation_operator(9, 8)
    stream = make_stream(np.zeros((8, 4)))
    with pytest.raises(ValueError):
        apply_frequency_filter(stream, FrequencyFilter(np.ones(9)))
