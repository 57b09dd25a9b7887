import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import (
    CoefficientMatrix,
    FourierBasis,
    FrequencyFilter,
    GraphBasis,
    JointFilter,
    KeepRule,
    LinkStreamMatrix,
    active_space,
    aggregate,
    analyze,
    apply_frequency_filter,
    apply_joint_filter,
    backbone,
    backbone_from,
    decompose,
    default_basis,
    full_space,
    graph_edit,
    motif_counts,
    reconstruct,
    regularity,
    relaxed_time_regularity,
    stream_from_slices,
    time_diff_operator,
    time_structure,
)
from linkspectra.graphbasis import coarse_pass_response, detail_pass_response
from linkspectra.partition import PartitionTree
from linkspectra.spectra import apply_joint_filter_sequential, freq_relational, structure_split
from linkspectra.timebasis import lowpass_filter
from linkspectra import stream as lstream
from linkspectra import synth

from conftest import random_tree


def random_stream(rng, t=16, n=4, density=0.4):
    space = full_space(n)
    vals = (rng.random((t, space.num_relations)) < density).astype(float)
    return LinkStreamMatrix(space, 0, vals)


# ---------------------------------------------------------------------------
# decomposition

def test_zero_stream(fig_basis):
    stream = LinkStreamMatrix(full_space(4), 0, np.zeros((8, 16)))
    c = decompose(stream, fig_basis)
    assert np.all(c.values == 0.0)
    assert np.all(reconstruct(c).values == 0.0)


def test_rank_one_basis_stream_is_single_indicator(fig_basis):
    t = 8
    psi = FourierBasis(t).matrix()
    phi = fig_basis.materialize()
    for u, k in ((0, 0), (t // 2, 3)):
        z = np.outer(psi[:, u].real, phi[k])
        stream = LinkStreamMatrix(full_space(4), 0, z)
        c = decompose(stream, fig_basis).values
        expected = np.zeros((t, 16))
        expected[u, k] = 1.0
        assert np.abs(np.abs(c) - expected).max() < 1e-10


def test_basis_streams_orthonormal(fig_basis):
    t = 8
    psi = FourierBasis(t).matrix()
    phi = fig_basis.materialize()
    pairs = [(0, 0), (1, 0), (0, 3), (5, 9), (1, 9)]
    for i, (u, k) in enumerate(pairs):
        zi = np.outer(psi[:, u], phi[k])
        for (u2, k2) in pairs[i:]:
            zj = np.outer(psi[:, u2], phi[k2])
            ip = np.vdot(zj, zi)
            expected = 1.0 if (u, k) == (u2, k2) else 0.0
            assert abs(ip - expected) < 1e-12


def test_oscillating_four_coefficients(fig_basis):
    stream = synth.gen_oscillating(8)
    c = decompose(stream, fig_basis)
    mag = c.magnitude
    hot = {(int(u), int(k)) for u, k in np.argwhere(mag > 1e-9)}
    assert hot == {(0, 0), (0, 1), (4, 0), (4, 1)}
    vals = sorted(mag[mag > 1e-9])
    assert vals[-1] == pytest.approx(vals[0], abs=1e-10)
    assert vals[0] == pytest.approx(np.sqrt(8) * np.sqrt(8) / 2, abs=1e-10)


def test_two_application_orders_agree(rng, fig_basis):
    stream = random_stream(rng, t=12)
    time_then_graph = fig_basis.analyze_values(
        FourierBasis(12).forward(stream.values.astype(complex)))
    graph_then_time = decompose(stream, fig_basis).values
    assert np.abs(time_then_graph - graph_then_time).max() < 1e-10


def test_parseval_2d_and_round_trip(rng, fig_basis):
    stream = random_stream(rng, t=10)
    c = decompose(stream, fig_basis)
    assert np.linalg.norm(c.values) == pytest.approx(np.linalg.norm(stream.values), rel=1e-12)
    back = reconstruct(c)
    assert np.abs(back.values - stream.values).max() < 1e-10
    assert back.t0 == stream.t0


def test_framework_associativity(rng):
    h = rng.standard_normal((6, 6))
    l = rng.standard_normal((6, 16))
    q = rng.standard_normal((16, 16))
    assert np.allclose((h @ l) @ q, h @ (l @ q), atol=1e-10)


def test_time_structure_rows_match_analyze(rng, fig_basis):
    stream = random_stream(rng, t=6)
    x = time_structure(stream, fig_basis)
    for t in range(6):
        row = analyze(stream.slice_at(t), fig_basis).values
        assert np.abs(x[t] - row).max() < 1e-12
    s, w = structure_split(x, fig_basis)
    assert s.shape == (6, 2) and w.shape == (6, 14)


def test_oscillating_scaling_series_alternate(fig_basis):
    stream = synth.gen_oscillating(8)
    x = time_structure(stream, fig_basis)
    s = x[:, :2]
    amp = 8 / np.sqrt(8)
    assert np.allclose(s[0::2, 0], amp) and np.allclose(s[0::2, 1], 0.0)
    assert np.allclose(s[1::2, 1], amp) and np.allclose(s[1::2, 0], 0.0)
    # claw and triangle never appear simultaneously
    assert np.all((s[:, 0] < 1e-12) | (s[:, 1] < 1e-12))


def test_freq_relational_matches_dft(rng):
    stream = random_stream(rng, t=8)
    psi = FourierBasis(8).matrix()
    assert np.abs(freq_relational(stream) - psi.conj().T @ stream.values).max() < 1e-10


def test_default_basis_from_aggregate():
    g1, _, _ = synth.gen_sbm_pair(2, 4, 0.9, 0.05, seed=2)
    stream = stream_from_slices([g1, g1])
    basis = default_basis(stream, level=4, seed=1)
    assert basis.level == 4
    assert basis.num_relations == 64


# ---------------------------------------------------------------------------
# joint filters

def test_identity_joint_filter(rng, fig_basis):
    stream = random_stream(rng, t=8)
    jf = JointFilter(FrequencyFilter(np.ones(8)), np.ones(16))
    out = apply_joint_filter(stream, jf, fig_basis)
    assert np.abs(out.values - stream.values).max() < 1e-10


def test_joint_filter_two_paths_agree(rng, fig_basis):
    stream = random_stream(rng, t=8)
    chi = np.fft.fft(np.array([0.5, 0.3, 0.0, 0.0, 0.1, 0.0, 0.0, 0.1]))
    jf = JointFilter(FrequencyFilter(chi), rng.standard_normal(16))
    fast = apply_joint_filter(stream, jf, fig_basis)
    slow = apply_joint_filter_sequential(stream, jf, fig_basis)
    assert np.abs(fast.values - slow.values).max() < 1e-10


@pytest.mark.parametrize("path", [apply_joint_filter, apply_joint_filter_sequential])
@pytest.mark.parametrize("freq_len, struct_len", [
    (1, 16), (7, 16), (9, 16), (8, 1), (8, 15), (8, 17)])
def test_joint_filter_refuses_responses_that_do_not_fit(fig_basis, path, freq_len, struct_len):
    # length 1 would broadcast into a wrong stream; other lengths would fail in numpy
    stream = synth.gen_oscillating(8)
    jf = JointFilter(FrequencyFilter(np.ones(freq_len)), np.ones(struct_len))
    want = f"joint filter of {freq_len} frequencies by {struct_len} columns for a T = 8 by M = 16"
    with pytest.raises(ValueError, match=want):
        path(stream, jf, fig_basis)


def test_dc_plus_scaling_gives_constant_mean_graph(fig_basis):
    stream = synth.gen_oscillating(8)
    chi = np.zeros(8)
    chi[0] = 1.0
    jf = JointFilter(FrequencyFilter(chi), coarse_pass_response(fig_basis))
    out = apply_joint_filter(stream, jf, fig_basis)
    # every slice becomes the mean graph: 0.5 on every relation
    assert np.allclose(out.values, 0.5, atol=1e-10)


def test_embedding_filter_keeps_scaling_columns(fig_basis):
    stream = synth.gen_oscillating(8)
    jf = JointFilter(FrequencyFilter(np.ones(8)), coarse_pass_response(fig_basis))
    out = apply_joint_filter(stream, jf, fig_basis)
    x = time_structure(out, fig_basis)
    assert np.abs(x[:, 2:]).max() < 1e-10
    assert np.abs(x[:, :2] - time_structure(stream, fig_basis)[:, :2]).max() < 1e-10


def test_joint_filter_composition(rng, fig_basis):
    stream = random_stream(rng, t=8)
    folded = np.minimum(np.arange(8), 8 - np.arange(8))
    jf1 = JointFilter(FrequencyFilter(np.where(folded % 2 == 0, 1.0, 0.5)),
                      rng.random(16))
    jf2 = JointFilter(FrequencyFilter(np.where(folded < 2, 1.0, 0.25)),
                      rng.random(16))
    twice = apply_joint_filter(apply_joint_filter(stream, jf1, fig_basis), jf2, fig_basis)
    combined = JointFilter(FrequencyFilter(jf1.freq.response * jf2.freq.response),
                           jf1.struct * jf2.struct)
    once = apply_joint_filter(stream, combined, fig_basis)
    assert np.abs(twice.values - once.values).max() < 1e-9


# ---------------------------------------------------------------------------
# backbone

def test_backbone_keep_all(rng, fig_basis):
    stream = random_stream(rng, t=8)
    out, mask = backbone(stream, fig_basis, KeepRule.box(0, 4, 0, 15))
    assert mask.all()
    assert np.abs(out.values - stream.values).max() < 1e-10


def test_backbone_top4_oscillating_exact(fig_basis):
    stream = synth.gen_oscillating(8)
    out, mask = backbone(stream, fig_basis, KeepRule.top_k(4))
    assert mask.sum() == 4
    assert np.abs(out.values - stream.values).max() < 1e-10


def test_backbone_box_symmetric(fig_basis):
    stream = synth.gen_oscillating(8)
    out, mask = backbone(stream, fig_basis, KeepRule.box(0, 0, 0, 1))
    # DC only: the constant half-clique
    assert np.allclose(out.values, 0.5, atol=1e-10)
    assert mask[0, 0] and mask[0, 1] and not mask[4, 0]


def test_backbone_errors(fig_basis):
    stream = synth.gen_oscillating(8)
    with pytest.raises(ValueError):
        KeepRule.top_k(0)
    with pytest.raises(ValueError):
        backbone(stream, fig_basis, KeepRule.box(0, 99, 0, 1))
    with pytest.raises(ValueError):
        backbone(stream, fig_basis, KeepRule.box(0, 0, 0, 99))


def test_backbone_tie_break_deterministic(fig_basis):
    stream = synth.gen_oscillating(8)
    _, m1 = backbone(stream, fig_basis, KeepRule.top_k(2))
    _, m2 = backbone(stream, fig_basis, KeepRule.top_k(2))
    assert np.array_equal(m1, m2)
    # all four dominant entries tie; lexicographic (frequency, column) order wins
    assert m1[0, 0] and m1[0, 1]


@pytest.mark.parametrize("k", [3, 5])
def test_backbone_top_k_keeps_conjugate_pairs(k):
    # the k largest entries alone hold a frequency without its mirror here
    stream = synth.gen_daynight(2, 16, 20, 0.5, 0.5, 200, seed=0)
    basis = default_basis(stream, level=8, seed=0)
    out, mask = backbone(stream, basis, KeepRule.top_k(k))
    assert np.array_equal(mask, mask[(-np.arange(200)) % 200])
    assert k < mask.sum() <= 2 * k
    assert out.values.shape == stream.values.shape


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([2, 3, 4]), st.data())
def test_backbone_mask_closed_under_mirror(seed, t, n, data):
    rng = np.random.default_rng(seed)
    space = full_space(n)
    m = space.num_relations
    vals = rng.standard_normal((t, m))
    vals[:, space.inert] = 0.0
    basis = GraphBasis(random_tree(m, rng), data.draw(st.integers(1, m.bit_length() - 1)))
    if data.draw(st.booleans()):
        rule = KeepRule.top_k(data.draw(st.integers(1, t * m)))
    else:
        f0 = data.draw(st.integers(0, t // 2))
        c0 = data.draw(st.integers(0, m - 1))
        rule = KeepRule.box(f0, data.draw(st.integers(f0, t // 2)),
                            c0, data.draw(st.integers(c0, m - 1)))
    _, mask = backbone(LinkStreamMatrix(space, 0, vals), basis, rule)
    assert np.array_equal(mask, mask[(-np.arange(t)) % t])


def _top_k_mask_by_sort(coeffs, k):
    """The top-k mask by a stable sort of -|C|, the reference for KeepRule.mask."""
    t = coeffs.values.shape[0]
    order = np.argsort(-coeffs.magnitude.ravel(), kind="stable")
    mask = np.zeros(coeffs.values.size, dtype=bool)
    mask[order[:k]] = True
    mask = mask.reshape(coeffs.values.shape)
    return mask | mask[(-np.arange(t)) % t]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.sampled_from([2, 4]), st.integers(1, 3), st.data())
def test_top_k_mask_matches_stable_sort_under_ties(t, n, spread, data):
    # small integer parts make many magnitudes equal
    space = full_space(n)
    m = space.num_relations
    parts = data.draw(st.lists(st.integers(-spread, spread), min_size=2 * t * m,
                               max_size=2 * t * m))
    values = np.array(parts, dtype=float).view(complex).reshape(t, m)
    k = data.draw(st.integers(1, t * m))
    for order in "CF":   # ties go in (u, k) order whatever the memory order
        coeffs = CoefficientMatrix(np.asarray(values, order=order),
                                   GraphBasis(PartitionTree(np.arange(m)), 1), space)
        assert np.array_equal(KeepRule.top_k(k).mask(coeffs), _top_k_mask_by_sort(coeffs, k))


# ---------------------------------------------------------------------------
# regularity

def test_regularity_zero_for_trivial_stream(fig_basis):
    # constant stream of full motifs (the clique)
    vals = np.ones((6, 16))
    stream = LinkStreamMatrix(full_space(4), 0, vals)
    rep = regularity(stream, fig_basis)
    assert rep.reg_t == 0.0
    assert rep.reg_e == pytest.approx(0.0, abs=1e-12)
    assert rep.reg == pytest.approx(0.0, abs=1e-12)


def test_reg_t_equals_edit_sum(rng, fig_basis):
    stream = random_stream(rng, t=12)
    rep = regularity(stream, fig_basis)
    edits = sum(graph_edit(stream.slice_at(t), stream.slice_at((t - 1) % 12))
                for t in range(12))
    assert rep.reg_t == edits


def test_reg_t_linear_boundary(rng, fig_basis):
    stream = random_stream(rng, t=12)
    rep = regularity(stream, fig_basis, boundary="linear")
    edits = sum(graph_edit(stream.slice_at(t), stream.slice_at(t - 1))
                for t in range(1, 12))
    assert rep.reg_t == edits


def test_reg_e_closed_form(rng, fig_basis):
    stream = random_stream(rng, t=12)
    rep = regularity(stream, fig_basis)
    expected = 0.0
    for sl in stream.slices():
        m = motif_counts(sl, fig_basis).astype(float)
        expected += np.sum(m - m ** 2 / 8)
    assert rep.reg_e == pytest.approx(expected, abs=1e-9)


def test_relaxed_regularity_zero_on_structural_class(rng):
    basis = GraphBasis(random_tree(64, rng), 4)
    profile = rng.integers(0, 17, size=4)
    cls = synth.StructuralClass(full_space(8), basis.tree, 4, profile)
    slices = [synth.sample_structurally_equal(cls, rng) for _ in range(16)]
    stream = stream_from_slices(slices)
    assert relaxed_time_regularity(stream, basis) < 1e-10


def test_relaxed_regularity_alternating_value(fig_basis, osc_space):
    stream = synth.gen_oscillating(16)
    claw = analyze(stream.slice_at(0), fig_basis).scaling
    tri = analyze(stream.slice_at(1), fig_basis).scaling
    expected = 16 * float(np.sum((claw - tri) ** 2))
    assert relaxed_time_regularity(stream, fig_basis) == pytest.approx(expected, rel=1e-12)
    const = LinkStreamMatrix(osc_space, 0, np.ones((6, 16)))
    assert relaxed_time_regularity(const, fig_basis) == 0.0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("boundary", ["circular", "linear"])
def test_relaxed_reg_t_equals_the_scaling_block_oracle_bitwise(order, boundary):
    rng = np.random.default_rng(40)
    stream = _weighted_stream(rng, 40, 16)
    stream = LinkStreamMatrix(stream.space, 0, np.asarray(stream.values, order=order))
    basis = GraphBasis(random_tree(stream.num_relations, rng), 4)
    s = time_structure(stream, basis)[:, : basis.num_scaling]
    ds = s - np.roll(s, 1, axis=0) if boundary == "circular" else np.diff(s, axis=0)
    ds = np.asfortranarray(ds)   # summed in the filter bank's layout
    rep = regularity(stream, basis, boundary)
    _same_bits(rep.relaxed_reg_t, float(np.sum(ds * ds)))
    if boundary == "circular":
        _same_bits(relaxed_time_regularity(stream, basis), rep.relaxed_reg_t)
    assert list(rep.as_dict()) == ["reg_t", "reg_e", "reg", "boundary", "relaxed_reg_t"]


# ---------------------------------------------------------------------------
# in-place kernels: bitwise oracle, memory bound, caller arrays untouched
#
# The reference functions are the plain, allocating numpy expressions of each
# transform; the kernels, which write into buffers they own, must give the
# same bytes (-0.0 included), not merely close values.

def _ref_analyze(basis, values):
    s = values[..., basis.tree.position_to_relation]
    details = []
    for l in range(1, basis.level + 1):
        even, odd = s[..., 0::2], s[..., 1::2]
        details.append((even - odd) * 2.0 ** (-l / 2.0))
        s = even + odd
    return np.concatenate([s * 2.0 ** (-basis.level / 2.0)] + details[::-1], axis=-1)


def _ref_synthesize(basis, coeffs):
    s = coeffs[..., : basis.num_scaling] * 2.0 ** (basis.level / 2.0)
    for l in range(basis.level, 0, -1):
        w = coeffs[..., basis.wavelet_slice(l)] * 2.0 ** (l / 2.0)
        nxt = np.empty(s.shape[:-1] + (2 * w.shape[-1],), dtype=np.result_type(s, w))
        nxt[..., 0::2] = (s + w) * 0.5
        nxt[..., 1::2] = (s - w) * 0.5
        s = nxt
    return s[..., basis.tree.leaf_order]


def _ref_forward(values):
    return np.fft.fft(values, axis=0) / np.sqrt(values.shape[0])


def _ref_inverse(coeffs):
    return np.fft.ifft(coeffs, axis=0) * np.sqrt(coeffs.shape[0])


def _ref_derivative(values):
    return values - np.roll(values, 1, axis=0)


def _ref_circulant(kernel, values):
    out = np.zeros_like(values)
    for d in np.nonzero(kernel)[0]:
        out += kernel[d] * np.roll(values, d, axis=0)
    return out


def _ref_round_trip(grid, basis, space):
    vals = _ref_synthesize(basis, _ref_inverse(grid).real)
    vals[..., space.inert] = 0.0
    return vals


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _weighted_stream(rng, t, n):
    space = full_space(n)
    vals = rng.standard_normal((t, space.num_relations))
    vals[rng.random(vals.shape) < 0.3] = 0.0
    vals[:, space.inert] = 0.0
    return LinkStreamMatrix(space, 0, vals)


@pytest.mark.parametrize("t,n,level", [(12, 3, 1), (12, 3, 4), (10, 16, 2), (10, 16, 8)],
                         ids=["padded-level1", "padded-full", "n16-level2", "n16-full"])
def test_in_place_kernels_match_allocating_references_bitwise(t, n, level):
    rng = np.random.default_rng([t, n, level])
    stream = _weighted_stream(rng, t, n)
    space, vals = stream.space, stream.values
    basis = GraphBasis(random_tree(space.num_relations, rng), level)

    x = _ref_analyze(basis, vals)
    _same_bits(basis.analyze_values(vals), x)
    _same_bits(basis.synthesize_values(x), _ref_synthesize(basis, x))
    c = _ref_forward(x)
    _same_bits(FourierBasis(t).forward(x), c)
    _same_bits(FourierBasis(t).inverse(c), _ref_inverse(c))

    coeffs = decompose(stream, basis)
    _same_bits(coeffs.values, c)
    _same_bits(reconstruct(coeffs).values, _ref_round_trip(c, basis, space))
    for rule in (KeepRule.box(0, t // 4, 0, basis.num_scaling - 1), KeepRule.top_k(3)):
        kept, mask = backbone(stream, basis, rule)
        _same_bits(kept.values, _ref_round_trip(np.where(mask, c, 0.0), basis, space))
    jf = JointFilter(lowpass_filter(0.2, t), rng.standard_normal(space.num_relations))
    _same_bits(apply_joint_filter(stream, jf, basis).values,
               _ref_round_trip(jf.freq.response[:, None] * c * jf.struct[None, :], basis, space))
    _same_bits(apply_frequency_filter(stream, jf.freq).values,
               _ref_inverse(jf.freq.response[:, None] * _ref_forward(vals)).real)

    dt = _ref_derivative(vals)
    de = _ref_synthesize(basis, x * detail_pass_response(basis)[None, :])
    de[..., space.inert] = 0.0
    rep = regularity(stream, basis)
    _same_bits(rep.reg_t, float(np.sum(dt * dt)))
    _same_bits(rep.reg_e, float(np.sum(de * de)))
    ds = _ref_derivative(x[:, : basis.num_scaling])
    _same_bits(relaxed_time_regularity(stream, basis), float(np.sum(ds * ds)))

    kernel = np.zeros(t)
    kernel[:3] = 1.0
    _same_bits(aggregate(stream, 3).values, _ref_circulant(kernel, vals))
    kernel = np.zeros(t)
    kernel[[0, 1]] = 1.0, -1.0
    _same_bits(time_diff_operator(t).apply_values(stream.values), _ref_circulant(kernel, vals))


def _layout_results(stream, coeffs, basis, jf, top):
    """Every kernel's result on one stream and one coefficient grid."""
    t = stream.num_times
    x = basis.analyze_values(stream.values)
    results = [
        x,
        basis.synthesize_values(x),
        FourierBasis(t).forward(stream.values),
        FourierBasis(t).inverse(coeffs.values),
        decompose(stream, basis).values,
        reconstruct(coeffs).values,
        apply_joint_filter(stream, jf, basis).values,
        apply_joint_filter_sequential(stream, jf, basis).values,
        relaxed_time_regularity(stream, basis),
        aggregate(stream, min(3, t)).values,
        stream.aggregate_graph().weights,
    ]
    for rule in (KeepRule.box(0, t // 4, 0, basis.num_scaling - 1), KeepRule.top_k(top)):
        kept, mask = backbone(stream, basis, rule)
        results += [kept.values, mask]
    for boundary in ("circular", "linear"):
        rep = regularity(stream, basis, boundary)
        results += [rep.reg_t, rep.reg_e, rep.relaxed_reg_t]
    return results


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 12), n=st.integers(2, 5), unweighted=st.booleans(), data=st.data())
def test_kernels_give_the_same_bits_for_row_and_column_major_input(t, n, unweighted, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stream = _weighted_stream(rng, t, n)
    if unweighted:   # ties in |C| for the top-k rule
        stream = stream.with_values(stream.values != 0.0)
    m = stream.num_relations
    basis = GraphBasis(random_tree(m, rng), data.draw(st.integers(1, m.bit_length() - 1)))
    jf = JointFilter(lowpass_filter(0.2, t), rng.standard_normal(m))
    top = data.draw(st.integers(1, t * m))
    grid = decompose(stream, basis).values
    results = []
    for order in "CF":
        layout = (LinkStreamMatrix(stream.space, 0, np.asarray(stream.values, order=order)),
                  CoefficientMatrix(np.asarray(grid, order=order), basis, stream.space))
        assert all(a.values.flags[f"{order}_CONTIGUOUS"] for a in layout)
        results.append(_layout_results(*layout, basis, jf, top))
    for got, want in zip(*results):
        _same_bits(got, want)


def _worker_results(stream, coeffs, basis, jf, top):
    """Each product the kernels' worker split reaches, on one stream."""
    results = [time_structure(stream, basis), decompose(stream, basis).values,
               reconstruct(coeffs).values, apply_joint_filter(stream, jf, basis).values,
               apply_frequency_filter(stream, jf.freq).values]
    for rule in (KeepRule.box(0, stream.num_times // 4, 0, basis.num_scaling - 1),
                 KeepRule.top_k(top)):
        kept, mask = backbone(stream, basis, rule)
        results += [kept.values, mask]
    for boundary in ("circular", "linear"):
        results += list(regularity(stream, basis, boundary).as_dict().values())
    return results


def _signature(result):
    """Bits, dtype, shape, memory order and write flag of one result."""
    if not isinstance(result, np.ndarray):
        return repr(result)
    flags = result.flags
    return (result.dtype.str, result.shape, flags.c_contiguous, flags.f_contiguous,
            flags.writeable, result.tobytes(order="A"))


@settings(max_examples=40, deadline=None)
@given(t=st.sampled_from([1, 2, 3, 7, 8, 13]), relations=st.integers(2, 40),
       order=st.sampled_from("CF"), data=st.data())
def test_kernels_give_the_same_bits_and_layout_for_any_worker_count(t, relations, order,
                                                                   data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    space = active_space(7, [(k // 7, k % 7) for k in range(relations)])
    m = space.num_relations   # 2 to 64, padded above the active relations
    vals = rng.standard_normal((t, m))
    vals[:, space.inert] = 0.0
    stream = LinkStreamMatrix(space, 0, np.asarray(vals, order=order))
    basis = GraphBasis(random_tree(m, rng), data.draw(st.integers(1, m.bit_length() - 1)))
    jf = JointFilter(lowpass_filter(0.2, t), rng.standard_normal(m))
    grid = decompose(stream, basis).values
    coeffs = CoefficientMatrix(np.asarray(grid, order=order), basis, space)
    top = data.draw(st.integers(1, t * m))
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lstream, "_SPLIT_MIN_CELLS", 1)   # split even these small grids
        for workers in ("1", "2", "3"):
            mp.setenv("LINKSPECTRA_THREADS", workers)
            runs.append([_signature(r) for r in _worker_results(stream, coeffs, basis, jf, top)])
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_asymmetric_response_fails_the_same_way_for_any_worker_count(monkeypatch, rng):
    monkeypatch.setattr(lstream, "_SPLIT_MIN_CELLS", 1)
    stream = LinkStreamMatrix(full_space(4), 0, rng.standard_normal((16, 16)))
    chi = np.zeros(16, dtype=complex)
    chi[3] = 1.0  # keeps one side only
    before = threading.active_count()
    messages = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("LINKSPECTRA_THREADS", workers)
        with pytest.raises(ValueError, match="not conjugate-symmetric") as err:
            apply_frequency_filter(stream, FrequencyFilter(chi))
        messages.append(str(err.value))
        assert threading.active_count() == before
    assert messages == messages[:1] * 3


def test_each_grid_is_analysed_once_whatever_the_worker_count(monkeypatch, rng):
    monkeypatch.setattr(lstream, "_SPLIT_MIN_CELLS", 1)
    monkeypatch.setenv("LINKSPECTRA_THREADS", "2")
    calls = []
    for owner, name in ((GraphBasis, "analyze_values"), (GraphBasis, "synthesize_values"),
                        (FourierBasis, "forward")):
        def counting(self, grid, _wrapped=getattr(owner, name), _name=name):
            calls.append((_name, threading.get_ident()))
            return _wrapped(self, grid)
        monkeypatch.setattr(owner, name, counting)
    stream = _weighted_stream(rng, 12, 4)
    basis = GraphBasis(random_tree(16, rng), 2)
    jf = JointFilter(lowpass_filter(0.2, 12), rng.standard_normal(16))
    box = KeepRule.box(0, 2, 0, basis.num_scaling - 1)
    one_each = [("analyze_values",), ("analyze_values", "forward"),
                ("analyze_values", "forward", "synthesize_values")]
    for call, want in ((lambda: time_structure(stream, basis), one_each[0]),
                       (lambda: decompose(stream, basis), one_each[1]),
                       (lambda: backbone(stream, basis, box), one_each[2]),
                       (lambda: apply_joint_filter(stream, jf, basis), one_each[2]),
                       (lambda: regularity(stream, basis), ("analyze_values",
                                                            "synthesize_values"))):
        calls.clear()
        call()
        assert sorted(name for name, _ in calls) == sorted(want)
        assert {ident for _, ident in calls} == {threading.get_ident()}


def test_backbone_is_backbone_from_the_decomposition(rng):
    stream = _weighted_stream(rng, 12, 4)
    basis = GraphBasis(random_tree(16, rng), 2)
    coeffs = decompose(stream, basis)
    for rule in (KeepRule.box(0, 2, 0, basis.num_scaling - 1), KeepRule.top_k(5)):
        kept, mask = backbone(stream, basis, rule)
        kept_from, mask_from = backbone_from(coeffs, rule)
        _same_bits(kept_from.values, kept.values)
        _same_bits(mask_from, mask)
    assert not coeffs.values.flags.writeable   # the grid given is left as it was


def _traced_peak(call) -> int:
    """tracemalloc peak of ``call()`` after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_kernels_stay_within_a_few_stream_sizes():
    rng = np.random.default_rng(4096)
    stream = _weighted_stream(rng, 64, 64)  # T = 64, M = 2^12
    basis = GraphBasis(random_tree(stream.num_relations, rng), 6)
    coeffs = decompose(stream, basis)
    box = KeepRule.box(0, 3, 0, basis.num_scaling - 1)
    jf = JointFilter(lowpass_filter(0.05, 64), coarse_pass_response(basis))
    bounds = {
        "backbone top-k": (lambda: backbone(stream, basis, KeepRule.top_k(4)), 5.5),
        "decompose": (lambda: decompose(stream, basis), 4.5),
        "reconstruct": (lambda: reconstruct(coeffs), 4.5),
        "backbone box": (lambda: backbone(stream, basis, box), 4.5),
        "apply_joint_filter": (lambda: apply_joint_filter(stream, jf, basis), 4.5),
        "regularity": (lambda: regularity(stream, basis), 3.5),
        "aggregate": (lambda: aggregate(stream, 8), 3.5),
    }
    multiples = {name: _traced_peak(call) / stream.values.nbytes
                 for name, (call, _) in bounds.items()}
    over = {name: round(multiples[name], 2) for name, (_, bound) in bounds.items()
            if multiples[name] > bound}
    assert not over, f"peak over the bound, in stream sizes: {over}"


def test_transforms_leave_caller_arrays_unchanged(rng):
    t = 8
    fourier = FourierBasis(t)
    stream = _weighted_stream(rng, t, 4)
    real = rng.standard_normal((t, 16))
    grid = real + 1j * rng.standard_normal((t, 16))
    coeffs = decompose(stream, GraphBasis(random_tree(16, rng)))
    calls = [
        (lambda: fourier.forward(real), real),
        (lambda: fourier.forward(grid), grid),
        (lambda: fourier.inverse(grid), grid),
        (lambda: apply_frequency_filter(stream, lowpass_filter(0.25, t)), stream.values),
        (lambda: reconstruct(coeffs), coeffs.values),
    ]
    for call, arg in calls:
        before = arg.copy()
        first = call()
        _same_bits(arg, before)
        again = call()  # a consumed input would change the second result
        _same_bits(getattr(again, "values", again), getattr(first, "values", first))
