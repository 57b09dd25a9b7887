import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import (
    GraphBasis,
    GraphSlice,
    analyze,
    detail_filter,
    edit_distance_spectrum,
    full_space,
    graph_edit,
    graph_regularity,
    motif_counts,
    slice_from_edges,
    structural_filter_graph,
    synthesize,
)
from linkspectra.graphbasis import GraphCoefficients, coarse_pass_response
from linkspectra.partition import PartitionTree
from linkspectra import synth

from conftest import random_tree, random_unweighted, random_weighted


def make_basis(m, level, rng):
    return GraphBasis(random_tree(m, rng), level)


# ---------------------------------------------------------------------------
# analyze / synthesize

def test_clique_coefficients_at_coarsest(fig_basis, osc_space):
    basis = GraphBasis(fig_basis.tree, 4)
    clique = GraphSlice(osc_space, np.ones(16))
    x = analyze(clique, basis)
    assert x.scaling.shape == (1,)
    assert x.scaling[0] == pytest.approx(16 / np.sqrt(16), abs=1e-12)
    assert np.abs(x.values[1:]).max() < 1e-12


def test_claw_coefficients_at_level3(fig_basis, osc_space):
    claw = slice_from_edges(osc_space, synth.claw_indices(osc_space))
    x = analyze(claw, fig_basis)
    assert x.scaling[0] == pytest.approx(8 / np.sqrt(8), abs=1e-12)
    assert x.scaling[1] == 0.0
    assert np.abs(x.values[2:]).max() < 1e-12


def test_zero_graph_zero_coefficients(fig_basis, osc_space):
    x = analyze(GraphSlice(osc_space, np.zeros(16)), fig_basis)
    assert np.all(x.values == 0.0)


def test_linearity_claw_plus_triangle_is_clique(osc_space):
    basis = GraphBasis(synth.fig_partition(), 4)
    claw = slice_from_edges(osc_space, synth.claw_indices(osc_space))
    tri = slice_from_edges(osc_space, synth.triangle_indices(osc_space))
    clique = GraphSlice(osc_space, np.ones(16))
    xc = analyze(claw, basis).values
    xt = analyze(tri, basis).values
    xq = analyze(clique, basis).values
    assert np.allclose(xc + xt, xq, atol=1e-12)
    # the largest-scale wavelet coefficients cancel out
    w_top = basis.num_scaling  # first wavelet column is w^(4)_0
    assert xc[w_top] == pytest.approx(2.0)
    assert xt[w_top] == pytest.approx(-2.0)
    assert xq[w_top] == pytest.approx(0.0, abs=1e-12)


def test_round_trip_identity(rng):
    for m, level in ((16, 4), (64, 3), (256, 8)):
        basis = make_basis(m, level, rng)
        space = full_space(int(np.sqrt(m)))
        g = random_weighted(space, rng)
        back = synthesize(analyze(g, basis), space)
        assert np.abs(back.weights - g.weights).max() < 1e-12


def test_fast_transform_matches_dense(rng):
    for m in (16, 64, 256):
        level = int(np.log2(m))
        basis = make_basis(m, level, rng)
        phi = basis.materialize()
        assert np.abs(phi @ phi.T - np.eye(m)).max() < 1e-12
        g = random_weighted(full_space(int(np.sqrt(m))), rng)
        assert np.abs(basis.analyze_values(g.weights) - phi @ g.weights).max() < 1e-12


def test_intermediate_level_orthonormal(rng):
    basis = make_basis(64, 3, rng)
    phi = basis.materialize()
    assert np.abs(phi @ phi.T - np.eye(64)).max() < 1e-12
    assert basis.num_scaling == 8


def test_parseval(rng):
    basis = make_basis(64, 4, rng)
    g = random_weighted(full_space(8), rng)
    x = analyze(g, basis).values
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(g.weights), rel=1e-12)


def test_basis_space_mismatch(fig_basis):
    g = GraphSlice(full_space(8), np.zeros(64))
    with pytest.raises(ValueError):
        analyze(g, fig_basis)


def test_level_out_of_range():
    tree = PartitionTree(np.arange(16))
    with pytest.raises(ValueError):
        GraphBasis(tree, 5)
    with pytest.raises(ValueError):
        GraphBasis(tree, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    level = int(rng.integers(1, 5))
    basis = make_basis(16, level, rng)
    g = random_weighted(full_space(4), rng)
    back = synthesize(analyze(g, basis), g.space)
    assert np.abs(back.weights - g.weights).max() < 1e-12


# ---------------------------------------------------------------------------
# embeddings and the edit-distance spectrum

def test_edit_spectrum_examples(fig_basis, osc_space, rng):
    claw = slice_from_edges(osc_space, synth.claw_indices(osc_space))
    assert np.all(edit_distance_spectrum(claw, claw, fig_basis) == 0.0)
    empty = GraphSlice(osc_space, np.zeros(16))
    g = random_unweighted(osc_space, rng)
    assert edit_distance_spectrum(empty, g, fig_basis).sum() == pytest.approx(
        g.edge_count, abs=1e-9)


def test_edit_spectrum_sums_exactly(rng):
    basis = make_basis(64, 6, rng)
    space = full_space(8)
    for _ in range(25):
        g1 = random_unweighted(space, rng)
        g2 = random_unweighted(space, rng)
        total = edit_distance_spectrum(g1, g2, basis).sum()
        assert round(total) == graph_edit(g1, g2)
        assert abs(total - round(total)) < 1e-9


def test_edit_spectrum_rejects_weighted(fig_basis, osc_space, rng):
    weighted = random_weighted(osc_space, rng)
    with pytest.raises(ValueError):
        edit_distance_spectrum(weighted, weighted, fig_basis)


def test_embed_identities(rng):
    basis = make_basis(16, 4, rng)
    space = full_space(4)
    g1 = slice_from_edges(space, [(0, 1), (1, 2)])
    g2 = slice_from_edges(space, [(2, 3), (3, 3)])
    x1 = analyze(g1, basis).values
    assert np.dot(x1, analyze(g2, basis).values) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(x1, x1) == pytest.approx(2.0, abs=1e-12)


def test_embed_coarse_closed_forms(rng):
    basis = make_basis(16, 2, rng)
    space = full_space(4)
    g = random_unweighted(space, rng)
    m = motif_counts(g, basis)
    s = analyze(g, basis).scaling
    assert np.dot(s, s) == pytest.approx(np.sum(m.astype(float) ** 2) / 4, abs=1e-9)
    # structurally equal graphs share the scaling vector
    cls = synth.StructuralClass(g.space, basis.tree, basis.level, m)
    other = synth.sample_structurally_equal(cls, rng)
    assert np.allclose(analyze(other, basis).scaling, s, atol=1e-9)


# ---------------------------------------------------------------------------
# structural filters

def edge_domain_filter(g, basis, response):
    """Independent oracle: the filter written directly over relations."""
    tree, j = basis.tree, basis.level
    m = tree.num_relations
    sums = {0: g.weights[tree.position_to_relation].astype(float)}
    for l in range(1, j + 1):
        sums[l] = sums[l - 1][0::2] + sums[l - 1][1::2]
    out = np.zeros(m)
    for e in range(m):
        pos = int(tree.leaf_order[e])
        val = response[pos >> j] / 2 ** j * sums[j][pos >> j]
        offset = m >> j
        for l in range(j, 0, -1):
            k = pos >> l
            left = sums[l - 1][2 * k]
            right = sums[l - 1][2 * k + 1]
            sign = 1.0 if ((pos >> (l - 1)) & 1) == 0 else -1.0
            val += response[offset + k] / 2 ** l * (left - right) * sign
            offset += m >> l
        out[e] = val
    return out


def test_identity_filter(fig_basis, osc_space, rng):
    g = random_weighted(osc_space, rng)
    out = structural_filter_graph(g, fig_basis, np.ones(16))
    assert np.abs(out.weights - g.weights).max() < 1e-12


def test_coarse_filter_closed_form(fig_basis, osc_space, rng):
    g = random_weighted(osc_space, rng)
    out = structural_filter_graph(g, fig_basis, coarse_pass_response(fig_basis))
    for k, members in enumerate(fig_basis.tree.sets(3)):
        expected = g.weights[members].sum() / 8
        assert np.allclose(out.weights[members], expected, atol=1e-10)


def test_detail_filter_closed_form(fig_basis, osc_space, rng):
    g = random_weighted(osc_space, rng)
    out = detail_filter(g, fig_basis)
    for members in fig_basis.tree.sets(3):
        mean = g.weights[members].sum() / 8
        assert np.allclose(out.weights[members], g.weights[members] - mean, atol=1e-10)


def test_decomposition_splits_and_detail_idempotent(fig_basis, osc_space, rng):
    g = random_weighted(osc_space, rng)
    c = structural_filter_graph(g, fig_basis, coarse_pass_response(fig_basis))
    d = detail_filter(g, fig_basis)
    assert np.abs(c.weights + d.weights - g.weights).max() < 1e-12
    dd = detail_filter(d, fig_basis)
    assert np.abs(dd.weights - d.weights).max() < 1e-12


def test_filter_matches_edge_domain_oracle(rng):
    basis = make_basis(16, 3, rng)
    g = random_weighted(full_space(4), rng)
    response = rng.standard_normal(16)
    got = structural_filter_graph(g, basis, response).weights
    assert np.abs(got - edge_domain_filter(g, basis, response)).max() < 1e-10


def test_template_graph(fig_basis, osc_space):
    tpl = synthesize(GraphCoefficients(fig_basis, np.ones(16)), osc_space)
    back = analyze(tpl, fig_basis)
    assert np.allclose(back.values, 1.0, atol=1e-12)
    clique = GraphSlice(osc_space, np.ones(16))
    target = analyze(clique, fig_basis).values
    filtered = structural_filter_graph(tpl, fig_basis, target)
    assert np.abs(filtered.weights - clique.weights).max() < 1e-10
    emptied = structural_filter_graph(tpl, fig_basis, np.zeros(16))
    assert np.all(emptied.weights == 0.0)


# ---------------------------------------------------------------------------
# regularity

def test_regularity_zero_for_full_or_empty_motifs(osc_space):
    basis = GraphBasis(synth.fig_partition(), 3)
    clique = GraphSlice(osc_space, np.ones(16))
    assert graph_regularity(clique, basis) == pytest.approx(0.0, abs=1e-12)
    claw = slice_from_edges(osc_space, synth.claw_indices(osc_space))
    assert graph_regularity(claw, basis) == pytest.approx(0.0, abs=1e-12)
    empty = GraphSlice(osc_space, np.zeros(16))
    assert graph_regularity(empty, basis) == 0.0


def test_regularity_half_full_motif(rng):
    basis = make_basis(16, 2, rng)  # motifs of size 4
    members = basis.tree.sets(2)[0][:2]
    g = slice_from_edges(full_space(4), members)
    # closed form: 2 - 2^2/4 = 1
    assert graph_regularity(g, basis) == pytest.approx(1.0, abs=1e-12)


def test_regularity_closed_form_random(rng):
    basis = make_basis(64, 4, rng)
    g = random_unweighted(full_space(8), rng)
    m = motif_counts(g, basis).astype(float)
    assert graph_regularity(g, basis) == pytest.approx(np.sum(m - m ** 2 / 16), abs=1e-9)


def test_coefficient_layout_metadata(fig_basis):
    assert list(fig_basis.columns())[:3] == [("s", 3, 0), ("s", 3, 1), ("w", 3, 0)]
    assert fig_basis.wavelet_slice(3) == slice(2, 4)
    assert fig_basis.wavelet_slice(1) == slice(8, 16)
    with pytest.raises(ValueError):
        fig_basis.wavelet_slice(4)


@pytest.mark.parametrize("m", [2 ** e for e in range(1, 9)])
def test_column_table_and_wavelet_slices_match_dense_basis(m, rng):
    tree = random_tree(m, rng)
    sets = [tree.sets(l) for l in range(tree.num_levels + 1)]
    for level in range(1, tree.num_levels + 1):
        basis = GraphBasis(tree, level)
        phi = basis.materialize()
        table = list(basis.columns())
        assert len(table) == m
        for row, (kind, lvl, index) in enumerate(table):
            assert kind == ("s" if row < basis.num_scaling else "w")
            assert lvl == level if kind == "s" else 1 <= lvl <= level
            assert np.array_equal(np.flatnonzero(phi[row]), sets[lvl][index])
        for l in range(1, level + 1):
            rows = [r for r, (kind, lvl, _) in enumerate(table) if kind == "w" and lvl == l]
            assert rows == list(range(m))[basis.wavelet_slice(l)]


def test_coefficients_accessors(fig_basis, osc_space, rng):
    g = random_weighted(osc_space, rng)
    x = analyze(g, fig_basis)
    assert x.scaling.shape == (2,)
    assert x.wavelet(3).shape == (2,)
    assert x.wavelet(1).shape == (8,)
    with pytest.raises(ValueError):
        GraphCoefficients(fig_basis, np.zeros(5))
