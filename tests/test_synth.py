import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from linkspectra import (
    GraphBasis,
    aggregate,
    analyze,
    full_space,
    graph_edit,
    motif_counts,
)
from linkspectra import synth
from linkspectra.synth import StructuralClass, sample_structurally_equal


# ---------------------------------------------------------------------------
# fixtures

def test_oscillating_rows():
    stream = synth.gen_oscillating(2)
    space = stream.space
    claw = set(synth.claw_indices(space).tolist())
    tri = set(synth.triangle_indices(space).tolist())
    assert claw.isdisjoint(tri) and len(claw | tri) == 16
    assert stream.slice_at(0).edge_set == claw
    assert stream.slice_at(1).edge_set == tri
    assert graph_edit(stream.slice_at(0), stream.slice_at(1)) == 16


def test_oscillating_aggregate_clique():
    stream = synth.gen_oscillating(8)
    assert np.array_equal(aggregate(stream, 2).values, np.ones((8, 16)))


def test_fig_partition_motifs():
    tree = synth.fig_partition()
    space = synth.oscillating_space()
    sets3 = tree.sets(3)
    assert set(sets3[0].tolist()) == set(synth.claw_indices(space).tolist())
    assert set(sets3[1].tolist()) == set(synth.triangle_indices(space).tolist())


def test_sbm_pair_degenerate_parameters():
    g1, g2, tree = synth.gen_sbm_pair(2, 4, 1.0, 0.0, seed=0)
    assert graph_edit(g1, g2) == 0
    basis = GraphBasis(tree, synth.block_level(4))
    counts = motif_counts(g1, basis)
    # full within-block groups, empty cross blocks
    assert counts.tolist() == [16, 0, 0, 16]


def test_sbm_tree_aligned_with_blocks():
    g1, _, tree = synth.gen_sbm_pair(2, 16, 0.5, 0.01, seed=1)
    level = synth.block_level(16)
    sets = tree.sets(level)
    assert len(sets) == 4
    within_a = {u * 32 + v for u in range(16) for v in range(16)}
    within_b = {u * 32 + v for u in range(16, 32) for v in range(16, 32)}
    assert set(sets[0].tolist()) == within_a
    assert set(sets[3].tolist()) == within_b


def test_sbm_expected_overlap_paper_parameters():
    # per relation the overlap indicator is Bernoulli(p^2) with p by block pair,
    # so E|E1 n E2| = 2*256*p_in^2 + 2*256*p_out^2 for 2 blocks of 16
    trials = 60
    p_in, p_out = 0.5, 0.01
    overlaps = []
    for seed in range(trials):
        g1, g2, _ = synth.gen_sbm_pair(2, 16, p_in, p_out, seed=seed)
        overlaps.append(len(g1.edge_set & g2.edge_set))
    expected = 2 * 256 * p_in ** 2 + 2 * 256 * p_out ** 2
    observed = np.mean(overlaps)
    se = np.std(overlaps, ddof=1) / np.sqrt(trials)
    assert abs(observed - expected) < 4 * se


def test_sbm_equal_probabilities_statistically_flat():
    # p_in == p_out removes the community signal from the coarse coefficients
    diffs = []
    for seed in range(30):
        g1, _, tree = synth.gen_sbm_pair(2, 8, 0.3, 0.3, seed=seed)
        basis = GraphBasis(tree, synth.block_level(8))
        s = analyze(g1, basis).scaling
        diffs.append(s[0] - s[3])
    mean = np.mean(diffs)
    se = np.std(diffs, ddof=1) / np.sqrt(len(diffs))
    assert abs(mean) < 4 * max(se, 1e-9)


def test_daynight_extremes():
    const = synth.gen_daynight(duty=1.0, p_active=1.0, num_times=12, seed=0)
    tmpl = synth.daynight_template(duty=1.0, num_times=12)
    assert np.array_equal(const.values, tmpl.values)
    assert const.slice_at(0).edge_count == 2 * 16 * 16
    silent = synth.gen_daynight(p_active=0.0, num_times=12, seed=0)
    assert np.all(silent.values == 0.0)


def test_sbm_deterministic_per_seed():
    a1, a2, _ = synth.gen_sbm_pair(2, 8, 0.4, 0.05, seed=3)
    b1, b2, _ = synth.gen_sbm_pair(2, 8, 0.4, 0.05, seed=3)
    assert np.array_equal(a1.weights, b1.weights)
    assert np.array_equal(a2.weights, b2.weights)


def test_daynight_deterministic():
    a = synth.gen_daynight(seed=5, num_times=40)
    b = synth.gen_daynight(seed=5, num_times=40)
    c = synth.gen_daynight(seed=6, num_times=40)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("communities, per_comm", [(3, 3), (1, 5), (3, 1)])
def test_daynight_vertex_count_not_a_power_of_two(communities, per_comm):
    n = communities * per_comm
    stream = synth.gen_daynight(communities, per_comm, 4, 0.5, 0.7, 12, seed=2)
    tmpl = synth.daynight_template(communities, per_comm, 4, 0.5, 12)
    assert stream.space == tmpl.space == full_space(n)
    assert stream.space.num_relations == n * n   # the N^2 pairs, no relation pads
    # the draws fill the within-community cells of the day steps in order;
    # the template holds full blocks there
    membership = np.repeat(np.arange(communities), per_comm)
    within = (membership[:, None] == membership[None, :]).reshape(-1)
    day = np.arange(12) % 4 < 2
    rng = np.random.default_rng(2)
    expected = np.zeros((12, n * n))
    expected[np.ix_(day, within)] = rng.random((day.sum(), within.sum())) < 0.7
    assert np.array_equal(stream.values, expected)
    assert np.array_equal(tmpl.values != 0, day[:, None] & within)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_communities=0), "communities and per_community must be >= 1, got 0 and 16"),
    (dict(per_community=0), "communities and per_community must be >= 1, got 2 and 0"),
    (dict(per_community=-2), "communities and per_community must be >= 1, got 2 and -2"),
    (dict(p_active=1.5), "p_active must lie in [0, 1], got 1.5"),
    (dict(duty=0.0), "need 0 < duty <= 1 and period >= 1, got duty=0.0, period=20"),
    (dict(num_times=0), "num_times must be >= 1, got 0"),
])
def test_daynight_refuses_bad_parameters(kwargs, message):
    kwargs = {"num_times": 8, **kwargs}
    with pytest.raises(ValueError) as info:
        synth.gen_daynight(**kwargs)
    assert str(info.value) == f"invalid day/night parameters: {message}"
    if "p_active" not in kwargs:
        with pytest.raises(ValueError) as info:
            synth.daynight_template(**kwargs)
        assert str(info.value) == f"invalid day/night parameters: {message}"


@pytest.mark.parametrize("p_in, p_out", [(2.0, 0.1), (0.5, -0.1), (float("nan"), 0.0)])
def test_sbm_pair_refuses_probabilities_outside_unit_interval(p_in, p_out):
    with pytest.raises(ValueError) as info:
        synth.gen_sbm_pair(2, 4, p_in, p_out, seed=0)
    assert str(info.value) == ("invalid SBM parameters: p_in and p_out must lie in [0, 1],"
                               f" got p_in={p_in}, p_out={p_out}")


@pytest.mark.parametrize("generate, times, relations", [
    (lambda: synth.gen_oscillating(40), 40, 16),
    (lambda: synth.gen_sbm_pair(2, 4, 0.5, 0.1, seed=0), 2, 64),
    (lambda: synth.gen_daynight(3, 2, num_times=10), 10, 36),
    (lambda: synth.daynight_template(3, 2, num_times=10), 10, 36),
], ids=["oscillating", "sbm-pair", "daynight", "daynight-template"])
def test_generators_refuse_a_grid_over_the_cell_limit(monkeypatch, generate, times, relations):
    from linkspectra import io as lio

    monkeypatch.setattr(lio, "MAX_INGEST_CELLS", times * relations)
    assert generate() is not None
    monkeypatch.setattr(lio, "MAX_INGEST_CELLS", times * relations - 1)
    spaces = []
    monkeypatch.setattr(synth, "full_space", lambda *a: spaces.append(a))
    with pytest.raises(ValueError) as info:
        generate()
    assert str(info.value) == (
        f"a T = {times} by M = {relations} stream needs {8 * times * relations} bytes,"
        f" over the {8 * (times * relations - 1)}-byte ingest limit")
    assert spaces == []   # refused before the relation list is built


def test_daynight_phase_structure():
    stream = synth.gen_daynight(duty=0.5, p_active=1.0, period=20, num_times=40, seed=0)
    assert stream.slice_at(0).edge_count > 0
    assert stream.slice_at(10).edge_count == 0  # night
    assert stream.slice_at(35).edge_count == 0
    assert stream.slice_at(25).edge_count == 512  # next day phase


# ---------------------------------------------------------------------------
# structural classes

def test_sample_preserves_profile(rng):
    tree = synth.fig_partition()
    basis = GraphBasis(tree, 3)
    profile = np.array([5, 2])
    cls = StructuralClass(synth.oscillating_space(), tree, 3, profile)
    for seed in range(5):
        g = sample_structurally_equal(cls, seed)
        assert motif_counts(g, basis).tolist() == [5, 2]


def test_sample_deterministic_extremes():
    tree = synth.fig_partition()
    cls = StructuralClass(synth.oscillating_space(), tree, 3, np.array([0, 8]))
    g = sample_structurally_equal(cls, 0)
    tri = set(synth.triangle_indices().tolist())
    assert g.edge_set == tri


def test_sample_uniform_chi_square():
    # motif width 4, m = 2: six possible subsets, 10^4 draws
    tree = synth.fig_partition()
    space = synth.oscillating_space()
    cls = StructuralClass(space, tree, 2, np.array([2, 0, 0, 0]))
    members = tree.sets(2)[0]
    subsets = {frozenset(c): 0 for c in itertools.combinations(members.tolist(), 2)}
    rng = np.random.default_rng(77)
    draws = 10_000
    for _ in range(draws):
        g = sample_structurally_equal(cls, rng)
        subsets[frozenset(g.edge_set)] += 1
    counts = np.array(list(subsets.values()))
    assert counts.sum() == draws
    _, p = stats.chisquare(counts)
    assert p > 1e-4


def _argpartition_draws(profile, level, trials, rng):
    """Reference sampler: per motif the argpartition top-m of the same keys."""
    width = 1 << level
    out = np.zeros((trials, profile.size, width), dtype=bool)
    for k, m in enumerate(profile):
        m = int(m)
        if m == 0:
            continue
        if m == width:
            out[:, k, :] = True
            continue
        keys = rng.random((trials, width))
        sel = np.argpartition(keys, m - 1, axis=1)[:, :m]
        out[np.repeat(np.arange(trials), m), k, sel.ravel()] = True
    return out


@st.composite
def _draw_cases(draw):
    level = draw(st.integers(1, 6))
    profile = draw(st.lists(st.integers(0, 1 << level), min_size=1, max_size=4))
    return level, np.array(profile), draw(st.integers(1, 300)), draw(st.integers(0, 2 ** 32))


@settings(max_examples=100, deadline=None)
@given(_draw_cases())
def test_membership_draws_match_argpartition_oracle(case):
    level, profile, trials, seed = case
    got = synth._membership_draws(profile, level, trials, np.random.default_rng(seed))
    want = _argpartition_draws(profile, level, trials, np.random.default_rng(seed))
    assert got.shape == want.shape and np.array_equal(got, want)
    assert (got.sum(axis=2) == profile).all()


class _QuantisedKeys:
    """Generator stub whose keys take only ``steps`` values, so rows tie."""

    def __init__(self, seed, steps):
        self.rng, self.steps = np.random.default_rng(seed), steps

    def random(self, size=None, out=None):
        keys = self.rng.random(size, out=out)
        keys *= self.steps
        return np.floor(keys, out=keys)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_membership_draws_keep_m_under_ties(steps):
    profile = np.array([1, 3, 8, 15, 0, 16, 7, 9])
    draws = synth._membership_draws(profile, 4, 500, _QuantisedKeys(steps, steps))
    assert (draws.sum(axis=2) == profile).all()


def test_profile_bounds_validated():
    tree = synth.fig_partition()
    with pytest.raises(ValueError):
        StructuralClass(synth.oscillating_space(), tree, 3, np.array([9, 0]))
    with pytest.raises(ValueError):
        StructuralClass(synth.oscillating_space(), tree, 3, np.array([1, 2, 3]))


# ---------------------------------------------------------------------------
# lemma verification

@pytest.mark.parametrize("lemma", [1, 2, 3, 4])
def test_verify_lemma_passes(lemma):
    checks = synth.verify_lemma(lemma, trials=4000, seed=13)
    assert checks, "no checks emitted"
    for c in checks:
        assert c.passed, f"{c.statistic}: expected {c.expected}, got {c.observed}"
        assert c.lemma == lemma


def test_verify_lemma_report_schema():
    checks = synth.verify_lemma(2, trials=500, seed=3)
    doc = checks[2].as_dict()
    assert set(doc) == {"lemma", "statistic", "expected", "observed", "stderr",
                        "trials", "pass"}
    mc = [c for c in checks if c.stderr > 0]
    assert mc, "lemma 2 must include Monte-Carlo statistics"
    assert all(c.trials >= 500 for c in mc)


def test_verify_lemma_rejects_tiny_trials():
    with pytest.raises(ValueError):
        synth.verify_lemma(1, trials=10, seed=0)
    with pytest.raises(ValueError):
        synth.verify_lemma(7, trials=1000, seed=0)


def test_verify_lemma_refuses_trials_above_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a draw, seed or pool before the trial count was checked")
    for name in ("ThreadPoolExecutor", "_mc_samples", "full_space"):
        monkeypatch.setattr(synth, name, refuse)
    monkeypatch.setattr(synth.np.random, "default_rng", refuse)
    for lemma in (1, 2, 3, 4):
        with pytest.raises(ValueError, match=f"^trial count {synth.MAX_TRIALS + 1} is above"
                                             f" the cap of {synth.MAX_TRIALS}$"):
            synth.verify_lemma(lemma, trials=synth.MAX_TRIALS + 1, seed=0)


def test_verify_all_deterministic():
    a = synth.verify_all(trials=500, seed=21)
    b = synth.verify_all(trials=500, seed=21)
    assert [c.observed for c in a] == [c.observed for c in b]


# verify_all(trials=4000, seed=13) as the argpartition sampler reported it
_GOLDEN_4000_13 = [
    (1, "norm_sq_equals_edge_count", "0x0.0p+0", "0x0.0p+0"),
    (1, "inner_product_equals_overlap", "0x1.0000000000000p-50", "0x0.0p+0"),
    (1, "distance_sq_equals_edit", "0x1.0000000000000p-47", "0x0.0p+0"),
    (2, "norm_sq_closed_form", "0x0.0p+0", "0x0.0p+0"),
    (2, "inner_product_closed_form", "0x0.0p+0", "0x0.0p+0"),
    (2, "inner_product_mc_overlap", "0x1.955a1cac08312p+3", "0x1.b6781bb570e6cp-7"),
    (2, "norm_sq_mc_overlap", "0x1.cf3b645a1cac1p+4", "0x1.c27384ff4b8dcp-7"),
    (2, "distance_sq_mc_identity", "0x1.0cab851eb851fp+5", "0x1.2b772f73128d8p-5"),
    (3, "regularity_closed_form", "0x1.0000000000000p-49", "0x0.0p+0"),
    (3, "regularity_mc_expected_dist", "0x1.8466666666666p+2", "0x1.b025477ac67c1p-7"),
    (4, "time_regularity_equals_edit_sum", "0x0.0p+0", "0x0.0p+0"),
    (4, "edge_regularity_equals_slice_sum", "0x1.0000000000000p-43", "0x0.0p+0"),
    (4, "relaxed_regularity_zero_on_class", "0x0.0p+0", "0x0.0p+0"),
]


def test_verify_all_golden():
    got = [(c.lemma, c.statistic, c.observed.hex(), c.stderr.hex())
           for c in synth.verify_all(trials=4000, seed=13)]
    assert got == _GOLDEN_4000_13


def test_mc_respects_thread_cap(monkeypatch):
    for lemma, trials in ((3, 2000), (2, 9000)):   # 9000: two full chunks and a partial one
        monkeypatch.setenv("LINKSPECTRA_THREADS", "1")
        seq = synth.verify_lemma(lemma, trials=trials, seed=5)
        monkeypatch.setenv("LINKSPECTRA_THREADS", "3")
        par = synth.verify_lemma(lemma, trials=trials, seed=5)
        assert [c.as_dict() for c in seq] == [c.as_dict() for c in par]
    monkeypatch.setenv("LINKSPECTRA_THREADS", "0")
    with pytest.raises(ValueError):
        synth.verify_lemma(3, trials=500, seed=0)
