import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import (
    GraphSlice,
    active_space,
    full_space,
    morton_index,
    partition_bfs,
    partition_svd,
)
from linkspectra import partition, synth
from linkspectra.partition import (
    _POWER_TOL,
    PartitionTree,
    VertexSplit,
    _power_leading,
    svd_vertex_split,
    tree_from_vertex_order,
)


# ---------------------------------------------------------------------------
# morton index

def test_morton_base_and_first_block():
    assert morton_index(1, 1, 2) == 1
    assert morton_index(1, 2, 2) == 2
    assert morton_index(2, 1, 2) == 3
    assert morton_index(2, 2, 2) == 4


def test_morton_out_of_range():
    with pytest.raises(ValueError):
        morton_index(0, 1, 4)
    with pytest.raises(ValueError):
        morton_index(1, 5, 4)


def brute_interleaved_positions(n):
    """Explicit quadtree: alternate splits by origin then destination."""

    def rec(rels, depth):
        if len(rels) == 1:
            return rels
        axis = depth % 2  # 0: origin, 1: destination
        keys = sorted({r[axis] for r in rels})
        low = set(keys[: len(keys) // 2])
        left = [r for r in rels if r[axis] in low]
        right = [r for r in rels if r[axis] not in low]
        return rec(left, depth + 1) + rec(right, depth + 1)

    rels = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return {rel: i + 1 for i, rel in enumerate(rec(rels, 0))}


@pytest.mark.parametrize("n", [2, 4, 8])
def test_morton_matches_brute_force_tree(n):
    brute = brute_interleaved_positions(n)
    seen = set()
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            z = morton_index(x, y, n)
            assert z == brute[(x, y)]
            seen.add(z)
    assert seen == set(range(1, n * n + 1))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_morton_matches_partition_svd_identity_relabelling(n):
    # all-zero adjacency is degenerate at every split, so the vertex order is
    # the identity and the tree must realize the analytic Z-order map
    adj = GraphSlice(full_space(n), np.zeros(n * n))
    tree = partition_svd(adj, seed=7)
    for u in range(n):
        for v in range(n):
            k = u * n + v
            assert tree.leaf_order[k] == morton_index(u + 1, v + 1, n) - 1


# ---------------------------------------------------------------------------
# tree structure

def check_tree_invariants(tree):
    m = tree.num_relations
    assert sorted(int(x) for x in tree.leaf_order) == list(range(m))
    for j in range(tree.num_levels):
        fine = tree.sets(j)
        coarse = tree.sets(j + 1)
        assert all(len(s) == 1 << j for s in fine)
        for k, parent in enumerate(coarse):
            left, right = fine[2 * k], fine[2 * k + 1]
            assert len(left) == len(right)
            assert set(left.tolist()).isdisjoint(right.tolist())
            assert set(parent.tolist()) == set(left.tolist()) | set(right.tolist())
    assert set(tree.sets(tree.num_levels)[0].tolist()) == set(range(m))


def test_tree_invariants_random(rng):
    for m in (2, 8, 64):
        check_tree_invariants(PartitionTree(rng.permutation(m)))


def test_leaf_order_round_trip_identity():
    tree = PartitionTree(np.arange(8))
    assert np.array_equal(tree.leaf_order, np.arange(8))


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(16))))
def test_leaf_order_round_trip(perm):
    tree = PartitionTree(perm)
    assert np.array_equal(tree.leaf_order, perm)


def test_morton_order_n2_table():
    tree = tree_from_vertex_order(VertexSplit(np.arange(2)), full_space(2))
    assert np.array_equal(tree.leaf_order, [0, 1, 2, 3])


def test_bad_permutation_rejected():
    with pytest.raises(ValueError):
        PartitionTree([0, 0, 1, 2])
    with pytest.raises(ValueError):
        PartitionTree([0, 1, 2])  # not a power of two


# ---------------------------------------------------------------------------
# SVD partitioning

def test_svd_separates_sbm_blocks_statistically():
    hits = 0
    seeds = range(20)
    for seed in seeds:
        g1, _, _ = synth.gen_sbm_pair(2, 16, 0.5, 0.01, seed=seed)
        split = svd_vertex_split(g1, seed=1000 + seed)
        top = set(split.sets(4)[0].tolist())
        if top in ({*range(16)}, {*range(16, 32)}):
            hits += 1
    assert hits >= 19  # >= 95% of seeds


def test_svd_degenerate_clique_is_deterministic():
    clique = GraphSlice(full_space(4), np.ones(16))
    trees = [partition_svd(clique, seed=s) for s in (0, 1, 99)]
    for t in trees[1:]:
        assert np.array_equal(t.leaf_order, trees[0].leaf_order)
    # ascending-index fallback means the identity Z-order
    assert np.array_equal(trees[0].leaf_order,
                          [morton_index(u + 1, v + 1, 4) - 1
                           for u in range(4) for v in range(4)])


def test_svd_deterministic_per_seed():
    g1, _, _ = synth.gen_sbm_pair(2, 16, 0.5, 0.01, seed=5)
    t1 = partition_svd(g1, seed=42)
    t2 = partition_svd(g1, seed=42)
    assert np.array_equal(t1.leaf_order, t2.leaf_order)


def test_svd_requires_power_of_two_vertices():
    with pytest.raises(ValueError):
        partition_svd(GraphSlice(full_space(3), np.zeros(16)), seed=0)


# ---------------------------------------------------------------------------
# power iteration: the buffered loop against the plain one

def reference_power_leading(mat, rng, max_iter, orth=None):
    """The plain power iteration: new arrays each step, np.linalg.norm."""
    n = mat.shape[0]
    v = rng.standard_normal(n)
    if orth is not None:
        v -= orth * (orth @ v)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        if orth is not None:
            v -= orth * (orth @ v)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            return None, 0.0
    v /= norm
    for _ in range(max_iter):
        w = mat @ v
        if orth is not None:
            w -= orth * (orth @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-300:
            return None, 0.0
        w /= norm
        done = min(np.linalg.norm(w - v), np.linalg.norm(w + v)) < _POWER_TOL
        v = w
        if done:
            break
    lam = float(v @ (mat @ v))
    return v, lam


def psd_matrix(n, kind, seed):
    """A symmetric n x n matrix of the given kind, PSD except "flipping"."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "identity":
        return np.eye(n) * rng.integers(1, 5)
    if kind == "rank1":
        x = rng.standard_normal((n, 1))
        return x @ x.T
    if kind == "repeated":   # eigenvalues 3, 3, 1, 1, ... on a random basis
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * np.where(np.arange(n) < 2, 3.0, 1.0)) @ q.T
    if kind == "flipping":   # dominant eigenvalue -3: the iterates flip sign each step
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * np.where(np.arange(n) < 1, -3.0, 1.0)) @ q.T
    if kind == "adjacency":   # the Gram matrix of 0/1 rows, as partition_svd builds it
        sub = (rng.random((n, 2 * n)) < 0.3).astype(float)
        return sub @ sub.T
    b = rng.standard_normal((n, rng.integers(1, n + 1) if kind == "deficient" else n + 2))
    return b @ b.T


def assert_same_power_iteration(mat, seed, max_iter, orth):
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    v, lam = _power_leading(mat, rng_new, max_iter, orth=orth)
    v_ref, lam_ref = reference_power_leading(mat, rng_ref, max_iter, orth=orth)
    assert (v is None) == (v_ref is None)
    if v is not None:
        assert v.tobytes() == v_ref.tobytes()
    assert type(lam) is float and lam.hex() == lam_ref.hex()
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24),
       st.sampled_from(["zero", "identity", "rank1", "repeated", "flipping", "adjacency",
                        "deficient", "full"]),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, None]), st.booleans())
def test_power_leading_bitwise_equals_plain_loop(n, kind, seed, max_iter, deflate):
    mat = psd_matrix(n, kind, seed)
    max_iter = 10 * n if max_iter is None else max_iter
    orth = None
    if deflate:   # the second call of second_left_singular_vector
        orth, _ = reference_power_leading(mat, np.random.default_rng(seed + 1), 10 * n)
        if orth is None:
            orth = np.eye(n)[0]
    assert_same_power_iteration(mat, seed, max_iter, orth)


def test_power_leading_degenerate_exits():
    # n = 1 deflated by its own basis vector: the start and e_0 both vanish
    assert_same_power_iteration(np.ones((1, 1)), 0, 10, np.ones(1))
    # the matrix maps the deflated start onto the deflated direction: w = 0
    assert_same_power_iteration(np.diag([2.0, 0.0]), 3, 20, np.array([1.0, 0.0]))


_SVD_INPUTS = {
    "daynight-64": lambda: synth.gen_daynight(2, 32, 16, 0.5, 0.5, 64).aggregate_graph(),
    "sbm-g1": lambda: synth.gen_sbm_pair(2, 16, 0.5, 0.05, seed=4)[0],
    "sbm-g2": lambda: synth.gen_sbm_pair(2, 16, 0.5, 0.05, seed=4)[1],
}


@pytest.mark.parametrize("name", list(_SVD_INPUTS))
def test_partition_svd_leaf_order_equals_plain_loop(monkeypatch, name):
    adj = _SVD_INPUTS[name]()
    tree = partition_svd(adj, seed=11)
    monkeypatch.setattr(partition, "_power_leading", reference_power_leading)
    assert np.array_equal(partition_svd(adj, seed=11).leaf_order, tree.leaf_order)


def test_partition_svd_calls_no_linalg_norm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")
    monkeypatch.setattr(np.linalg, "norm", refuse)
    g1, _, _ = synth.gen_sbm_pair(2, 8, 0.5, 0.05, seed=4)
    check_tree_invariants(partition_svd(g1, seed=0))


# ---------------------------------------------------------------------------
# BFS partitioning

def bfs_priority(seed, n):
    rng = np.random.default_rng(seed)
    pr = np.empty(n, dtype=np.int64)
    pr[rng.permutation(n)] = np.arange(n)
    return pr


def seed_rooted_at_0(n):
    """The first seed whose priorities make vertex 0 the first BFS root."""
    return next(seed for seed in range(100) if bfs_priority(seed, n)[0] == 0)


def test_bfs_path_explores_nearest_half():
    edges = [(i, i + 1) for i in range(8)]
    space = active_space(9, edges)
    tree = partition_bfs(space, seed=seed_rooted_at_0(9))
    first_half = {space.relations[k] for k in tree.sets(2)[0].tolist()}
    assert first_half == {(0, 1), (1, 2), (2, 3), (3, 4)}


def test_bfs_star_takes_lowest_priority_spokes():
    spokes = [(0, i) for i in range(1, 9)]
    space = active_space(9, spokes)
    seed = seed_rooted_at_0(9)
    tree = partition_bfs(space, seed=seed)
    pr = bfs_priority(seed, 9)
    expected = {(0, i) for i in sorted(range(1, 9), key=lambda i: pr[i])[:4]}
    got = {space.relations[k] for k in tree.sets(2)[0].tolist()}
    assert got == expected


def test_bfs_single_pair_order_is_exploration_order():
    space = active_space(2, [(0, 1), (1, 0)])
    tree = partition_bfs(space, seed=seed_rooted_at_0(2))
    # visiting 0 first counts (0,1) before (1,0)
    assert tree.leaf_order[space.index_of(0, 1)] == 0
    assert tree.leaf_order[space.index_of(1, 0)] == 1


def test_bfs_deterministic_and_valid(rng):
    pairs = {(int(u), int(v)) for u, v in rng.integers(0, 8, size=(40, 2))}
    pairs = sorted(pairs)[:16]
    space = active_space(8, pairs)
    t1 = partition_bfs(space, seed=9)
    t2 = partition_bfs(space, seed=9)
    assert np.array_equal(t1.leaf_order, t2.leaf_order)
    check_tree_invariants(t1)


def test_bfs_disconnected_restarts():
    # two disjoint 2-cycles; halving must still be exact
    edges = [(0, 1), (1, 0), (2, 3), (3, 2)]
    space = active_space(4, edges)
    tree = partition_bfs(space, seed=1)
    check_tree_invariants(tree)
    top = {space.relations[k] for k in tree.sets(1)[0].tolist()}
    assert top in ({(0, 1), (1, 0)}, {(2, 3), (3, 2)})


def test_bfs_rejects_padded_space():
    space = active_space(4, [(0, 1), (1, 2), (2, 3)])  # pads to 4
    with pytest.raises(ValueError, match="power-of-two active relation count, got 3$"):
        partition_bfs(space, seed=0)


def test_bfs_rejects_empty_active_set():
    space = active_space(3, [])
    assert space.relations == (None,)
    with pytest.raises(ValueError, match="^empty active relation set$"):
        partition_bfs(space, seed=0)
