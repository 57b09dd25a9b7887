import json
import os
import subprocess
import sys
from pathlib import Path

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
from linkspectra import synth
from linkspectra.partition import (
    PartitionTree,
    VertexSplit,
    second_left_singular_vector,
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
    tree = partition_svd(adj)
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
        split = svd_vertex_split(g1)
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
        partition_svd(GraphSlice(full_space(3), np.zeros(16)))


# ---------------------------------------------------------------------------
# SVD splits: planted halves, rank-1 sets, pinned trees, BLAS threads

@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.integers(2, 8), st.data())
def test_svd_first_split_is_the_planted_halves(bits, seed, w_in, data):
    # two blocks of n/2 vertices at random positions: weight w_in within a
    # block, w_out across, and a small jitter. The Gram matrix then has
    # eigenvalues about (n/2)^2 (w_in + w_out)^2 and (n/2)^2 (w_in - w_out)^2
    # above a noise floor, with u2 the block contrast
    n = 1 << bits
    w_out = data.draw(st.integers(1, w_in - 1))
    rng = np.random.default_rng(seed)
    block = np.zeros(n, dtype=int)
    block[rng.permutation(n)[: n // 2]] = 1
    same = block[:, None] == block[None, :]
    w = np.where(same, w_in, w_out) + 1e-3 * rng.random((n, n))
    adj = GraphSlice(full_space(n), w.ravel())
    assert second_left_singular_vector(adj.adjacency()) is not None
    split = svd_vertex_split(adj)
    halves = {frozenset(s.tolist()) for s in split.sets(bits - 1)}
    assert halves == {frozenset(np.flatnonzero(block == b).tolist()) for b in (0, 1)}


def test_svd_rank_one_set_splits_by_index():
    # on a rank-1 set the square root of eigh's second eigenvalue is rounding
    # of about 1e-8 * s1, above the rank test; |sub.T @ u2| is about eps * s1
    fixed = [[[1, 1, 0, 1]] * 4, [[0, 2, 2, 0], [0, 1, 1, 0], [0, 3, 3, 0], [0, 0, 0, 0]],
             [[1] * 8] * 2]
    rng = np.random.default_rng(3)
    for rows in [*fixed, *(np.outer(rng.integers(1, 4, 8) * (rng.random(8) < 0.8),
                                    (rng.random(16) < 0.5) | (np.arange(16) == 0))
                           for _ in range(200))]:
        assert second_left_singular_vector(np.array(rows, dtype=float)) is None


def test_svd_sign_tie_takes_the_first_entry():
    # rows whose Gram matrix is symmetric under swapping the first and last
    # vertex: u2 is antisymmetric, its first and last entries tie in
    # magnitude, and the first one is positive whatever the rounding (on the
    # 3-row set, OpenBLAS 0.3.31's eigh rounds the last entry to the larger)
    for rows in ([[1, 1, 0], [0, 1, 1]], [[2, 1, 0, 1], [1, 0, 2, 1]],
                 [[2, 2, 0], [2, 2, 2], [0, 2, 2]]):
        u2 = second_left_singular_vector(np.array(rows, dtype=float))
        assert u2[0] > 0 > u2[-1]


_SVD_INPUTS = {
    "daynight-64": lambda: synth.gen_daynight(2, 32, 16, 0.5, 0.5, 64).aggregate_graph(),
    "sbm-g1": lambda: synth.gen_sbm_pair(2, 16, 0.5, 0.05, seed=4)[0],
    "sbm-g2": lambda: synth.gen_sbm_pair(2, 16, 0.5, 0.05, seed=4)[1],
}

# A vertex order per input; the test compares the vertex sets at every level,
# not the order of siblings. The sbm orders are those of the seeded power
# iteration that preceded eigh. For daynight-64 that iteration stopped at its
# step cap at the root, unconverged, and mixed the two communities; the
# order here is eigh's, whose root split is the two planted communities.
_SVD_ORDERS = {
    "daynight-64": [5, 16, 7, 19, 11, 30, 18, 23, 8, 24, 1, 20, 3, 10, 14, 17, 28, 6, 21, 26,
                    12, 22, 4, 15, 13, 0, 25, 2, 29, 9, 27, 31, 57, 58, 38, 46, 40, 44, 56, 41,
                    33, 51, 60, 32, 39, 42, 35, 54, 45, 47, 36, 61, 43, 62, 50, 37, 63, 52, 59,
                    48, 53, 34, 55, 49],
    "sbm-g1": [6, 8, 5, 12, 2, 13, 10, 1, 7, 3, 4, 15, 9, 11, 0, 14, 31, 20, 22, 17, 24, 27,
               21, 29, 25, 16, 18, 19, 23, 26, 28, 30],
    "sbm-g2": [30, 31, 27, 25, 29, 21, 24, 19, 22, 18, 28, 16, 26, 20, 17, 23, 11, 14, 13, 4,
               7, 3, 2, 15, 9, 5, 8, 10, 12, 1, 6, 0],
}


def level_sets(split):
    return [{frozenset(s.tolist()) for s in split.sets(j)}
            for j in range(split.num_vertices.bit_length())]


@pytest.mark.parametrize("name", list(_SVD_INPUTS))
def test_partition_svd_vertex_sets_pinned(name):
    split = svd_vertex_split(_SVD_INPUTS[name]())
    assert level_sets(split) == level_sets(VertexSplit(_SVD_ORDERS[name]))
    check_tree_invariants(tree_from_vertex_order(split, full_space(split.num_vertices)))


def test_svd_trees_equal_across_blas_threads():
    # each run in its own interpreter, as OpenBLAS reads its thread count at
    # load; the second graph has 128 vertices, the largest root set here
    script = (
        "import json\n"
        "from linkspectra import synth\n"
        "from linkspectra.partition import svd_vertex_split\n"
        "graphs = [synth.gen_daynight(2, 32, 16, 0.5, 0.5, 64).aggregate_graph(),\n"
        "          synth.gen_daynight(2, 64, 16, 0.5, 0.5, 32, seed=1).aggregate_graph(),\n"
        "          *synth.gen_sbm_pair(2, 16, 0.5, 0.05, seed=4)[:2]]\n"
        "print(json.dumps([svd_vertex_split(g).order.tolist() for g in graphs]))\n")
    root = Path(__file__).resolve().parents[1]
    orders = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        orders.append(json.loads(proc.stdout))
    assert orders[0] == orders[1]


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
    space = active_space(4, [(0, 1), (1, 2), (2, 3)])  # three relations, not a power of two
    with pytest.raises(ValueError, match="power-of-two active relation count, got 3$"):
        partition_bfs(space, seed=0)


def test_bfs_rejects_empty_active_set():
    space = active_space(3, [])
    assert space.relations == ()
    with pytest.raises(ValueError, match="^empty active relation set$"):
        partition_bfs(space, seed=0)
