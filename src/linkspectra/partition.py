"""Recursive dyadic partitioning of the relation space.

A partition tree halves the relation space level by level until singletons;
its leaves define a hierarchy-preserving map of relations onto positions
0..M-1, so the whole tree is represented by that single permutation. Trees
are built either from recursive SVD bisection of the aggregate adjacency
(community-like graphs) or from repeated BFS halving (infrastructure
graphs), or loaded from an explicit leaf order.

The SVD split runs a seeded power iteration on each set's Gram matrix. Most
of those matrices have 4 to 16 rows, so the iteration reuses two buffers
and calls no ``np.linalg.norm``: per-call overhead, not arithmetic, is its
cost. It gives bitwise the same vectors, and so the same trees, as the
plain loop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .stream import GraphSlice, RelationSpace, _frozen, _readonly, is_power_of_two


@dataclass(frozen=True)
class PartitionTree:
    """Binary partition of M relations, encoded by the leaf permutation.

    ``leaf_order[k]`` is the leaf position of relation k. The set at level j
    with index i consists of the relations mapped into positions
    [i*2^j, (i+1)*2^j).
    """

    leaf_order: np.ndarray = field(repr=False)

    def __post_init__(self):
        lo = _frozen(self.leaf_order, np.int64)
        if lo.ndim != 1 or not is_power_of_two(lo.size):
            raise ValueError("leaf order length must be a power of two")
        if not np.array_equal(np.sort(lo), np.arange(lo.size)):
            raise ValueError("leaf order is not a permutation of 0..M-1")
        object.__setattr__(self, "leaf_order", lo)

    @property
    def num_relations(self) -> int:
        return int(self.leaf_order.size)

    @property
    def num_levels(self) -> int:
        return int(self.leaf_order.size).bit_length() - 1

    @cached_property
    def position_to_relation(self) -> np.ndarray:
        return _readonly(np.argsort(self.leaf_order))

    def sets(self, level: int) -> list:
        """Relation-index sets E_k at resolution ``level``, ascending indices."""
        if not (0 <= level <= self.num_levels):
            raise ValueError(f"level {level} out of range 0..{self.num_levels}")
        width = 1 << level
        inv = self.position_to_relation
        return [np.sort(inv[i * width : (i + 1) * width]) for i in range(self.num_relations // width)]


def morton_index(x: int, y: int, num_vertices: int) -> int:
    """Leaf position of the relabelled relation (x, y), 1-based Z-order.

    Recursive quadrant rule with p the largest power of two strictly below
    max(x, y); the base case is fixed at z(1, 1) = 1, which is the unique
    assignment making the three quadrant cases a bijection onto 1..N^2.
    """
    if not (1 <= x <= num_vertices and 1 <= y <= num_vertices):
        raise ValueError(f"coordinates ({x}, {y}) out of range 1..{num_vertices}")

    def z(x, y):
        if x == 1 and y == 1:
            return 1
        m = max(x, y)
        p = 1 << ((m - 1).bit_length() - 1)
        if x <= p and y > p:
            return p * p + z(x, y - p)
        if x > p and y <= p:
            return 2 * p * p + z(x - p, y)
        return 3 * p * p + z(x - p, y - p)

    return z(x, y)


def _interleave_bits(x: np.ndarray, y: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized 0-based Z-order: x (origin) bits take the higher lane."""
    z = np.zeros_like(x, dtype=np.int64)
    for b in range(bits):
        z |= ((x >> b) & 1) << (2 * b + 1)
        z |= ((y >> b) & 1) << (2 * b)
    return z


@dataclass(frozen=True)
class VertexSplit:
    """Recursive vertex bisection; ``order[i]`` is the vertex at leaf i."""

    order: np.ndarray = field(repr=False)

    def __post_init__(self):
        o = _frozen(self.order, np.int64)
        if not is_power_of_two(o.size) or not np.array_equal(np.sort(o), np.arange(o.size)):
            raise ValueError("vertex order must be a permutation of 0..N-1 with N a power of two")
        object.__setattr__(self, "order", o)

    @property
    def num_vertices(self) -> int:
        return int(self.order.size)

    def sets(self, level: int) -> list:
        width = 1 << level
        return [np.sort(self.order[i * width : (i + 1) * width]) for i in range(self.num_vertices // width)]

    @cached_property
    def position(self) -> np.ndarray:
        """1-based relabelling: position[v] is the leaf rank of vertex v."""
        return _readonly(np.argsort(self.order) + 1)


_POWER_TOL = 1e-10


def _power_leading(mat: np.ndarray, rng: np.random.Generator, max_iter: int, orth=None):
    """Leading eigenpair of a symmetric PSD matrix by seeded power iteration.

    When ``orth`` is given the iteration is confined to its orthogonal
    complement, which deflates the previously found leading vector.

    The loop reuses two buffers, ``v`` and ``w``, which swap roles each
    step, plus one scratch vector, so it allocates no array per step (the
    ufuncs take their output positionally, which numpy dispatches faster
    than ``out=``). Each norm is ``math.sqrt(x.dot(x))``, which is what
    ``np.linalg.norm`` computes for a real vector, and the stop test
    ``min(|w - v|, |w + v|) < _POWER_TOL`` skips ``|w + v|`` where it
    cannot decide. So every iterate, the step count and ``lam`` are bitwise
    those of the plain ``w = mat @ v`` loop with ``np.linalg.norm``.
    """
    n = mat.shape[0]
    v = rng.standard_normal(n)
    if orth is not None:
        v -= orth * (orth @ v)
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        v = np.zeros(n)
        v[0] = 1.0
        if orth is not None:
            v -= orth * (orth @ v)
        norm = math.sqrt(v.dot(v))
        if norm == 0.0:
            return None, 0.0
    v /= norm
    w = np.empty(n)
    scratch = np.empty(n)
    for _ in range(max_iter):
        np.matmul(mat, v, w)
        if orth is not None:
            np.multiply(orth, orth @ w, scratch)
            w -= scratch
        norm = math.sqrt(w.dot(w))
        if norm < 1e-300:
            return None, 0.0
        w /= norm
        np.subtract(w, v, scratch)
        gap = math.sqrt(scratch.dot(scratch))
        # v and w are unit vectors, so |w + v| >= 2 - |w - v|: at a gap of at
        # most 1 the sum is far above _POWER_TOL and the min is the gap (a
        # NaN gap takes the full test, as in the plain loop)
        if not gap <= 1.0:
            np.add(w, v, scratch)
            gap = min(gap, math.sqrt(scratch.dot(scratch)))
        done = gap < _POWER_TOL
        v, w = w, v
        if done:
            break
    lam = float(v @ (mat @ v))
    return v, lam


def second_left_singular_vector(sub: np.ndarray, rng: np.random.Generator):
    """Second largest left singular vector of ``sub`` or None when degenerate.

    Degenerate means all-zero or numerically rank-1 input; callers then fall
    back to an index split. Sign is fixed so the largest-magnitude entry is
    positive.
    """
    if not np.any(sub):
        return None
    gram = sub @ sub.T
    max_iter = 10 * max(sub.shape[1], gram.shape[0])
    u1, lam1 = _power_leading(gram, rng, max_iter)
    if u1 is None:
        return None
    u2, lam2 = _power_leading(gram, rng, max_iter, orth=u1)
    if u2 is None:
        return None
    s1 = np.sqrt(max(lam1, 0.0))
    s2 = np.sqrt(max(lam2, 0.0))
    if s2 <= _POWER_TOL * max(1.0, s1):
        return None
    top = int(np.argmax(np.abs(u2)))
    if u2[top] < 0:
        u2 = -u2
    return u2


def svd_vertex_split(adj: GraphSlice, seed: int) -> VertexSplit:
    """Recursive SVD bisection of the adjacency rows.

    Each set is split by sorting its second largest left singular vector in
    descending order (ties by ascending vertex index) and taking the top
    half. Degenerate submatrices split by ascending vertex index.
    """
    n = adj.space.num_vertices
    if not is_power_of_two(n):
        raise ValueError(f"vertex count {n} is not a power of two; pad vertices first")
    if not adj.space.is_full:
        raise ValueError("SVD partitioning requires a full relation space")
    mat = adj.adjacency()
    rng = np.random.default_rng(seed)

    def split(verts: np.ndarray) -> list:
        if verts.size == 1:
            return [int(verts[0])]
        half = verts.size // 2
        u2 = second_left_singular_vector(mat[verts, :], rng)
        if u2 is None:
            top, bottom = verts[:half], verts[half:]
        else:
            order = np.lexsort((verts, -u2))
            top = np.sort(verts[order[:half]])
            bottom = np.sort(verts[order[half:]])
        return split(top) + split(bottom)

    return VertexSplit(np.array(split(np.arange(n))))


def tree_from_vertex_order(split: VertexSplit, space: RelationSpace) -> PartitionTree:
    """Assemble the relation tree from a vertex split by interleaved Z-order.

    Odd tree levels (counted from the root) separate relations by origin
    vertex, even levels by destination vertex, both ruled by the vertex
    split; the leaf positions coincide with the Morton index of the
    relabelled pair.
    """
    if not space.is_full:
        raise ValueError("vertex-ruled trees require a full relation space")
    n = space.num_vertices
    if split.num_vertices != n:
        raise ValueError("vertex split size does not match the relation space")
    bits = (n - 1).bit_length() if n > 1 else 1
    u = np.repeat(np.arange(n), n)
    v = np.tile(np.arange(n), n)
    pos = split.position
    leaf = _interleave_bits(pos[u] - 1, pos[v] - 1, bits)
    return PartitionTree(leaf)


def partition_svd(adj: GraphSlice, seed: int = 0) -> PartitionTree:
    """SVD-based partition of a full relation space (see svd_vertex_split)."""
    return tree_from_vertex_order(svd_vertex_split(adj, seed), adj.space)


def _bfs_explore(edges: list, count: int, priority: np.ndarray) -> list:
    """First ``count`` directed edges in BFS exploration order.

    Movement treats relations as undirected; at each visited vertex the
    self-loop is counted first, then edges to neighbours in ascending seeded
    priority (both directions of a neighbouring pair, outgoing first). The
    walk starts, and restarts whenever a fragment exhausts, from the
    lowest-priority unvisited endpoint.
    """
    remaining = set(edges)
    adjacency = {}
    for (u, v) in edges:
        adjacency.setdefault(u, set())
        adjacency.setdefault(v, set())
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    vertices = sorted(adjacency, key=lambda w: priority[w])
    explored = []
    visited = set()
    queue = deque()
    while len(explored) < count:
        if not queue:
            fresh = next(w for w in vertices if w not in visited)
            visited.add(fresh)
            queue.append(fresh)
        u = queue.popleft()
        if (u, u) in remaining:
            remaining.remove((u, u))
            explored.append((u, u))
            if len(explored) == count:
                break
        for w in sorted(adjacency[u], key=lambda w: priority[w]):
            for e in ((u, w), (w, u)):
                if e in remaining:
                    remaining.remove(e)
                    explored.append(e)
                    if len(explored) == count:
                        return explored
            if w not in visited:
                visited.add(w)
                queue.append(w)
    return explored


def partition_bfs(active: RelationSpace, seed: int = 0) -> PartitionTree:
    """BFS-based partition: each set is halved into explored/unexplored edges.

    Requires a nonempty active relation set whose count is a power of two (no
    pads). The seed draws one vertex-priority permutation that rules
    start-vertex choice, neighbour order, and restarts: the first BFS root is
    the vertex of lowest priority.
    """
    if active.num_active == 0:
        raise ValueError("empty active relation set")
    if active.num_active != active.num_relations:
        raise ValueError(f"BFS partitioning needs a power-of-two active relation count,"
                         f" got {active.num_active}")
    rels = list(active.relations)
    rng = np.random.default_rng(seed)
    priority = np.empty(active.num_vertices, dtype=np.int64)
    priority[rng.permutation(active.num_vertices)] = np.arange(active.num_vertices)

    index_of = {rel: k for k, rel in enumerate(rels)}

    def split(edge_list: list) -> list:
        if len(edge_list) == 1:
            return [edge_list[0]]
        half = len(edge_list) // 2
        explored = _bfs_explore(edge_list, half, priority)
        explored_set = set(explored)
        rest = [e for e in edge_list if e not in explored_set]
        return split(explored) + split(rest)

    leaf_rels = split(rels)
    order = np.empty(len(rels), dtype=np.int64)
    for pos, rel in enumerate(leaf_rels):
        order[index_of[rel]] = pos
    return PartitionTree(order)
