"""Synthetic link streams and Monte-Carlo oracles for the embedding and
regularity identities.

Randomness: every generator takes an integer seed driving a PCG64 generator
(numpy's default_rng). Monte-Carlo runs split the seed with SeedSequence:
chunk i of a run uses ``SeedSequence(seed).spawn(n_chunks)[i]`` and results
are aggregated in chunk order, so estimates are reproducible and independent
of worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .graphbasis import GraphBasis, analyze, graph_regularity, motif_counts
from .io import _check_cells
from .partition import PartitionTree, VertexSplit, tree_from_vertex_order
from .spectra import regularity, relaxed_time_regularity
from .stream import (
    GraphSlice,
    LinkStreamMatrix,
    RelationSpace,
    _Fresh,
    _frozen,
    _max_threads,
    full_space,
    graph_edit,
    is_power_of_two,
)

MIN_TRIALS = 100
# a Monte-Carlo statistic holds one float64 per trial: 10^7 trials are 80 MB
MAX_TRIALS = 10**7
_Z_THRESHOLD = 4.0
_MC_CHUNK = 4096
# the oracles' fixed sizes: 8 vertices (M = 64 relations), level 4 (motifs
# of 16 relations), streams of 32 steps, and the edge density of random graphs
_VERTICES = 8
_LEVEL = 4
_WIDTH = 1 << _LEVEL
_TIMES = 32
_DENSITY = 0.4


# ---------------------------------------------------------------------------
# fixtures from the illustrating examples

CLAW_RELATIONS = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 1))
TRIANGLE_RELATIONS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (2, 2), (3, 3))


def oscillating_space() -> RelationSpace:
    return full_space(4)


def claw_indices(space: RelationSpace = None) -> np.ndarray:
    space = space or oscillating_space()
    return np.array(sorted(space.index_of(u, v) for u, v in CLAW_RELATIONS))


def triangle_indices(space: RelationSpace = None) -> np.ndarray:
    space = space or oscillating_space()
    return np.array(sorted(space.index_of(u, v) for u, v in TRIANGLE_RELATIONS))


def fig_partition() -> PartitionTree:
    """Hand-built tree on 16 relations whose level-3 sets are the claw and
    triangle motifs (with self-loops; the lowest triangle self-loop sits on
    the claw side to balance the halving). Finer levels split by ascending
    relation index.
    """
    space = oscillating_space()
    order = np.empty(16, dtype=np.int64)
    order[claw_indices(space)] = np.arange(8)
    order[triangle_indices(space)] = np.arange(8, 16)
    return PartitionTree(order)


def gen_oscillating(num_times: int) -> LinkStreamMatrix:
    """Claw motif on even times, triangle motif on odd times (4 vertices)."""
    if num_times < 1:
        raise ValueError("need a positive window")
    _check_cells(num_times, 16)
    space = oscillating_space()
    vals = np.zeros((num_times, 16))
    vals[0::2][:, claw_indices(space)] = 1.0
    vals[1::2][:, triangle_indices(space)] = 1.0
    return LinkStreamMatrix(space, 0, _Fresh(vals))


def block_level(per_community: int) -> int:
    """Resolution level at which one community's relation block is one motif."""
    return 2 * int(np.log2(per_community))


def gen_sbm_pair(blocks: int, n_per_block: int, p_in: float, p_out: float, seed: int):
    """Two independent SBM draws plus the community-aligned partition tree.

    Directed edges; self-loops are within-block relations drawn with p_in.
    Returns (g1, g2, tree); the tree's level-``block_level`` sets coincide
    with the block-to-block relation groups.
    """
    if not (is_power_of_two(blocks) and is_power_of_two(n_per_block)):
        raise ValueError("blocks and block size must be powers of two")
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError(f"invalid SBM parameters: p_in and p_out must lie in [0, 1],"
                         f" got p_in={p_in}, p_out={p_out}")
    n = blocks * n_per_block
    _check_cells(2, n * n)
    space = full_space(n)
    membership = np.repeat(np.arange(blocks), n_per_block)
    within = membership[:, None] == membership[None, :]
    probs = np.where(within, p_in, p_out)
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(2):
        adj = (rng.random((n, n)) < probs).astype(np.float64)
        slices.append(GraphSlice(space, adj.reshape(-1)))
    tree = tree_from_vertex_order(VertexSplit(np.arange(n)), space)
    return slices[0], slices[1], tree


def _daynight_layout(n_communities, per_community, period, duty, num_times):
    """The full relation space over the N = n_communities * per_community
    vertices (N^2 columns, whatever N is), the within-community relations (a
    mask over those columns) and the day steps."""
    if n_communities < 1 or per_community < 1:
        raise ValueError(f"invalid day/night parameters: communities and per_community"
                         f" must be >= 1, got {n_communities} and {per_community}")
    if not (0 < duty <= 1 and period >= 1):
        raise ValueError(f"invalid day/night parameters: need 0 < duty <= 1 and"
                         f" period >= 1, got duty={duty}, period={period}")
    if num_times < 1:
        raise ValueError(f"invalid day/night parameters: num_times must be >= 1,"
                         f" got {num_times}")
    _check_cells(num_times, (n_communities * per_community) ** 2)
    membership = np.repeat(np.arange(n_communities), per_community)
    within = (membership[:, None] == membership[None, :]).reshape(-1)
    day = (np.arange(num_times) % period) < int(round(duty * period))
    return full_space(membership.size), within, day


def gen_daynight(n_communities: int = 2, per_community: int = 16, period: int = 20,
                 duty: float = 0.5, p_active: float = 0.5, num_times: int = 200,
                 seed: int = 0) -> LinkStreamMatrix:
    """Communities that sporadically interact during day phases, silent at night."""
    if not 0 <= p_active <= 1:
        raise ValueError(f"invalid day/night parameters: p_active must lie in [0, 1],"
                         f" got {p_active}")
    space, within, day = _daynight_layout(n_communities, per_community, period, duty,
                                          num_times)
    rng = np.random.default_rng(seed)
    vals = np.zeros((num_times, space.num_relations))
    active = rng.random((int(day.sum()), int(within.sum()))) < p_active
    vals[np.ix_(day, within)] = active
    return LinkStreamMatrix(space, 0, _Fresh(vals))


def daynight_template(n_communities: int = 2, per_community: int = 16, period: int = 20,
                      duty: float = 0.5, num_times: int = 200) -> LinkStreamMatrix:
    """Noiseless day/night pattern: full blocks by day, empty graphs by night."""
    space, within, day = _daynight_layout(n_communities, per_community, period, duty,
                                          num_times)
    vals = np.zeros((num_times, space.num_relations))
    vals[np.ix_(day, within)] = 1.0
    return LinkStreamMatrix(space, 0, _Fresh(vals))


# ---------------------------------------------------------------------------
# structural classes

@dataclass(frozen=True)
class StructuralClass:
    """Class of graphs with a fixed per-motif edge-count profile."""

    space: RelationSpace
    tree: PartitionTree
    level: int
    profile: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = _frozen(self.profile, np.int64)
        width = 1 << self.level
        if p.shape != (self.tree.num_relations >> self.level,):
            raise ValueError("profile length must match the motif count")
        if np.any(p < 0) or np.any(p > width):
            raise ValueError(f"profile entries must lie in 0..{width}")
        object.__setattr__(self, "profile", p)


def _membership_draws(profile: np.ndarray, level: int, trials: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Uniform class members as (trials, motifs, width) booleans.

    Per motif (in profile order, one ``rng.random((trials, width))`` block
    each, none for m = 0 or m = width) the m active positions are the m
    smallest of iid uniform keys, a uniform m-subset: each row of keys is
    sorted and every key at most the row's m-th smallest is written into the
    mask. A row whose m-th and (m+1)-th smallest keys are equal takes its
    first m keys in stable argsort order instead, so every row holds exactly
    m positions.
    """
    width = 1 << level
    out = np.empty((trials, profile.size, width), dtype=bool)
    keys = np.empty((trials, width))
    ranked = np.empty_like(keys)
    for k, m in enumerate(profile):
        m = int(m)
        if m in (0, width):
            out[:, k, :] = m == width
            continue
        rng.random(out=keys)
        np.copyto(ranked, keys)
        ranked.view(np.int64).sort(axis=1)   # floats >= 0 order like their bits
        np.less_equal(keys, ranked[:, m - 1:m], out=out[:, k, :])
        for row in np.flatnonzero(ranked[:, m - 1] == ranked[:, m]):
            out[row, k, :] = False
            out[row, k, np.argsort(keys[row], kind="stable")[:m]] = True
    return out


def sample_structurally_equal(cls: StructuralClass, seed) -> GraphSlice:
    """One uniform draw from the class (seed or Generator accepted)."""
    rng = np.random.default_rng(seed)
    member = _membership_draws(cls.profile, cls.level, 1, rng)[0]
    weights = np.zeros(cls.tree.num_relations)
    weights[cls.tree.position_to_relation] = member.reshape(-1)
    return GraphSlice(cls.space, weights)


# ---------------------------------------------------------------------------
# Monte-Carlo machinery

@dataclass(frozen=True)
class LemmaCheck:
    lemma: int
    statistic: str
    expected: float
    observed: float
    stderr: float
    trials: int
    passed: bool

    def as_dict(self) -> dict:
        return {"lemma": self.lemma, "statistic": self.statistic,
                "expected": self.expected, "observed": self.observed,
                "stderr": self.stderr, "trials": self.trials, "pass": self.passed}


def _mc_samples(sample_chunk, trials: int, seed: int) -> np.ndarray:
    """Run ``sample_chunk(rng, n)`` over spawned seed streams, in parallel.

    Aggregation order is fixed by chunk index, so results do not depend on
    the worker count (capped by LINKSPECTRA_THREADS).
    """
    chunks = [min(_MC_CHUNK, trials - start) for start in range(0, trials, _MC_CHUNK)]
    seeds = np.random.SeedSequence(seed).spawn(len(chunks))
    with ThreadPoolExecutor(max_workers=min(_max_threads(), len(chunks))) as pool:
        parts = list(pool.map(lambda s, n: sample_chunk(np.random.default_rng(s), n),
                              seeds, chunks))
    return np.concatenate(parts)


def _mc_check(lemma: int, statistic: str, expected: float, samples: np.ndarray) -> LemmaCheck:
    mean = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(samples.size)) if samples.size > 1 else 0.0
    tol = _Z_THRESHOLD * stderr if stderr > 0 else 1e-9
    return LemmaCheck(lemma, statistic, float(expected), mean, stderr,
                      int(samples.size), bool(abs(mean - expected) <= tol))


def _exact_check(lemma: int, statistic: str, deviation: float, trials: int,
                 tol: float = 1e-9) -> LemmaCheck:
    return LemmaCheck(lemma, statistic, 0.0, float(deviation), 0.0, trials,
                      bool(deviation < tol))


def _random_profile(num_relations: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, _WIDTH + 1, size=num_relations >> _LEVEL)


def _random_unweighted(space, rng) -> GraphSlice:
    return GraphSlice(space, (rng.random(space.num_relations) < _DENSITY).astype(float))


def _overlaps(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """|A & B| for n independent pairs: A drawn from class p1, then B from p2."""
    a = _membership_draws(p1, _LEVEL, n, rng)
    b = _membership_draws(p2, _LEVEL, n, rng)
    return (a & b).sum(axis=(1, 2)).astype(float)


def verify_lemma(lemma: int, trials: int = 20000, seed: int = 0) -> list:
    """Check one of the four identities against brute force and Monte Carlo.

    Lemma 1: exact embedding identities on random unweighted pairs.
    Lemma 2: scaling-product closed forms plus MC over class draws.
    Lemma 3: graph regularity closed form plus MC expected distance.
    Lemma 4: stream regularity versus edit sums and per-slice closed forms.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trial count {trials} too small for a meaningful check")
    if trials > MAX_TRIALS:
        raise ValueError(f"trial count {trials} is above the cap of {MAX_TRIALS}")
    if lemma not in (1, 2, 3, 4):
        raise ValueError("lemma must be 1, 2, 3, or 4")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    space = full_space(_VERTICES)
    m = space.num_relations
    basis = GraphBasis(PartitionTree(rng.permutation(m)), _LEVEL)
    checks = []

    if lemma == 1:
        pairs = min(trials, 500)
        dev_norm = dev_inner = dev_edit = 0.0
        for _ in range(pairs):
            g1 = _random_unweighted(space, rng)
            g2 = _random_unweighted(space, rng)
            x1 = analyze(g1, basis).values
            x2 = analyze(g2, basis).values
            dev_norm = max(dev_norm, abs(x1 @ x1 - g1.edge_count))
            both = len(g1.edge_set & g2.edge_set)
            dev_inner = max(dev_inner, abs(x1 @ x2 - both))
            dev_edit = max(dev_edit, abs((x1 - x2) @ (x1 - x2) - graph_edit(g1, g2)))
        checks.append(_exact_check(1, "norm_sq_equals_edge_count", dev_norm, pairs))
        checks.append(_exact_check(1, "inner_product_equals_overlap", dev_inner, pairs))
        checks.append(_exact_check(1, "distance_sq_equals_edit", dev_edit, pairs))
        return checks

    if lemma == 2:
        p1 = _random_profile(m, rng)
        p2 = _random_profile(m, rng)
        g1 = sample_structurally_equal(StructuralClass(space, basis.tree, _LEVEL, p1), rng)
        g2 = sample_structurally_equal(StructuralClass(space, basis.tree, _LEVEL, p2), rng)
        s1 = analyze(g1, basis).scaling
        s2 = analyze(g2, basis).scaling
        r11 = float(np.sum(p1 * p1) / _WIDTH)
        r12 = float(np.sum(p1 * p2) / _WIDTH)
        checks.append(_exact_check(2, "norm_sq_closed_form", abs(s1 @ s1 - r11), 1))
        checks.append(_exact_check(2, "inner_product_closed_form", abs(s1 @ s2 - r12), 1))
        checks.append(_mc_check(2, "inner_product_mc_overlap", r12,
                                _mc_samples(partial(_overlaps, p1, p2), trials, seed)))
        checks.append(_mc_check(2, "norm_sq_mc_overlap", r11,
                                _mc_samples(partial(_overlaps, p1, p1), trials, seed + 1)))

        def edit_gap_chunk(crng, n):
            a = _membership_draws(p1, _LEVEL, n, crng)
            b = _membership_draws(p2, _LEVEL, n, crng)
            a2 = _membership_draws(p1, _LEVEL, n, crng)
            b2 = _membership_draws(p2, _LEVEL, n, crng)
            edit = (a ^ b).sum(axis=(1, 2)).astype(float)
            d1 = (a & ~a2).sum(axis=(1, 2)).astype(float)
            d2 = (b & ~b2).sum(axis=(1, 2)).astype(float)
            return edit - d1 - d2

        diff = s1 - s2
        checks.append(_mc_check(2, "distance_sq_mc_identity", float(diff @ diff),
                                _mc_samples(edit_gap_chunk, trials, seed + 2)))
        return checks

    if lemma == 3:
        profile = _random_profile(m, rng)
        cls = StructuralClass(space, basis.tree, _LEVEL, profile)
        g = sample_structurally_equal(cls, rng)
        closed = float(np.sum(profile - profile.astype(float) ** 2 / _WIDTH))
        checks.append(_exact_check(3, "regularity_closed_form",
                                   abs(graph_regularity(g, basis) - closed), 1))
        active = (g.weights != 0.0)[basis.tree.position_to_relation]
        member = active.reshape(profile.size, _WIDTH)

        def dist_chunk(crng, n):
            draws = _membership_draws(profile, _LEVEL, n, crng)
            return (member[None] & ~draws).sum(axis=(1, 2)).astype(float)

        checks.append(_mc_check(3, "regularity_mc_expected_dist", closed,
                                _mc_samples(dist_chunk, trials, seed)))
        return checks

    # lemma 4
    vals = (rng.random((_TIMES, m)) < _DENSITY).astype(float)
    stream = LinkStreamMatrix(space, 0, vals)
    rep = regularity(stream, basis)
    edits = sum(graph_edit(stream.slice_at(t), stream.slice_at(int(stream.times[t - 1])))
                for t in range(_TIMES))
    checks.append(_exact_check(4, "time_regularity_equals_edit_sum",
                               abs(rep.reg_t - edits), _TIMES))
    per_slice = 0.0
    for sl in stream.slices():
        counts = motif_counts(sl, basis).astype(float)
        per_slice += float(np.sum(counts - counts ** 2 / _WIDTH))
    checks.append(_exact_check(4, "edge_regularity_equals_slice_sum",
                               abs(rep.reg_e - per_slice), _TIMES))
    profile = _random_profile(m, rng)
    cls = StructuralClass(space, basis.tree, _LEVEL, profile)
    equal_stream = LinkStreamMatrix(
        space, 0,
        np.stack([sample_structurally_equal(cls, rng).weights for _ in range(_TIMES)]))
    relaxed = relaxed_time_regularity(equal_stream, basis)
    checks.append(_exact_check(4, "relaxed_regularity_zero_on_class",
                               relaxed, _TIMES, tol=1e-10))
    return checks


def verify_all(trials: int = 20000, seed: int = 0) -> list:
    """Checks of all four lemmas, in order, each run with the same ``seed``."""
    out = []
    for lemma in (1, 2, 3, 4):
        out.extend(verify_lemma(lemma, trials=trials, seed=seed))
    return out
