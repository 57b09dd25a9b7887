import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import (
    FrequencyFilter,
    GraphBasis,
    GraphCoefficients,
    GraphSlice,
    JointFilter,
    LinkStreamMatrix,
    PartitionTree,
    RelationSpace,
    VertexSplit,
    active_space,
    analyze,
    decompose,
    full_space,
    graph_dist,
    graph_edit,
    restrict_stream,
    slice_from_edges,
    stream_from_slices,
)
from linkspectra import stream as lstream
from linkspectra import synth
from linkspectra.timebasis import CirculantOperator

from conftest import random_unweighted


def test_full_space_lexicographic():
    space = full_space(4)
    assert space.num_relations == 16
    assert space.relations[0] == (0, 0)
    assert space.relations[5] == (1, 1)
    assert space.index_of(2, 3) == 11
    assert space.is_full


def test_full_space_any_vertex_count():
    odd = full_space(3)   # exactly the N^2 pairs, no padding to a power of two
    assert odd.num_relations == 9
    assert odd.relations == tuple((u, v) for u in range(3) for v in range(3))
    assert odd.is_full


def test_active_space_sorted():
    space = active_space(5, [(3, 1), (0, 2), (0, 1), (3, 1)])
    assert space.relations == ((0, 1), (0, 2), (3, 1))
    assert not space.is_full
    assert active_space(5, []).relations == ()


def test_duplicate_relation_rejected():
    with pytest.raises(ValueError):
        type(full_space(2))(2, ((0, 0), (0, 0), (0, 1), (1, 1)))


@pytest.mark.parametrize("vertices, message", [
    (("a",), "1 vertex names for 2 vertices"),
    (("a", "b", "c"), "3 vertex names for 2 vertices"),
    (("a", "a"), "duplicate vertex 'a'"),
    ((0, "0"), "duplicate vertex '0'"),
], ids=["too-few", "too-many", "duplicate", "duplicate-after-str"])
def test_vertex_names_validated(vertices, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RelationSpace(2, ((0, 0), (0, 1)), vertices)


def test_vertex_names_default_and_take_part_in_equality():
    rels = ((0, 0), (0, 1), (1, 0), (1, 1))
    assert full_space(2).vertices == ("0", "1")
    assert full_space(2) == RelationSpace(2, rels, ("0", "1")) == RelationSpace(2, rels, [0, 1])
    assert full_space(2, ["a", "b"]) == RelationSpace(2, rels, ("a", "b"))
    assert full_space(2, ["a", "b"]) != full_space(2, ["b", "a"])
    assert full_space(2, ["a", "b"]) != full_space(2)


def test_graph_dist_examples(space16):
    a = slice_from_edges(space16, [(0, 1), (1, 0)])
    empty = slice_from_edges(space16, [])
    assert graph_dist(a, a) == 0
    assert graph_dist(a, empty) == 2
    g1 = slice_from_edges(space16, [(0, 1), (1, 0), (2, 2)])
    g2 = slice_from_edges(space16, [(1, 0), (2, 2), (3, 3)])
    # enumerate the set difference by hand: only (0,1) is missing from g2
    assert graph_dist(g1, g2) == 1
    assert graph_edit(g1, g2) == 2
    assert graph_edit(a, a) == 0
    assert graph_edit(empty, g1) == 3


def test_dist_rejects_weighted_and_mismatched(space16):
    weighted = GraphSlice(space16, np.linspace(0, 1, 16))
    ok = slice_from_edges(space16, [(0, 1)])
    with pytest.raises(ValueError):
        graph_dist(weighted, ok)
    other = full_space(2)
    with pytest.raises(ValueError):
        graph_dist(ok, slice_from_edges(other, [(0, 1)]))


def test_slice_at_and_edge_series(osc_stream, osc_space):
    claw = set(synth.claw_indices(osc_space).tolist())
    tri = set(synth.triangle_indices(osc_space).tolist())
    assert osc_stream.slice_at(0).edge_set == claw
    assert osc_stream.slice_at(1).edge_set == tri
    assert osc_stream.slice_at(6).edge_set == claw
    k = synth.claw_indices(osc_space)[0]
    series = osc_stream.edge_series(int(k))
    assert np.array_equal(series, np.tile([1.0, 0.0], 16))
    zero_row = LinkStreamMatrix(osc_space, 0, np.zeros((2, 16)))
    assert zero_row.slice_at(0).edge_set == set()


def test_slice_out_of_window(osc_stream):
    with pytest.raises(ValueError):
        osc_stream.slice_at(32)
    with pytest.raises(ValueError):
        osc_stream.slice_at(-1)
    with pytest.raises(ValueError):
        osc_stream.edge_series(99)


def test_round_trip_slices_bit_exact(rng):
    space = full_space(4)
    vals = rng.standard_normal((7, 16))
    stream = LinkStreamMatrix(space, t0=5, values=vals)
    rebuilt = stream_from_slices(stream.slices(), t0=5)
    assert np.array_equal(rebuilt.values, stream.values)
    assert list(stream.times) == list(range(5, 12))


def test_stream_without_relations_is_refused():
    with pytest.raises(ValueError, match="^stream has no relations$"):
        LinkStreamMatrix(active_space(2, []), 0, np.zeros((3, 0)))


def test_restrict_stream_round_trip(osc_stream, osc_space):
    sub = active_space(4, [osc_space.relations[k] for k in synth.claw_indices(osc_space)])
    claw_only = osc_stream.with_values(np.where(
        np.isin(np.arange(16), synth.claw_indices(osc_space)), osc_stream.values, 0.0))
    restricted = restrict_stream(claw_only, sub)
    assert restricted.num_relations == 8
    with pytest.raises(ValueError):
        restrict_stream(osc_stream, sub)  # triangle activity falls outside


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_edit_is_a_metric(seed):
    rng = np.random.default_rng(seed)
    space = full_space(4)
    g1, g2, g3 = (random_unweighted(space, rng) for _ in range(3))
    assert graph_edit(g1, g2) >= 0
    assert graph_edit(g1, g2) == graph_edit(g2, g1)
    assert (graph_edit(g1, g2) == 0) == (g1.edge_set == g2.edge_set)
    assert graph_edit(g1, g3) <= graph_edit(g1, g2) + graph_edit(g2, g3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weight_norm_equals_edit(seed):
    rng = np.random.default_rng(seed)
    space = full_space(4)
    g1 = random_unweighted(space, rng)
    g2 = random_unweighted(space, rng)
    assert np.sum((g1.weights - g2.weights) ** 2) == graph_edit(g1, g2)


def _container_inputs():
    """(input, build) per container; ``build`` returns the array it stores."""
    space = full_space(2)
    tree = PartitionTree(np.arange(4))
    basis = GraphBasis(tree, 2)
    return {
        "LinkStreamMatrix": (np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 3.0]]),
                             lambda a: LinkStreamMatrix(space, 0, a).values),
        "GraphSlice": (np.array([1.0, 0.0, 2.0, 0.0]), lambda a: GraphSlice(space, a).weights),
        "CoefficientMatrix": (np.array([[1 + 1j, 2.0, 3.0, 4j]]), lambda a: decompose(
            LinkStreamMatrix(space, 0, np.zeros((1, 4))), basis).with_values(a).values),
        "JointFilter": (np.array([1.0, 0.5, 0.0, 1.0]),
                        lambda a: JointFilter(FrequencyFilter(np.ones(1)), a).struct),
        "FrequencyFilter": (np.array([1.0, 0.5j, -0.5j]), lambda a: FrequencyFilter(a).response),
        "CirculantOperator": (np.array([1.0, -1.0, 0.0]), lambda a: CirculantOperator(a).kernel),
        "PartitionTree": (np.array([2, 0, 3, 1]), lambda a: PartitionTree(a).leaf_order),
        "VertexSplit": (np.array([1, 0]), lambda a: VertexSplit(a).order),
        "GraphCoefficients": (np.array([1.0, 2.0, 3.0, 4.0]),
                              lambda a: GraphCoefficients(basis, a).values),
        "StructuralClass": (np.array([3]),
                            lambda a: synth.StructuralClass(space, tree, 2, a).profile),
    }


@pytest.mark.parametrize("name", list(_container_inputs()))
def test_container_owns_read_only_c_ordered_copy(name):
    values, build = _container_inputs()[name]
    buf = np.zeros(values.shape + (2,), dtype=values.dtype)
    buf[..., 0] = values
    given = buf[..., 0]  # strided view of the caller's buffer, same dtype
    stored = build(given)
    assert not stored.flags.writeable
    assert stored.flags.c_contiguous
    assert not np.shares_memory(stored, given)
    before = stored.copy()
    given += 1
    assert np.array_equal(stored, before)


@pytest.mark.parametrize("name", ["LinkStreamMatrix", "CoefficientMatrix"])
def test_container_keeps_the_column_major_order_of_its_input(name):
    values, build = _container_inputs()[name]
    given = np.asfortranarray(np.vstack([values, 2 * values]))
    stored = build(given)
    assert stored.flags.f_contiguous and not stored.flags.c_contiguous
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, given)
    assert np.array_equal(stored, given)


def test_accessors_return_read_only_views(fig_basis, osc_stream):
    g = osc_stream.slice_at(0)
    for view in (g.adjacency(), osc_stream.edge_series(0), analyze(g, fig_basis).scaling):
        assert not view.flags.writeable


def test_package_grids_are_adopted_and_caller_arrays_copied():
    space = full_space(2)
    fresh = np.ones((3, 4))
    adopted = LinkStreamMatrix(space, 0, lstream._Fresh(fresh))
    assert adopted.values is fresh and not fresh.flags.writeable
    given = np.ones((3, 4))
    copied = LinkStreamMatrix(space, 0, given)
    assert not np.shares_memory(copied.values, given) and given.flags.writeable
    # a view, a read-only array or another dtype is copied, never adopted
    for grid in (np.ones((3, 8))[:, ::2], _read_only(np.ones((3, 4))), np.ones((3, 4), int)):
        kept = LinkStreamMatrix(space, 0, lstream._Fresh(grid)).values
        assert not np.shares_memory(kept, grid) and kept.dtype == np.float64


def _read_only(a):
    a.setflags(write=False)
    return a


def test_default_thread_cap_counts_usable_cpus(monkeypatch):
    monkeypatch.delenv("LINKSPECTRA_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    assert lstream._max_threads() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)))
    assert lstream._max_threads() == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert lstream._max_threads() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert lstream._max_threads() == 1


@pytest.mark.parametrize("raw", ["1_0", "\uff12", "\u0663", "2.0", "two"])
def test_thread_count_is_a_plain_integer(monkeypatch, raw):
    # int() reads 1_0 as 10 and a fullwidth or Arabic-Indic digit as its value
    monkeypatch.setenv("LINKSPECTRA_THREADS", raw)
    want = f"LINKSPECTRA_THREADS={raw!r} is not an integer"
    with pytest.raises(ValueError, match=re.escape(want)):
        lstream._max_threads()
    monkeypatch.setenv("LINKSPECTRA_THREADS", " 3 ")
    assert lstream._max_threads() == 3


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_in_parts_covers_the_range_in_order(monkeypatch, workers, n):
    monkeypatch.setenv("LINKSPECTRA_THREADS", str(workers))
    grid = np.broadcast_to(0.0, (2, lstream._SPLIT_MIN_CELLS))
    parts = lstream._in_parts(lambda part: (part, threading.get_ident()), n, grid)
    slices = [p for p, _ in parts]
    assert len(slices) == min(workers, n)
    assert [i for p in slices for i in range(n)[p]] == list(range(n))
    # the first part runs on the caller, the others on threads
    on_caller = [ident == threading.get_ident() for _, ident in parts]
    assert on_caller == [True] + [False] * (len(parts) - 1)


@pytest.mark.parametrize("grid", [np.zeros(1 << 19), np.zeros((4, 1 << 10))],
                         ids=["one-dimensional", "below-the-cell-floor"])
def test_in_parts_runs_small_and_flat_grids_on_the_caller(monkeypatch, grid):
    monkeypatch.setenv("LINKSPECTRA_THREADS", "4")
    parts = lstream._in_parts(lambda part: (part, threading.get_ident()), 8, grid)
    assert parts == [(slice(0, 8), threading.get_ident())]


@pytest.mark.parametrize("failing", [0, 2], ids=["caller-part", "worker-part"])
def test_in_parts_raises_a_part_error_on_the_caller_after_joining(monkeypatch, failing):
    monkeypatch.setenv("LINKSPECTRA_THREADS", "3")
    before = threading.active_count()
    done = []

    def work(part):
        if part.start == failing:
            raise KeyError("part failed")
        done.append(part.start)

    with pytest.raises(KeyError, match="part failed"):
        lstream._in_parts(work, 6, np.broadcast_to(0.0, (6, lstream._SPLIT_MIN_CELLS)))
    assert sorted(done) == sorted({0, 2, 4} - {failing})   # the other parts ran
    assert threading.active_count() == before


def test_thread_cap_refuses_a_bad_setting(monkeypatch):
    for raw in ("0", "-1", "two"):
        monkeypatch.setenv("LINKSPECTRA_THREADS", raw)
        with pytest.raises(ValueError, match="LINKSPECTRA_THREADS"):
            lstream._in_parts(lambda part: None, 4, np.zeros(4))
