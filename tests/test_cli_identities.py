"""The paper's identities through the CLI, on small random triplet files run
in process: Parseval between the exported |C| and L grids, k-sample
aggregation equal to the agg:k frequency filter, the all-pass selections
returning the input, reg_t as an edit-distance sum, the regularity numbers
as energies of the decomposition's coefficients, and real backbones for
every keep rule."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import io as lio
from linkspectra.stream import next_power_of_two

from conftest import read_grid, run_cli

_NAMES = ["a", "b", "c", "d", "e", "f", "g"]
_WEIGHTS = ["", ",1", ",2.5", ",-0.75", ",3"]   # "" leaves the weight at 1


@st.composite
def triplet_files(draw, windows=True, weighted=True):
    """(CSV text, window flags, number of time steps) of a random stream.

    Every one of the N names takes part (N = 3, 5, 6 or 7, never a power of
    two); records repeat, carry weights or none, and with ``windows`` an
    optional window pads the recorded span with empty steps on either side.
    Without ``weighted`` every record is distinct and weighs 1.
    """
    names = _NAMES[:draw(st.sampled_from([3, 5, 6, 7]))]
    span = draw(st.integers(1, 10))
    record = st.tuples(st.integers(0, span - 1), st.sampled_from(names),
                       st.sampled_from(names), st.sampled_from(_WEIGHTS if weighted else [""]))
    records = [(i % span, u, names[(i + 1) % len(names)], "") for i, u in enumerate(names)]
    records += draw(st.lists(record, max_size=30))
    records += draw(st.lists(st.sampled_from(records), max_size=5))
    if not weighted:
        records = list(dict.fromkeys(records))
    text = "".join(f"{t},{u},{v}{w}\n" for t, u, v, w in draw(st.permutations(records)))
    pads = st.tuples(st.integers(0, 2), st.integers(0, 2))
    pad = draw(st.none() | pads) if windows else None
    if pad is None:
        times = max(r[0] for r in records) - min(r[0] for r in records) + 1
        return text, [], times
    times = span + pad[0] + pad[1]
    return text, [f"--window={-pad[0]}:{times}"], times


def _run(*argv):
    code, _, err = run_cli(*argv)
    assert code == 0, err


def _columns(text):
    """Number of relations the SVD basis gives a file's N names: the vertex
    set padded to a power of two P, then P^2."""
    n = len({name for line in text.splitlines() for name in line.split(",")[1:3]})
    return next_power_of_two(n) ** 2


def _by_label(path):
    """label -> column of a raw stream file."""
    stream = lio.read_raw(path).stream
    return dict(zip(lio.relation_labels(stream.space), stream.values.T))


def _assert_equal_by_label(path, expected):
    """The raw stream at ``path`` equals ``expected`` (label -> column) under
    each of its labels, and is zero on the relations that ``expected`` lacks:
    the SVD basis pads the vertex set, so its streams have more relations.
    Returns the stream's label -> column."""
    got = _by_label(path)
    for label, column in got.items():
        assert np.abs(column - expected.get(label, 0.0)).max() <= 1e-9, label
    return got


_IDENTITIES = settings(max_examples=12, deadline=None)


@_IDENTITIES
@given(triplet_files())
def test_parseval_between_exported_grids(tmp_path_factory, case):
    text, window, _ = case
    d = tmp_path_factory.mktemp("parseval")
    (d / "in.csv").write_text(text)
    _run("decompose", "--input", d / "in.csv", *window, "--out", d / "dec")
    c_norm = np.linalg.norm(read_grid(d / "dec" / "C_abs.csv"))
    l_norm = np.linalg.norm(read_grid(d / "dec" / "L.csv"))
    assert abs(c_norm - l_norm) <= 1e-9 * max(1.0, l_norm)


@_IDENTITIES
@given(triplet_files(windows=False), st.integers(1, 14))
def test_aggregate_equals_aggregation_filter(tmp_path_factory, case, window_k):
    # aggregate's own --window is the aggregation length, so no time window
    text, _, times = case
    k = min(window_k, times)
    d = tmp_path_factory.mktemp("aggregate")
    (d / "in.csv").write_text(text)
    _run("aggregate", "--input", d / "in.csv", "--window", k, "--out", d / "agg")
    _run("filter", "--input", d / "in.csv", "--freq", f"agg:{k}",
         "--struct", "all", "--out", d / "filt")
    aggregated = _by_label(d / "agg" / "aggregated.raw")
    filtered = _assert_equal_by_label(d / "filt" / "filtered.raw", aggregated)
    assert all(np.all(col == 0) for label, col in aggregated.items() if label not in filtered)


@_IDENTITIES
@given(triplet_files())
def test_all_pass_selections_return_the_input(tmp_path_factory, case):
    text, window, times = case
    d = tmp_path_factory.mktemp("allpass")
    (d / "in.csv").write_text(text)
    _run("ingest", "--input", d / "in.csv", *window, "--out", d / "in")
    _run("backbone", "--input", d / "in.csv", *window,
         "--keep", f"box:0:{times // 2},0:{_columns(text) - 1}", "--out", d / "box")
    _run("filter", "--input", d / "in.csv", *window, "--freq", "all", "--struct", "all",
         "--out", d / "filt")
    ingested = _by_label(d / "in" / "stream.raw")
    _assert_equal_by_label(d / "box" / "backbone.raw", ingested)
    _assert_equal_by_label(d / "filt" / "filtered.raw", ingested)


@_IDENTITIES
@given(triplet_files(weighted=False))
def test_time_regularity_is_the_edit_distance_sum(tmp_path_factory, case):
    text, window, times = case
    d = tmp_path_factory.mktemp("regularity")
    (d / "in.csv").write_text(text)
    _run("regularity", "--input", d / "in.csv", *window, "--out", d / "reg")
    records = [line.split(",")[:3] for line in text.splitlines()]
    t0 = int(window[0].split("=")[1].split(":")[0]) if window else min(int(r[0]) for r in records)
    edges = [set() for _ in range(times)]
    for t, u, v in records:
        edges[int(t) - t0].add((u, v))
    # circular boundary: step 0 is compared with the last step
    edits = sum(len(edges[t] ^ edges[t - 1]) for t in range(times))
    reg = json.loads((d / "reg" / "regularity.json").read_text())
    assert reg["reg_t"] == edits


def _close(got, want):
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _circular_diff_energy(grid):
    return float(np.sum((grid - np.roll(grid, 1, axis=0)) ** 2))


@_IDENTITIES
@given(triplet_files())
def test_regularity_equals_coefficient_energies(tmp_path_factory, case):
    text, window, times = case
    d = tmp_path_factory.mktemp("energies")
    (d / "in.csv").write_text(text)
    for command in ("regularity", "decompose", "embed"):
        _run(command, "--input", d / "in.csv", *window, "--out", d / command)
    reg = json.loads((d / "regularity" / "regularity.json").read_text())
    u, _, re, im = np.loadtxt(d / "decompose" / "C_rect.csv", delimiter=",", skiprows=1,
                              ndmin=2).T
    # the circular difference is diagonal in the Fourier basis: |chi_u|^2 = 4 sin^2(pi u / T)
    assert _close(reg["reg_t"], float(np.sum(4 * np.sin(np.pi * u / times) ** 2 * (re**2 + im**2))))
    x_path = d / "decompose" / "X.csv"
    scaling = np.array([label.startswith("s(")
                        for label in x_path.read_text().split("\n", 1)[0].split(",")[1:]])
    x = read_grid(x_path)
    assert _close(reg["reg_e"], float(np.sum(x[:, ~scaling] ** 2)))
    embedding = read_grid(d / "embed" / "embedding.csv")
    assert _close(reg["relaxed_reg_t"], _circular_diff_energy(embedding))
    assert np.abs(embedding - x[:, scaling]).max() <= 1e-9 * max(1.0, np.abs(x).max())


@_IDENTITIES
@given(triplet_files(), st.data())
def test_every_keep_rule_gives_a_real_backbone(tmp_path_factory, case, data):
    text, window, times = case
    m = _columns(text)
    top = data.draw(st.integers(1, times * m))
    u0, u1 = sorted(data.draw(st.lists(st.integers(0, times // 2), min_size=2, max_size=2)))
    k0, k1 = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2)))
    d = tmp_path_factory.mktemp("real")
    (d / "in.csv").write_text(text)
    for keep in (f"top:{top}", f"box:{u0}:{u1},{k0}:{k1}"):
        # an imaginary residue would be a ValueError: exit 1, one error line
        code, _, err = run_cli("backbone", "--input", d / "in.csv", *window, "--keep", keep,
                               "--out", d / "bb")
        assert (code, err) == (0, ""), keep
