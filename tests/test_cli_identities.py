"""The paper's identities through the CLI, on small random triplet files run
in process: Parseval between the exported |C| and L grids, and k-sample
aggregation equal to the agg:k frequency filter."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from linkspectra import io as lio

from conftest import read_grid, run_cli

_NAMES = ["a", "b", "c", "d", "e", "f", "g"]
_WEIGHTS = ["", ",1", ",2.5", ",-0.75", ",3"]   # "" leaves the weight at 1


@st.composite
def triplet_files(draw, windows=True):
    """(CSV text, window flags, number of time steps) of a random stream.

    Every one of the N names takes part (N = 3, 5, 6 or 7, never a power of
    two); records repeat, carry weights or none, and with ``windows`` an
    optional window pads the recorded span with empty steps on either side.
    """
    names = _NAMES[:draw(st.sampled_from([3, 5, 6, 7]))]
    span = draw(st.integers(1, 10))
    record = st.tuples(st.integers(0, span - 1), st.sampled_from(names),
                       st.sampled_from(names), st.sampled_from(_WEIGHTS))
    records = [(i % span, u, names[(i + 1) % len(names)], "") for i, u in enumerate(names)]
    records += draw(st.lists(record, max_size=30))
    records += draw(st.lists(st.sampled_from(records), max_size=5))
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


def _by_label(path):
    """label -> column of a raw stream file."""
    stream = lio.read_raw(path).stream
    return dict(zip(lio.relation_labels(stream.space), stream.values.T))


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
    filtered = _by_label(d / "filt" / "filtered.raw")
    # the SVD basis pads the vertex set, so the filtered stream has more
    # relations; those extra relations, and the inert pads, stay zero
    for label, column in filtered.items():
        expected = aggregated.get(label, np.zeros_like(column))
        assert np.abs(column - expected).max() <= 1e-9, label
    assert all(np.all(col == 0) for label, col in aggregated.items() if label not in filtered)
