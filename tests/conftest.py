import contextlib
import io

import numpy as np
import pytest

from linkspectra import GraphBasis, GraphSlice, full_space
from linkspectra.cli import main
from linkspectra.partition import PartitionTree
from linkspectra import synth


@pytest.fixture
def osc_space():
    return synth.oscillating_space()


@pytest.fixture
def fig_basis():
    return GraphBasis(synth.fig_partition(), 3)


@pytest.fixture
def osc_stream():
    return synth.gen_oscillating(32)


def run_cli(*argv):
    """``cli.main`` in process, for hypothesis tests (no capsys):
    (exit status, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def read_grid(path):
    """Values of a CSV grid, header row and label column dropped."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in row.split(",")[1:]] for row in rows])


def random_tree(m, rng):
    return PartitionTree(rng.permutation(m))


def random_unweighted(space, rng, density=0.4):
    return GraphSlice(space, (rng.random(space.num_relations) < density).astype(float))


def random_weighted(space, rng):
    return GraphSlice(space, rng.standard_normal(space.num_relations))


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


@pytest.fixture
def space16():
    return full_space(4)
