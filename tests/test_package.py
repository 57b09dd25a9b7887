import argparse
import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import linkspectra
from linkspectra.cli import build_parser, main


def test_all_exports_classes_and_functions_only():
    assert len(set(linkspectra.__all__)) == len(linkspectra.__all__)
    for name in linkspectra.__all__:
        obj = getattr(linkspectra, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_readme_command_list_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Commands: (.*?)\.", readme, re.S).group(1)
    assert re.findall(r"`([\w-]+)`", listed) == _subcommands()


@pytest.mark.parametrize("command", _subcommands())
def test_command_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: linkspectra " + command)


def test_one_freeze_idiom_in_src():
    src = Path(linkspectra.__file__).parent
    assert sum(p.read_text().count("setflags(") for p in src.glob("*.py")) == 1


def test_cli_import_leaves_synth_unloaded():
    # only the synth and verify-lemmas commands need synth and its thread
    # pool; concurrent.futures alone costs about 8 ms of start-up
    env = {**os.environ, "PYTHONPATH": str(Path(linkspectra.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys, linkspectra.cli;"
                           " print([m in sys.modules for m in"
                           " ('linkspectra.synth', 'concurrent.futures')])"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[False, False]"


def test_benchmark_trace_targets_resolve():
    # the benchmark's --trace mode wraps these names; a removed or renamed one
    # would stop it with an AttributeError
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for owner, attribute, _, _ in worker.trace_targets(worker.IngestCounter()):
        assert callable(getattr(owner, attribute)), f"{owner.__name__}.{attribute}"


# Public names that no package code, script, benchmark or acceptance test
# calls, and why each stays; every other such name is a second way to reach
# a kernel that already has a public name.
KEEP = {
    "synthesize": "the inverse of analyze: builds a graph from its GraphCoefficients",
    "slice_from_edges": "a constructor: GraphSlice from an edge list",
    "morton_index": "the analytic Z-order oracle for tree_from_vertex_order",
    "apply_joint_filter_sequential": "the two-step oracle for apply_joint_filter",
    "write_coefficients_csv": "the only writer of the --struct CSV format",
}


def _references(path):
    """(name of the top-level def or class, or None; the names it uses as a
    Name or an Attribute) for each top-level statement of ``path``."""
    for stmt in ast.parse(path.read_text()).body:
        yield getattr(stmt, "name", None), {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_has_a_caller():
    root = Path(__file__).resolve().parents[1]
    outside = [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py"),
               root / "tests" / "test_acceptance.py"]
    called = {name for path in outside for _, refs in _references(path) for name in refs}
    modules = sorted((root / "src" / "linkspectra").glob("*.py"))
    sites = [(path.stem, owner, refs) for path in modules for owner, refs in _references(path)]
    uncalled = [f"{path.stem}.{stmt.name}" for path in modules
                for stmt in ast.parse(path.read_text()).body
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_") and stmt.name not in called
                and stmt.name not in KEEP
                and not any(stmt.name in refs and (mod, owner) != (path.stem, stmt.name)
                            for mod, owner, refs in sites)]
    assert uncalled == []
