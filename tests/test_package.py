import argparse
import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from functools import partial
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


def test_padding_is_decided_in_io_alone():
    # a relation space holds only its real (u, v) pairs; the one padding rule,
    # ~vK vertices up to a power of two for a basis, lives in io (_padded_names)
    src = Path(linkspectra.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    for name, text in texts.items():
        for word in ("inert", "num_active", "_clear_inert", "~pad"):
            assert word not in text, f"{name} holds {word!r}"
    assert [name for name, text in texts.items() if "~v" in text] == ["io.py"]


def test_cli_import_leaves_synth_unloaded():
    # only the synth and verify-lemmas commands need synth and its thread
    # pool; concurrent.futures alone costs about 8 ms of start-up
    env = {**os.environ, "PYTHONPATH": str(Path(linkspectra.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", "import sys, linkspectra.cli;"
                           " print([m in sys.modules for m in"
                           " ('linkspectra.synth', 'concurrent.futures')])"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[False, False]"


def _perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_resolve():
    # the benchmark's --trace mode wraps these names; a removed or renamed one
    # would stop it with an AttributeError
    worker = _perfbench("worker")
    for owner, attribute, _, _ in worker.trace_targets(worker.IngestCounter()):
        assert callable(getattr(owner, attribute)), f"{owner.__name__}.{attribute}"


def test_benchmark_spans_cover_the_hot_path(tmp_path, capsys):
    # a kernel that the package reaches by another name than the one traced
    # leaves its layer at zero and its time in the caller's self time
    worker, tracer = _perfbench("worker"), _perfbench("tracer").Tracer()
    data = tmp_path / "daynight"
    assert main(["synth", "daynight", "--per-comm", "4", "--times", "24", "--seed", "1",
                 "--out", str(data)]) == 0
    src = ["--input", str(data / "stream.raw"), "--format", "raw", "--basis", "svd",
           "--level", "3"]
    commands = [["decompose", *src],
                ["filter", *src, "--freq", "lowpass:0.1", "--struct", "coarse"],
                ["backbone", *src, "--keep", "top:4"], ["regularity", *src],
                ["aggregate", "--input", str(data / "stream.raw"), "--format", "raw",
                 "--window", "2"]]
    tracer.install(worker.trace_targets(worker.IngestCounter()))
    try:
        for cmd in commands:
            assert main([*cmd, "--out", str(tmp_path / cmd[0])]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    opened = {name for _, name, *_ in tracer.spans}
    assert opened >= {
        "timebasis.fft_forward", "timebasis.fft_inverse", "timebasis.aggregate",
        "graphbasis.analyze_values", "graphbasis.synthesize_values", "spectra.decompose",
        "spectra.backbone", "spectra.apply_joint_filter", "spectra.regularity",
        "spectra.keep_mask_top"}


def test_a_failing_property_reports_its_example(tmp_path):
    # hypothesis writes the patch of a falsifying example with libcst, whose
    # imports warn; with warnings as errors that crashed pytest (exit code 3)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 10\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "-q",
                           "-p", "no:cacheprovider", "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout


# Public names that no package code, script, benchmark or acceptance test
# uses, and why each stays; every other such name is a second way to reach
# a kernel that already has a public name. Module-level names are bare,
# members "Class.member" and defaulted parameters "function(parameter=)".
KEEP = {
    "synthesize": "the inverse of analyze: builds a graph from its GraphCoefficients",
    "slice_from_edges": "a constructor: GraphSlice from an edge list",
    "morton_index": "the analytic Z-order oracle for tree_from_vertex_order",
    "apply_joint_filter_sequential": "the two-step oracle for apply_joint_filter",
    "write_coefficients_csv": "the only writer of the --struct CSV format",
    "LinkStreamMatrix.edge_series": "an accessor: the time series of one relation",
    "GraphCoefficients.wavelet": "an accessor: the wavelet block of one level",
    "VertexSplit.sets": "an accessor: the vertex sets of one level",
    "GraphBasis.materialize": "the dense oracle for analyze_values and synthesize_values",
    "FourierBasis.matrix": "the dense oracle for forward and inverse",
    "CirculantOperator.matrix": "the dense oracle for apply_values and frequency_filter",
    "FrequencyFilter.is_conjugate_symmetric":
        "a rule the real half spectrum of ROADMAP item 4 needs for user filter files",
    "stream_from_slices(t0=)": "constructor data: the first time of the stream it builds",
}


def _units(path):
    """(unit, nodes) for each top-level statement of ``path``, with each method
    of a top-level class a unit of its own: the unit is the statement's name,
    "Class.method" for a method, or None; the nodes are what it holds."""
    for stmt in ast.parse(path.read_text()).body:
        if not isinstance(stmt, ast.ClassDef):
            yield getattr(stmt, "name", None), [stmt]
            continue
        methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)]
        yield stmt.name, [*stmt.decorator_list, *stmt.bases,
                          *(m for m in stmt.body if m not in methods)]
        for m in methods:
            yield f"{stmt.name}.{m.name}", [m]


class _Uses:
    """The names a unit reads as a Name or an Attribute, and its calls."""

    def __init__(self, nodes):
        walked = [n for node in nodes for n in ast.walk(node)]
        self.names = {n.id for n in walked if isinstance(n, ast.Name)}
        self.attrs = {n.attr for n in walked if isinstance(n, ast.Attribute)}
        self.calls = [n for n in walked if isinstance(n, ast.Call)]

    def passes(self, function: str, param: str, position: int) -> bool:
        """Whether a call to a function or method named ``function`` passes
        ``param``: by keyword, at positional ``position``, or by unpacking."""
        for call in self.calls:
            f = call.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) != function:
                continue
            if (any(k.arg in (param, None) for k in call.keywords) or len(call.args) > position
                    or any(isinstance(a, ast.Starred) for a in call.args)):
                return True
        return False


def _public_surface(path):
    """(key, is_used) for each public name of module ``path``: its top-level
    defs and classes ("name"), the methods and properties of its public
    classes ("Class.member") and the defaulted parameters of its public
    functions and methods ("function(parameter=)"); ``is_used`` takes a
    unit's ``_Uses``."""
    for stmt in ast.parse(path.read_text()).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        yield stmt.name, lambda uses, name=stmt.name: name in uses.names | uses.attrs
        functions = [(stmt.name, stmt, 0)] if isinstance(stmt, ast.FunctionDef) else []
        for m in stmt.body if isinstance(stmt, ast.ClassDef) else ():
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                yield f"{stmt.name}.{m.name}", lambda uses, name=m.name: name in uses.attrs
                static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                functions.append((f"{stmt.name}.{m.name}", m, 0 if static else 1))
        for key, fn, receiver in functions:   # a bound method's self is passed for it
            args = fn.args
            positional = args.posonlyargs + args.args
            params = [*((a, i - receiver) for i, a in enumerate(positional)
                        if i >= len(positional) - len(args.defaults)),
                      *((a, len(positional)) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None)]
            for a, position in params:
                yield f"{key}({a.arg}=)", partial(_Uses.passes, function=fn.name,
                                                  param=a.arg, position=position)


def test_every_public_function_has_a_caller():
    # names are matched, not resolved: a member counts as used when any caller
    # reads an attribute of its name, whatever the object
    root = Path(__file__).resolve().parents[1]
    outside = [*(root / "scripts").glob("*.py"), *(root / "perfbench").glob("*.py"),
               root / "tests" / "test_acceptance.py"]
    modules = sorted((root / "src" / "linkspectra").glob("*.py"))
    sites = [(None, None, _Uses(nodes)) for path in outside for _, nodes in _units(path)]
    sites += [(path.stem, unit, _Uses(nodes)) for path in modules
              for unit, nodes in _units(path)]
    surface = [(path.stem, key, is_used) for path in modules
               for key, is_used in _public_surface(path)]

    def used(mod, key, is_used):
        own = key.split("(")[0]   # a name's own definition does not count as a use
        return any(is_used(uses) for m, unit, uses in sites
                   if not (m == mod and unit and (unit == own or unit.startswith(own + "."))))

    uncalled = [f"{mod}.{key}" for mod, key, is_used in surface
                if key not in KEEP and not used(mod, key, is_used)]
    assert uncalled == []
    assert sorted(KEEP.keys() - {key for _, key, _ in surface}) == []
