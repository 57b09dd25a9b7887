import json

import numpy as np
import pytest

from linkspectra import (
    FrequencyFilter,
    JointFilter,
    KeepRule,
    LinkStreamMatrix,
    PartitionTree,
    apply_joint_filter,
    backbone,
    decompose,
    default_basis,
    freq_relational,
    full_space,
    regularity,
    synth,
    time_structure,
)
from linkspectra import io as lio
from linkspectra.cli import main
from linkspectra.stream import active_space, restrict_stream
from linkspectra.graphbasis import GraphCoefficients, coarse_pass_response
from linkspectra.timebasis import lowpass_filter

from conftest import read_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_then_aggregate_constant_clique(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    code, _, err = run(capsys, "synth", "oscillating", "--times", "8",
                       "--out", str(fixture))
    assert code == 0, err
    assert (fixture / "stream.raw").exists()
    assert (fixture / "tree.json").exists()
    aggdir = tmp_path / "agg"
    code, _, err = run(capsys, "aggregate", "--input", str(fixture / "stream.raw"),
                       "--format", "raw", "--window", "2", "--out", str(aggdir))
    assert code == 0, err
    back = lio.read_raw(aggdir / "aggregated.raw")
    assert np.array_equal(back.stream.values, np.ones((8, 16)))
    config = json.loads((aggdir / "config.json").read_text())
    assert config["command"] == "aggregate"
    assert config["params"]["agg_window"] == 2


def test_decompose_zero_stream_all_zero_grids(tmp_path, capsys):
    src = tmp_path / "zero.csv"
    src.write_text("t," + ",".join(f"{u}->{v}" for u in "ab" for v in "ab") + "\n"
                   + "\n".join(f"{t},0,0,0,0" for t in range(4)) + "\n")
    outdir = tmp_path / "dec"
    code, _, err = run(capsys, "decompose", "--input", str(src), "--format", "dense",
                       "--out", str(outdir))
    assert code == 0, err
    for name in ("L.csv", "X.csv", "F_abs.csv", "C_abs.csv"):
        rows = (outdir / name).read_text().splitlines()[1:]
        vals = [float(x) for row in rows for x in row.split(",")[1:]]
        assert max(abs(v) for v in vals) == 0.0


def test_decompose_refuses_a_zero_thread_cap(tmp_path, capsys, monkeypatch):
    src = tmp_path / "one.csv"
    src.write_text("0,a,b\n1,b,a\n")
    monkeypatch.setenv("LINKSPECTRA_THREADS", "0")
    code, _, err = run(capsys, "decompose", "--input", str(src), "--out", str(tmp_path / "d"))
    assert code == 1
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": {"type": "ValueError", "message": "LINKSPECTRA_THREADS must be >= 1"}}]


def test_diff_filter_on_one_step_stream(tmp_path, capsys):
    src = tmp_path / "one.csv"
    src.write_text("0,a,b\n0,b,a,2\n0,a,a\n")
    outdir = tmp_path / "filter"
    code, _, err = run(capsys, "filter", "--input", str(src), "--freq", "diff",
                       "--out", str(outdir))
    assert code == 0, err
    assert np.array_equal(read_grid(outdir / "filtered.csv"), np.zeros((1, 4)))


def test_decompose_with_tree_file(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    run(capsys, "synth", "oscillating", "--times", "8", "--out", str(fixture))
    outdir = tmp_path / "dec"
    code, _, err = run(capsys, "decompose", "--input", str(fixture / "stream.raw"),
                       "--format", "raw", "--basis", str(fixture / "tree.json"),
                       "--level", "3", "--out", str(outdir))
    assert code == 0, err
    grid = (outdir / "C_abs.csv").read_text().splitlines()
    hot = 0
    for row in grid[1:]:
        hot += sum(1 for x in row.split(",")[1:] if abs(float(x)) > 1e-9)
    assert hot == 4


def test_verify_lemmas_cli(tmp_path, capsys):
    outdir = tmp_path / "report"
    code, out, err = run(capsys, "verify-lemmas", "--trials", "2000", "--seed", "7",
                         "--out", str(outdir))
    assert code == 0, err
    report = json.loads((outdir / "lemma_report.json").read_text())
    assert {r["lemma"] for r in report} == {1, 2, 3, 4}
    assert all(r["pass"] for r in report)
    assert json.loads(out.strip()) == report


def test_seed_determinism_byte_for_byte(tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        code, _, _ = run(capsys, "synth", "daynight", "--times", "40", "--seed", "9",
                         "--out", str(outdir))
        assert code == 0
        outs.append((outdir / "stream.raw").read_bytes())
    assert outs[0] == outs[1]
    outdir = tmp_path / "c"
    run(capsys, "synth", "daynight", "--times", "40", "--seed", "10",
        "--out", str(outdir))
    assert (outdir / "stream.raw").read_bytes() != outs[0]


def test_synth_daynight_vertex_count_not_a_power_of_two(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "daynight", "--communities", "3", "--per-comm", "3",
                       "--times", "8", "--seed", "4", "--out", str(tmp_path / "o"))
    assert code == 0, err
    back = lio.read_raw(tmp_path / "o" / "stream.raw").stream
    expected = synth.gen_daynight(3, 3, 20, 0.5, 0.5, 8, seed=4)
    assert back.space.num_relations == 81   # the 9^2 pairs, no relation pads
    assert np.array_equal(back.values, expected.values)


@pytest.mark.parametrize("argv, message", [
    (["daynight", "--per-comm", "0"], "invalid day/night parameters: communities and"
     " per_community must be >= 1, got 2 and 0"),
    (["daynight", "--communities", "0"], "invalid day/night parameters: communities and"
     " per_community must be >= 1, got 0 and 16"),
    (["sbm-pair", "--p-in", "2"], "invalid SBM parameters: p_in and p_out must lie in"
     " [0, 1], got p_in=2.0, p_out=0.01"),
], ids=["per-comm-0", "communities-0", "p-in-2"])
def test_synth_refuses_bad_parameters(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, "synth", *argv, "--out", str(tmp_path / "o"))
    assert code == 1 and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": {"type": "ValueError", "message": message}}
    assert list((tmp_path / "o").iterdir()) == []


def test_backbone_and_filter_cli(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    run(capsys, "synth", "oscillating", "--times", "8", "--out", str(fixture))
    bdir = tmp_path / "backbone"
    code, _, err = run(capsys, "backbone", "--input", str(fixture / "stream.raw"),
                       "--format", "raw", "--basis", str(fixture / "tree.json"),
                       "--level", "3", "--keep", "top:4", "--out", str(bdir))
    assert code == 0, err
    back = lio.read_raw(bdir / "backbone.raw")
    fixture_stream = lio.read_raw(fixture / "stream.raw").stream
    assert np.abs(back.stream.values - fixture_stream.values).max() < 1e-9
    mask_rows = (bdir / "kept_mask.csv").read_text().splitlines()[1:]
    kept = sum(float(x) for row in mask_rows for x in row.split(",")[1:])
    assert kept == 4.0

    fdir = tmp_path / "filtered"
    code, _, err = run(capsys, "filter", "--input", str(fixture / "stream.raw"),
                       "--format", "raw", "--basis", str(fixture / "tree.json"),
                       "--level", "3", "--freq", "agg:2", "--struct", "all",
                       "--out", str(fdir))
    assert code == 0, err
    filtered = lio.read_raw(fdir / "filtered.raw").stream
    assert np.allclose(filtered.values, 1.0, atol=1e-9)


def test_regularity_cli(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    run(capsys, "synth", "oscillating", "--times", "8", "--out", str(fixture))
    rdir = tmp_path / "reg"
    code, out, err = run(capsys, "regularity", "--input", str(fixture / "stream.raw"),
                         "--format", "raw", "--basis", str(fixture / "tree.json"),
                         "--level", "3", "--out", str(rdir))
    assert code == 0, err
    doc = json.loads(out.strip())
    assert doc["reg_t"] == pytest.approx(8 * 16)
    assert doc["reg_e"] == pytest.approx(0.0, abs=1e-9)
    assert doc["boundary"] == "circular"


def test_embed_cli(tmp_path, capsys):
    fixture = tmp_path / "fixture"
    run(capsys, "synth", "oscillating", "--times", "4", "--out", str(fixture))
    edir = tmp_path / "embed"
    code, _, err = run(capsys, "embed", "--input", str(fixture / "stream.raw"),
                       "--format", "raw", "--basis", str(fixture / "tree.json"),
                       "--level", "3", "--out", str(edir))
    assert code == 0, err
    lines = (edir / "embedding.csv").read_text().splitlines()
    assert lines[0] == "t,s(3)[0],s(3)[1]"
    first = [float(x) for x in lines[1].split(",")[1:]]
    assert first[0] == pytest.approx(8 / np.sqrt(8))
    assert first[1] == 0.0


def test_ingest_cli_with_window_warning(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("0,a,b\n9,b,a\n1,a,a\n")
    outdir = tmp_path / "ing"
    code, _, err = run(capsys, "ingest", "--input", str(src), "--window", "0:2",
                       "--out", str(outdir))
    assert code == 0
    warning = json.loads(err.strip().splitlines()[0])
    assert warning["dropped"] == 1
    exported = lio.read_raw(outdir / "stream.raw").stream
    reread = lio.read_dense_csv(outdir / "stream.csv").stream
    assert np.abs(exported.values - reread.values).max() < 1e-12


def test_error_json_on_stderr(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--input", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "o"))
    assert code == 1
    doc = json.loads(err.strip().splitlines()[-1])
    assert "error" in doc and doc["error"]["type"]


def test_usage_error_json(tmp_path, capsys):
    code, _, err = run(capsys, "backbone", "--input", "x", "--out", "y")
    assert code == 2
    doc = json.loads(err.strip().splitlines()[0])
    assert doc["error"]["type"] == "usage"


_RING = "".join(f"{t},{v},{(v + 1) % 8}\n" for t in range(4) for v in range(8))


def ring_csv(tmp_path):
    src = tmp_path / "ring.csv"
    src.write_text(_RING)
    return src


def test_bfs_basis_cli(tmp_path, capsys):
    src = ring_csv(tmp_path)
    outdir = tmp_path / "basis"
    code, _, err = run(capsys, "basis", "--input", str(src), "--basis", "bfs",
                       "--seed", "3", "--out", str(outdir))
    assert code == 0, err
    doc = json.loads((outdir / "tree.json").read_text())
    assert doc["num_relations"] == 8


def test_bfs_commands_from_csv_equal_restricted_raw(tmp_path, capsys):
    src = ring_csv(tmp_path)
    full = lio.ingest_triplets(src, "csv")
    agg = full.stream.aggregate_graph()
    space = active_space(8, [full.stream.space.relations[k] for k in sorted(agg.edge_set)])
    raw = tmp_path / "ring.raw"
    lio.write_raw(raw, restrict_stream(full.stream, space))
    for command, extra in (("regularity", []), ("decompose", []),
                           ("backbone", ["--keep", "box:0:1,0:3"])):
        outputs = []
        for fmt, path in (("csv", src), ("raw", raw)):
            outdir = tmp_path / f"{command}-{fmt}"
            code, out, err = run(capsys, command, "--input", str(path), "--format", fmt,
                                 "--basis", "bfs", "--seed", "3", *extra,
                                 "--out", str(outdir))
            assert code == 0, err
            files = {p.name: p.read_bytes() for p in outdir.iterdir()
                     if p.name != "config.json"}
            outputs.append((out, err, files))
        assert outputs[0] == outputs[1], command


@pytest.mark.parametrize("records, message", [
    ("0,a,b\n1,b,c\n2,c,a\n",
     "BFS partitioning needs a power-of-two active relation count, got 3"),
    ("0,a,b,1\n1,a,b,-1\n0,b,a\n0,a,a\n1,b,b\n2,b,c\n",
     "active relation ('a', 'b') is outside the restricted space"),
    ("0,a,b,1\n1,a,b,-1\n0,b,a\n0,a,a\n1,b,b\n",
     "BFS partitioning needs a power-of-two active relation count, got 3"),
])
def test_bfs_refuses_unusable_active_set(tmp_path, capsys, records, message):
    src = tmp_path / "in.csv"
    src.write_text(records)
    code, _, err = run(capsys, "basis", "--input", str(src), "--basis", "bfs",
                       "--out", str(tmp_path / "basis"))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == {
        "type": "ValueError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["filter", "--freq", "agg:x"], "freq agg must look like 'agg:<k>', got 'agg:x'"),
    (["filter", "--freq", "lowpass:abc"],
     "freq lowpass must look like 'lowpass:<cutoff>', got 'lowpass:abc'"),
    (["backbone", "--keep", "top:x"], "keep top must look like 'top:<k>', got 'top:x'"),
], ids=["freq-agg", "freq-lowpass", "keep-top"])
def test_flag_value_errors_name_the_expected_shape(tmp_path, capsys, argv, message):
    code, _, err = run(capsys, *argv, "--input", str(ring_csv(tmp_path)), "--basis", "bfs",
                       "--out", str(tmp_path / "out"))
    assert code == 1
    assert json.loads(err.strip().splitlines()[-1])["error"] == {
        "type": "ValueError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["decompose", "--level", "0"], "level must be >= 1"),
    (["backbone", "--keep", "box:1:2"],
     "keep box must look like 'box:u0:u1,k0:k1', got 'box:1:2'"),
    (["backbone", "--keep", "foo"], "unknown keep rule 'foo'"),
    (["filter", "--freq", "lowpass:0.7"], "cutoff is a cyclic frequency in [0, 0.5]"),
    # the ring restricted to its 8 active relations is a 4 x 8 grid: 32 coefficients
    (["backbone", "--keep", "top:33"], "top-k selection larger than the coefficient grid"),
], ids=["level-0", "keep-box-malformed", "keep-unknown", "lowpass-cutoff",
        "keep-top-over-grid"])
def test_refused_flag_value_is_one_error_line(tmp_path, capsys, argv, message):
    code, out, err = run(capsys, *argv, "--input", str(ring_csv(tmp_path)), "--basis", "bfs",
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": {"type": "ValueError", "message": message}}]


@pytest.mark.parametrize("files, argv, message", [
    ({"in": "1_0,a,b,2\n"}, ["ingest"],
     "{in}: line 1: malformed numeric field in '1_0,a,b,2'"),
    ({"in": "0,a,b,1_5\n"}, ["ingest"],
     "{in}: line 1: malformed numeric field in '0,a,b,1_5'"),
    ({"in": "0,a,b,\uff13\n"}, ["ingest"],
     "{in}: line 1: malformed numeric field in '0,a,b,\uff13'"),
    ({"in": "t,a->a\n0,1_0\n"}, ["ingest", "--format", "dense"],
     "{in}: line 2: malformed numeric field"),
    ({"in": "t,a->a\n\uff10,1\n"}, ["ingest", "--format", "dense"],
     "{in}: line 2: malformed numeric field"),
    ({"in": _RING, "f": "freq_index,re,im\n\uff11,1,0\n"},
     ["filter", "--basis", "bfs", "--freq", "{f}"],
     "{f}: line 2: malformed numeric field"),
    ({"in": _RING, "s": "kind,level,index,value\ns,3,0_0,1\n"},
     ["filter", "--basis", "bfs", "--struct", "{s}"],
     "{s}: line 2: malformed numeric field"),
    ({"in": _RING}, ["ingest", "--window", "0:1_0"],
     "window must look like 't0:T', got '0:1_0'"),
    ({"in": _RING}, ["backbone", "--basis", "bfs", "--keep", "top:1_0"],
     "keep top must look like 'top:<k>', got 'top:1_0'"),
    ({"in": _RING}, ["backbone", "--basis", "bfs", "--keep", "box:0:1,0:\uff11"],
     "keep box must look like 'box:u0:u1,k0:k1', got 'box:0:1,0:\uff11'"),
    ({"in": _RING}, ["filter", "--basis", "bfs", "--freq", "agg:0_2"],
     "freq agg must look like 'agg:<k>', got 'agg:0_2'"),
    ({"in": _RING}, ["filter", "--basis", "bfs", "--freq", "lowpass:0_1"],
     "freq lowpass must look like 'lowpass:<cutoff>', got 'lowpass:0_1'"),
], ids=["csv-time", "csv-weight", "csv-fullwidth-weight", "dense-value",
        "dense-fullwidth-time", "freq-csv-index", "struct-csv-index", "window", "keep-top",
        "keep-box", "freq-agg", "freq-lowpass"])
def test_numbers_with_an_underscore_or_non_ascii_digit_are_refused(tmp_path, capsys, files,
                                                                  argv, message):
    paths = {stem: str(tmp_path / f"{stem}.csv") for stem in files}
    for stem, text in files.items():
        (tmp_path / f"{stem}.csv").write_text(text)
    argv = [arg.format_map(paths) for arg in argv]
    code, out, err = run(capsys, *argv, "--input", paths["in"],
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert _one_error(err) == message.format_map(paths)


_STREAM_INPUT = ["--input", "in.csv"]


@pytest.mark.parametrize("argv, flag, value, kind", [
    (["synth", "daynight"], "--seed", "1_0", "int"),
    (["decompose", *_STREAM_INPUT], "--level", "\uff14", "int"),
    (["verify-lemmas"], "--trials", "1_000", "int"),
    (["verify-lemmas"], "--lemma", "\uff11", "int"),
    (["synth", "oscillating"], "--times", "\uff18", "int"),
    (["synth", "daynight"], "--times", "1_0", "int"),
    (["synth", "sbm-pair"], "--blocks", "\uff12", "int"),
    (["synth", "sbm-pair"], "--per-block", "1_6", "int"),
    (["synth", "daynight"], "--communities", "\uff12", "int"),
    (["synth", "daynight"], "--per-comm", "\uff14", "int"),
    (["synth", "daynight"], "--period", "2_0", "int"),
    (["aggregate", *_STREAM_INPUT], "--window", "1_0", "int"),
    (["synth", "sbm-pair"], "--p-in", "0.5_0", "float"),
    (["synth", "sbm-pair"], "--p-out", "\uff10.1", "float"),
    (["synth", "daynight"], "--duty", "0.2_5", "float"),
    (["synth", "daynight"], "--p-active", "\uff10.5", "float"),
])
def test_number_flags_refuse_an_underscore_or_non_ascii_digit(tmp_path, capsys, monkeypatch,
                                                              argv, flag, value, kind):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, flag, value, "--out", "out")
    assert (code, out) == (2, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": {"type": "usage", "message": f"argument {flag}: invalid {kind} value:"
                                               f" {value!r}"}}]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "daynight"],
    ["verify-lemmas"],
    ["decompose", *_STREAM_INPUT, "--basis", "bfs"],
    ["decompose", *_STREAM_INPUT],
], ids=["synth", "verify-lemmas", "bfs", "svd"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--seed", "-3", "--out", "out")
    assert (code, out) == (2, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": {"type": "usage", "message": "argument --seed: seed must be >= 0, got -3"}}]
    assert not (tmp_path / "out").exists()


def test_number_flags_parse_plain_values(tmp_path, capsys):
    outdir = tmp_path / "dn"
    code, _, err = run(capsys, "synth", "daynight", "--communities", "2", "--per-comm", "4",
                       "--period", "10", "--duty", "0.5", "--p-active", "0.25",
                       "--times", "20", "--seed", "10", "--out", str(outdir))
    assert code == 0, err
    want = synth.gen_daynight(2, 4, 10, 0.5, 0.25, 20, 10)
    assert np.array_equal(lio.read_raw(outdir / "stream.raw").stream.values, want.values)
    assert json.loads((outdir / "config.json").read_text())["seed"] == 10


def test_dense_csv_with_only_a_header_is_refused(tmp_path, capsys):
    src = tmp_path / "dense.csv"
    src.write_text("t,a->a\n")
    code, out, err = run(capsys, "ingest", "--input", str(src), "--format", "dense",
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert _one_error(err) == f"{src}: no data rows"


def test_cli_outputs_equal_library_results(tmp_path, capsys):
    stream = synth.gen_daynight(2, 4, 8, 0.5, 0.5, 24, seed=3)
    src = tmp_path / "daynight.raw"
    lio.write_raw(src, stream)
    basis = default_basis(stream, level=4)
    common = ["--input", str(src), "--format", "raw", "--basis", "svd", "--level", "4",
              "--seed", "2"]

    def cli(command, *extra):
        outdir = tmp_path / command
        code, out, err = run(capsys, command, *common, *extra, "--out", str(outdir))
        assert code == 0, err
        return outdir, out

    d, _ = cli("decompose")
    coeffs = decompose(stream, basis)
    assert np.array_equal(read_grid(d / "L.csv"), stream.values)
    assert np.array_equal(read_grid(d / "X.csv"), time_structure(stream, basis))
    assert np.array_equal(read_grid(d / "F_abs.csv"), np.abs(freq_relational(stream)))
    assert np.array_equal(read_grid(d / "C_abs.csv"), coeffs.magnitude)
    rect = read_grid(d / "C_rect.csv")
    assert np.array_equal(rect[:, 1].reshape(coeffs.values.shape), coeffs.values.real)
    assert np.array_equal(rect[:, 2].reshape(coeffs.values.shape), coeffs.values.imag)

    d, _ = cli("filter", "--freq", "lowpass:0.1", "--struct", "coarse")
    filtered = apply_joint_filter(
        stream, JointFilter(lowpass_filter(0.1, 24), coarse_pass_response(basis)), basis)
    assert np.array_equal(lio.read_raw(d / "filtered.raw").stream.values, filtered.values)
    assert np.array_equal(read_grid(d / "filtered.csv"), filtered.values)
    # the coarse response written as a --struct CSV filters to the same bytes
    preset = d.rename(tmp_path / "filter-coarse")
    lio.write_coefficients_csv(tmp_path / "coarse.csv",
                               GraphCoefficients(basis, coarse_pass_response(basis)))
    d, _ = cli("filter", "--freq", "lowpass:0.1", "--struct", str(tmp_path / "coarse.csv"))
    for name in ("filtered.raw", "filtered.csv"):
        assert (d / name).read_bytes() == (preset / name).read_bytes()

    d, _ = cli("backbone", "--keep", "top:3")
    kept, mask = backbone(stream, basis, KeepRule.top_k(3))
    assert np.array_equal(lio.read_raw(d / "backbone.raw").stream.values, kept.values)
    assert np.array_equal(read_grid(d / "backbone.csv"), kept.values)
    assert np.array_equal(read_grid(d / "kept_mask.csv"), mask.astype(float))

    d, _ = cli("embed")
    assert np.array_equal(read_grid(d / "embedding.csv"),
                          time_structure(stream, basis)[:, : basis.num_scaling])

    d, out = cli("regularity")
    doc = regularity(stream, basis).as_dict()
    assert json.loads((d / "regularity.json").read_text()) == doc
    assert json.loads(out) == doc


def test_svd_basis_pads_an_odd_vertex_raw_or_dense_stream(tmp_path, capsys):
    src = tmp_path / "three.csv"
    src.write_text("0,a,b\n1,b,c\n2,c,a\n")
    code, _, err = run(capsys, "ingest", "--input", str(src), "--out", str(tmp_path / "ing"))
    assert code == 0, err
    trees = []
    for argv in ([str(src)], [str(tmp_path / "ing" / "stream.raw"), "--format", "raw"],
                 [str(tmp_path / "ing" / "stream.csv"), "--format", "dense"]):
        out = tmp_path / f"basis{len(trees)}"
        code, _, err = run(capsys, "basis", "--input", *argv, "--out", str(out))
        assert code == 0, err
        trees.append((out / "tree.json").read_bytes())
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert "a->~v3" in json.loads(trees[0])["labels"]


def test_padding_refuses_a_raw_or_dense_vertex_named_like_a_pad(tmp_path, capsys):
    # the raw and dense readers accept '~' names; padding three vertices
    # a, b, ~v3 would add a second ~v3
    space = full_space(3, ["a", "b", "~v3"])
    stream = LinkStreamMatrix(space, 0, np.eye(4, space.num_relations))
    lio.write_raw(tmp_path / "bad.raw", stream)
    lio.write_dense_csv(tmp_path / "bad.csv", stream)
    for name, fmt in (("bad.raw", "raw"), ("bad.csv", "dense")):
        code, out, err = run(capsys, "basis", "--input", str(tmp_path / name), "--format", fmt,
                             "--out", str(tmp_path / fmt))
        assert code == 1 and out == ""
        (line,) = err.strip().splitlines()
        assert json.loads(line)["error"]["message"] == (
            f"{tmp_path / name}: vertex name '~v3' starts with '~',"
            " which is reserved for padding vertices")


def test_verify_lemmas_cli_equals_verify_all(tmp_path, capsys):
    code, out, err = run(capsys, "verify-lemmas", "--trials", "500", "--seed", "7",
                         "--out", str(tmp_path / "report"))
    assert code == 0, err
    assert json.loads(out) == [c.as_dict() for c in synth.verify_all(trials=500, seed=7)]


_CONFIG_DEFAULTS = {"basis": "svd", "boundary": "circular", "fmt": "csv", "freq": None,
                    "input": None, "keep": None, "level": None, "out": "out", "params": {},
                    "seed": 0, "struct": None, "window": None}
_RAW = ["--input", "stream.raw", "--format", "raw"]
_TREE = [*_RAW, "--basis", "tree.json", "--level", "3"]
_RAW_CONFIG = {"input": "stream.raw", "fmt": "raw"}
_TREE_CONFIG = {**_RAW_CONFIG, "basis": "tree.json", "level": 3}


@pytest.mark.parametrize("argv, recorded", [
    (["ingest", "--input", "in.csv"], {"input": "in.csv"}),
    (["ingest", "--input", "in.csv", "--window", "1:2", "--seed", "4"],
     {"input": "in.csv", "window": [1, 2], "seed": 4}),
    (["basis", *_RAW, "--seed", "2"], {**_RAW_CONFIG, "seed": 2}),
    (["decompose", *_TREE], _TREE_CONFIG),
    (["filter", *_TREE, "--freq", "agg:2", "--struct", "coarse"],
     {**_TREE_CONFIG, "freq": "agg:2", "struct": "coarse"}),
    (["backbone", *_TREE, "--keep", "top:2"], {**_TREE_CONFIG, "keep": "top:2"}),
    (["aggregate", *_RAW, "--window", "2"], {**_RAW_CONFIG, "params": {"agg_window": 2}}),
    (["embed", *_TREE], _TREE_CONFIG),
    (["regularity", *_TREE, "--linear-boundary"], {**_TREE_CONFIG, "boundary": "linear"}),
    (["synth", "oscillating", "--times", "4"], {"params": {"generator": "oscillating"}}),
    (["synth", "sbm-pair", "--per-block", "2", "--seed", "5"],
     {"params": {"generator": "sbm-pair"}, "seed": 5}),
    (["synth", "daynight", "--per-comm", "2", "--times", "8"],
     {"params": {"generator": "daynight"}}),
    (["verify-lemmas", "--lemma", "1", "--trials", "100", "--seed", "3"],
     {"params": {"trials": 100}, "seed": 3}),
], ids=["ingest", "ingest-window", "basis", "decompose", "filter", "backbone", "aggregate",
        "embed", "regularity-linear", "synth-oscillating", "synth-sbm-pair", "synth-daynight",
        "verify-lemmas"])
def test_config_json_records_common_flags_and_params(tmp_path, capsys, monkeypatch,
                                                     argv, recorded):
    stream = synth.gen_oscillating(8)
    lio.write_raw(tmp_path / "stream.raw", stream)
    lio.write_tree_json(tmp_path / "tree.json", synth.fig_partition(), stream.space)
    (tmp_path / "in.csv").write_text("0,a,b\n1,b,a\n2,a,a\n3,b,b\n")
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv, "--out", "out")
    assert code == 0, err
    text = (tmp_path / "out" / "config.json").read_text()
    assert json.loads(text) == {**_CONFIG_DEFAULTS, "command": argv[0], **recorded}
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_verify_lemmas_refuses_trials_above_the_cap(tmp_path, capsys):
    trials = synth.MAX_TRIALS + 1
    code, out, err = run(capsys, "verify-lemmas", "--lemma", "2", "--trials", str(trials),
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert _one_error(err) == f"trial count {trials} is above the cap of {synth.MAX_TRIALS}"


def test_verify_lemmas_failure_exits_1_with_report_and_config(tmp_path, capsys, monkeypatch):
    failed = synth.LemmaCheck(1, "mean", 1.0, 2.0, 0.1, 100, False)
    monkeypatch.setattr(synth, "verify_all", lambda trials, seed: [failed])
    outdir = tmp_path / "report"
    code, out, _ = run(capsys, "verify-lemmas", "--trials", "100", "--out", str(outdir))
    assert code == 1
    assert json.loads((outdir / "lemma_report.json").read_text()) == [failed.as_dict()]
    assert json.loads(out) == [failed.as_dict()]
    config = json.loads((outdir / "config.json").read_text())
    assert config["command"] == "verify-lemmas"
    assert config["params"] == {"trials": 100}


def test_asymmetric_frequency_filter_raises_imaginary_residue(tmp_path, capsys):
    stream = synth.gen_daynight(num_times=40)
    chi = np.zeros(40)
    chi[1] = 1.0
    jf = JointFilter(FrequencyFilter(chi), np.ones(stream.num_relations))
    with pytest.raises(ValueError, match="imaginary residue"):
        apply_joint_filter(stream, jf, default_basis(stream))

    fixture = tmp_path / "fixture"
    run(capsys, "synth", "daynight", "--times", "40", "--out", str(fixture))
    asym = tmp_path / "asym.csv"
    asym.write_text("freq_index,re,im\n1,1,0\n")
    code, out, err = run(capsys, "filter", "--input", str(fixture / "stream.raw"),
                         "--format", "raw", "--freq", str(asym), "--struct", "all",
                         "--out", str(tmp_path / "f"))
    assert code == 1 and out == ""
    (line,) = err.strip().splitlines()
    assert "imaginary residue" in json.loads(line)["error"]["message"]


def _one_error(err) -> str:
    (line,) = err.strip().splitlines()
    return json.loads(line)["error"]["message"]


def test_over_nested_ndjson_is_one_ingest_error(tmp_path, capsys):
    src = tmp_path / "deep.ndjson"
    src.write_text('{"t": 0, "u": "a", "v": "b"}\n' + "[" * 100_000 + "]" * 100_000 + "\n")
    code, out, err = run(capsys, "ingest", "--input", str(src), "--format", "ndjson",
                         "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": {"type": "IngestError",
                                          "message": f"{src}: line 2: malformed NDJSON record"}}


def test_tree_with_other_labels_is_refused(tmp_path, capsys):
    lio.write_tree_json(tmp_path / "tree.json", PartitionTree(np.arange(4)), full_space(2, ["a", "b"]))
    stream = LinkStreamMatrix(full_space(2, ["b", "a"]), 0, np.arange(8.0).reshape(2, 4))
    lio.write_raw(tmp_path / "stream.raw", stream)
    code, out, err = run(capsys, "decompose", "--input", str(tmp_path / "stream.raw"),
                         "--format", "raw", "--basis", str(tmp_path / "tree.json"),
                         "--level", "1", "--out", str(tmp_path / "dec"))
    assert code == 1 and out == ""
    assert _one_error(err) == (f"{tmp_path / 'tree.json'}: tree column 0 is labelled"
                               " 'a->a', the stream's is 'b->b'")


@pytest.mark.parametrize("fmt", ["raw", "dense"])
def test_window_refused_on_raw_and_dense_input(tmp_path, capsys, fmt):
    path = tmp_path / f"stream.{fmt}"
    (lio.write_raw if fmt == "raw" else lio.write_dense_csv)(path, synth.gen_oscillating(4))
    code, out, err = run(capsys, "ingest", "--input", str(path), "--format", fmt,
                         "--window", "1:2", "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert _one_error(err) == f"{path}: a time window applies to csv and ndjson input only"
    assert not (tmp_path / "out" / "config.json").exists()


def test_window_outside_int64_is_one_ingest_error(tmp_path, capsys):
    src = tmp_path / "w.csv"
    src.write_text("-9223372036854775808,a,b\n")
    code, out, err = run(capsys, "ingest", "--input", str(src),
                         "--window=-9223372036854775809:10", "--out", str(tmp_path / "out"))
    assert code == 1 and out == ""
    assert _one_error(err) == ("window '-9223372036854775809:10' reaches outside"
                               " the int64 time range")


@pytest.mark.parametrize("window, message", [
    ("abc", "window must look like 't0:T', got 'abc'"),
    ("0:0", "window length must be positive"),
])
def test_malformed_window_is_one_ingest_error(tmp_path, capsys, window, message):
    code, out, err = run(capsys, "ingest", "--input", str(ring_csv(tmp_path)),
                         "--window", window, "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"type": "IngestError", "message": message}}


def test_ingest_of_odd_vertex_count_writes_the_n_squared_pairs(tmp_path, capsys):
    src = tmp_path / "three.csv"
    src.write_text("0,a,b\n1,b,c\n2,c,a,2.5\n")
    labels = [f"{u}->{v}" for u in "abc" for v in "abc"]
    outs = [tmp_path / "ing", tmp_path / "raw", tmp_path / "dense"]
    for argv, out in zip([[str(src)], [str(outs[0] / "stream.raw"), "--format", "raw"],
                          [str(outs[0] / "stream.csv"), "--format", "dense"]], outs):
        code, _, err = run(capsys, "ingest", "--input", *argv, "--out", str(out))
        assert code == 0, err
    assert json.loads((outs[0] / "stream.raw").read_bytes().split(b"\n")[0])["labels"] == labels
    assert (outs[0] / "stream.csv").read_text().splitlines()[0] == ",".join(["t", *labels])
    back = lio.read_raw(outs[0] / "stream.raw").stream
    assert back.values.tolist() == [[0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0, 0, 0],
                                    [0, 0, 0, 0, 0, 0, 2.5, 0, 0]]
    for out in outs[1:]:   # raw and dense re-ingest to the same bytes
        for name in ("stream.raw", "stream.csv"):
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()


def test_bfs_basis_skips_a_recorded_relation_that_cancels_in_every_cell(tmp_path, capsys):
    # 1025 recorded relations; a->b sums to zero in its one cell, so the
    # aggregate graph leaves the 1024 others for the basis
    src = tmp_path / "in.csv"
    src.write_text("".join(f"{u % 3},v{u},v{v}\n" for u in range(32) for v in range(32))
                   + "0,a,b,1\n0,a,b,-1\n")
    assert lio.ingest_triplets(src, "csv", active_only=True).stream.num_relations == 1025
    code, _, err = run(capsys, "basis", "--input", str(src), "--basis", "bfs",
                       "--out", str(tmp_path / "basis"))
    assert code == 0, err
    doc = json.loads((tmp_path / "basis" / "tree.json").read_text())
    assert doc["num_relations"] == 1024 and "a->b" not in doc["labels"]


def test_svd_tree_reused_on_padded_triplet_input(tmp_path, capsys):
    src = tmp_path / "three.csv"
    src.write_text("0,a,b\n1,b,c\n2,c,a,2.5\n3,a,a\n")   # 3 vertices, padded to 4 for SVD
    code, _, err = run(capsys, "basis", "--input", str(src), "--out", str(tmp_path / "basis"))
    assert code == 0, err
    assert "a->~v3" in json.loads((tmp_path / "basis" / "tree.json").read_text())["labels"]
    outputs = []
    for basis in ("svd", str(tmp_path / "basis" / "tree.json")):
        outdir = tmp_path / f"dec{len(outputs)}"
        code, _, err = run(capsys, "decompose", "--input", str(src), "--basis", basis,
                           "--level", "1", "--out", str(outdir))
        assert code == 0, err
        outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()
                        if p.name != "config.json"})
    assert sorted(outputs[0]) == ["C_abs.csv", "C_rect.csv", "F_abs.csv", "L.csv", "X.csv"]
    assert outputs[0] == outputs[1]


def test_decompose_of_the_raw_and_dense_exports_equals_the_triplet_input(tmp_path, capsys):
    src = tmp_path / "three.csv"
    src.write_text("0,a,b\n1,b,c\n2,c,a,2.5\n3,a,a\n")   # 3 vertices, padded to 4 for a basis
    for command in ("ingest", "basis"):
        code, _, err = run(capsys, command, "--input", str(src), "--out", str(tmp_path / command))
        assert code == 0, err
    inputs = [[str(src)], [str(tmp_path / "ingest" / "stream.raw"), "--format", "raw"],
              [str(tmp_path / "ingest" / "stream.csv"), "--format", "dense"]]
    for basis in ("svd", str(tmp_path / "basis" / "tree.json")):
        outputs = []
        for argv in inputs:
            outdir = tmp_path / f"dec{len(outputs)}"
            code, _, err = run(capsys, "decompose", "--input", *argv, "--basis", basis,
                               "--level", "1", "--out", str(outdir))
            assert code == 0, err
            outputs.append({p.name: p.read_bytes() for p in outdir.iterdir()
                            if p.name != "config.json"})
        assert len(outputs[0]) == 5
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_bfs_tree_file_decomposes_a_bfs_export_unpadded(tmp_path, capsys):
    # an export over the active relations is never vertex-padded, so the BFS
    # tree it was made with fits it as a tree file
    bfs = ["--input", str(ring_csv(tmp_path)), "--basis", "bfs", "--level", "1"]
    for argv in (["basis", *bfs], ["backbone", *bfs, "--keep", "top:1"]):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / argv[0]))
        assert code == 0, err
    code, _, err = run(capsys, "decompose", "--input", str(tmp_path / "backbone" / "backbone.raw"),
                       "--format", "raw", "--basis", str(tmp_path / "basis" / "tree.json"),
                       "--level", "1", "--out", str(tmp_path / "dec"))
    assert code == 0, err
    assert (tmp_path / "dec" / "L.csv").read_text().splitlines()[0] == \
        (tmp_path / "backbone" / "backbone.csv").read_text().splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["decompose", "--basis", "svd"],
    ["decompose", "--basis", "svd", "--level", "1"],
    ["regularity", "--basis", "bfs"],
    ["regularity", "--basis", "bfs", "--level", "1"],
], ids=["svd", "svd-level1", "bfs", "bfs-level1"])
def test_one_relation_stream_is_refused_as_too_small_for_a_basis(tmp_path, capsys, argv):
    src = tmp_path / "one.csv"
    src.write_text("0,a,a\n1,a,a,2\n")
    code, out, err = run(capsys, argv[0], "--input", str(src), *argv[1:],
                         "--out", str(tmp_path / "out"))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"type": "ValueError", "message":
                                         "a graph basis needs at least two relations,"
                                         " the tree has 1"}}
