"""Command-line front end.

Every command reads and writes files only; outputs are deterministic given
the config and seed. Errors leave a machine-readable JSON object on stderr
and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io as lio
from . import synth
from .config import RunConfig
from .graphbasis import GraphBasis
from .partition import partition_bfs
from .spectra import (
    CoefficientMatrix,
    JointFilter,
    KeepRule,
    apply_joint_filter,
    backbone,
    default_basis,
    regularity,
    relaxed_time_regularity,
    time_structure,
)
from .stream import active_space, restrict_stream, stream_from_slices
from .timebasis import FourierBasis, aggregate, aggregation_filter


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _emit_warning(message: str, **extra):
    sys.stderr.write(json.dumps({"warning": message, **extra}) + "\n")


_BASIS_COMMANDS = {"basis", "decompose", "filter", "backbone", "embed", "regularity"}


def _load_stream(cfg: RunConfig):
    basis = cfg.basis if cfg.command in _BASIS_COMMANDS else None
    result = lio.read_stream(cfg.input, cfg.fmt, window=cfg.window,
                             pad_vertices=basis == "svd", active_only=basis == "bfs")
    if result.dropped:
        _emit_warning("triplets outside the window were dropped", dropped=result.dropped)
    return result


def _prepare(cfg: RunConfig, stream):
    """Resolve the basis; BFS mode restricts the stream to the active space.

    Triplet input already arrives over the relations that carry a nonzero
    entry (``_load_stream``); that space differs from the active one only
    when some relation's entries sum to exactly zero, and ``restrict_stream``
    then refuses the stream.
    """
    if cfg.basis == "svd":
        return stream, default_basis(stream, cfg.level, cfg.seed)
    if cfg.basis == "bfs":
        agg = stream.aggregate_graph()
        pairs = [stream.space.relations[k] for k in sorted(agg.edge_set)]
        space = active_space(stream.space.num_vertices, pairs)
        if space.num_active != space.num_relations:
            raise ValueError(f"BFS partitioning needs a power-of-two active relation count,"
                             f" got {space.num_active}")
        stream = restrict_stream(stream, space)
        tree = partition_bfs(space, stream.aggregate_graph(), seed=cfg.seed)
    else:
        tree = lio.read_tree_json(cfg.basis, stream.space)
    return stream, GraphBasis(tree, cfg.level)


def _write_stream_outputs(outdir: Path, stream, names, stem: str = "stream"):
    outdir.mkdir(parents=True, exist_ok=True)
    lio.write_raw(outdir / f"{stem}.raw", stream, names)
    lio.write_dense_csv(outdir / f"{stem}.csv", stream, names)


def _parse_keep(text: str) -> KeepRule:
    if text.startswith("top:"):
        return KeepRule.top_k(int(text.split(":", 1)[1]))
    if text.startswith("box:"):
        body = text.split(":", 1)[1]
        try:
            fr, cr = body.split(",")
            f0, f1 = (int(x) for x in fr.split(":"))
            c0, c1 = (int(x) for x in cr.split(":"))
        except ValueError:
            raise ValueError(f"keep box must look like 'box:u0:u1,k0:k1', got {text!r}") from None
        return KeepRule.box(f0, f1, c0, c1)
    raise ValueError(f"unknown keep rule {text!r}")


def _common_args(p, needs_input=True, time_window=True):
    if needs_input:
        p.add_argument("--input", required=True)
        p.add_argument("--format", default="csv", choices=["csv", "ndjson", "raw", "dense"])
        if time_window:
            p.add_argument("--window", default=None, help="time window t0:T (triplet formats)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _basis_args(p):
    p.add_argument("--basis", default="svd",
                   help="'svd', 'bfs', or a path to a tree JSON file")
    p.add_argument("--level", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="linkspectra",
                     description="Frequency-structure analysis of link streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read triplets, write dense + raw exports")
    _common_args(p)

    p = sub.add_parser("basis", help="build and save a partition tree")
    _common_args(p)
    _basis_args(p)

    p = sub.add_parser("decompose", help="write the L/X/|F|/|C| plot bundle")
    _common_args(p)
    _basis_args(p)

    p = sub.add_parser("filter", help="apply joint frequency and structural filters")
    _common_args(p)
    _basis_args(p)
    p.add_argument("--freq", default="all",
                   help="preset lowpass:<cutoff>|agg:<k>|diff|all or CSV path")
    p.add_argument("--struct", default="all",
                   help="preset coarse|detail|all or CSV path")

    p = sub.add_parser("backbone", help="keep dominant coefficients and reconstruct")
    _common_args(p)
    _basis_args(p)
    p.add_argument("--keep", required=True, help="top:<k> or box:<u0:u1,k0:k1>")

    p = sub.add_parser("aggregate", help="k-sample aggregation of the stream")
    _common_args(p, time_window=False)
    p.add_argument("--window", dest="agg_window", type=int, required=True,
                   metavar="K", help="aggregation window size (samples)")

    p = sub.add_parser("embed", help="export the coarse embedding time series")
    _common_args(p)
    _basis_args(p)

    p = sub.add_parser("regularity", help="time/relation regularity metrics")
    _common_args(p)
    _basis_args(p)
    p.add_argument("--linear-boundary", action="store_true",
                   help="drop the circular wrap term in time derivatives")

    p = sub.add_parser("synth", help="generate synthetic fixtures")
    gens = p.add_subparsers(dest="generator", required=True)
    g = gens.add_parser("oscillating")
    g.add_argument("--times", type=int, default=32)
    _common_args(g, needs_input=False)
    g = gens.add_parser("sbm-pair")
    g.add_argument("--blocks", type=int, default=2)
    g.add_argument("--per-block", type=int, default=16)
    g.add_argument("--p-in", type=float, default=0.5)
    g.add_argument("--p-out", type=float, default=0.01)
    _common_args(g, needs_input=False)
    g = gens.add_parser("daynight")
    g.add_argument("--communities", type=int, default=2)
    g.add_argument("--per-comm", type=int, default=16)
    g.add_argument("--period", type=int, default=20)
    g.add_argument("--duty", type=float, default=0.5)
    g.add_argument("--p-active", type=float, default=0.5)
    g.add_argument("--times", type=int, default=200)
    _common_args(g, needs_input=False)

    p = sub.add_parser("verify-lemmas", help="run the lemma oracles, emit a JSON report")
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--lemma", type=int, default=None, choices=[1, 2, 3, 4])
    _common_args(p, needs_input=False)

    return parser


def _config_from_args(args) -> RunConfig:
    window = lio.parse_window(args.window) if getattr(args, "window", None) \
        and isinstance(args.window, str) else None
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        fmt=getattr(args, "format", "csv"),
        window=window,
        basis=getattr(args, "basis", "svd"),
        level=getattr(args, "level", None),
        seed=args.seed,
        out=args.out,
        keep=getattr(args, "keep", None),
        freq=getattr(args, "freq", None),
        struct=getattr(args, "struct", None),
        boundary="linear" if getattr(args, "linear_boundary", False) else "circular",
    ).validate()


def run_command(args) -> int:
    cfg = _config_from_args(args)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.input is not None:
        result = _load_stream(cfg)
        stream, names = result.stream, result.vertex_names
    if cfg.command in _BASIS_COMMANDS:
        stream, basis = _prepare(cfg, stream)

    if cfg.command == "ingest":
        _write_stream_outputs(outdir, stream, names)

    elif cfg.command == "basis":
        lio.write_tree_json(outdir / "tree.json", basis.tree, stream.space, names)

    elif cfg.command == "decompose":
        x = time_structure(stream, basis)
        fourier = FourierBasis(stream.num_times)
        coeffs = CoefficientMatrix(fourier.forward(x), basis, fourier, stream.space, stream.t0)
        f = fourier.forward(stream.values)
        lio.write_plot_bundle(outdir, stream, x, f, coeffs, names)

    elif cfg.command == "filter":
        jf = JointFilter(lio.frequency_filter(cfg.freq, stream.num_times),
                         lio.structural_response(cfg.struct, basis))
        filtered = apply_joint_filter(stream, jf, basis)
        _write_stream_outputs(outdir, filtered, names, stem="filtered")

    elif cfg.command == "backbone":
        kept_stream, mask = backbone(stream, basis, _parse_keep(cfg.keep))
        _write_stream_outputs(outdir, kept_stream, names, stem="backbone")
        lio.write_grid_csv(outdir / "kept_mask.csv", mask.astype(float), "freq",
                           range(mask.shape[0]), lio.coefficient_labels(basis))

    elif cfg.command == "aggregate":
        aggregated = aggregate(stream, args.agg_window)
        _write_stream_outputs(outdir, aggregated, names, stem="aggregated")
        chi = aggregation_filter(args.agg_window, stream.num_times)
        lio.write_grid_csv(outdir / "aggregation_response.csv",
                           chi.response.view(float).reshape(-1, 2), "freq_index",
                           range(chi.length), ["re", "im"])
        cfg.params["agg_window"] = args.agg_window

    elif cfg.command == "embed":
        x = time_structure(stream, basis)
        s = x[:, : basis.num_scaling]
        labels = lio.coefficient_labels(basis)[: basis.num_scaling]
        lio.write_grid_csv(outdir / "embedding.csv", s, "t", stream.times, labels)

    elif cfg.command == "regularity":
        report = regularity(stream, basis, boundary=cfg.boundary)
        doc = report.as_dict()
        doc["relaxed_reg_t"] = relaxed_time_regularity(stream, basis,
                                                       boundary=cfg.boundary)
        (outdir / "regularity.json").write_text(json.dumps(doc, indent=1) + "\n")
        sys.stdout.write(json.dumps(doc) + "\n")

    elif cfg.command == "synth":
        cfg.params["generator"] = args.generator
        if args.generator == "oscillating":
            stream = synth.gen_oscillating(args.times)
            _write_stream_outputs(outdir, stream, None)
            lio.write_tree_json(outdir / "tree.json", synth.fig_partition(), stream.space)
        elif args.generator == "sbm-pair":
            g1, g2, tree = synth.gen_sbm_pair(args.blocks, args.per_block,
                                              args.p_in, args.p_out, args.seed)
            pair = stream_from_slices([g1, g2])
            _write_stream_outputs(outdir, pair, None, stem="pair")
            lio.write_tree_json(outdir / "tree.json", tree, g1.space)
        else:
            stream = synth.gen_daynight(args.communities, args.per_comm, args.period,
                                        args.duty, args.p_active, args.times, args.seed)
            _write_stream_outputs(outdir, stream, None)

    elif cfg.command == "verify-lemmas":
        if args.lemma:
            checks = synth.verify_lemma(args.lemma, trials=args.trials, seed=args.seed)
        else:
            checks = synth.verify_all(trials=args.trials, seed=args.seed)
        report = [c.as_dict() for c in checks]
        (outdir / "lemma_report.json").write_text(json.dumps(report, indent=1) + "\n")
        sys.stdout.write(json.dumps(report) + "\n")
        cfg.params["trials"] = args.trials
        if not all(c.passed for c in checks):
            cfg.write(outdir)
            return 1

    cfg.write(outdir)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run_command(args)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
