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
from .graphbasis import GraphBasis
from .partition import partition_bfs
from .spectra import (
    JointFilter,
    KeepRule,
    apply_joint_filter,
    backbone,
    default_basis,
    regularity,
    structure_split,
    time_structure,
)
from .stream import active_space, restrict_stream, stream_from_slices
from .timebasis import aggregate, aggregation_filter


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _load(args, window):
    """Read the input and resolve the basis; ``bfs`` restricts the stream to the
    active relations. ``partition_bfs`` checks their count first, so a bad count
    is reported ahead of a relation whose records sum to zero."""
    choice = args.basis if args.needs_basis else None
    result = lio.read_stream(args.input, args.format, window=window,
                             pad_vertices=choice not in (None, "bfs"), active_only=choice == "bfs")
    if result.dropped:
        sys.stderr.write(json.dumps({"warning": "triplets outside the window were dropped",
                                     "dropped": result.dropped}) + "\n")
    stream = result.stream
    if choice is None:
        return stream, None
    if choice == "svd":
        return stream, default_basis(stream, args.level, args.seed)
    if choice == "bfs":
        pairs = [stream.space.relations[k] for k in sorted(stream.aggregate_graph().edge_set)]
        space = active_space(stream.space.num_vertices, pairs)
        tree = partition_bfs(space, seed=args.seed)
        return restrict_stream(stream, space), GraphBasis(tree, args.level)
    return stream, GraphBasis(lio.read_tree_json(choice, stream.space), args.level)


def _parse_keep(text: str) -> KeepRule:
    if text.startswith("top:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"keep top must look like 'top:<k>', got {text!r}") from None
        return KeepRule.top_k(k)
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


# ---------------------------------------------------------------------------
# commands: each writes its outputs into ``out`` and may return an exit status

def _ingest(args, out, stream, basis):
    lio.write_stream(out, stream)


def _basis(args, out, stream, basis):
    lio.write_tree_json(out / "tree.json", basis.tree, stream.space)


def _decompose(args, out, stream, basis):
    lio.write_plot_bundle(out, stream, basis)


def _filter(args, out, stream, basis):
    jf = JointFilter(lio.frequency_filter(args.freq, stream.num_times),
                     lio.structural_response(args.struct, basis))
    lio.write_stream(out, apply_joint_filter(stream, jf, basis), "filtered")


def _backbone(args, out, stream, basis):
    kept_stream, mask = backbone(stream, basis, _parse_keep(args.keep))
    lio.write_stream(out, kept_stream, "backbone")
    lio.write_grid_csv(out / "kept_mask.csv", mask.astype(float), "freq",
                       range(mask.shape[0]), lio.coefficient_labels(basis))


def _aggregate(args, out, stream, basis):
    lio.write_stream(out, aggregate(stream, args.agg_window), "aggregated")
    chi = aggregation_filter(args.agg_window, stream.num_times)
    lio.write_grid_csv(out / "aggregation_response.csv",
                       chi.response.view(float).reshape(-1, 2), "freq_index",
                       range(chi.length), ["re", "im"])


def _embed(args, out, stream, basis):
    scaling, _ = structure_split(time_structure(stream, basis), basis)
    labels = lio.coefficient_labels(basis)[: basis.num_scaling]
    lio.write_grid_csv(out / "embedding.csv", scaling, "t", stream.times, labels)


def _regularity(args, out, stream, basis):
    doc = regularity(stream, basis, boundary=args.boundary).as_dict()
    (out / "regularity.json").write_text(json.dumps(doc, indent=1) + "\n")
    sys.stdout.write(json.dumps(doc) + "\n")


# the four synth commands import synth (and its thread pool) themselves, so
# the other commands start without it

def _oscillating(args, out, *_):
    from . import synth

    stream = synth.gen_oscillating(args.times)
    lio.write_stream(out, stream)
    lio.write_tree_json(out / "tree.json", synth.fig_partition(), stream.space)


def _sbm_pair(args, out, *_):
    from . import synth

    g1, g2, tree = synth.gen_sbm_pair(args.blocks, args.per_block, args.p_in, args.p_out,
                                      args.seed)
    lio.write_stream(out, stream_from_slices([g1, g2]), "pair")
    lio.write_tree_json(out / "tree.json", tree, g1.space)


def _daynight(args, out, *_):
    from . import synth

    stream = synth.gen_daynight(args.communities, args.per_comm, args.period, args.duty,
                                args.p_active, args.times, args.seed)
    lio.write_stream(out, stream)


def _verify_lemmas(args, out, *_):
    from . import synth

    if args.lemma:
        checks = synth.verify_lemma(args.lemma, trials=args.trials, seed=args.seed)
    else:
        checks = synth.verify_all(trials=args.trials, seed=args.seed)
    report = [c.as_dict() for c in checks]
    (out / "lemma_report.json").write_text(json.dumps(report, indent=1) + "\n")
    sys.stdout.write(json.dumps(report) + "\n")
    return 0 if all(c.passed for c in checks) else 1


def _flag(*names, **kwargs):
    return names, kwargs


_STREAM_FLAGS = [
    _flag("--input", required=True),
    _flag("--format", default="csv", choices=["csv", "ndjson", "raw", "dense"]),
    _flag("--window", default=None, help="time window t0:T (triplet formats)"),
]
_RUN_FLAGS = [_flag("--seed", type=int, default=0), _flag("--out", required=True)]
_BASIS_FLAGS = [
    _flag("--basis", default="svd", help="'svd', 'bfs', or a path to a tree JSON file"),
    _flag("--level", type=int, default=None),
]


def _command(sub, name, run, *flags, stream=True, basis=False, params=(), **parser_kw):
    """Declare one subcommand: whether ``run_command`` loads a ``stream`` and
    prepares a ``basis`` for ``run``, and the arguments that ``config.json``
    records as ``params``. An own flag replaces the common flag of its name
    (``aggregate --window``); a command without input lists its own first."""
    own = {names[0] for names, _ in flags}
    common = [f for f in (_STREAM_FLAGS if stream else []) + _RUN_FLAGS
              + (_BASIS_FLAGS if basis else []) if f[0][0] not in own]
    p = sub.add_parser(name, **parser_kw)
    for names, kwargs in [*common, *flags] if stream else [*flags, *common]:
        p.add_argument(*names, **kwargs)
    p.set_defaults(run=run, reads_stream=stream, needs_basis=basis, params=params)


def build_parser() -> _Parser:
    parser = _Parser(prog="linkspectra",
                     description="Frequency-structure analysis of link streams")
    # what config.json records for a common flag that a command lacks
    parser.set_defaults(input=None, format="csv", window=None, basis="svd", level=None,
                        keep=None, freq=None, struct=None, boundary="circular")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "ingest", _ingest, help="read triplets, write dense + raw exports")
    _command(sub, "basis", _basis, basis=True, help="build and save a partition tree")
    _command(sub, "decompose", _decompose, basis=True,
             help="write the L/X/|F|/|C| plot bundle")
    _command(sub, "filter", _filter,
             _flag("--freq", default="all",
                   help="preset lowpass:<cutoff>|agg:<k>|diff|all or CSV path"),
             _flag("--struct", default="all", help="preset coarse|detail|all or CSV path"),
             basis=True, help="apply joint frequency and structural filters")
    _command(sub, "backbone", _backbone,
             _flag("--keep", required=True, help="top:<k> or box:<u0:u1,k0:k1>"),
             basis=True, help="keep dominant coefficients and reconstruct")
    _command(sub, "aggregate", _aggregate,
             _flag("--window", dest="agg_window", type=int, required=True, metavar="K",
                   help="aggregation window size (samples)"),
             params=("agg_window",), help="k-sample aggregation of the stream")
    _command(sub, "embed", _embed, basis=True,
             help="export the coarse embedding time series")
    _command(sub, "regularity", _regularity,
             _flag("--linear-boundary", dest="boundary", action="store_const",
                   const="linear", default="circular",
                   help="drop the circular wrap term in time derivatives"),
             basis=True, help="time/relation regularity metrics")

    gens = sub.add_parser("synth", help="generate synthetic fixtures").add_subparsers(
        dest="generator", required=True)
    fixture = dict(stream=False, params=("generator",))
    _command(gens, "oscillating", _oscillating, _flag("--times", type=int, default=32),
             **fixture)
    _command(gens, "sbm-pair", _sbm_pair,
             _flag("--blocks", type=int, default=2),
             _flag("--per-block", type=int, default=16),
             _flag("--p-in", type=float, default=0.5),
             _flag("--p-out", type=float, default=0.01), **fixture)
    _command(gens, "daynight", _daynight,
             _flag("--communities", type=int, default=2),
             _flag("--per-comm", type=int, default=16),
             _flag("--period", type=int, default=20),
             _flag("--duty", type=float, default=0.5),
             _flag("--p-active", type=float, default=0.5),
             _flag("--times", type=int, default=200), **fixture)

    _command(sub, "verify-lemmas", _verify_lemmas,
             _flag("--trials", type=int, default=20000),
             _flag("--lemma", type=int, default=None, choices=[1, 2, 3, 4]),
             stream=False, params=("trials",),
             help="run the lemma oracles, emit a JSON report")
    return parser


def _write_config(out: Path, args, window):
    """``config.json``: the common flags plus the command's ``params``."""
    doc = {"command": args.command, "input": args.input, "fmt": args.format,
           "window": window, "basis": args.basis, "level": args.level, "seed": args.seed,
           "out": args.out, "keep": args.keep, "freq": args.freq, "struct": args.struct,
           "boundary": args.boundary, "params": {k: getattr(args, k) for k in args.params}}
    (out / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_command(args) -> int:
    """Check the flags, load the input and prepare the basis once, run the
    command, then record ``config.json``."""
    window = lio.parse_window(args.window) if args.window else None
    if args.level is not None and args.level < 1:
        raise ValueError("level must be >= 1")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stream, basis = _load(args, window) if args.reads_stream else (None, None)
    status = args.run(args, out, stream, basis) or 0
    _write_config(out, args, window)
    return status


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
