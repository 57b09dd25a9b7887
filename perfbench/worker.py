"""In-process half of the benchmark: the library load and the traced runs.

Usage: python3 perfbench/worker.py MODE --workload NAME --dir RUNDIR [--seconds S]
                                      [--spans FILE]

Modes:
  lib-setup   time one lib-ladder set-up (import, read_raw, partition_svd per size)
  lib         set up, repeat lib-ladder rounds for S seconds, check the outputs
  trace       traced run of any workload in this process (CLI workloads through
              ``linkspectra.cli.main``): traced set-up, an untraced warm-up
              round, an untraced timed round and a traced round; writes
              every span (id, name, start, end, parent) to FILE

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_linkspectra():
    """Cold import of the package the way the CLI loads it; returns seconds."""
    start = perf_counter()
    import linkspectra.cli  # noqa: F401
    return perf_counter() - start


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# lib-ladder: in-process library calls, no text I/O

LEMMAS = (1, 2, 3, 4)


class Ladder:
    """The lib-ladder streams, their bases and the operation list per size,
    then the four lemma oracles."""

    def __init__(self, d: Path, m: dict):
        self.d = d
        self.m = m
        self.cases = []
        self.lemmas = {}

    def prepare(self):
        from linkspectra import graphbasis, io, partition, spectra, timebasis

        m = self.m
        self.cases = []
        for size in m["sizes"]:
            stream = io.read_raw(self.d / size["stream"]).stream
            basis = graphbasis.GraphBasis(
                partition.partition_svd(stream.aggregate_graph(), seed=m["seed"]), m["level"])
            fixed = io.read_raw(self.d / size["topk_stream"]).stream
            fixed_basis = graphbasis.GraphBasis(
                partition.partition_svd(fixed.aggregate_graph(), seed=0))
            self.cases.append({
                "n": size["vertices"], "stream": stream, "basis": basis,
                "fixed": fixed, "fixed_basis": fixed_basis,
                "box": spectra.KeepRule.box(0, m["box_hi"], 0, basis.num_scaling - 1),
                "top": spectra.KeepRule.top_k(m["top_k"]),
                "joint": spectra.JointFilter(
                    timebasis.lowpass_filter(m["cutoff"], m["times"]),
                    graphbasis.coarse_pass_response(basis)),
                "out": {},
            })

    def operations(self) -> list:
        """(name, callable) for one round; results land in each case's ``out``."""
        from linkspectra import spectra, synth, timebasis

        ops = []
        window = self.m["agg_window"]
        for c in self.cases:
            out, n = c["out"], c["n"]
            ops += [
                (f"decompose.{n}", _keep(out, "coeffs", lambda c=c: spectra.decompose(
                    c["stream"], c["basis"]))),
                (f"reconstruct.{n}", _keep(out, "reconstruct", lambda out=out: spectra.reconstruct(
                    out["coeffs"]).values)),
                (f"backbone_box.{n}", _keep(out, "box", lambda c=c: spectra.backbone(
                    c["stream"], c["basis"], c["box"])[0].values)),
                (f"backbone_top.{n}", _keep(out, "top", lambda c=c: spectra.backbone(
                    c["fixed"], c["fixed_basis"], c["top"])[1])),
                (f"joint_filter.{n}", _keep(out, "joint", lambda c=c: spectra.apply_joint_filter(
                    c["stream"], c["joint"], c["basis"]).values)),
                (f"aggregate.{n}", _keep(out, "aggregate", lambda c=c: timebasis.aggregate(
                    c["stream"], window).values)),
                (f"regularity.{n}", _keep(out, "regularity", lambda c=c: spectra.regularity(
                    c["stream"], c["basis"]).as_dict())),
            ]
        trials, seed = self.m["trials"], self.m["seed"]
        ops += [(f"lemma{k}", _keep(self.lemmas, k, lambda k=k: [
            c.as_dict() for c in synth.verify_lemma(k, trials=trials, seed=seed)]))
            for k in LEMMAS]
        return ops

    def clear_outputs(self):
        for c in self.cases:
            c["out"].clear()
        self.lemmas.clear()

    def check(self) -> list:
        """Errors of the independent checks on the last round's outputs."""
        import checks
        import inputs

        m = self.m
        errors = []
        for c in self.cases:
            expected = {
                "stream": inputs.ladder_values(m["seed"], c["n"]),
                "fixed": inputs.ladder_values(inputs.TOPK_SEED, c["n"]),
            }
            try:
                checks.expect_close(f"read_raw {c['n']}", c["stream"].values, expected["stream"])
                checks.expect_close(f"read_raw topk{c['n']}", c["fixed"].values,
                                    expected["fixed"])
                check_ladder_outputs(c["out"], expected["stream"],
                                     c["basis"].tree.leaf_order, m, f"M={c['n'] ** 2}")
            except checks.CheckError as exc:
                errors.append(str(exc))
        try:
            check_lemma_outputs(self.lemmas, m["trials"])
        except checks.CheckError as exc:
            errors.append(str(exc))
        return errors


def _keep(out: dict, key: str, fn):
    def op():
        out[key] = fn()
    return op


LADDER_OUTPUTS = ("coeffs", "reconstruct", "box", "joint", "aggregate", "regularity")


def check_ladder_outputs(out: dict, values, leaf_order, m: dict, what: str):
    """Checks of one size's outputs. Every output but the top-k mask must be
    there; the top-k backbone fails today, so its mask is checked when present."""
    import checks

    missing = [key for key in LADDER_OUTPUTS if key not in out]
    if missing:
        raise checks.CheckError(f"{what}: no output from {', '.join(missing)}")
    level = m["level"]
    low_coarse = checks.coarse(checks.lowpass(values, m["box_hi"]), leaf_order, level)
    checks.check_coefficients(f"{what} decompose", out["coeffs"].values, values,
                              leaf_order, level)
    checks.expect_close(f"{what} reconstruct(decompose(L))", out["reconstruct"], values)
    checks.expect_close(f"{what} box backbone", out["box"], low_coarse)
    checks.expect_close(f"{what} joint filter", out["joint"], low_coarse)
    checks.expect_close(f"{what} aggregate", out["aggregate"],
                        checks.circular_moving_sum(values, m["agg_window"]))
    checks.check_regularity(f"{what} regularity", out["regularity"], values, leaf_order,
                            level, keys=("reg_t", "reg_e"))
    if "top" in out:
        checks.check_topk_mask(out["top"])


def check_lemma_outputs(lemmas: dict, trials: int):
    """The reports of the four lemma operations, in lemma order; a lemma
    operation that produced none leaves its lemma out, which the check rejects."""
    import checks

    checks.check_lemma_report([e for k in LEMMAS for e in lemmas.get(k, [])], trials)


def run_round(ops, tracer=None, timings=None):
    """Run every operation once; returns (attempted, failed, first errors).
    With ``timings``, appends each operation's (wall s, CPU s) to it."""
    failed, errors = 0, []
    for name, fn in ops:
        t0, c0 = perf_counter(), _cpu_s()
        try:
            if tracer is None:
                fn()
            else:
                with tracer.span(f"op.{name}"):
                    fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            failed += 1
            if len(errors) < 4:
                errors.append(f"{name}: {type(exc).__name__}: {str(exc)[:160]}")
        if timings is not None:
            timings.append((perf_counter() - t0, _cpu_s() - c0))
    return len(ops), failed, errors


def lib_setup(d: Path, m: dict) -> dict:
    import_s = _import_linkspectra()
    start = perf_counter()
    Ladder(d, m).prepare()
    return {"setup_s": import_s + perf_counter() - start}


def lib_timed(d: Path, m: dict, seconds: float) -> dict:
    from workloads import another_round

    _import_linkspectra()
    ladder = Ladder(d, m)
    ladder.prepare()
    ops = ladder.operations()
    rounds = []
    attempted = failed = 0
    errors = []
    start = perf_counter()
    while True:
        ladder.clear_outputs()
        timings = []
        round_start = perf_counter()
        a, f, e = run_round(ops, timings=timings)
        now = perf_counter()
        rounds.append(timings)
        attempted, failed, errors = attempted + a, failed + f, errors or e
        if not another_round(now - start, now - round_start, seconds):
            break
    peak = _peak_rss_mb()   # before the checks allocate their own arrays
    check_errors = ladder.check()
    return {"rounds": rounds, "peak_rss_mb": peak,
            "attempted": attempted, "failed": failed, "errors": errors,
            "check_errors": check_errors}


# ---------------------------------------------------------------------------
# traced runs

SPAN_LAYERS = (
    "io.ingest_triplets", "io.write_grid_csv", "io.write_coefficient_matrix",
    "io.write_dense_csv", "io.write_raw", "io.read_raw", "io.read_tree_json",
    "io.write_tree_json", "stream.full_space", "stream.active_space",
    "stream.restrict_stream", "partition.partition_svd", "partition.partition_bfs",
    "graphbasis.analyze_values", "graphbasis.synthesize_values", "timebasis.fft_forward",
    "timebasis.fft_inverse", "timebasis.aggregate", "spectra.decompose",
    "spectra.reconstruct", "spectra.keep_mask_box", "spectra.keep_mask_top",
    "spectra.backbone", "spectra.apply_joint_filter", "spectra.regularity",
    "synth.verify_lemma1", "synth.verify_lemma2", "synth.verify_lemma3",
    "synth.verify_lemma4",
)


class IngestCounter:
    """Cells allocated at ingest and the share of columns that carry activity."""

    def __init__(self):
        self.cells = 0
        self.columns = 0
        self.active = 0

    def __call__(self, result):
        values = result.stream.values
        self.cells = max(self.cells, int(values.size))
        self.columns += values.shape[1]
        self.active += int(values.any(axis=0).sum())


def trace_targets(counter: IngestCounter) -> list:
    from linkspectra import graphbasis, io, partition, spectra, stream, synth, timebasis

    def module_targets(module, prefix, names):
        return [(module, n, f"{prefix}.{n}", None) for n in names]

    return [
        (io, "ingest_triplets", "io.ingest_triplets", counter),
        (io, "read_raw", "io.read_raw", counter),
        *module_targets(io, "io", ("read_tree_json", "write_tree_json", "write_grid_csv",
                                   "write_coefficient_matrix", "write_dense_csv", "write_raw")),
        *module_targets(stream, "stream", ("full_space", "active_space", "restrict_stream")),
        *module_targets(partition, "partition", ("partition_svd", "partition_bfs")),
        (graphbasis.GraphBasis, "analyze_values", "graphbasis.analyze_values", None),
        (graphbasis.GraphBasis, "synthesize_values", "graphbasis.synthesize_values", None),
        (timebasis.FourierBasis, "forward", "timebasis.fft_forward", None),
        (timebasis.FourierBasis, "inverse", "timebasis.fft_inverse", None),
        (timebasis, "aggregate", "timebasis.aggregate", None),
        *module_targets(spectra, "spectra", ("decompose", "reconstruct", "backbone",
                                             "apply_joint_filter", "regularity")),
        (spectra, "relaxed_time_regularity", "spectra.regularity", None),
        (spectra.KeepRule, "mask", lambda rule, coeffs: f"spectra.keep_mask_{rule.mode}", None),
        (synth, "verify_lemma", lambda lemma, *a, **k: f"synth.verify_lemma{lemma}", None),
    ]


def _tree_bytes(paths) -> int:
    total = 0
    for p in paths:
        for root, _, files in os.walk(p):
            total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def trace_run(workload: str, d: Path, m: dict, spans_path: Path) -> dict:
    from tracer import Tracer
    from workloads import CLI_WORKLOADS, round_commands, setup_commands

    import_s = _import_linkspectra()
    import linkspectra.cli as cli

    tracer = Tracer()
    counter = IngestCounter()
    targets = trace_targets(counter)
    ladder = None
    out_dirs = []
    if workload in CLI_WORKLOADS:
        def as_op(cmd):
            def op():
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    rc = cli.main(cmd)
                if rc != 0:
                    raise RuntimeError(f"{cmd[0]} exited with status {rc}")
            return op

        setup = [(cmd[0], as_op(cmd)) for cmd in setup_commands(workload, str(d), m)]
        commands = round_commands(workload, str(d), m)
        ops = [(cmd[0], as_op(cmd)) for cmd in commands]
        out_dirs = [cmd[cmd.index("--out") + 1] for cmd in commands]
    else:
        ladder = Ladder(d, m)
        setup = [("prepare", ladder.prepare)]
        ops = None

    tracer.install(targets)
    _, setup_failed, setup_errors = run_round(setup, tracer)
    tracer.uninstall()
    if setup_failed:
        raise RuntimeError(f"set-up failed: {setup_errors}")
    if ops is None:
        ops = ladder.operations()

    run_round(ops)   # warm-up, so that neither timed round pays first-call costs
    t0 = perf_counter()
    attempted, failed, errors = run_round(ops)
    untraced_wall = perf_counter() - t0

    first = len(tracer.spans)
    tracer.install(targets)
    t0 = perf_counter()
    a, f, e = run_round(ops, tracer)
    traced_wall = perf_counter() - t0
    tracer.uninstall()
    attempted, failed, errors = attempted + a, failed + f, errors or e

    self_s = tracer.self_times()
    round_spans = tracer.spans[first:]
    by_id = {span[0]: span for span in round_spans}

    def op_of(span):
        """The operation a span ran under; None for a span of a pool thread."""
        while span[4] is not None:
            span = by_id[span[4]]
        return span[1] if span[1].startswith("op.") else None

    # graph transforms per operation, leaving out the lemma oracles' sampling
    analyzed = [op_of(s) for s in round_spans if s[1] == "graphbasis.analyze_values"]
    counted_ops = [name for name, _ in ops if not name.startswith("lemma")]
    metrics = {"cli.import_s": import_s}
    metrics.update({f"{layer}_s": self_s.get(layer, 0.0) for layer in SPAN_LAYERS})
    lemma_s = sum(end - start for _, label, start, end, _ in tracer.spans
                  if label.startswith("synth.verify_lemma"))
    metrics.update({
        "io.bytes_written_mb": _tree_bytes(out_dirs) / 2 ** 20,
        "stream.allocated_cells": counter.cells,
        "stream.active_share": counter.active / counter.columns if counter.columns else 0.0,
        "graphbasis.analyze_calls": sum(1 for op in analyzed if op is not None
                                        and not op.startswith("op.lemma")) / len(counted_ops),
        "synth.trials_per_s": 4 * m["trials"] / lemma_s if lemma_s else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    spans_path.write_text(json.dumps(
        {"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": tracer.spans}))
    result = {"attempted": attempted, "failed": failed, "errors": errors, "metrics": metrics}
    if ladder is not None:
        result["check_errors"] = ladder.check()
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["lib-setup", "lib", "trace"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", help="trace: file the spans are written to")
    args = ap.parse_args()
    d = Path(args.dir)
    m = json.loads((d / "manifest.json").read_text())
    if args.mode == "lib-setup":
        result = lib_setup(d, m)
    elif args.mode == "lib":
        result = lib_timed(d, m, args.seconds)
    else:
        result = trace_run(args.workload, d, m, Path(args.spans))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
