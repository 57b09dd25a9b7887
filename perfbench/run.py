"""Benchmark harness for linkspectra: three workloads, timed end to end.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-daynight, lib-ladder, cli-bfs-grid (see README.md);
--workload all runs the three in turn. With --trace 0 a run prints wall_s,
setup_s, cpu_s and peak_rss_mb; with --trace 1 a separate traced run prints
the per-layer metrics. A run's last line of standard output is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

This file imports the standard library only. The load runs in child
processes, so their peak RSS is not inflated by the harness: a child started
by vfork or fork inherits its parent's RSS high-water mark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import (CLI_WORKLOADS, WORKLOADS, another_round, round_commands,  # noqa: E402
                       setup_commands)

PY = sys.executable
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
SETUP_SHARE = 0.25          # set-up samples run for this share of --seconds,
SETUP_SAMPLES = (3, 40)     # but at least / at most this many; setup_s is their median
PROC_TIMEOUT_S = 170.0


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log: Path

    def last_json(self) -> dict:
        lines = self.log.read_text().strip().splitlines()
        return json.loads(lines[-1])


def bench_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for key in ("LINKSPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = str(THREADS)
    return env


class Runner:
    """Starts one child at a time and accounts its wall, CPU and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.env = bench_env()
        self.count = 0

    def run(self, argv) -> Proc:
        self.count += 1
        log = self.work / "logs" / f"{self.count:04d}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log, "wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            watchdog = threading.Timer(PROC_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, log)

    def cli(self, args) -> Proc:
        return self.run([PY, "-m", "linkspectra.cli", *args])

    def script(self, name, *args) -> Proc:
        p = self.run([PY, str(HERE / name), *map(str, args)])
        if p.rc != 0:
            raise RuntimeError(f"{name} failed ({p.rc}):\n{p.log.read_text()[-2000:]}")
        return p


def _median(values) -> float:
    return float(statistics.median(values))


def setup_samples(sample, seconds: float) -> list:
    """Set-up seconds: ``sample()`` returns one set-up's seconds and is
    repeated for SETUP_SHARE of the run's seconds, within SETUP_SAMPLES."""
    lo, hi = SETUP_SAMPLES
    samples = []
    start = perf_counter()
    while len(samples) < lo or (len(samples) < hi
                                and perf_counter() - start < SETUP_SHARE * seconds):
        samples.append(sample())
    return samples


def timed_cli(runner: Runner, workload: str, d: Path, m: dict, seconds: float) -> dict:
    procs = []
    argvs = [[PY, "-m", "linkspectra.cli", *cmd] for cmd in setup_commands(workload, str(d), m)]

    def sample() -> float:
        ps = [runner.run(argv) for argv in argvs]
        bad = [p for p in ps if p.rc != 0]
        if bad:
            raise RuntimeError(f"set-up command failed:\n{bad[0].log.read_text()[-2000:]}")
        procs.extend(ps)
        return sum(p.wall_s for p in ps)

    setup = setup_samples(sample, seconds)
    ops = round_commands(workload, str(d), m)
    rounds = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        ps = [runner.cli(cmd) for cmd in ops]
        now = perf_counter()
        procs += ps
        rounds.append([(p.wall_s, p.cpu_s) for p in ps])
        attempted += len(ps)
        failed += sum(p.rc != 0 for p in ps)
        if not another_round(now - start, now - round_start, seconds):
            break
    return {**op_medians(rounds), "setup_s": _median(setup), "setup_samples": setup,
            "peak_rss_mb": max(p.rss_mb for p in procs), "rounds": rounds,
            "attempted": attempted, "failed": failed}


def op_medians(rounds) -> dict:
    """wall_s and cpu_s of the operation list: per operation the median over
    the run's rounds, summed. Co-tenant load slows a process by up to 1.8x for
    seconds at a time; a per-operation median discards the rounds a burst
    hit, where the sum of one round would carry every burst it met."""
    per_op = list(zip(*rounds))
    return {"wall_s": sum(_median([w for w, _ in op]) for op in per_op),
            "cpu_s": sum(_median([c for _, c in op]) for op in per_op)}


def timed_lib(runner: Runner, d: Path, seconds: float) -> dict:
    probes = []

    def sample() -> float:
        probes.append(runner.script("worker.py", "lib-setup", "--workload", "lib-ladder",
                                    "--dir", d))
        return probes[-1].last_json()["setup_s"]

    setup = setup_samples(sample, seconds)
    worker = runner.script("worker.py", "lib", "--workload", "lib-ladder", "--dir", d,
                           "--seconds", seconds)
    r = worker.last_json()
    return {**op_medians(r["rounds"]),
            "setup_s": _median(setup), "setup_samples": setup,
            "peak_rss_mb": max([r["peak_rss_mb"]] + [p.rss_mb for p in probes]),
            "rounds": r["rounds"], "attempted": r["attempted"],
            "failed": r["failed"], "errors": r["errors"], "check_errors": r["check_errors"]}


UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    special = {"io.bytes_written_mb": "MB", "synth.trials_per_s": "1/s",
               "stream.active_share": "share"}
    return special.get(name, "s" if name.endswith("_s") else "count")


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """One run: generate inputs, time (or trace) the workload, check its outputs,
    print an information line and the result line. The run directory is
    removed at the end; a traced run leaves its spans in
    .perfbench_work/spans-WORKLOAD.json."""
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    d = work / "data"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work)
    try:
        runner.script("inputs.py", "--workload", workload, "--seed", seed, "--out", d)
        m = json.loads((d / "manifest.json").read_text())
        if trace:
            spans = ROOT / ".perfbench_work" / f"spans-{workload}.json"
            r = runner.script("worker.py", "trace", "--workload", workload,
                              "--dir", d, "--spans", spans).last_json()
            metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in r["metrics"].items()}
        else:
            r = (timed_lib(runner, d, seconds) if workload == "lib-ladder"
                 else timed_cli(runner, workload, d, m, seconds))
            metrics = {k: {"value": r[k], "unit": u} for k, u in UNITS.items()}
        if workload in CLI_WORKLOADS:
            check_errors = runner.script("checks.py", "--workload", workload,
                                         "--dir", d).last_json()["errors"]
        else:
            check_errors = r["check_errors"]
        info = {"workload": workload, "seed": seed, "threads": THREADS,
                "env": {k: runner.env[k] for k in ("LINKSPECTRA_THREADS",
                                                   "OPENBLAS_NUM_THREADS")},
                "setup_samples": r.get("setup_samples"), "rounds": r.get("rounds"),
                "errors": r.get("errors", []),
                "check_errors": check_errors}
        print(json.dumps(info))
        print(json.dumps({"correct": not check_errors, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or 'all' to run the three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "linkspectra" / "__init__.py").is_file():
        sys.stderr.write(f"no linkspectra sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
