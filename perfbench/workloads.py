"""The workloads, their CLI command lists and the rule that ends a run's
rounds, shared by the timed and the traced run.

Each command is the argument list after ``python -m linkspectra.cli``. Set-up
commands prepare the stream and its tree once; the operation list is what a
round repeats. All paths are inside the run directory ``d``.
"""

from __future__ import annotations

WORKLOADS = ("cli-daynight", "lib-ladder", "cli-bfs-grid")
CLI_WORKLOADS = ("cli-daynight", "cli-bfs-grid")


def another_round(elapsed: float, last_round: float, seconds: float) -> bool:
    """Whole rounds fill a run: start another while it is expected to end
    within ``seconds``, at the pace of the last one."""
    return elapsed + last_round <= seconds


def setup_commands(workload: str, d: str, m: dict) -> list:
    if workload == "cli-daynight":
        csv = ["--input", f"{d}/daynight.csv", "--format", "csv", "--seed", str(m["seed"])]
        return [["ingest", *csv, "--out", f"{d}/ingest"],
                ["basis", *csv, "--basis", "svd", "--out", f"{d}/basis"]]
    if workload == "cli-bfs-grid":
        return [["basis", *_grid_args(d, m), "--out", f"{d}/basis"]]
    return []


def round_commands(workload: str, d: str, m: dict) -> list:
    if workload == "cli-daynight":
        src = ["--input", f"{d}/ingest/stream.raw", "--format", "raw",
               "--basis", f"{d}/basis/tree.json", "--level", str(m["level"])]
        return [["decompose", *src, "--out", f"{d}/decompose"],
                ["filter", *src, "--freq", m["freq"], "--struct", "coarse",
                 "--out", f"{d}/filter"],
                ["backbone", *src, "--keep", m["box"], "--out", f"{d}/backbone"],
                ["aggregate", "--input", f"{d}/ingest/stream.raw", "--format", "raw",
                 "--window", str(m["agg_window"]), "--out", f"{d}/aggregate"],
                ["regularity", *src, "--out", f"{d}/regularity"],
                ["embed", *src, "--out", f"{d}/embed"]]
    if workload == "cli-bfs-grid":
        src = _grid_args(d, m)
        return [["regularity", *src, "--out", f"{d}/regularity"],
                ["decompose", *src, "--out", f"{d}/decompose"],
                ["backbone", *src, "--keep", m["box"], "--out", f"{d}/backbone"]]
    raise ValueError(f"{workload} has no CLI command list")


def _grid_args(d: str, m: dict) -> list:
    return ["--input", f"{d}/grid.ndjson", "--format", "ndjson", "--basis", "bfs",
            "--level", str(m["level"]), "--seed", str(m["seed"])]
