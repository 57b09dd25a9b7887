"""Self-test of the benchmark's correctness checks.

Usage (from the root of a checkout): python3 perfbench/selftest.py

For every checked output of every workload it runs the program once on the
seed-0 inputs, confirms the check accepts the real output, then changes one
cell of that output and confirms the check rejects it. Exits 1 if any check
accepts a corrupted output or rejects a real one.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from run import ROOT, Runner  # noqa: E402
from workloads import round_commands, setup_commands  # noqa: E402

# Column of the cell to change in a CSV output; the default is the first value column.
CSV_COLUMN = {"C_rect.csv": 2}


def corrupt_file(path: Path):
    """Change one cell of an output file in place."""
    if path.suffix == ".raw":
        with open(path, "rb") as fh:
            header = fh.readline()
            values = np.frombuffer(fh.read(), dtype="<f8").copy()
        values[values.size // 2] += 0.5
        path.write_bytes(header + values.tobytes())
    elif path.suffix == ".csv":
        lines = path.read_text().splitlines()
        row = len(lines) // 2
        cells = lines[row].split(",")
        col = CSV_COLUMN.get(path.name, 1)
        cells[col] = "%.17g" % (float(cells[col]) + 0.5)
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    elif path.name == "tree.json":
        doc = json.loads(path.read_text())
        doc["leaf_order"][0] = doc["leaf_order"][1]
        path.write_text(json.dumps(doc))
    elif path.name == "regularity.json":
        doc = json.loads(path.read_text())
        doc["reg_e"] += 1.0
        path.write_text(json.dumps(doc))
    else:
        raise ValueError(f"no corruption defined for {path}")


def one_cell(a) -> np.ndarray:
    """Copy of an output array with the cell at (1, 0) changed."""
    a = np.array(a)
    a[1, 0] = (not a[1, 0]) if a.dtype == bool else a[1, 0] + 0.5
    return a


def _verdict(fn, *args) -> str:
    try:
        fn(*args)
    except checks.CheckError as exc:
        return f"rejected ({str(exc)[:90]})"
    return "accepted"


def selftest_cli(runner: Runner, workload: str, work: Path) -> list:
    d = work / workload
    m = inputs.generate(workload, 0, d)
    for cmd in setup_commands(workload, str(d), m) + round_commands(workload, str(d), m):
        p = runner.cli(cmd)
        if p.rc != 0:
            raise RuntimeError(f"{workload} {cmd[0]} failed:\n{p.log.read_text()[-2000:]}")
    results = []
    for rel, fn in checks.FILE_CHECKS[workload]:
        path = d / rel
        pristine = path.read_bytes()
        clean = _verdict(fn, checks.RunDir(d))
        corrupt_file(path)
        dirty = _verdict(fn, checks.RunDir(d))
        path.write_bytes(pristine)
        results.append((f"{workload} {rel}", clean, dirty))
    return results


def selftest_lib(work: Path) -> list:
    """lib-ladder checks on in-process outputs at the smallest size."""
    sys.path.insert(0, str(ROOT / "src"))
    import worker
    from linkspectra import spectra

    d = work / "lib-ladder"
    m = inputs.generate("lib-ladder", 0, d)
    m["sizes"] = m["sizes"][:1]
    ladder = worker.Ladder(d, m)
    ladder.prepare()
    worker.run_round(ladder.operations())
    case = ladder.cases[0]
    values = inputs.ladder_values(0, case["n"])
    order = case["basis"].tree.leaf_order
    out = dict(case["out"])
    # The top-k backbone fails today; a box backbone stands in as a real
    # backbone with a conjugate-closed mask.
    out["top"] = spectra.backbone(case["stream"], case["basis"], case["box"])[1]

    def check(o):
        worker.check_ladder_outputs(o, values, order, m, "lib-ladder")

    results = []
    for key in sorted(out):
        bad = dict(out)
        if key == "coeffs":
            bad[key] = out[key].with_values(one_cell(out[key].values))
        elif key == "regularity":
            bad[key] = dict(out[key], reg_e=out[key]["reg_e"] + 1.0)
        else:
            bad[key] = one_cell(out[key])
        results.append((f"lib-ladder {key}", _verdict(check, out), _verdict(check, bad)))
    for key in worker.LADDER_OUTPUTS:
        gone = {k: v for k, v in out.items() if k != key}
        results.append((f"lib-ladder {key} absent", _verdict(check, out),
                        _verdict(check, gone)))
    lemmas, trials = dict(ladder.lemmas), m["trials"]

    def check_lemmas(reports):
        worker.check_lemma_outputs(reports, trials)

    for k in worker.LEMMAS:
        bad = [dict(e) for e in lemmas[k]]
        mc = [e for e in bad if "_mc_" in e["statistic"]]
        if mc:
            mc[0]["trials"] -= 1
        else:
            bad[0]["pass"] = False
        results.append((f"lib-ladder lemma{k}", _verdict(check_lemmas, lemmas),
                        _verdict(check_lemmas, {**lemmas, k: bad})))
        gone = {j: v for j, v in lemmas.items() if j != k}
        results.append((f"lib-ladder lemma{k} absent", _verdict(check_lemmas, lemmas),
                        _verdict(check_lemmas, gone)))
    results.append(("lib-ladder read_raw",
                     _verdict(checks.expect_close, "read_raw", case["stream"].values, values),
                     _verdict(checks.expect_close, "read_raw", one_cell(case["stream"].values),
                              values)))
    return results


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work)
    try:
        results = selftest_lib(work)
        for workload in checks.FILE_CHECKS:
            results += selftest_cli(runner, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = True
    for name, clean, dirty in results:
        good = clean == "accepted" and dirty.startswith("rejected")
        ok &= good
        print(f"{'ok ' if good else 'BAD'} {name}: real output {clean}; one cell changed: {dirty}")
    print(f"{len(results)} cases, {'all' if ok else 'NOT all'} rejected")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
