"""Smoke runs of the experiment scripts on small inputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name, args, outputs", [
    ("oscillating_decomposition.py", ["--times", "8"],
     ["L.csv", "X.csv", "F_abs.csv", "C_abs.csv", "C_rect.csv", "aggregated.csv"]),
    ("daynight_backbone.py",
     ["--per-comm", "4", "--period", "10", "--times", "40", "--freq-cut", "4"],
     ["C_abs.csv", "C_rect.csv", "backbone.raw", "backbone.csv"]),
])
def test_script_runs(tmp_path, name, args, outputs):
    stdout = run_script(name, *args, out=tmp_path)
    assert "np.int64" not in stdout
    for out in outputs:
        assert (tmp_path / out).stat().st_size > 0


def test_sbm_edit_profile_sums_to_edit_distance(tmp_path):
    stdout = run_script("sbm_edit_profile.py", "--per-block", "8", "--seed", "1", out=tmp_path)
    edit = int(re.search(r"edit distance\s*: (\d+)", stdout).group(1))
    lines = (tmp_path / "edit_profile.csv").read_text().splitlines()
    assert lines[0] == "column,label,squared_difference"
    profile = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert len(profile) == 256
    assert profile.sum() == pytest.approx(edit, rel=1e-12)


def test_oscillating_script_bundle_equals_the_cli_bundle(tmp_path):
    from linkspectra.cli import main

    run_script("oscillating_decomposition.py", "--times", "8", out=tmp_path / "script")
    assert main(["synth", "oscillating", "--times", "8", "--out", str(tmp_path / "fx")]) == 0
    assert main(["decompose", "--input", str(tmp_path / "fx" / "stream.raw"), "--format", "raw",
                 "--basis", str(tmp_path / "fx" / "tree.json"), "--level", "3",
                 "--out", str(tmp_path / "cli")]) == 0
    for name in ("L.csv", "X.csv", "F_abs.csv", "C_abs.csv", "C_rect.csv"):
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()
