"""Seeded input generation for the benchmark, numpy only.

The generators here are the benchmark's own: they do not use
``linkspectra.synth``, so a change to the package cannot change the inputs.
Every file is a pure function of the workload and the seed.

Usage: python3 perfbench/inputs.py --workload NAME --seed N --out DIR

Writes the inputs, ``manifest.json`` (the parameters the commands and the
checks share) and, for triplet inputs, ``expected.npz`` (the generated
counts, in the generator's own vertex order).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# cli-daynight: two communities that interact by day and are silent by night.
# T = 70 ends on a day step, so the window ingest infers (first to last
# active step) is the whole stream.
DAYNIGHT = dict(vertices=64, period=20, duty=0.5, p_active=0.5, times=70, level=6,
                cutoff=0.05, agg_window=10)
# lib-ladder: the same pattern at three sizes, M = 2^10, 2^12, 2^14, and the
# four lemma oracles with this many Monte-Carlo trials per statistic.
LADDER = dict(vertices=(32, 64, 128), period=16, duty=0.5, p_active=0.5, times=128,
              level=6, cutoff=0.05, agg_window=8, top_k=4, trials=200000)
# The top-k backbone runs on streams drawn from this constant seed, so its
# (known) failure does not depend on the run's seed.
TOPK_SEED = 0
# cli-bfs-grid: a 16 x 16 grid, 1024 of its 1216 directed links (self-loops
# included) carry traffic.
GRID = dict(side=16, active=1024, times=120, p_active=0.25, split_share=0.1, level=4,
            cutoff=0.05)


def box_hi(cutoff: float, times: int) -> int:
    """Highest folded frequency an ideal low-pass with this cutoff keeps."""
    return int(np.floor(cutoff * times + 1e-9))


def daynight_matrix(n: int, period: int, duty: float, p_active: float, times: int,
                    rng: np.random.Generator) -> np.ndarray:
    """T x n x n 0/1 activity: within-community pairs by day, nothing by night."""
    half = n // 2
    member = np.arange(n) // half
    within = member[:, None] == member[None, :]
    day = (np.arange(times) % period) < int(round(duty * period))
    act = rng.random((times, n, n)) < p_active
    return (act & within[None] & day[:, None, None]).astype(np.float64)


def write_raw(path, values: np.ndarray, names):
    """The package's raw stream format: a JSON header line, then <f8 payload."""
    n = len(names)
    labels = [f"{names[u]}->{names[v]}" for u in range(n) for v in range(n)]
    header = {"T": values.shape[0], "M": values.shape[1], "t0": 0,
              "labels": labels, "vertices": list(names)}
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, separators=(",", ":")) + "\n").encode())
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def gen_daynight(seed: int, out: Path) -> dict:
    p = DAYNIGHT
    n, times = p["vertices"], p["times"]
    cube = daynight_matrix(n, p["period"], p["duty"], p["p_active"], times,
                           np.random.default_rng(seed))
    names = [f"v{i:02d}" for i in range(n)]
    t, u, v = np.nonzero(cube)
    lines = ["t,u,v"] + [f"{a},{names[b]},{names[c]}" for a, b, c in zip(t, u, v)]
    (out / "daynight.csv").write_text("\n".join(lines) + "\n")
    np.savez(out / "expected.npz", values=cube.reshape(times, n * n).astype(np.uint8),
             names=np.array(names))
    return {"triplets": int(t.size), "times": times, "vertices": n, "relations": n * n,
            "level": p["level"], "freq": f"lowpass:{p['cutoff']}",
            "box": f"box:0:{box_hi(p['cutoff'], times)},0:{(n * n >> p['level']) - 1}",
            "cutoff": p["cutoff"], "agg_window": p["agg_window"]}


def gen_ladder(seed: int, out: Path) -> dict:
    p = LADDER
    sizes = []
    for n in p["vertices"]:
        names = [str(i) for i in range(n)]
        for stem, s in (("ladder", seed), ("topk", TOPK_SEED)):
            write_raw(out / f"{stem}{n}.raw", ladder_values(s, n), names)
        sizes.append({"vertices": n, "relations": n * n,
                      "stream": f"ladder{n}.raw", "topk_stream": f"topk{n}.raw"})
    return {"sizes": sizes, "times": p["times"], "level": p["level"],
            "cutoff": p["cutoff"], "box_hi": box_hi(p["cutoff"], p["times"]),
            "agg_window": p["agg_window"], "top_k": p["top_k"], "trials": p["trials"],
            "seed": seed}


def ladder_values(seed: int, n: int) -> np.ndarray:
    """T x n^2 lib-ladder stream for ``n`` vertices drawn from ``seed``."""
    p = LADDER
    cube = daynight_matrix(n, p["period"], p["duty"], p["p_active"], p["times"],
                           np.random.default_rng([seed, n]))
    return cube.reshape(p["times"], n * n)


def grid_relations(side: int) -> np.ndarray:
    """Self-loops and both directions of every 4-neighbour link, as (u, v) rows."""
    rels = [(a, a) for a in range(side * side)]
    for r in range(side):
        for c in range(side):
            a = r * side + c
            if c + 1 < side:
                rels += [(a, a + 1), (a + 1, a)]
            if r + 1 < side:
                rels += [(a, a + side), (a + side, a)]
    return np.array(rels)


def gen_grid(seed: int, out: Path) -> dict:
    p = GRID
    side, times, count = p["side"], p["times"], p["active"]
    rng = np.random.default_rng(seed)
    rels = grid_relations(side)
    picked = rels[np.sort(rng.choice(len(rels), count, replace=False))]
    act = rng.random((times, count)) < p["p_active"]
    act[rng.integers(0, times, count), np.arange(count)] = True   # every link active once
    act[0, rng.integers(count)] = act[times - 1, rng.integers(count)] = True  # full window
    split = rng.random((times, count)) < p["split_share"]
    names = [f"g{a // side}_{a % side}" for a in range(side * side)]
    lines = []
    for t, k in zip(*np.nonzero(act)):
        rec = {"t": int(t), "u": names[picked[k, 0]], "v": names[picked[k, 1]]}
        if split[t, k]:   # two half-weight records that ingest must sum to 1
            rec["w"] = 0.5
            lines.append(json.dumps(rec))
        lines.append(json.dumps(rec))
    (out / "grid.ndjson").write_text("\n".join(lines) + "\n")
    cube = np.zeros((times, side * side, side * side), dtype=np.uint8)
    cube[:, picked[:, 0], picked[:, 1]] = act
    np.savez(out / "expected.npz", values=cube.reshape(times, -1), names=np.array(names))
    return {"records": len(lines), "times": times, "vertices": side * side,
            "active_relations": count, "level": p["level"],
            "box": f"box:0:{box_hi(p['cutoff'], times)},0:{(count >> p['level']) - 1}",
            "cutoff": p["cutoff"]}


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "cli-daynight":
        manifest = gen_daynight(seed, out)
    elif workload == "lib-ladder":
        manifest = gen_ladder(seed, out)
    elif workload == "cli-bfs-grid":
        manifest = gen_grid(seed, out)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest.update(workload=workload, seed=seed,
                    bytes={f.name: f.stat().st_size for f in sorted(out.iterdir())})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.workload, args.seed, Path(args.out))))


if __name__ == "__main__":
    main()
