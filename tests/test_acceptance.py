"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import json
import subprocess
import sys
import time

import numpy as np

from linkspectra import (
    FourierBasis,
    GraphBasis,
    GraphSlice,
    KeepRule,
    LinkStreamMatrix,
    aggregate,
    aggregation_operator,
    backbone,
    decompose,
    edit_distance_spectrum,
    full_space,
    graph_edit,
    partition_svd,
    reconstruct,
    time_diff_operator,
)
from linkspectra.partition import PartitionTree
from linkspectra.timebasis import aggregation_filter
from linkspectra import synth


def report(num, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {name}")
    assert ok, f"criterion {num}: {name}"


def test_criterion_01_perfect_reconstruction():
    rng = np.random.default_rng(101)
    space = full_space(16)
    stream = LinkStreamMatrix(space, 0, rng.standard_normal((64, 256)))
    basis = GraphBasis(PartitionTree(rng.permutation(256)), 8)
    coeffs = decompose(stream, basis)
    back = reconstruct(coeffs)
    err = np.abs(back.values - stream.values).max()
    ratio = np.linalg.norm(coeffs.values) / np.linalg.norm(stream.values)
    ok = err < 1e-9 and (1 - 1e-10) <= ratio <= (1 + 1e-10)
    report(1, f"perfect reconstruction (err={err:.2e}, ratio={ratio:.12f})", ok)


def test_criterion_02_oscillating_coefficients():
    stream = synth.gen_oscillating(32)
    basis = GraphBasis(synth.fig_partition(), 3)
    mag = decompose(stream, basis).magnitude
    hot = {(int(u), int(k)) for u, k in np.argwhere(mag > 1e-9)}
    expected = {(0, 0), (0, 1), (16, 0), (16, 1)}
    vals = mag[mag > 1e-9]
    ok = (hot == expected and vals.size == 4
          and vals.max() - vals.min() < 1e-10)
    report(2, f"four equal coefficients at freq 0 and 1/2 (spread="
              f"{vals.max() - vals.min():.2e})", ok)


def test_criterion_03_aggregation_clique():
    stream = synth.gen_oscillating(32)
    agg = aggregate(stream, 2)
    exact = np.array_equal(agg.values, np.ones((32, 16)))
    nyquist = abs(aggregation_filter(2, 32).response[16])
    ok = exact and nyquist < 1e-12
    report(3, f"2-sample aggregation is the constant clique (|chi(1/2)|={nyquist:.1e})", ok)


def test_criterion_04_edit_distance_spectrum():
    rng = np.random.default_rng(104)
    space = full_space(8)
    basis = GraphBasis(PartitionTree(rng.permutation(64)), 6)
    worst = 0.0
    for _ in range(200):
        g1 = GraphSlice(space, (rng.random(64) < 0.4).astype(float))
        g2 = GraphSlice(space, (rng.random(64) < 0.4).astype(float))
        total = edit_distance_spectrum(g1, g2, basis).sum()
        edit = graph_edit(g1, g2)
        if round(total) != edit:
            worst = np.inf
            break
        worst = max(worst, abs(total - edit))
    ok = worst < 1e-9
    report(4, f"coefficient differences sum to the edit distance (resid={worst:.2e})", ok)


def test_criterion_05_lemma1():
    checks = synth.verify_lemma(1, trials=200, seed=105)
    worst = max(c.observed for c in checks)
    ok = all(c.passed for c in checks) and worst < 1e-9
    report(5, f"embedding identities exact on 200 pairs (worst dev={worst:.2e})", ok)


def test_criterion_06_lemma2():
    start = time.perf_counter()
    checks = synth.verify_lemma(2, trials=20000, seed=106)
    elapsed = time.perf_counter() - start
    closed = [c for c in checks if c.stderr == 0.0]
    mc = [c for c in checks if c.stderr > 0.0]
    ok = (all(c.passed for c in checks)
          and all(c.observed < 1e-9 for c in closed)
          and elapsed < 60.0)
    detail = ", ".join(f"{c.statistic} z={abs(c.observed - c.expected) / c.stderr:.2f}"
                       for c in mc)
    report(6, f"scaling products match closed form and MC ({detail}, {elapsed:.1f}s)", ok)


def test_criterion_07_lemma3():
    checks = synth.verify_lemma(3, trials=20000, seed=107)
    ok = all(c.passed for c in checks)
    mc = next(c for c in checks if c.stderr > 0.0)
    z = abs(mc.observed - mc.expected) / mc.stderr
    report(7, f"graph regularity matches closed form and MC (z={z:.2f})", ok)


def test_criterion_08_lemma4():
    checks = synth.verify_lemma(4, trials=200, seed=108)
    by_name = {c.statistic: c for c in checks}
    ok = (by_name["time_regularity_equals_edit_sum"].observed == 0.0
          and by_name["edge_regularity_equals_slice_sum"].observed < 1e-9
          and by_name["relaxed_regularity_zero_on_class"].observed < 1e-10)
    report(8, "stream regularity equals edit sums; relaxed term vanishes on a class", ok)


def test_criterion_09_fast_transform():
    rng = np.random.default_rng(109)
    dense_ok = True
    for m in (16, 64, 256):
        basis = GraphBasis(PartitionTree(rng.permutation(m)))
        phi = basis.materialize()
        w = rng.standard_normal(m)
        dense_ok &= bool(np.abs(basis.analyze_values(w) - phi @ w).max() < 1e-12)

    # time both sizes in a fresh interpreter so the suite's warmed-up
    # allocator cannot skew the small-size measurement
    script = r"""
import json, time
import numpy as np
from linkspectra import GraphBasis
from linkspectra.partition import PartitionTree

def best_time(m):
    basis = GraphBasis(PartitionTree(np.arange(m)))
    w = np.random.default_rng(109).standard_normal(m)
    for _ in range(3):
        basis.analyze_values(w)
    runs = []
    for _ in range(9):
        t0 = time.perf_counter()
        basis.analyze_values(w)
        runs.append(time.perf_counter() - t0)
    return min(runs)

print(json.dumps({"t16": best_time(1 << 16), "t20": best_time(1 << 20)}))
"""
    ratios = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        times = json.loads(proc.stdout)
        ratios.append(times["t20"] / times["t16"])
    ratio = min(ratios)
    ok = dense_ok and ratio < 50.0
    report(9, f"filter bank matches dense Phi; scaling ratio 2^20/2^16 = {ratio:.1f}x", ok)


def test_criterion_10_sbm_coarse_share():
    hits = 0
    shares = []
    for seed in range(20):
        g1, g2, tree = synth.gen_sbm_pair(2, 16, 0.5, 0.01, seed=seed)
        basis = GraphBasis(tree, 8)
        spectrum = edit_distance_spectrum(g1, g2, basis)
        coarse = spectrum[: basis.num_scaling].sum()
        share = coarse / spectrum.sum()
        shares.append(share)
        if share < 0.25:
            hits += 1
    ok = hits >= 18
    report(10, f"coarse coefficients carry <25% of the edit distance in {hits}/20 seeds"
               f" (max share={max(shares):.3f})", ok)


def test_criterion_11_daynight_backbone():
    template = synth.daynight_template(2, 16, 20, 0.5, 200)
    loc_hits = 0
    corr_hits = 0
    for seed in range(10):
        stream = synth.gen_daynight(2, 16, 20, duty=0.5, p_active=0.6,
                                    num_times=200, seed=seed)
        basis = GraphBasis(partition_svd(stream.aggregate_graph()), 8)
        # identify the scaling columns of the two communities from the tree
        comm = [set(range(16)), set(range(16, 32))]
        within = [{u * 32 + v for u in c for v in c} for c in comm]
        sets = basis.tree.sets(8)
        comm_cols = {k for k, s in enumerate(sets) if set(s.tolist()) in within}
        if len(comm_cols) != 2:
            continue
        coeffs = decompose(stream, basis)
        flat = np.argsort(-coeffs.magnitude.ravel())[:4]
        locs = {tuple(np.unravel_index(i, coeffs.values.shape)) for i in flat}
        if all(u in (0, 10, 190) and k in comm_cols for u, k in locs):
            loc_hits += 1
        kept, _ = backbone(stream, basis, KeepRule.box(0, 10, 0, 3))
        corr = np.corrcoef(kept.values.ravel(), template.values.ravel())[0, 1]
        if corr >= 0.9:
            corr_hits += 1
    ok = loc_hits >= 9 and corr_hits >= 9
    report(11, f"day/night: top-4 locations in {loc_hits}/10, backbone corr>=0.9 in"
               f" {corr_hits}/10 seeds", ok)


def test_criterion_12_circulant_diagonalization():
    worst = 0.0
    for t in (16, 64):
        psi = FourierBasis(t).matrix()
        ops = [aggregation_operator(k, t) for k in (1, 2, 5)] + [time_diff_operator(t)]
        for op in ops:
            chi = op.frequency_filter().response
            dev = np.abs(psi.conj().T @ op.matrix() @ psi - np.diag(chi)).max()
            worst = max(worst, dev)
    ok = worst < 1e-10
    report(12, f"circulant operators diagonalize in the Fourier basis (max dev="
               f"{worst:.2e})", ok)
