"""Correctness checks computed apart from the program, numpy only.

Every expected value is derived from the generated inputs with plain numpy:
the FFT, moving sums, and motif sums over the leaf order of the tree the
program wrote. Nothing here imports ``linkspectra``.

Usage: python3 perfbench/checks.py --workload NAME --dir RUNDIR
prints one JSON object ``{"ok": bool, "checked": [...], "errors": [...]}``.
"""

from __future__ import annotations

import argparse
import json
from functools import cached_property
from pathlib import Path

import numpy as np

TOL = 1e-9


class CheckError(Exception):
    pass


# ---------------------------------------------------------------------------
# readers for the program's output formats

def read_raw(path):
    """(values, header) of a raw stream file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        data = fh.read()
    t, m = int(header["T"]), int(header["M"])
    if len(data) != t * m * 8:
        raise CheckError(f"{path}: payload has {len(data)} bytes, expected {t * m * 8}")
    return np.frombuffer(data, dtype="<f8").reshape(t, m), header


def read_grid(path):
    """(column labels, row labels, values) of a labelled CSV grid."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header[1:], body[:, 0], body[:, 1:]


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# identities, each computed with numpy from the stream alone

def expect_close(what: str, got, want, tol: float = TOL):
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= tol * scale:
        raise CheckError(f"{what}: max deviation {err:.3e} (scale {scale:.3g})")


def folded(times: int) -> np.ndarray:
    u = np.arange(times)
    return np.minimum(u, times - u)


def lowpass(values: np.ndarray, hi: int) -> np.ndarray:
    """Ideal low-pass along time keeping folded frequencies 0..hi."""
    spec = np.fft.fft(values, axis=0)
    spec[folded(values.shape[0]) > hi] = 0.0
    return np.fft.ifft(spec, axis=0).real


def motif_sums(values: np.ndarray, leaf_order, level: int) -> np.ndarray:
    """T x (M / 2^level) sums over the level-``level`` motifs of the leaf order."""
    pos_to_rel = np.argsort(np.asarray(leaf_order))
    t = values.shape[0]
    return values[:, pos_to_rel].reshape(t, -1, 1 << level).sum(axis=2)


def scaling_block(values, leaf_order, level) -> np.ndarray:
    return motif_sums(values, leaf_order, level) * 2.0 ** (-level / 2.0)


def coarse(values: np.ndarray, leaf_order, level: int) -> np.ndarray:
    """Every relation replaced by the mean of its motif."""
    width = 1 << level
    means = motif_sums(values, leaf_order, level) / width
    return np.repeat(means, width, axis=1)[:, np.asarray(leaf_order)]


def circular_moving_sum(values: np.ndarray, window: int) -> np.ndarray:
    out = np.zeros_like(values)
    for d in range(window):
        out += np.roll(values, d, axis=0)
    return out


def regularity_expected(values: np.ndarray, leaf_order, level: int) -> dict:
    """reg_t as the sum of circular edit distances, reg_e as
    sum_t sum_k (m_k - m_k^2 / 2^j), and the relaxed scaling-level reg_t."""
    if not np.all((values == 0.0) | (values == 1.0)):
        raise CheckError("regularity identities need a 0/1 stream")
    prev = np.roll(values, 1, axis=0)
    reg_t = float(np.count_nonzero(values != prev))
    m = motif_sums(values, leaf_order, level)
    reg_e = float(np.sum(m - m * m / (1 << level)))
    s = m * 2.0 ** (-level / 2.0)
    ds = s - np.roll(s, 1, axis=0)
    return {"reg_t": reg_t, "reg_e": reg_e, "relaxed_reg_t": float(np.sum(ds * ds))}


def check_coefficients(what: str, c: np.ndarray, values, leaf_order, level,
                       magnitude: bool = False):
    """Parseval for the whole grid, and its scaling block against
    FFT(motif sums x 2^(-j/2)) / sqrt(T); ``magnitude`` when ``c`` is |C|."""
    t = values.shape[0]
    expect_close(f"{what}: Parseval sum |C|^2", float(np.sum(np.abs(c) ** 2)),
                 float(np.sum(values * values)))
    s = scaling_block(values, leaf_order, level)
    want = np.fft.fft(s, axis=0) / np.sqrt(t)
    expect_close(f"{what}: scaling block", c[:, : s.shape[1]],
                 np.abs(want) if magnitude else want)


def check_regularity(what: str, doc: dict, values, leaf_order, level,
                     keys=("reg_t", "reg_e", "relaxed_reg_t")):
    want = regularity_expected(values, leaf_order, level)
    for key in keys:
        expect_close(f"{what}: {key}", doc[key], want[key])
    expect_close(f"{what}: reg", doc["reg"], want["reg_t"] + want["reg_e"])


def check_topk_mask(mask: np.ndarray):
    """A top-k backbone of a real stream keeps conjugate pairs whole. (That
    its result is real needs no check: ``spectra.reconstruct`` raises otherwise.)"""
    t = mask.shape[0]
    if not np.array_equal(mask, mask[(-np.arange(t)) % t]):
        raise CheckError("top-k mask keeps a frequency without its mirror T-u")


# ---------------------------------------------------------------------------
# CLI run directories

class RunDir:
    """Inputs, expected values and the tree of one run directory."""

    def __init__(self, d):
        self.d = Path(d)
        self.m = read_json(self.d / "manifest.json")

    def path(self, rel: str) -> Path:
        return self.d / rel

    @cached_property
    def _expected(self):
        with np.load(self.d / "expected.npz") as z:
            return z["values"].astype(np.float64), [str(x) for x in z["names"]]

    def stream(self, labels) -> np.ndarray:
        """Generated counts laid out in the program's relation order."""
        values, names = self._expected
        n = len(names)
        index = {nm: i for i, nm in enumerate(names)}
        out = np.zeros((values.shape[0], len(labels)))
        for k, lab in enumerate(labels):
            if lab.startswith("~"):
                continue   # padding relation or padding vertex: never active
            u, v = lab.split("->")
            if u.startswith("~") or v.startswith("~"):
                continue
            out[:, k] = values[:, index[u] * n + index[v]]
        return out

    def all_labels(self) -> set:
        _, names = self._expected
        return {f"{u}->{v}" for u in names for v in names}

    def active_labels(self) -> set:
        values, names = self._expected
        n = len(names)
        cols = np.nonzero(values.any(axis=0))[0]
        return {f"{names[k // n]}->{names[k % n]}" for k in cols}

    @cached_property
    def tree(self):
        doc = read_json(self.path("basis/tree.json"))
        return doc["labels"], np.array(doc["leaf_order"], dtype=np.int64)


def _check_stream_raw(r: RunDir, rel: str, want_fn):
    values, header = read_raw(r.path(rel))
    labels, order = r.tree
    if header["labels"] != labels:
        raise CheckError(f"{rel}: relation order differs from tree.json")
    expect_close(rel, values, want_fn(r.stream(labels), order))


def _tree_stream(r: RunDir):
    labels, order = r.tree
    return r.stream(labels), order, r.m["level"]


def check_ingest_raw(r: RunDir):
    values, header = read_raw(r.path("ingest/stream.raw"))
    if header["T"] != r.m["times"] or header["t0"] != 0:
        raise CheckError("ingest/stream.raw: wrong time window")
    expect_close("ingest/stream.raw", values, r.stream(header["labels"]))


def check_ingest_csv(r: RunDir):
    cols, times, values = read_grid(r.path("ingest/stream.csv"))
    expect_close("ingest/stream.csv times", times, np.arange(r.m["times"]))
    expect_close("ingest/stream.csv", values, r.stream(cols))


def _check_tree(r: RunDir, want_labels: set):
    """tree.json names exactly ``want_labels``, its leaf order is a permutation
    and its nested leaves list the relations in leaf order."""
    doc = read_json(r.path("basis/tree.json"))
    labels, order = r.tree
    if set(labels) != want_labels or len(labels) != len(want_labels):
        raise CheckError("tree.json: labels are not exactly the expected relations")
    if doc["num_relations"] != len(labels):
        raise CheckError("tree.json: num_relations differs from the label count")
    if sorted(order.tolist()) != list(range(len(labels))):
        raise CheckError("tree.json: leaf order is not a permutation")

    def leaves(node):
        return [x for child in node for x in leaves(child)] if isinstance(node, list) else [node]

    if leaves(doc["nested"]) != [labels[k] for k in np.argsort(order)]:
        raise CheckError("tree.json: nested leaves disagree with the leaf order")


def check_tree_svd(r: RunDir):
    _check_tree(r, r.all_labels())


def check_tree_bfs(r: RunDir):
    _check_tree(r, r.active_labels())


def check_L(r: RunDir):
    cols, times, values = read_grid(r.path("decompose/L.csv"))
    values_want, _, _ = _tree_stream(r)
    if cols != r.tree[0]:
        raise CheckError("decompose/L.csv: relation order differs from tree.json")
    expect_close("decompose/L.csv", values, values_want)


def check_F(r: RunDir):
    _, _, f_abs = read_grid(r.path("decompose/F_abs.csv"))
    values, _, _ = _tree_stream(r)
    want = np.abs(np.fft.fft(values, axis=0)) / np.sqrt(values.shape[0])
    expect_close("decompose/F_abs.csv", f_abs, want)


def check_X(r: RunDir):
    cols, _, x = read_grid(r.path("decompose/X.csv"))
    values, order, level = _tree_stream(r)
    s = scaling_block(values, order, level)
    if cols[: s.shape[1]] != [f"s({level})[{i}]" for i in range(s.shape[1])]:
        raise CheckError("decompose/X.csv: scaling columns mislabelled")
    expect_close("decompose/X.csv scaling columns", x[:, : s.shape[1]], s)
    expect_close("decompose/X.csv row norms", np.sum(x * x, axis=1),
                 np.sum(values * values, axis=1))


def check_C_rect(r: RunDir):
    data = np.loadtxt(r.path("decompose/C_rect.csv"), delimiter=",", skiprows=1, ndmin=2)
    values, order, level = _tree_stream(r)
    t, m = values.shape
    if data.shape[0] != t * m:
        raise CheckError(f"decompose/C_rect.csv: {data.shape[0]} rows, expected {t * m}")
    idx = np.indices((t, m)).reshape(2, -1).T
    if not np.array_equal(data[:, :2], idx):
        raise CheckError("decompose/C_rect.csv: (freq, column) index out of order")
    c = (data[:, 2] + 1j * data[:, 3]).reshape(t, m)
    check_coefficients("decompose/C_rect.csv", c, values, order, level)


def check_C_abs(r: RunDir):
    _, _, c_abs = read_grid(r.path("decompose/C_abs.csv"))
    values, order, level = _tree_stream(r)
    check_coefficients("decompose/C_abs.csv", c_abs, values, order, level, magnitude=True)


def _low_coarse(r: RunDir, hi: int):
    level = r.m["level"]
    return lambda values, order: coarse(lowpass(values, hi), order, level)


def _box_hi(r: RunDir) -> int:
    return int(r.m["box"].split(":")[2].split(",")[0])


def check_filter(r: RunDir):
    _check_stream_raw(r, "filter/filtered.raw", _low_coarse(r, _box_hi(r)))


def check_backbone(r: RunDir):
    _check_stream_raw(r, "backbone/backbone.raw", _low_coarse(r, _box_hi(r)))


def check_kept_mask(r: RunDir):
    cols, freqs, mask = read_grid(r.path("backbone/kept_mask.csv"))
    t = r.m["times"]
    scaling = len(cols) >> r.m["level"]
    want = (folded(t) <= _box_hi(r))[:, None] & (np.arange(len(cols)) < scaling)[None, :]
    expect_close("backbone/kept_mask.csv", mask, want.astype(float))


def check_aggregate(r: RunDir):
    values, header = read_raw(r.path("aggregate/aggregated.raw"))
    want = circular_moving_sum(r.stream(header["labels"]), r.m["agg_window"])
    expect_close("aggregate/aggregated.raw", values, want)


def check_regularity_json(r: RunDir):
    values, order, level = _tree_stream(r)
    check_regularity("regularity/regularity.json", read_json(r.path("regularity/regularity.json")),
                     values, order, level)


def check_embedding(r: RunDir):
    cols, _, s = read_grid(r.path("embed/embedding.csv"))
    values, order, level = _tree_stream(r)
    expect_close("embed/embedding.csv", s, scaling_block(values, order, level))


def check_lemma_report(report: list, trials: int):
    """Entries of ``synth.verify_lemma`` (as dicts) for the four lemmas: each
    passes and reports the trials asked for (lemma 1: the pairs it checks)."""
    if sorted({e["lemma"] for e in report}) != [1, 2, 3, 4]:
        raise CheckError("lemma report: not all four lemmas reported")
    for e in report:
        if e["pass"] is not True:
            raise CheckError(f"lemma {e['lemma']} {e['statistic']} did not pass")
        if "_mc_" in e["statistic"] and e["trials"] != trials:
            raise CheckError(f"lemma {e['lemma']} {e['statistic']} ran {e['trials']} trials,"
                             f" {trials} asked")
        if e["lemma"] == 1 and e["trials"] != min(trials, 500):
            raise CheckError(f"lemma 1 {e['statistic']} checked {e['trials']} pairs")


# Every checked output of each CLI workload, with its check.
FILE_CHECKS = {
    "cli-daynight": [
        ("ingest/stream.raw", check_ingest_raw),
        ("ingest/stream.csv", check_ingest_csv),
        ("basis/tree.json", check_tree_svd),
        ("decompose/L.csv", check_L),
        ("decompose/F_abs.csv", check_F),
        ("decompose/X.csv", check_X),
        ("decompose/C_rect.csv", check_C_rect),
        ("decompose/C_abs.csv", check_C_abs),
        ("filter/filtered.raw", check_filter),
        ("backbone/backbone.raw", check_backbone),
        ("backbone/kept_mask.csv", check_kept_mask),
        ("aggregate/aggregated.raw", check_aggregate),
        ("regularity/regularity.json", check_regularity_json),
        ("embed/embedding.csv", check_embedding),
    ],
    "cli-bfs-grid": [
        ("basis/tree.json", check_tree_bfs),
        ("regularity/regularity.json", check_regularity_json),
        ("decompose/L.csv", check_L),
        ("decompose/F_abs.csv", check_F),
        ("decompose/X.csv", check_X),
        ("decompose/C_rect.csv", check_C_rect),
        ("decompose/C_abs.csv", check_C_abs),
        ("backbone/backbone.raw", check_backbone),
        ("backbone/kept_mask.csv", check_kept_mask),
    ],
}


def run_checks(workload: str, d) -> dict:
    r = RunDir(d)
    checked, errors = [], []
    for rel, fn in FILE_CHECKS[workload]:
        try:
            fn(r)
            checked.append(rel)
        except CheckError as exc:
            errors.append(str(exc))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{rel}: unreadable ({type(exc).__name__}: {exc})")
    return {"ok": not errors, "checked": checked, "errors": errors}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(FILE_CHECKS))
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    print(json.dumps(run_checks(args.workload, args.dir)))


if __name__ == "__main__":
    main()
