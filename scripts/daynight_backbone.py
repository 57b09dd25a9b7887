#!/usr/bin/env python3
"""Backbone recovery on the two-community day/night stream.

The raw stream is sparse and spiky; the coefficient grid still concentrates
on the two community scaling columns at frequencies 0 and 1/period. Keeping
the low-frequency box over the coarse columns reconstructs the backbone:
full communities by day, silence by night.
"""

import argparse
from pathlib import Path

import numpy as np

from linkspectra import KeepRule, backbone_from, decompose, default_basis
from linkspectra import io as lio
from linkspectra import synth


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-comm", type=int, default=16)
    ap.add_argument("--period", type=int, default=20)
    ap.add_argument("--duty", type=float, default=0.5)
    ap.add_argument("--p-active", type=float, default=0.5)
    ap.add_argument("--times", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--freq-cut", type=int, default=10)
    ap.add_argument("--out", default="out/daynight")
    args = ap.parse_args()

    stream = synth.gen_daynight(2, args.per_comm, args.period, args.duty,
                                args.p_active, args.times, args.seed)
    basis = default_basis(stream, synth.block_level(args.per_comm))
    coeffs = decompose(stream, basis)
    kept, mask = backbone_from(coeffs,
                               KeepRule.box(0, args.freq_cut, 0, basis.num_scaling - 1))

    outdir = Path(args.out)
    lio.write_coefficient_matrix(outdir, coeffs)
    lio.write_stream(outdir, kept, "backbone")

    template = synth.daynight_template(2, args.per_comm, args.period, args.duty,
                                       args.times)
    corr = np.corrcoef(kept.values.ravel(), template.values.ravel())[0, 1]
    mag = coeffs.magnitude
    top = np.dstack(np.unravel_index(np.argsort(-mag.ravel())[:4], mag.shape))[0]
    print("top-4 coefficients (freq index, column):", [(int(u), int(k)) for u, k in top])
    print(f"kept {int(mask.sum())} of {mask.size} coefficients")
    print(f"correlation with the noiseless template: {corr:.4f}")
    print(f"outputs written to {outdir}")


if __name__ == "__main__":
    main()
