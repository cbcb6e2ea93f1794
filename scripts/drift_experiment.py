#!/usr/bin/env python3
"""Drift accumulation experiment.

Synthesizes smooth trajectories, corrupts their relative poses with
translation noise, and integrates the noisy relatives two ways: chained
(errors compound) and rebased onto the ground-truth previous pose (errors
stay per-step).  Reports the last-decile / first-decile ATE ratio per mode;
chained grows with trajectory length, rebased stays near 1.
"""

import argparse

import numpy as np

import endotrack as et


def decile_ratio(gt, est):
    errs = et.ate(gt, est)[1:]
    n = len(errs) // 10
    return errs[-n:].mean() / errs[:n].mean(), errs.mean()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=500, help="steps per trajectory")
    ap.add_argument("--seeds", type=int, default=20)
    ap.add_argument("--noise-frac", type=float, default=0.01,
                    help="translation noise std as a fraction of mean step length")
    ap.add_argument("--smoothness", type=float, default=1.0)
    args = ap.parse_args()

    chained_r, rebased_r = [], []
    print(f"{'seed':>4}  {'chained ratio':>13}  {'rebased ratio':>13}  {'chained ATE':>11}  {'rebased ATE':>11}")
    for seed in range(args.seeds):
        gt = et.synth_trajectory(args.n + 1, smoothness=args.smoothness, seed=seed)
        sigma = args.noise_frac * et.mean_step_length(gt)
        rels = et.perturb_relatives(gt, et.NoiseSpec(sigma_t=sigma, seed=1000 + seed))
        rc, mc = decile_ratio(gt, et.chain_absolute(gt[0], rels))
        rr, mr = decile_ratio(gt, et.chain_rebased(gt, rels))
        chained_r.append(rc)
        rebased_r.append(rr)
        print(f"{seed:>4}  {rc:>13.2f}  {rr:>13.2f}  {mc:>11.4f}  {mr:>11.4f}")
    print(f"\nmean over {args.seeds} seeds: chained {np.mean(chained_r):.2f} "
          f"(drift), rebased {np.mean(rebased_r):.2f} (flat)")


if __name__ == "__main__":
    main()
