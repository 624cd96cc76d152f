#!/usr/bin/env python3
"""Sweep the phase-switch step t1 with the analytic Gaussian denoiser.

The early phase runs under a coarse condition (the broad prior) at low
guidance; the final t1 steps switch to the full target condition at
high guidance.  t1 therefore controls how many closing steps hear the
precise target: at t1=0 samples land near the prior, and the mean
marches toward the target as t1 grows, with most of the movement in the
first dozen steps because the late chain contracts quickly.

    python3 scripts/guidance_sweep.py --mu 2.0 --sigma2 0.25 --n 4000
"""

import argparse

import numpy as np

from soundscene.diffusion import (
    GaussianCondition,
    GaussianOracleDenoiser,
    GuidanceSchedule,
    cosine_schedule,
    sample_progressive,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=100)
    ap.add_argument(
        "--t1", type=int, nargs="*",
        default=[0, 1, 2, 4, 8, 12, 16, 24, 48, 88, 100],
    )
    ap.add_argument("--w-low", type=float, default=3.0)
    ap.add_argument("--w-high", type=float, default=9.0)
    ap.add_argument("--mu", type=float, default=2.0)
    ap.add_argument("--sigma2", type=float, default=0.25)
    ap.add_argument("--n", type=int, default=4000, help="trajectories per setting")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.n < 1:
        ap.error(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    # every setting is checked before the first row is printed
    try:
        sched = cosine_schedule(args.T)
        prior = GaussianCondition(np.array(0.0), 1.0)
        target = GaussianCondition(np.array(args.mu), args.sigma2)
        schedules = [
            GuidanceSchedule(c1=prior, c2=target, w_low=args.w_low, w_high=args.w_high, t1=t1, T=args.T)
            for t1 in args.t1
        ]
    except ValueError as exc:
        ap.error(str(exc))
    denoiser = GaussianOracleDenoiser(prior=prior, sched=sched)

    print(f"coarse N(0, 1) -> full N({args.mu:g}, {args.sigma2:g});"
          f" w_low={args.w_low:g}, w_high={args.w_high:g}, n={args.n}")
    print(f"{'t1':>5} {'mean':>9} {'var':>9} {'|mean-mu|':>10}")
    for t1, gs in zip(args.t1, schedules):
        rng = np.random.default_rng(args.seed)
        z_T = rng.standard_normal(args.n)
        z0 = sample_progressive(denoiser, gs, sched, z_T, rng=rng)
        mean, var = float(np.mean(z0)), float(np.var(z0))
        print(f"{t1:>5} {mean:>9.4f} {var:>9.4f} {abs(mean - args.mu):>10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
