#!/usr/bin/env python3
"""Train the toy denoiser through the three-stage condition curriculum
and report validation loss per granularity after every stage.

The table shows the no-forgetting property directly: the text-only
column should stay flat (within a few percent) while the timing and
phoneme columns improve as their stages switch on.

    python3 scripts/run_curriculum.py --steps 300 --checkpoint toy.ckpt
"""

import argparse

import numpy as np

from soundscene.diffusion import cosine_schedule
from soundscene.toytrain import (
    GRANULARITIES,
    default_curriculum,
    make_toy_dataset,
    save_checkpoint,
    train_toy_denoiser,
    validation_loss,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=300, help="steps per stage")
    ap.add_argument("--batch-size", type=int, default=64)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--dataset-size", type=int, default=256)
    ap.add_argument("--T", type=int, default=100)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--checkpoint", help="save the stage-3 model here")
    args = ap.parse_args()
    for flag, value, least in (("--dim", args.dim, 1), ("--dataset-size", args.dataset_size, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            ap.error(f"{flag} must be >= {least}, got {value}")
    # every setting is checked before the first row is printed
    try:
        sched = cosine_schedule(args.T)
        stages = default_curriculum(steps=args.steps, batch_size=args.batch_size, lr=args.lr)
    except ValueError as exc:
        ap.error(str(exc))
    dataset = make_toy_dataset(
        args.dataset_size, dim=args.dim, rng=np.random.default_rng(args.seed)
    )
    conditional = [g for g in GRANULARITIES if g != "null"]

    def val_row(denoiser):
        # fixed rng per column so rows are comparable across stages
        return {
            g: validation_loss(denoiser, dataset, sched, g, np.random.default_rng(900 + i))
            for i, g in enumerate(conditional)
        }

    header = "stage      " + "".join(f"{g:>14}" for g in conditional)
    print(header)
    baseline = val_row(None)
    print("zero       " + "".join(f"{baseline[g]:14.4f}" for g in conditional))

    denoiser = None
    rows = []
    for k, stage in enumerate(stages, start=1):
        denoiser = train_toy_denoiser(
            dataset, (stage,), sched, seed=100 + k, denoiser=denoiser
        )
        row = val_row(denoiser)
        rows.append(row)
        print(f"after s{k}   " + "".join(f"{row[g]:14.4f}" for g in conditional))

    drift = abs(rows[-1]["text"] - rows[0]["text"]) / rows[0]["text"]
    print(f"\ntext-only drift stage 1 -> 3: {drift:.1%}")
    if args.checkpoint:
        save_checkpoint(denoiser, args.checkpoint)
        print(f"checkpoint: {args.checkpoint}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
