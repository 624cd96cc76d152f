#!/usr/bin/env python3
"""Build the synthetic demo speech/background pools and a matching run
config, so the simulate/evaluate commands work out of the box:

    python3 scripts/make_demo_pools.py --root demo
    soundscene simulate --config demo/run.yaml --count 20
"""

import argparse
from pathlib import Path

from soundscene.demo import build_demo_pools


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default="demo", help="output directory (default: demo)")
    ap.add_argument("--speakers", type=int, default=6)
    ap.add_argument("--utterances-per-speaker", type=int, default=10)
    ap.add_argument("--backgrounds", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    root = Path(args.root)
    # the counts and the seed are checked before anything is written
    try:
        speech, background = build_demo_pools(
            root,
            n_speakers=args.speakers,
            utterances_per_speaker=args.utterances_per_speaker,
            n_backgrounds=args.backgrounds,
            seed=args.seed,
        )
    except ValueError as exc:
        ap.error(str(exc))
    config = root / "run.yaml"
    config.write_text(
        "dataset_seed: 0\n"
        "output_dir: out\n"
        f"speech_manifest: {speech.name}\n"
        f"background_manifest: {background.name}\n",
        encoding="utf-8",
    )
    print(f"speech pool:     {speech}")
    print(f"background pool: {background}")
    print(f"run config:      {config}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
