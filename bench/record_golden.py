"""Record the output digests that the correctness checks compare against.

    python3 bench/record_golden.py [--seeds 0-15] [--size full|tiny]

For simulate and diffusion this runs the workload's first round for each
seed and the fixed reference configuration, and merges the sha256 values
into bench/golden.json next to the machine they were recorded on (CPU
model, OpenBLAS build and kernel set, numpy and scipy versions).  On any
other machine the benchmark skips the digest comparison and says so.
Recording on another machine starts the file afresh.  Re-record only when
a change to the program is meant to change its outputs, and say so in that
change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, ROOT, child_env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range, e.g. 0-15")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = BENCH_DIR / "golden.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    machine, golden = recorded.get("machine"), dict(recorded.get("digests", {}))
    work = ROOT / ".bench_work" / "golden"
    try:
        for workload in ("simulate", "diffusion"):
            for seed in range(lo, hi + 1):
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "harness.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", "0", "--size", args.size, "--role", "digest",
                     "--work", str(work / f"{workload}-{seed}")],
                    capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=300, check=True,
                )
                line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("DIGESTS "))
                out = json.loads(line[len("DIGESTS "):])
                if out["machine"] != machine:
                    if golden:
                        print(f"warning: dropping {len(golden)} digests recorded on {machine}", file=sys.stderr)
                    machine, golden = out["machine"], {}
                digests = out["digests"]
                for key, value in digests.items():
                    if golden.get(key, value) != value:
                        print(f"warning: {key} changes from {golden[key][:16]} to {value[:16]}",
                              file=sys.stderr)
                golden.update(digests)
                print(f"{workload} seed {seed}: {len(digests)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps({"machine": machine, "digests": dict(sorted(golden.items()))}, indent=1) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
