"""Benchmark of the soundscene pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it holds the run's facts (machine, versions, sizes, repeat counts,
failures by exception type, correctness problems).

This parent process imports nothing from the program.  It times the set-up
of SETUP_REPEATS fresh interpreters that stop when ready (``setup_s``:
interpreter start, imports and fixture build, each normalized by the
calibration kernel run just before and after it, see calibration.py; the
median is reported), then starts one more that measures (see harness.py).  Workloads, metric meanings and the per-layer map are in
bench/README.md and bench/metrics.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
SETUP_CAL_S = 0.1  # calibration time on each side of a set-up
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("simulate", "dataset-read", "match-dense", "diffusion")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(ROOT).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


class Child:
    """One harness process; always reaped, killed if it outlives the run."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "harness.py"), *args],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def finish(self) -> tuple[float, list[str]]:
        """(seconds from spawn to READY, stdout lines); raises on failure."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"harness exited with code {self.proc.returncode}")
        lines = out.splitlines()
        ready = [float(ln.split()[1]) for ln in lines if ln.startswith("READY ")]
        if not ready:
            raise RuntimeError("harness never reported READY")
        return ready[0] - self.start, lines


def run_timeout_s(seconds: float) -> float:
    """Set-up and check allowance plus room for the body: a traced run
    measures untraced and traced passes and a 2-worker pass."""
    return 90.0 + 3.0 * seconds


def run(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + run_timeout_s(args.seconds)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = ROOT / ".bench_work" / tag
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--size", args.size]
    setup_s, setup_wall_s = [], []
    try:
        for i in range(0 if args.trace else SETUP_REPEATS):
            before = calibration.slowdown("mixed", SETUP_CAL_S)
            seconds, _ = Child([*common, "--role", "setup", "--work", str(work / f"setup{i}")],
                               deadline).finish()
            slowdown = (before + calibration.slowdown("mixed", SETUP_CAL_S)) / 2
            setup_wall_s.append(seconds)
            setup_s.append(seconds / slowdown)
        spans = ROOT / ".bench_out" / f"spans-{tag}.jsonl"
        _, lines = Child([*common, "--role", "measure", "--work", str(work / "measure"),
                          "--spans", str(spans)], deadline).finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = [json.loads(ln[len("RESULT "):]) for ln in lines if ln.startswith("RESULT ")]
    if not results:
        raise RuntimeError("harness printed no result")
    result = results[-1]
    detail = result.pop("detail")
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setup_s)
    detail.update({
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_samples_s": setup_s,
        "setup_wall_samples_s": setup_wall_s,
        "setup_repeats": len(setup_s),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "load_model": "closed loop, one client, one operation at a time",
    })
    return {"result": result, "detail": detail}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size; tiny is for the smoke test only")
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its harness (see Child.finish)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "soundscene" / "__init__.py").is_file():
        print(f"error: no soundscene sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        out = run(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = out["result"]
    result["metrics"] = {
        name: {"value": value, "unit": metric_units[name]}
        for name, value in sorted(result["metrics"].items())
    }
    print(json.dumps({"facts": out["detail"]}))
    print(json.dumps(result))
    if not result["correct"]:
        print("error: correctness checks failed: " + "; ".join(out["detail"]["problems"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
