"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at the tiny size, untraced and traced, and asserts the
output contract: the last line has exactly correct/attempted/failed/metrics,
every metric BENCHMARK.json names is there with its unit, and match-dense
reports its displacement chain as failed operations.  Then it corrupts one
output per correctness check (a flipped manifest or WAV byte, an
off-by-one tp, tampered latents, a shifted sampler output ...) and asserts
that the check trips.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402

WORK = ROOT / ".bench_work" / "smoke"


def check_contract(spec: dict) -> None:
    described = json.loads((BENCH_DIR / "metrics.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(described["end_to_end"])
    assert [m["name"] for m in spec["per_layer"]] == list(described["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def run_benchmark(spec: dict, workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}, (workload, trace)
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
    facts = json.loads(proc.stdout.strip().splitlines()[-2])["facts"]
    assert facts["digest_check"] == "checked", facts["digest_check"]
    if workload == "match-dense":
        assert result["failed"] > 0 and any(k.startswith("RecursionError") for k in facts["failures"])
    print(f"ok  {workload} trace={trace}: {len(want)} metrics")


def fresh(name: str, seed: int = 0) -> workloads.Workload:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.WORKLOADS[name](work, seed, workloads.SIZES["tiny"][name])
    wl.setup()
    for op in wl.round_ops(0):
        try:
            op.fn()
        except RecursionError:
            pass  # the match-dense chain; counted as a failure by the harness
    return wl


def flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def expect_trip(label: str, problems: list[str], needle: str) -> None:
    assert any(needle in p for p in problems), (label, problems)
    print(f"ok  trips: {label}")


def corruption_checks(golden: dict[str, str]) -> None:
    wrong_ref = {k: ("0" * 64 if k.endswith("/reference") else v) for k, v in golden.items()}

    wl = fresh("simulate")
    assert wl.check(golden) == [], wl.check(golden)
    expect_trip("simulate reference digest", wl.check(wrong_ref), "digest of simulate/reference")
    assert wl.check(None) == [], "digests recorded on another machine must not be compared"
    manifest_path = wl.work / "out1" / "scenes.jsonl"
    clean = manifest_path.read_bytes()
    flip_byte(manifest_path, 40)
    expect_trip("simulate flipped manifest byte", wl.check(golden), "1-worker and 2-worker outputs differ")
    manifest_path.write_bytes(clean.replace(b" @{", b"  @{", 1))
    expect_trip("simulate non-canonical prompt", wl.check(golden), "prompt fails parse/serialize/validate")
    manifest_path.write_bytes(clean)
    flip_byte(sorted((wl.work / "out1" / "audio").glob("*.wav"))[0], 100)
    expect_trip("simulate flipped WAV byte", wl.check(golden), "digest of simulate/seed=0")

    wl = fresh("dataset-read")
    assert wl.check(golden) == [], wl.check(golden)
    report = wl.report_path.read_text()
    tp = report.split("tp=", 1)[1].split(" ", 1)[0]
    wl.report_path.write_text(report.replace(f"tp={tp} ", f"tp={int(tp) + 1} ", 1))
    expect_trip("dataset-read off-by-one tp", wl.check(golden), "evaluate counts")
    lines = wl.truth_path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["prompt"] = rec["prompt"].replace(" & ", " &  ", 1)
    wl.truth_path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    wl.round_ops(1)[0].fn()
    expect_trip("dataset-read non-canonical prompt", wl.check(golden), "do not round-trip")

    wl = fresh("match-dense")
    assert wl.check(golden) == [], wl.check(golden)
    clip_id, result = next(iter(wl.results.items()))
    label, prf = next(iter(result.per_class.items()))
    bad = dataclasses.replace(result, per_class={**result.per_class, label: dataclasses.replace(prf, tp=prf.tp + 1)})
    wl.results[clip_id] = bad
    expect_trip("match-dense off-by-one tp", wl.check(golden), f"{clip_id} counts")
    wl.results[clip_id] = result
    truth_plain, pred_plain = wl.plain[-1]
    pred_plain["chain"] = pred_plain["chain"][1:] + pred_plain["chain"][:1]
    expect_trip("match-dense chain generator", wl.check(golden), "band structure")

    wl = fresh("diffusion")
    assert wl.check(golden) == [], wl.check(golden)
    expect_trip("diffusion reference digest", wl.check(wrong_ref), "digest of diffusion/reference")
    data = bytearray(wl.latents[0])
    data[-1] ^= 0x01
    wl.latents[0] = bytes(data)
    expect_trip("diffusion tampered latents", wl.check(golden), "changed its latents")
    wl.latents.clear()
    wl.round_ops(0)[0].fn()
    wl.round_ops(0)[1].fn()
    clean = wl.latents[1]
    wl.latents[1] = clean[:-1] + bytes([clean[-1] ^ 0x01])
    wl.round_ops(1)[1].fn()
    expect_trip("diffusion later round differs from round 0", wl.check(golden), "changed its latents")
    wl.latents[1] = clean
    wl.unrepeatable.clear()
    sampler = workloads.diffusion.sample_progressive
    workloads.diffusion.sample_progressive = lambda *a, **k: sampler(*a, **k) + 0.5
    try:
        expect_trip("diffusion shifted oracle batch", workloads.oracle_check(np.random.default_rng(0)), "oracle batch mean")
    finally:
        workloads.diffusion.sample_progressive = sampler
    wl.batch_ok = False
    expect_trip("diffusion bad batch", wl.check(golden), "batched latents")


def bare_checkout_fails() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "0", "--seconds", "1",
         "--trace", "0"], capture_output=True, text=True, cwd=bare, timeout=180,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("ok  fails without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((BENCH_DIR / "golden.json").read_text())["digests"]
    try:
        check_contract(spec)
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                run_benchmark(spec, name, trace)
        corruption_checks(golden)
        bare_checkout_fails()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
