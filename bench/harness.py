"""Measuring process of the benchmark (started by run.py, one per run).

It imports the program, builds one workload's fixture, prints
``READY <time.monotonic()>``, and with ``--role setup`` exits there.  With
``--role measure`` it then runs whole rounds of the workload's operations in
a closed loop until ``--seconds`` have passed, each operation between two
runs of a calibration kernel that normalizes its time (see calibration.py),
checks the outputs outside the timed region, and prints one ``RESULT
<json>`` line.

With ``--trace 1`` the run is split: rounds run untraced for half the time,
then the same number of rounds runs again with the tracer's wrappers
installed; per-layer figures come from the traced pass and the difference
between the two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import scipy
import soundscene.toytrain as toytrain

import calibration
import workloads
from tracing import Span, Tracer

BENCH_DIR = Path(__file__).resolve().parent
IMPORT_REPEATS = 3
CAL_SHARE = 0.1  # calibration time on each side of an operation, as a share of its time


@dataclass
class OpRecord:
    round: int
    key: str
    timed_as: str
    seconds: float
    slowdown: float  # mean calibration slowdown just before and just after
    items: int
    error: str | None

    @property
    def normalized_s(self) -> float:
        """Seconds on the reference machine at idle (see calibration.py)."""
        return self.seconds / self.slowdown


def run_rounds(
    wl: workloads.Workload, first: int, seconds: float | None = None, rounds: int | None = None
) -> tuple[list[OpRecord], int]:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are
    done, each operation between two runs of the calibration kernel;
    returns the op records and the number of rounds."""
    records: list[OpRecord] = []
    last: dict[str, float] = {}  # latest time of each input
    start = time.perf_counter()
    done = 0
    while True:
        for op in wl.round_ops(first + done):
            if op.prepare is not None:
                op.prepare()
            cal_before = calibration.slowdown(op.calibration, CAL_SHARE * last.get(op.key, 0.0))
            t0 = time.perf_counter()
            try:
                items, error = op.fn(), None
            except Exception as exc:  # an operation's failure is data, not a crash
                items, error = 0, f"{type(exc).__name__}: {str(exc)[:120]}"
            elapsed = last[op.key] = time.perf_counter() - t0
            cal_after = calibration.slowdown(op.calibration, CAL_SHARE * elapsed)
            records.append(OpRecord(first + done, op.key, op.timed_as, elapsed,
                                    (cal_before + cal_after) / 2, items, error))
        done += 1
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return records, done


def e2e_metrics(records: list[OpRecord]) -> dict[str, float]:
    """Times are normalized by the calibration kernel run around each
    operation (see calibration.py).  Every round repeats the same inputs
    (op keys); throughput is one round's work units over the sum of each
    throughput input's median time (an input that fails counts its time and
    no work); the latency median is over every successful latency sample.
    The 90th percentile, which per-operation calibration noise makes too
    unsteady to bound, and the wall-clock figures are in the facts line."""
    by_key: dict[str, list[OpRecord]] = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r)
    work = seconds = 0.0
    for reps in by_key.values():
        if reps[0].timed_as in ("both", "throughput"):
            work += statistics.median(r.items for r in reps)
            seconds += statistics.median(r.normalized_s for r in reps)
    lat = latency_ms(records, normalized=True)
    return {
        "throughput_per_s": work / seconds,
        "latency_ms.p50": lat["p50"],
        "success_rate": sum(r.error is None for r in records) / len(records),
    }


def latency_ms(records: list[OpRecord], normalized: bool) -> dict[str, float]:
    """Median and 90th percentile over every successful latency sample."""
    lat = [(r.normalized_s if normalized else r.seconds) * 1e3
           for r in records if r.timed_as in ("both", "latency") and r.error is None]
    if not lat:
        return {"p50": 0.0, "p90": 0.0, "samples": 0}
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    return {"p50": statistics.median(lat), "p90": p90, "samples": len(lat)}


def wall_figures(records: list[OpRecord]) -> dict[str, object]:
    """The same figures in wall-clock time, and the calibration slowdowns."""
    slow = sorted(r.slowdown for r in records)
    return {
        "latency_ms": latency_ms(records, normalized=False),
        "normalized_latency_ms": latency_ms(records, normalized=True),
        "slowdown": {"p10": slow[len(slow) // 10], "p50": statistics.median(slow),
                     "p90": slow[9 * len(slow) // 10]},
    }


# ------------------------------------------------------------ per-layer figures


def _per_call(tracer: Tracer, name: str) -> float:
    spans = tracer.named(name)
    return sum(s.duration for s in spans) / len(spans) if spans else 0.0


def import_times() -> dict[str, float]:
    """Median over fresh interpreters of ``-X importtime`` cumulative
    figures: all top-level soundscene imports for ``import soundscene.cli``,
    and the soundscene.audio entry (which pulls in numpy and scipy.signal)."""
    cli_s, audio_s = [], []
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import soundscene.cli"],
            capture_output=True, text=True, timeout=60, check=True,
        )
        top = audio = 0
        for m in map(line.match, proc.stderr.splitlines()):
            if m is None:
                continue
            cumulative, depth, module = int(m.group(2)), len(m.group(3)), m.group(4)
            if depth == 1 and module.split(".")[0] == "soundscene":
                top += cumulative
            if module == "soundscene.audio":
                audio = cumulative
        cli_s.append(top / 1e6)
        audio_s.append(audio / 1e6)
    return {"cli.import_s": statistics.median(cli_s), "audio.import_s": statistics.median(audio_s)}


def layer_metrics(tracer: Tracer, wl: workloads.Workload) -> dict[str, float]:
    self_time = tracer.self_times()
    by_id = {s.span_id: s for s in tracer.spans}
    m: dict[str, float] = {}
    for metric, span in [
        ("cli.simulate_s", "cli.simulate"), ("cli.evaluate_s", "cli.evaluate"),
        ("cli.sample_s", "cli.sample"),
        ("audio.read_wav_s", "audio.read_wav"), ("audio.resample_s", "audio.resample"),
        ("audio.mix_at_snr_s", "audio.mix_at_snr"), ("audio.write_wav_s", "audio.write_wav"),
        ("scene.arrange_timing_s", "scene.arrange_timing"),
        ("dsl.from_annotations_s", "dsl.from_annotations"), ("dsl.serialize_s", "dsl.serialize"),
        ("dsl.parse_s", "dsl.parse"), ("dsl.validate_s", "dsl.validate"),
        ("phonemes.build_vocab_s", "phonemes.build_vocab"),
        ("phonemes.tokenize_prompt_s", "phonemes.tokenize_prompt"),
        ("manifest.write_jsonl_atomic_s", "manifest.write_jsonl_atomic"),
        ("manifest.read_jsonl_s", "manifest.read_jsonl"),
        ("sed.annotations_from_manifest_s", "sed.annotations_from_manifest"),
        ("sed.event_based_f1_s", "sed.event_based_f1"),
        ("sed.clip_level_macro_f1_s", "sed.clip_level_macro_f1"),
        ("sed.render_report_s", "sed.render_report"),
        ("config.load_config_s", "config.load_config"),
        ("diffusion.sample_batch_s", "diffusion.sample_batch"),
        ("toytrain.train_s", "toytrain.train"),
        ("toytrain.save_checkpoint_s", "toytrain.save_checkpoint"),
        ("toytrain.load_checkpoint_s", "toytrain.load_checkpoint"),
    ]:
        m[metric] = _per_call(tracer, span)

    simulate_calls = len(tracer.named("cli.simulate"))
    loads = tracer.named("scene.load_pools")
    m["scene.load_pools_s"] = sum(s.duration for s in loads) / simulate_calls if simulate_calls else 0.0
    compose = tracer.named("scene.compose")
    m["scene.compose_s.p50"] = statistics.median(s.duration for s in compose) if compose else 0.0
    m["scene.compose_self_s"] = statistics.fmean(self_time[s.span_id] for s in compose) if compose else 0.0
    arrange = tracer.named("scene.arrange_timing")
    m["scene.arrange_attempts_per_scene"] = len(arrange) / len(compose) if compose else 0.0

    # single-latent sample CLI calls (overhead bound) and the batched
    # sampler (compute bound) are kept apart
    def parent_name(s: Span) -> str | None:
        return by_id[s.parent].name if s.parent in by_id else None

    samplers = [s for s in tracer.named("diffusion.sample_progressive") if parent_name(s) == "cli.sample"]
    sampler_ids = {s.span_id for s in samplers}
    predicts = tracer.named("toytrain.predict")
    cli_predicts = [s for s in predicts if s.parent in sampler_ids]
    batch_predicts = [s for s in predicts if parent_name(s) == "diffusion.sample_batch"]
    m["diffusion.sample_progressive_s"] = statistics.fmean(s.duration for s in samplers) if samplers else 0.0
    m["diffusion.predict_calls_per_traj"] = len(cli_predicts) / len(samplers) if samplers else 0.0
    m["diffusion.step_overhead_s"] = (
        statistics.fmean(self_time[s.span_id] for s in samplers) / workloads.T_STEPS if samplers else 0.0
    )
    m["toytrain.predict_s"] = statistics.fmean(s.duration for s in cli_predicts) if cli_predicts else 0.0
    m["toytrain.predict_batch_s"] = (
        statistics.fmean(s.duration for s in batch_predicts) if batch_predicts else 0.0
    )
    train = tracer.named("toytrain.train")
    steps = wl.size.get("steps_per_stage", 0) * len(toytrain.default_curriculum())
    m["toytrain.train_steps_per_s"] = steps * len(train) / sum(s.duration for s in train) if train else 0.0

    counts = dict.fromkeys(("audio.wav_bytes", "manifest.bytes", "phonemes.tokens",
                            "phonemes.oov_words", "sed.groups", "sed.feasible_pairs", "sed.tp"), 0.0)
    return m | counts | wl.layer_counts()


# --------------------------------------------------------------- run facts


def machine_facts() -> dict[str, object]:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas_call(("scipy_openblas_get_config64_", "openblas_get_config64_",
                                  "openblas_get_config"), ctypes.c_char_p),
        "blas_threads": blas_call(("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                                   "openblas_get_num_threads"), ctypes.c_int),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def digest_machine() -> dict[str, str | None]:
    """What the output digests depend on beyond the program: float results
    of BLAS and FFT kernels can differ with the CPU, the OpenBLAS kernel set
    and the numpy and scipy versions."""
    facts = machine_facts()
    return {key: facts[key] for key in ("cpu_model", "blas_config", "numpy", "scipy")}


def blas_call(symbols: tuple[str, ...], restype: Any) -> Any:
    """Call the first of ``symbols`` the loaded OpenBLAS exports; None when
    it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in symbols:
                if hasattr(lib, symbol):
                    fn = getattr(lib, symbol)
                    fn.restype = restype
                    out = fn()
                    return out.decode() if isinstance(out, bytes) else out
    except OSError:
        return None
    return None


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--role", choices=("setup", "measure", "digest"), default="measure")
    ap.add_argument("--work", required=True, help="scratch directory for this process")
    ap.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    args = ap.parse_args(argv)

    size = workloads.SIZES[args.size][args.workload]
    wl = workloads.WORKLOADS[args.workload](Path(args.work), args.seed, size)
    tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None
    if tracer:
        wl.instrument(tracer)
    try:
        wl.setup()
    finally:
        if tracer:
            tracer.restore()
    print(f"READY {time.monotonic():.9f}", flush=True)
    if args.role == "setup":
        return 0
    if args.role == "digest":
        print("DIGESTS " + json.dumps({"machine": digest_machine(), "digests": wl.digests()}), flush=True)
        return 0

    detail: dict[str, object] = {"workload": args.workload, "seed": args.seed, "size": size}
    if tracer is None:
        records, rounds = run_rounds(wl, 0, seconds=args.seconds)
        metrics = e2e_metrics(records)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        base, rounds = run_rounds(wl, 0, seconds=args.seconds / 2)
        wl.instrument(tracer)
        try:
            traced, _ = run_rounds(wl, rounds, rounds=rounds)
        finally:
            tracer.restore()
        records = base + traced
        untraced_s, traced_s = (sum(r.seconds for r in rs) for rs in (base, traced))
        metrics = layer_metrics(tracer, wl)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        metrics.update(import_times())
        detail["import_repeats"] = IMPORT_REPEATS
        metrics.update({"cli.scenes_per_s_2w": 0.0, "cli.speedup_2w": 0.0,
                        **wl.untraced_extras(rounds, untraced_s)})
        if args.spans:
            tracer.dump(Path(args.spans))

    golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    digests_apply = golden["machine"] == digest_machine()
    problems = wl.check(golden["digests"] if digests_apply else None)
    detail.update({
        "digest_check": "checked" if digests_apply else "not recorded for this machine",
        "rounds": rounds,
        "ops": len(records),
        "min_repeats_per_input": min(Counter(r.key for r in records).values()),
        "latency_samples": sum(1 for r in records if r.timed_as != "throughput" and r.error is None),
        "wall": wall_figures(records),
        "timed_s": sum(r.seconds for r in records),
        "failures": dict(Counter(r.error for r in records if r.error is not None)),
        "problems": problems,
        "machine": machine_facts(),
    })
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(r.error is not None for r in records),
        "metrics": metrics,
        "detail": detail,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
