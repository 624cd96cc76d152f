"""The four benchmark workloads: inputs generated from the seed, the
closed-loop operations that are timed, the correctness checks run after
them, and the traced attributes and per-layer figures of each.

Every call into the program goes through a module attribute (``dsl.parse``,
``sed.event_based_f1``, ``cli.main`` ...) at call time, so the tracer's
wrappers see the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import soundscene.audio as audio
import soundscene.cli as cli
import soundscene.diffusion as diffusion
import soundscene.dsl as dsl
import soundscene.manifest as manifest
import soundscene.phonemes as phonemes
import soundscene.scene as scene
import soundscene.sed as sed
import soundscene.toytrain as toytrain
from soundscene.demo import DEMO_SENTENCES, build_demo_pools

import reference
from tracing import Tracer

LABELS = ("Man speaking", "Woman speaking", "Speech")
CAPTIONS = (
    "Rain falling on a roof",
    "A busy street with traffic",
    "Waves breaking on a beach",
    "A quiet room with a fan humming",
)
COLLARS = (0.2, 0.2, 0.2)  # onset, offset abs, offset rel: the evaluate defaults
UTTERANCE_CS = (70, 200)  # utterance length range of soundscene.demo's pools, in centiseconds

# Input sizes per workload.  "tiny" is the smoke test's size.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "simulate": {"scenes": 200},
        "dataset-read": {"clips": 400},
        "match-dense": {"clips": 24, "group_events": 250, "chain_events": 1201},
        "diffusion": {"steps_per_stage": 300, "batch": 1024, "cli_calls_per_round": 4},
    },
    "tiny": {
        "simulate": {"scenes": 6},
        "dataset-read": {"clips": 30},
        "match-dense": {"clips": 2, "group_events": 30, "chain_events": 1201},
        "diffusion": {"steps_per_stage": 20, "batch": 64, "cli_calls_per_round": 2},
    },
}

# Size of the fixed reference runs whose digests golden.json records.
REFERENCE_SCENES = 12
REFERENCE_TRAIN_STEPS = 20
REFERENCE_SAMPLES = 2

# Sampler settings of the diffusion workload (the paper's defaults).
T_STEPS, T1, W_LOW, W_HIGH = 100, 88, 3.0, 9.0


class CliFailed(Exception):
    """cli.main returned non-zero; carries what it printed to stderr."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation.  ``key`` names its input, which every
    round repeats; ``fn`` returns the work units it completed;
    ``timed_as`` says which end-to-end figures it feeds; ``prepare``, when
    given, runs untimed before ``fn``; ``calibration`` names the kernel
    that normalizes its time (see calibration.py)."""

    key: str
    fn: Callable[[], int]
    timed_as: str = "both"  # "both" | "latency" | "throughput"
    prepare: Callable[[], None] | None = None
    calibration: str = "mixed"  # "mixed" | "vector"


def run_cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise CliFailed(err.getvalue().strip().splitlines()[-1] if err.getvalue().strip() else f"exit {rc}")


def clear(out: Path) -> None:
    """Remove a previous call's output directory.  Writing fresh files
    keeps ext4 from flushing overwritten (truncated) files to disk during
    the timed call, and files removed soon after they are written mostly
    never reach the disk at all."""
    shutil.rmtree(out, ignore_errors=True)


def sha256_files(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, size: dict[str, int]):
        self.work = work
        self.seed = seed
        self.size = size
        work.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Build or load the fixture; runs before READY is reported."""

    def round_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def check(self, golden: dict[str, str] | None) -> list[str]:
        """Correctness problems found after the timed body; empty = pass.
        ``golden`` maps digest keys to recorded sha256 values; None when
        they were recorded on another kind of machine (see golden.json)."""
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        """Output digests keyed as in golden.json; see record_golden.py."""
        return {}

    def trace_points(self) -> list[tuple[Any, str, str]]:
        """(owner, attribute, span name) for every wrapper to install."""
        return []

    def instrument(self, tracer: Tracer) -> None:
        tracer.patch(cli, "main", lambda main: lambda argv: _traced_main(tracer, main, argv))
        for owner, attr, name in self.trace_points():
            tracer.wrap(owner, attr, name)

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts measured at the workload's boundaries."""
        return {}

    def untraced_extras(self, rounds: int, seconds_1w: float) -> dict[str, float]:
        """Per-layer figures that need an untraced run of their own."""
        return {}


def _traced_main(tracer: Tracer, main: Callable[[list[str]], int], argv: list[str]) -> int:
    with tracer.span(f"cli.{argv[0]}"):
        return main(argv)


def compare_digests(got: dict[str, str], golden: dict[str, str] | None, what: str) -> list[str]:
    """Every reference digest must be recorded and equal; a per-seed digest
    is compared when golden.json holds one for that seed and size.  Nothing
    is compared when the digests were recorded on another kind of machine."""
    if golden is None:
        return []
    problems = []
    for key, digest in got.items():
        want = golden.get(key)
        if want is None and key.endswith("/reference"):
            problems.append(f"{what}: no recorded digest for {key}")
        elif want is not None and want != digest:
            problems.append(f"{what}: digest of {key} is {digest[:16]}, recorded {want[:16]}")
    return problems


# ------------------------------------------------------------------ simulate


class Simulate(Workload):
    """cli simulate on demo pools; write side of the pipeline."""

    name = "simulate"

    def setup(self) -> None:
        self.config = self._write_pools_and_config(self.work / "fixture", self.seed)

    @staticmethod
    def _write_pools_and_config(root: Path, seed: int) -> Path:
        speech, background = build_demo_pools(root / "pools", seed=seed)
        config = root / "config.yaml"
        config.write_text(
            f"dataset_seed: {seed}\n"
            f"output_dir: out\n"
            f"speech_manifest: {speech.relative_to(root).as_posix()}\n"
            f"background_manifest: {background.relative_to(root).as_posix()}\n",
            encoding="utf-8",
        )
        return config

    def simulate(self, config: Path, out: Path, count: int, workers: int) -> None:
        """One simulate call into ``out``, which must not hold a previous
        call's files (see ``clear``)."""
        run_cli(["simulate", "--config", str(config), "--count", str(count),
                 "--workers", str(workers), "--output-dir", str(out)])

    def round_ops(self, index: int) -> list[Op]:
        n = self.size["scenes"]

        def op() -> int:
            self.simulate(self.config, self.work / "out1", n, 1)
            return n

        return [Op("simulate", op, prepare=lambda: clear(self.work / "out1"), calibration="vector")]

    @staticmethod
    def output_files(out: Path) -> list[Path]:
        return [out / "scenes.jsonl"] + sorted((out / "audio").glob("*.wav"))

    def digests(self) -> dict[str, str]:
        n = self.size["scenes"]
        out1 = self.work / "out1"
        if not (out1 / "scenes.jsonl").exists():
            self.simulate(self.config, out1, n, 1)
        ref_root = self.work / "reference"
        clear(ref_root / "out")
        self.simulate(self._write_pools_and_config(ref_root, 0), ref_root / "out", REFERENCE_SCENES, 1)
        return {
            f"simulate/seed={self.seed},scenes={n}": sha256_files(self.output_files(out1)),
            "simulate/reference": sha256_files(self.output_files(ref_root / "out")),
        }

    def check(self, golden: dict[str, str] | None) -> list[str]:
        n = self.size["scenes"]
        problems = compare_digests(self.digests(), golden, "simulate")
        out1, out2 = self.work / "out1", self.work / "out2"
        clear(out2)
        self.simulate(self.config, out2, n, 2)
        files1, files2 = self.output_files(out1), self.output_files(out2)
        if [p.name for p in files1] != [p.name for p in files2] or any(
            a.read_bytes() != b.read_bytes() for a, b in zip(files1, files2)
        ):
            problems.append("simulate: 1-worker and 2-worker outputs differ")
        if len(files1) != n + 1:
            problems.append(f"simulate: expected {n} WAVs, found {len(files1) - 1}")
        try:
            records = manifest.read_jsonl(out1 / "scenes.jsonl")
        except ValueError as exc:
            return problems + [f"simulate: manifest unreadable: {exc}"]
        for rec in records:
            try:
                p = dsl.parse(rec["prompt"])
                ok = dsl.serialize(p) == rec["prompt"]
                ok = ok and not any(v.severity == "error" for v in dsl.validate(p))
            except (KeyError, ValueError):
                ok = False
            if not ok:
                problems.append(f"simulate: {rec.get('clip_id')} prompt fails parse/serialize/validate")
        return problems

    def trace_points(self) -> list[tuple[Any, str, str]]:
        return [
            (cli, "load_config", "config.load_config"),
            (cli, "load_speech_pool", "scene.load_pools"),
            (cli, "load_background_pool", "scene.load_pools"),
            (scene, "read_jsonl", "manifest.read_jsonl"),
            (scene, "read_wav", "audio.read_wav"),
            (scene, "resample_to_clip_rate", "audio.resample"),
            (audio, "resample_to_clip_rate", "audio.resample"),
            (cli, "compose_scene", "scene.compose"),
            (scene, "arrange_timing", "scene.arrange_timing"),
            (scene, "mix_at_snr", "audio.mix_at_snr"),
            (scene, "from_annotations", "dsl.from_annotations"),
            (cli, "serialize", "dsl.serialize"),
            (cli, "write_wav", "audio.write_wav"),
            (cli, "write_jsonl_atomic", "manifest.write_jsonl_atomic"),
        ]

    def untraced_extras(self, rounds: int, seconds_1w: float) -> dict[str, float]:
        seconds_2w = 0.0
        for _ in range(rounds):
            clear(self.work / "out2")
            start = time.perf_counter()
            self.simulate(self.config, self.work / "out2", self.size["scenes"], 2)
            seconds_2w += time.perf_counter() - start
        return {
            "cli.scenes_per_s_2w": rounds * self.size["scenes"] / seconds_2w,
            "cli.speedup_2w": seconds_1w / seconds_2w,
        }

    def layer_counts(self) -> dict[str, float]:
        out = self.work / "out1"
        return {
            "audio.wav_bytes": statistics.fmean(p.stat().st_size for p in (out / "audio").glob("*.wav")),
            "manifest.bytes": (out / "scenes.jsonl").stat().st_size,
        }


# -------------------------------------------------------------- dataset-read


def _quota_counts(n: int, pmf: dict[int, float], rng: np.random.Generator) -> list[int]:
    """n draws from ``pmf`` with exact largest-remainder quotas, shuffled, so
    every seed yields the same number of events in total."""
    keys = sorted(pmf)
    raw = np.array([n * pmf[k] for k in keys])
    quota = np.floor(raw).astype(int)
    for i in np.argsort(-(raw - quota), kind="stable")[: n - int(quota.sum())]:
        quota[i] += 1
    counts = [k for k, q in zip(keys, quota) for _ in range(q)]
    return [counts[i] for i in rng.permutation(n)]


def canonical_prompt(caption: str, events: list[tuple[str, int, int, str]]) -> str:
    """The canonical DSL text for rows of (label, start_cs, end_cs,
    transcript), written from the grammar in soundscene.dsl's docstring:
    rows of one label merge into one multi-span event when they share a
    transcript, otherwise each row is its own event; labels keep
    first-occurrence order."""
    by_label: dict[str, list[tuple[str, int, int, str]]] = {}
    for row in events:
        by_label.setdefault(row[0], []).append(row)
    blocks = []
    for label, rows in by_label.items():
        if len({r[3] for r in rows}) == 1:
            groups = [sorted(rows, key=lambda r: (r[1], r[2]))]
        else:
            groups = [[r] for r in rows]
        for group in groups:
            spans = " ".join(f"<{s / 100:.2f},{e / 100:.2f}>" for _, s, e, _ in group)
            speech = group[0][3].replace("\\", "\\\\").replace('"', '\\"')
            blocks.append(f'@{{{label} & {spans} "{speech}"}}')
    return " ".join([caption] + blocks)


def _fates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Per-event fate with exact shares, so every seed does the same amount
    of work: 10% deleted (1), 5% label-swapped (2), the rest kept (0)."""
    fates = np.zeros(n, dtype=int)
    fates[: n // 10] = 1
    fates[n // 10 : n // 10 + n // 20] = 2
    return rng.permutation(fates)


def _jitter_cs(rng: np.random.Generator) -> int:
    """Onset/offset error in centiseconds, concentrated around the 0.20 s
    collar edge: inside, exactly on it, or just beyond it."""
    r = rng.random()
    sign = 1 if rng.random() < 0.5 else -1
    if r < 0.6:
        return int(rng.integers(-15, 16))
    if r < 0.8:
        return sign * 20
    return sign * int(rng.integers(21, 26))


class DatasetRead(Workload):
    """Evaluate, prompt round-trip and tokenization over a generated
    manifest-shaped dataset; read side of the pipeline."""

    name = "dataset-read"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        n = self.size["clips"]
        priors = scene.ScenePriors()
        lo, hi = UTTERANCE_CS
        clip_cs = round(100 * audio.CLIP_SECONDS)
        records, truth_events = [], {}
        for i, k in enumerate(_quota_counts(n, dict(priors.utterance_count_pmf), rng)):
            clip_id = f"clip{i:05d}"
            # k utterances fill at most 90% of the clip
            durs = rng.integers(lo, min(hi, 9 * clip_cs // (10 * k)) + 1, size=k)
            cuts = np.sort(rng.integers(0, clip_cs - int(durs.sum()) + 1, size=k))
            starts = cuts + np.concatenate([[0], np.cumsum(durs)[:-1]])
            n_speakers = (1 if k == 1 or rng.random() < priors.p_single_speaker
                          else int(rng.integers(2, min(4, k) + 1)))
            speaker_labels = [LABELS[int(rng.integers(len(LABELS)))] for _ in range(n_speakers)]
            rows = [
                (
                    speaker_labels[int(rng.integers(n_speakers))],
                    int(s),
                    int(s + d),
                    DEMO_SENTENCES[int(rng.integers(len(DEMO_SENTENCES)))],
                )
                for s, d in zip(starts, durs)
            ]
            caption = CAPTIONS[int(rng.integers(len(CAPTIONS)))]
            records.append({
                "clip_id": clip_id,
                "audio": f"audio/{clip_id}.wav",
                "caption": caption,
                "prompt": canonical_prompt(caption, rows),
                "events": [
                    {"label": lab, "start": s / 100, "end": e / 100, "transcript": tr}
                    for lab, s, e, tr in rows
                ],
                "scenario": "monologue" if n_speakers == 1 else "dialogue",
                "snr_db": float(rng.uniform(2.0, 10.0)),
                "seed": int(rng.integers(2**63)),
            })
            truth_events[clip_id] = [(lab, s / 100, e / 100) for lab, s, e, _ in rows]

        pred_events: dict[str, list[tuple[str, float, float]]] = {}
        truth_only = set(rng.choice(n, size=max(1, n // 30), replace=False).tolist())
        scored = [rec["clip_id"] for i, rec in enumerate(records) if i not in truth_only]
        fates = iter(_fates(sum(len(truth_events[c]) for c in scored), rng))
        for clip_id in scored:
            rows = []
            for lab, s, e in truth_events[clip_id]:
                fate = next(fates)
                if fate == 1:
                    continue
                if fate == 2:
                    lab = LABELS[(LABELS.index(lab) + 1 + int(rng.integers(2))) % 3]
                ps = max(0, round(s * 100) + _jitter_cs(rng))
                pe = max(ps + 5, round(e * 100) + _jitter_cs(rng))
                rows.append((lab, ps / 100, pe / 100))
            pred_events[clip_id] = rows
        for k in rng.choice(len(scored), size=sum(len(r) for r in pred_events.values()) // 10):
            ps = int(rng.integers(0, 950))
            pred_events[scored[k]].append(
                (LABELS[int(rng.integers(3))], ps / 100, (ps + int(rng.integers(40, 200))) / 100)
            )
        for j in range(max(1, n // 30)):
            ps = int(rng.integers(0, 800))
            pred_events[f"extra{j:05d}"] = [(LABELS[j % 3], ps / 100, (ps + 150) / 100)]

        self.truth_path = self.work / "truth.jsonl"
        self.pred_path = self.work / "pred.tsv"
        self.report_path = self.work / "report.txt"
        with open(self.truth_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        with open(self.pred_path, "w", encoding="utf-8") as fh:
            for clip_id, rows in pred_events.items():
                for lab, s, e in rows:
                    fh.write(f"{clip_id}\t{lab}\t{s:.2f}\t{e:.2f}\n")
        self.truth_events = truth_events
        self.pred_events = pred_events
        self.transcripts = [ev["transcript"] for rec in records for ev in rec["events"]]
        self.lexicon = phonemes.load_default_lexicon()
        self.mismatches: list[str] = []

    def _pass(self) -> int:
        run_cli(["evaluate", "--truth", str(self.truth_path), "--pred", str(self.pred_path),
                 "--onset-collar", str(COLLARS[0]), "--offset-collar-abs", str(COLLARS[1]),
                 "--offset-collar-rel", str(COLLARS[2]), "--report", str(self.report_path)])
        records = manifest.read_jsonl(self.truth_path)
        prompts = []
        for rec in records:
            p = dsl.parse(rec["prompt"])
            text = dsl.serialize(p)
            findings = dsl.validate(p)
            rebuilt = dsl.from_annotations(rec["caption"], [
                dsl.EventAnnotation(ev["label"], dsl.TimeSpan(ev["start"], ev["end"]), ev["transcript"])
                for ev in rec["events"]
            ])
            if text != rec["prompt"] or rebuilt != p or any(f.severity == "error" for f in findings):
                self.mismatches.append(rec["clip_id"])
            prompts.append((p, text))
        vocab = phonemes.build_vocab([text for _, text in prompts], self.lexicon)
        self.tokens = 0
        for p, _ in prompts:
            self.tokens += len(phonemes.tokenize_prompt(p, vocab, self.lexicon, oov_policy="letter_fallback").ids)
        return len(records)

    def round_ops(self, index: int) -> list[Op]:
        return [Op("pass", self._pass)]

    def reference_counts(self) -> tuple[dict[str, list[int]], int, int]:
        return reference.eb_counts(self.truth_events, self.pred_events, COLLARS)

    def check(self, golden: dict[str, str] | None) -> list[str]:
        problems = [f"dataset-read: {len(set(self.mismatches))} prompts do not round-trip"] if self.mismatches else []
        if not self.report_path.exists():
            self._pass()
        got = parse_report_counts(self.report_path.read_text(encoding="utf-8"))
        want, _, _ = self.reference_counts()
        micro = [sum(c[i] for c in want.values()) for i in range(3)]
        if got != {"micro": micro, **want}:
            problems.append(f"dataset-read: evaluate counts {got} != reference {micro} {want}")
        if min(micro) <= 0:
            problems.append(f"dataset-read: generator gave a zero tp/fp/fn {micro}")
        return problems

    def trace_points(self) -> list[tuple[Any, str, str]]:
        return [
            (cli, "annotations_from_manifest", "sed.annotations_from_manifest"),
            (cli, "event_based_f1", "sed.event_based_f1"),
            (cli, "clip_level_macro_f1", "sed.clip_level_macro_f1"),
            (cli, "render_report", "sed.render_report"),
            (manifest, "read_jsonl", "manifest.read_jsonl"),
            (dsl, "parse", "dsl.parse"),
            (dsl, "serialize", "dsl.serialize"),
            (dsl, "validate", "dsl.validate"),
            (dsl, "from_annotations", "dsl.from_annotations"),
            (phonemes, "build_vocab", "phonemes.build_vocab"),
            (phonemes, "tokenize_prompt", "phonemes.tokenize_prompt"),
        ]

    def layer_counts(self) -> dict[str, float]:
        want, groups, pairs = self.reference_counts()
        # words as g2p documents them: whitespace-split, edge punctuation stripped
        words = [re.sub(r"^[^A-Za-z0-9]+|[^A-Za-z0-9]+$", "", w)
                 for text in self.transcripts for w in text.split()]
        return {
            "sed.groups": groups,
            "sed.feasible_pairs": pairs,
            "sed.tp": sum(c[0] for c in want.values()),
            "phonemes.tokens": self.tokens / len(self.truth_events),
            "phonemes.oov_words": sum(1 for w in words if w and w not in self.lexicon),
            "manifest.bytes": self.truth_path.stat().st_size,
        }


_COUNT_RE = re.compile(r"^\s+(.+?): P .*\(tp=(\d+) fp=(\d+) fn=(\d+)\)$")


def parse_report_counts(text: str) -> dict[str, list[int]]:
    """{"micro": [tp, fp, fn], label: [tp, fp, fn], ...} from a report."""
    out = {}
    for line in text.splitlines():
        m = _COUNT_RE.match(line)
        if m:
            out[m.group(1)] = [int(m.group(2)), int(m.group(3)), int(m.group(4))]
    return out


# --------------------------------------------------------------- match-dense


def _ann(label: str, start_cs: int, end_cs: int) -> dsl.EventAnnotation:
    return dsl.EventAnnotation(label, dsl.TimeSpan(start_cs / 100, end_cs / 100))


class MatchDense(Workload):
    """One event_based_f1 call per clip on dense (clip, class) groups, plus
    one collar-feasible displacement chain."""

    name = "match-dense"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        n = self.size["group_events"]
        self.clips: list[tuple[sed.ClipAnnotations, sed.ClipAnnotations]] = []
        self.plain: list[tuple[dict, dict]] = []
        for c in range(self.size["clips"]):
            labels = [LABELS[i] for i in rng.permutation(3)[:2]]
            truth, pred = [], []
            for label in labels:
                onsets = np.arange(n) * 10 + rng.integers(0, 5, size=n)
                durs = 100 + rng.integers(-10, 11, size=n)
                truth += [(label, int(s), int(s + d)) for s, d in zip(onsets, durs)]
                for s, d, fate in zip(onsets, durs, _fates(n, rng)):
                    if fate == 1:
                        continue
                    lab = labels[1 - labels.index(label)] if fate == 2 else label
                    ps = max(0, int(s) + _jitter_cs(rng))
                    pred.append((lab, ps, max(ps + 5, int(s + d) + _jitter_cs(rng))))
                for _ in range(n // 10):
                    ps = int(rng.integers(0, n * 10))
                    pred.append((label, ps, ps + 100 + int(rng.integers(-10, 11))))
            self._add_clip(f"dense{c:02d}", truth, pred)
        # truth i is collar-feasible with predictions i-1 and i only
        m = self.size["chain_events"]
        label = LABELS[int(rng.integers(3))]
        dur = int(rng.integers(20, 29))
        truth = [(label, 30 * i, 30 * i + dur) for i in range(m)]
        pred = [(label, 30 * i + 15, 30 * i + 15 + dur) for i in range(m)]
        self._add_clip("chain", truth, pred)
        self.results: dict[str, sed.EbResult] = {}

    def _add_clip(self, clip_id: str, truth: list, pred: list) -> None:
        self.clips.append((
            sed.ClipAnnotations(clip_id, tuple(_ann(*e) for e in truth)),
            sed.ClipAnnotations(clip_id, tuple(_ann(*e) for e in pred)),
        ))
        self.plain.append((
            {clip_id: [(lab, s / 100, e / 100) for lab, s, e in truth]},
            {clip_id: [(lab, s / 100, e / 100) for lab, s, e in pred]},
        ))

    def round_ops(self, index: int) -> list[Op]:
        cfg = sed.EbConfig(*COLLARS)

        def score(truth: sed.ClipAnnotations, pred: sed.ClipAnnotations) -> Callable[[], int]:
            def op() -> int:
                self.results[truth.clip_id] = sed.event_based_f1([truth], [pred], cfg)
                return len(truth.events)
            return op

        return [Op(t.clip_id, score(t, p)) for t, p in self.clips]

    def check(self, golden: dict[str, str] | None) -> list[str]:
        problems = []
        for (truth, _), (t_plain, p_plain) in zip(self.clips, self.plain):
            want, _, _ = reference.eb_counts(t_plain, p_plain, COLLARS)
            if truth.clip_id == "chain":
                (t_ev,), (p_ev,) = t_plain.values(), p_plain.values()
                f = reference.feasibility(np.array([e[1:] for e in t_ev]),
                                          np.array([e[1:] for e in p_ev]), *COLLARS)
                band = np.eye(len(t_ev), dtype=bool) | np.eye(len(t_ev), k=-1, dtype=bool)
                if not np.array_equal(f, band) or want[t_ev[0][0]][0] != len(t_ev):
                    problems.append("match-dense: chain generator lost its band structure")
            result = self.results.get(truth.clip_id)
            if result is None:
                continue  # failed every time; counted as failed operations
            got = {label: [prf.tp, prf.fp, prf.fn] for label, prf in result.per_class.items()}
            if got != want:
                problems.append(f"match-dense: {truth.clip_id} counts {got} != reference {want}")
        if not any(truth.clip_id in self.results for truth, _ in self.clips):
            problems.append("match-dense: no clip was scored")
        return problems

    def trace_points(self) -> list[tuple[Any, str, str]]:
        return [(sed, "event_based_f1", "sed.event_based_f1")]

    def layer_counts(self) -> dict[str, float]:
        groups = pairs = tp = 0
        for t_plain, p_plain in self.plain:
            want, g, f = reference.eb_counts(t_plain, p_plain, COLLARS)
            groups, pairs, tp = groups + g, pairs + f, tp + sum(c[0] for c in want.values())
        calls = len(self.plain)
        return {"sed.groups": groups / calls, "sed.feasible_pairs": pairs / calls, "sed.tp": tp / calls}


# ----------------------------------------------------------------- diffusion


class Diffusion(Workload):
    """Single-latent `sample` CLI calls (per-step overhead bound) and one
    batched sample_progressive (compute bound) from a toy checkpoint trained
    during setup."""

    name = "diffusion"

    def setup(self) -> None:
        self.checkpoint, self.config = self._train(self.work / "fixture", self.seed,
                                                   self.size["steps_per_stage"])
        self.denoiser = toytrain.load_checkpoint(self.checkpoint)
        self.sched = diffusion.cosine_schedule(T_STEPS)
        self.rng = np.random.default_rng([self.seed, 3])
        self.latents: list[bytes] = []
        self.unrepeatable: set[int] = set()

    @staticmethod
    def _train(root: Path, seed: int, steps: int) -> tuple[Path, Path]:
        root.mkdir(parents=True, exist_ok=True)
        data = toytrain.make_toy_dataset(256, dim=4, rng=np.random.default_rng([seed, 4]))
        den = toytrain.train_toy_denoiser(
            data, toytrain.default_curriculum(steps=steps), diffusion.cosine_schedule(T_STEPS), seed=seed
        )
        checkpoint = root / "toy.ckpt"
        toytrain.save_checkpoint(den, checkpoint)
        config = root / "config.yaml"
        config.write_text(
            f"output_dir: out\nsampler:\n  T: {T_STEPS}\n  t1: {T1}\n"
            f"  w_low: {W_LOW}\n  w_high: {W_HIGH}\n  mode: ancestral\n",
            encoding="utf-8",
        )
        return checkpoint, config

    def sample_cli(self, checkpoint: Path, config: Path, out: Path, seed: int, cid: int) -> bytes:
        run_cli(["sample", "--config", str(config), "--denoiser", "toy_checkpoint",
                 "--checkpoint", str(checkpoint), "--condition-id", str(cid),
                 "--T", str(T_STEPS), "--t1", str(T1), "--w-low", str(W_LOW),
                 "--w-high", str(W_HIGH), "--mode", "ancestral", "--seed", str(seed),
                 "--output-dir", str(out)])
        return (out / "sample" / "latents.npy").read_bytes()

    def _cli_seed(self, k: int) -> int:
        return self.seed * 100_000 + k

    def round_ops(self, index: int) -> list[Op]:
        calls = self.size["cli_calls_per_round"]

        def single(k: int) -> Callable[[], int]:
            def op() -> int:
                seed = self._cli_seed(k)
                data = self.sample_cli(self.checkpoint, self.config, self.work / "out", seed, seed % 8)
                if index == 0:
                    self.latents.append(data)
                elif data != self.latents[k]:
                    self.unrepeatable.add(k)
                return 1
            return op

        def batch() -> int:
            b = self.size["batch"]
            cid = index % self.denoiser.n_conditions
            gs = diffusion.GuidanceSchedule(
                c1=("text", self.denoiser.view_of(cid, "text")), c2=("full", cid),
                w_low=W_LOW, w_high=W_HIGH, t1=T1, T=T_STEPS,
            )
            z0 = diffusion.sample_progressive(self.denoiser, gs, self.sched,
                                              self.rng.standard_normal((b, 4)), rng=self.rng)
            self.batch_ok = z0.shape == (b, 4) and bool(np.all(np.isfinite(z0)))
            return b

        return [Op(f"sample{k}", single(k), "latency") for k in range(calls)] + [Op("batch", batch, "throughput")]

    def digests(self) -> dict[str, str]:
        if not self.latents:
            for op in self.round_ops(0)[:-1]:
                op.fn()
        ckpt, cfg = self._train(self.work / "reference", 0, REFERENCE_TRAIN_STEPS)
        ref = b"".join(self.sample_cli(ckpt, cfg, self.work / "reference" / "out", s, s % 8)
                       for s in range(REFERENCE_SAMPLES))
        key = (f"diffusion/seed={self.seed},steps={self.size['steps_per_stage']},"
               f"calls={self.size['cli_calls_per_round']}")
        return {
            key: hashlib.sha256(b"".join(self.latents)).hexdigest(),
            "diffusion/reference": hashlib.sha256(ref).hexdigest(),
        }

    def check(self, golden: dict[str, str] | None) -> list[str]:
        problems = compare_digests(self.digests(), golden, "diffusion")
        if not getattr(self, "batch_ok", False):
            problems.append("diffusion: batched latents missing, misshapen or non-finite")
        seed = self._cli_seed(0)
        data = self.sample_cli(self.checkpoint, self.config, self.work / "out", seed, seed % 8)
        if self.unrepeatable or data != self.latents[0]:
            problems.append("diffusion: repeating a sample call changed its latents")
        problems += oracle_check(np.random.default_rng([self.seed, 5]))
        return problems

    def instrument(self, tracer: Tracer) -> None:
        super().instrument(tracer)

        def trace_predict(load: Callable[[Any], Any]) -> Callable[[Any], Any]:
            def load_traced(path: Any) -> Any:
                den = load(path)
                den.predict = tracer.traced("toytrain.predict", den.predict)
                return den
            return load_traced

        tracer.patch(cli, "load_checkpoint", trace_predict)
        if hasattr(self, "denoiser"):
            tracer.wrap(self.denoiser, "predict", "toytrain.predict")

    def trace_points(self) -> list[tuple[Any, str, str]]:
        return [
            (cli, "load_config", "config.load_config"),
            (cli, "load_checkpoint", "toytrain.load_checkpoint"),
            (cli, "sample_progressive", "diffusion.sample_progressive"),
            (diffusion, "sample_progressive", "diffusion.sample_batch"),
            (toytrain, "train_toy_denoiser", "toytrain.train"),
            (toytrain, "save_checkpoint", "toytrain.save_checkpoint"),
            (toytrain, "load_checkpoint", "toytrain.load_checkpoint"),
        ]


def oracle_check(rng: np.random.Generator, batch: int = 4000) -> list[str]:
    """A Gaussian-oracle batch under the workload's two-phase policy must
    match the closed-form mean and variance within 6 standard errors."""
    sched = diffusion.cosine_schedule(T_STEPS)
    prior = (np.zeros(4), 1.0)
    c1 = (np.full(4, 0.5), 2.0)
    c2 = (np.array([2.0, -1.0, 0.5, 0.0]), 0.25)
    den = diffusion.GaussianOracleDenoiser(prior=diffusion.GaussianCondition(*prior), sched=sched)
    gs = diffusion.GuidanceSchedule(
        c1=diffusion.GaussianCondition(*c1), c2=diffusion.GaussianCondition(*c2),
        w_low=W_LOW, w_high=W_HIGH, t1=T1, T=T_STEPS,
    )
    z0 = diffusion.sample_progressive(den, gs, sched, rng.standard_normal((batch, 4)), rng=rng)
    mean, var = reference.oracle_moments(sched.alpha_bar, prior, c1, c2, W_LOW, W_HIGH, T1)
    problems = []
    if np.any(np.abs(z0.mean(axis=0) - mean) > 6 * np.sqrt(var / batch)):
        problems.append(f"diffusion: oracle batch mean {z0.mean(axis=0)} != closed form {mean}")
    if np.any(np.abs(z0.var(axis=0, ddof=1) - var) > 6 * var * np.sqrt(2 / (batch - 1))):
        problems.append(f"diffusion: oracle batch variance {z0.var(axis=0, ddof=1)} != closed form {var}")
    return problems


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Simulate, DatasetRead, MatchDense, Diffusion)
}
