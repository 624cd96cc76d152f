"""Scene simulation: draw a speech scenario, place utterances on a timeline,
mix them over a captioned background, and emit the aligned structured prompt.

A scene is one 10 s clip.  Scenarios are monologue (one speaker) or dialogue
(two to four speakers); utterances never overlap, and free time is spread
across the gaps with a flat Dirichlet so placements vary but stay legal.
They do not overlap at the sample level either: ``mix_at_snr`` refuses
overlapping segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio import (
    CLIP_SAMPLES,
    CLIP_SECONDS,
    SAMPLE_RATE,
    MixResult,
    mix_at_snr,
    preprocess_clip,
    read_wav,
    resample_to_clip_rate,
    rms,
    to_mono,
)
from .dsl import EventAnnotation, StructuredPrompt, TimeSpan, check_caption, from_annotations
# read_jsonl is unused here but stays bound: the benchmark's simulate
# workload traces scene.read_jsonl (bench/workloads.py)
from .manifest import iter_jsonl, read_jsonl, require_str  # noqa: F401

__all__ = [
    "MIN_UTTERANCE_SECONDS",
    "UTTERANCE_COUNT_TABLE",
    "UtteranceClip",
    "SpeechPool",
    "BackgroundClip",
    "BackgroundPool",
    "load_speech_pool",
    "load_background_pool",
    "ScenePriors",
    "default_utterance_pmf",
    "sample_scenario",
    "sample_utterance_count",
    "arrange_timing",
    "SceneSpec",
    "ComposedScene",
    "compose_scene",
    "derive_scene_seed",
    "speaker_label",
]

MIN_UTTERANCE_SECONDS = 0.05

# Empirical utterance-count histogram the default pmf renormalizes.
UTTERANCE_COUNT_TABLE: Mapping[int, int] = {
    1: 12723,
    2: 6462,
    3: 6284,
    4: 5720,
    5: 4201,
    6: 2328,
    7: 1047,
    8: 456,
}

# Dialogue shape limits.
MAX_DIALOGUE_SPEAKERS = 4
MAX_UTTERANCES_PER_SPEAKER = 4
MAX_TOTAL_UTTERANCES = 8

ARRANGE_RETRIES = 20
# the share of a clip the utterances of one scene may fill
FILL_BUDGET = 0.95

_GENDER_LABELS = {"male": "Man speaking", "female": "Woman speaking"}


def speaker_label(gender: str | None) -> str:
    """Event label for a speaker: gender-specific when known, else generic."""
    if gender is None:
        return "Speech"
    return _GENDER_LABELS.get(gender, "Speech")


@dataclass(eq=False)
class UtteranceClip:
    """One spoken segment, already mono at the clip rate."""

    audio: np.ndarray
    speaker_id: str
    transcript: str

    def __post_init__(self) -> None:
        self.audio = np.asarray(self.audio, dtype=np.float64)
        if self.audio.ndim != 1:
            raise ValueError("utterance audio must be 1-D")
        if self.duration < MIN_UTTERANCE_SECONDS:
            raise ValueError(
                f"utterance shorter than {MIN_UTTERANCE_SECONDS} s: {self.duration:.4f} s"
            )
        if self.duration > CLIP_SECONDS:
            raise ValueError(f"utterance longer than the {CLIP_SECONDS} s clip: {self.duration:.2f} s")
        if not self.transcript.strip():
            raise ValueError("utterance transcript is empty")

    @property
    def duration(self) -> float:
        return self.audio.shape[0] / SAMPLE_RATE


@dataclass(eq=False)
class SpeechPool:
    """Utterances grouped by speaker, with optional per-speaker gender."""

    by_speaker: dict[str, list[UtteranceClip]]
    speaker_gender: dict[str, str | None]

    @property
    def speakers(self) -> list[str]:
        return sorted(self.by_speaker)

    def __len__(self) -> int:
        return sum(len(v) for v in self.by_speaker.values())


@dataclass(frozen=True, eq=False)
class BackgroundClip:
    """One background bed; ``audio_rms`` is ``rms(audio)``, computed once
    here so every scene mixed over this bed reuses it.  Frozen, so the
    cached value cannot drift from a reassigned ``audio``."""

    clip_id: str
    audio: np.ndarray
    caption: str
    audio_rms: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "audio_rms", rms(self.audio))


@dataclass(eq=False)
class BackgroundPool:
    clips: list[BackgroundClip]

    def __len__(self) -> int:
        return len(self.clips)


def _read_pool_wav(path: Path, where: str) -> tuple[int, np.ndarray]:
    try:
        return read_wav(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{where}: cannot read WAV file {path}: {exc}") from exc


def load_speech_pool(manifest_path: str | Path) -> SpeechPool:
    """Load utterances from a JSONL manifest of {path, speaker_id, transcript,
    gender?} rows.  Paths resolve relative to the manifest; audio is downmixed
    and resampled at load so composition never touches the filesystem.  A
    field that is not a string, or an utterance that is silent, outside
    0.05-10 s or without a transcript, is an error naming the manifest
    line."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    by_speaker: dict[str, list[UtteranceClip]] = {}
    genders: dict[str, str | None] = {}
    for where, rec in iter_jsonl(manifest_path):
        rel = require_str(rec, "path", where)
        speaker = require_str(rec, "speaker_id", where)
        transcript = require_str(rec, "transcript", where)
        gender = rec.get("gender")
        if gender is not None and not (isinstance(gender, str) and gender in _GENDER_LABELS):
            raise ValueError(f"{where}: unknown gender {gender!r}")
        if speaker in genders and genders[speaker] != gender:
            raise ValueError(f"{where}: conflicting gender for speaker {speaker!r}")
        rate, raw = _read_pool_wav(root / rel, where)
        audio = resample_to_clip_rate(to_mono(raw), rate)
        if rms(audio) == 0.0:
            raise ValueError(f"{where}: utterance {root / rel} is silent")
        try:
            clip = UtteranceClip(audio=audio, speaker_id=speaker, transcript=transcript)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        by_speaker.setdefault(speaker, []).append(clip)
        genders[speaker] = gender
    if not by_speaker:
        raise ValueError(f"{manifest_path}: empty speech manifest")
    return SpeechPool(by_speaker=by_speaker, speaker_gender=genders)


def load_background_pool(manifest_path: str | Path) -> BackgroundPool:
    """Load 10 s background beds from a JSONL manifest of {path, caption}
    rows.  Long recordings keep their head; short ones are zero-padded.
    A caption the prompt grammar cannot carry, or a bed that is silent
    over its 10 s, is an error naming the manifest line."""
    manifest_path = Path(manifest_path)
    root = manifest_path.parent
    clips: list[BackgroundClip] = []
    for where, rec in iter_jsonl(manifest_path):
        rel = require_str(rec, "path", where)
        caption = require_str(rec, "caption", where)
        if not caption.strip():
            raise ValueError(f"{where}: empty caption")
        check_caption(caption, f"{where}: caption")
        rate, raw = _read_pool_wav(root / rel, where)
        clip = BackgroundClip(clip_id=rel, audio=preprocess_clip(raw, rate), caption=caption)
        if clip.audio_rms == 0.0:
            raise ValueError(f"{where}: background {root / rel} is silent over the clip")
        clips.append(clip)
    if not clips:
        raise ValueError(f"{manifest_path}: empty background manifest")
    return BackgroundPool(clips=clips)


def default_utterance_pmf() -> dict[int, float]:
    total = sum(UTTERANCE_COUNT_TABLE.values())
    return {k: v / total for k, v in sorted(UTTERANCE_COUNT_TABLE.items())}


@dataclass(frozen=True)
class ScenePriors:
    """Sampling distributions for scene composition.  Utterance counts are
    integers in 1..MAX_TOTAL_UTTERANCES; a dialogue redraws counts below 2."""

    p_single_speaker: float = 0.791
    utterance_count_pmf: Mapping[int, float] = field(default_factory=default_utterance_pmf)
    snr_range_db: tuple[float, float] = (2.0, 10.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_single_speaker <= 1.0:
            raise ValueError(f"p_single_speaker out of [0, 1]: {self.p_single_speaker}")
        pmf = dict(self.utterance_count_pmf)
        for k, p in pmf.items():
            if not (type(k) is int and 1 <= k <= MAX_TOTAL_UTTERANCES):
                raise ValueError(f"utterance counts are integers in 1..{MAX_TOTAL_UTTERANCES}, not {k!r}")
            if not 0.0 <= p < np.inf:
                raise ValueError(f"utterance_count_pmf[{k}] must be finite and >= 0, got {p}")
        if abs(sum(pmf.values()) - 1.0) > 1e-9:
            raise ValueError(f"utterance_count_pmf sums to {sum(pmf.values())!r}, not 1")
        if self.p_single_speaker < 1.0 and not any(p > 0 for k, p in pmf.items() if k >= 2):
            raise ValueError(
                f"p_single_speaker {self.p_single_speaker} asks for dialogues, but "
                "utterance_count_pmf puts no mass on 2 or more utterances"
            )
        lo, hi = self.snr_range_db
        if not -np.inf < lo <= hi < np.inf:
            raise ValueError(f"snr_range_db must be finite with lo <= hi, got {self.snr_range_db}")
        object.__setattr__(self, "utterance_count_pmf", pmf)


def sample_scenario(priors: ScenePriors, rng: np.random.Generator) -> str:
    return "monologue" if rng.random() < priors.p_single_speaker else "dialogue"


def sample_utterance_count(priors: ScenePriors, rng: np.random.Generator) -> int:
    counts = sorted(priors.utterance_count_pmf)
    probs = [priors.utterance_count_pmf[k] for k in counts]
    return counts[rng.choice(len(counts), p=probs)]


def arrange_timing(
    utterances: Sequence[UtteranceClip],
    rng: np.random.Generator,
) -> list[tuple[UtteranceClip, float]]:
    """Place utterances on the timeline without overlap, in random order,
    spreading the leftover time over the gaps with a flat Dirichlet.

    Raises ValueError when total duration exceeds FILL_BUDGET of the clip;
    callers treat that as a redraw signal.  Returns placements in
    chronological order.
    """
    utterances = list(utterances)
    if not utterances:
        return []
    total = sum(u.duration for u in utterances)
    if total > FILL_BUDGET * CLIP_SECONDS:
        raise ValueError(
            f"utterances fill {total:.2f} s of a {CLIP_SECONDS:.2f} s clip "
            f"(budget {FILL_BUDGET * CLIP_SECONDS:.2f} s)"
        )
    order = rng.permutation(len(utterances))
    gaps = rng.dirichlet(np.ones(len(utterances) + 1)) * (CLIP_SECONDS - total)
    placements: list[tuple[UtteranceClip, float]] = []
    t = 0.0
    for idx, gap in zip(order, gaps[:-1]):
        u = utterances[int(idx)]
        t += float(gap)
        start = min(max(t, 0.0), CLIP_SECONDS - u.duration)
        placements.append((u, start))
        t = start + u.duration
    return placements


@dataclass(eq=False)
class SceneSpec:
    """Everything needed to describe (and reproduce) one composed scene."""

    scenario: str
    placements: list[tuple[UtteranceClip, float]]
    background_id: str
    snr_db: float
    seed: int


@dataclass(eq=False)
class ComposedScene:
    waveform: np.ndarray
    prompt: StructuredPrompt
    annotations: list[EventAnnotation]
    spec: SceneSpec
    mix: MixResult


def _draw_speaker(
    pool: SpeechPool, speakers: Sequence[str], n: int, rng: np.random.Generator
) -> tuple[str, list[UtteranceClip]]:
    """A speaker from ``speakers`` holding at least n clips, and n of its
    clips drawn without replacement.  ValueError, the caller's redraw
    signal, when no speaker holds n clips."""
    eligible = [s for s in speakers if len(pool.by_speaker[s]) >= n]
    if not eligible:
        raise ValueError(f"no speaker has {n} utterances")
    speaker = eligible[int(rng.integers(len(eligible)))]
    clips = pool.by_speaker[speaker]
    return speaker, [clips[int(i)] for i in rng.choice(len(clips), size=n, replace=False)]


def _draw_monologue(pool: SpeechPool, priors: ScenePriors, rng: np.random.Generator) -> list[UtteranceClip]:
    n = sample_utterance_count(priors, rng)
    return _draw_speaker(pool, pool.speakers, n, rng)[1]


def _dialogue_compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """All ways to split n utterances over k ordered speaker slots with
    1..MAX_UTTERANCES_PER_SPEAKER utterances each."""
    slots = itertools.product(range(1, MAX_UTTERANCES_PER_SPEAKER + 1), repeat=k)
    return [comp for comp in slots if sum(comp) == n]


def _draw_dialogue(pool: SpeechPool, priors: ScenePriors, rng: np.random.Generator) -> list[UtteranceClip]:
    for _ in range(1000):
        n = sample_utterance_count(priors, rng)
        if n >= 2:
            break
    else:
        raise RuntimeError("utterance-count pmf never yields 2 or more utterances")
    # compose_scene seats 2+ speakers, and 2 <= k <= n <= 8 <= 4k has a composition
    k = int(rng.integers(2, min(MAX_DIALOGUE_SPEAKERS, n, len(pool.speakers)) + 1))
    comps = _dialogue_compositions(n, k)
    comp = comps[int(rng.integers(len(comps)))]
    remaining = pool.speakers
    chosen: list[UtteranceClip] = []
    for c in comp:
        speaker, clips = _draw_speaker(pool, remaining, c, rng)
        remaining.remove(speaker)
        chosen.extend(clips)
    return chosen


def compose_scene(
    speech_pool: SpeechPool,
    background_pool: BackgroundPool,
    priors: ScenePriors,
    seed: int,
) -> ComposedScene:
    """Compose one fully annotated scene from the pools, deterministically
    for a given seed.

    Draws scenario, utterances, timing, background, and SNR; mixes each
    placed utterance over its own samples of the background; and builds the
    prompt from the background caption plus one annotation per placed
    utterance.  A drawn bed that is not one clip long is an error naming it.
    """
    if len(speech_pool) == 0:
        raise ValueError("speech pool is empty")
    if len(background_pool) == 0:
        raise ValueError("background pool is empty")
    rng = np.random.default_rng(seed)
    scenario = sample_scenario(priors, rng)
    if scenario == "dialogue" and len(speech_pool.speakers) < 2:
        raise ValueError("dialogue scene needs at least 2 speakers in the pool")

    placements: list[tuple[UtteranceClip, float]] | None = None
    for _ in range(ARRANGE_RETRIES):
        try:
            if scenario == "monologue":
                utts = _draw_monologue(speech_pool, priors, rng)
            else:
                utts = _draw_dialogue(speech_pool, priors, rng)
            placements = arrange_timing(utts, rng)
        except ValueError:
            continue
        break
    if placements is None:
        raise RuntimeError(
            f"could not arrange a {scenario} scene in {ARRANGE_RETRIES} draws; "
            "the pool may lack short enough utterances"
        )

    bg = background_pool.clips[int(rng.integers(len(background_pool.clips)))]
    lo, hi = priors.snr_range_db
    snr_db = float(rng.uniform(lo, hi))

    if bg.audio.shape != (CLIP_SAMPLES,):
        raise ValueError(f"background bed {bg.clip_id!r} has shape {bg.audio.shape}, "
                         f"not one {CLIP_SAMPLES}-sample clip")
    segments: list[tuple[int, np.ndarray]] = []
    annotations: list[EventAnnotation] = []
    for clip, start in placements:
        i0 = min(int(round(start * SAMPLE_RATE)), CLIP_SAMPLES - clip.audio.shape[0])
        segments.append((i0, clip.audio))
        gender = speech_pool.speaker_gender.get(clip.speaker_id)
        annotations.append(
            EventAnnotation(
                label=speaker_label(gender),
                span=TimeSpan(start, start + clip.duration),
                transcript=clip.transcript,
            )
        )
    mix = mix_at_snr(segments, bg.audio, snr_db, background_rms=bg.audio_rms)
    prompt = from_annotations(bg.caption, annotations)
    spec = SceneSpec(
        scenario=scenario,
        placements=placements,
        background_id=bg.clip_id,
        snr_db=snr_db,
        seed=seed,
    )
    return ComposedScene(
        waveform=mix.waveform, prompt=prompt, annotations=annotations, spec=spec, mix=mix
    )


def derive_scene_seed(dataset_seed: int, index: int) -> int:
    """Independent per-scene seed from a dataset seed and scene index."""
    ss = np.random.SeedSequence(entropy=dataset_seed, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
