"""Synthetic demo pools: small harmonic-tone "utterances" and colored-noise
backgrounds, written as real WAV files with JSONL manifests.

These exist so the pipeline runs end to end without shipping recordings.
The clips deliberately mix sample rates and include one stereo file to
exercise the preprocessing path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, write_wav
from .diffusion import _is_int
from .manifest import write_jsonl_atomic

__all__ = ["DEMO_SENTENCES", "build_demo_pools"]

# Transcripts are drawn from this list; every word is in the bundled lexicon.
DEMO_SENTENCES = (
    "the weather is fine today",
    "please close the door",
    "we are going home now",
    "it's been raining all day",
    "good morning how are you",
    "thank you very much",
    "see you tomorrow then",
    "the train leaves at noon",
    "dinner is almost ready",
    "the birds sing every morning",
    "can you hear the river",
    "that sounds like a good plan",
)

_BACKGROUND_CAPTIONS = (
    "Rain falling on a roof",
    "Wind moving through trees",
    "A busy street with traffic",
    "A quiet room with a fan humming",
    "Waves breaking on a beach",
    "A crowded market",
    "Birds calling in a forest",
    "A refrigerator humming in a kitchen",
)


def _tone_utterance(rng: np.random.Generator, f0: float, duration: float, rate: int) -> np.ndarray:
    """Bandlimited harmonic tone with a slow amplitude wobble and soft edges."""
    n = int(round(duration * rate))
    t = np.arange(n) / rate
    x = np.zeros(n)
    for h, w in ((1, 1.0), (2, 0.5), (3, 0.25)):
        x += w * np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi))
    x *= 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t)
    x += 0.01 * rng.standard_normal(n)
    x *= 0.25 / np.max(np.abs(x))
    edge = max(1, int(0.01 * rate))
    ramp = np.linspace(0.0, 1.0, edge)
    x[:edge] *= ramp
    x[-edge:] *= ramp[::-1]
    return x


def _colored_noise(rng: np.random.Generator, n: int, smooth: int) -> np.ndarray:
    """Low-passed noise: a moving average reddens the white source."""
    white = rng.standard_normal(n + smooth)
    kernel = np.ones(smooth) / smooth
    x = np.convolve(white, kernel, mode="valid")[:n]
    return 0.08 * x / np.max(np.abs(x))


def build_demo_pools(
    root: str | Path,
    n_speakers: int = 6,
    utterances_per_speaker: int = 10,
    n_backgrounds: int = 8,
    seed: int = 0,
) -> tuple[Path, Path]:
    """Write demo speech/background WAVs plus manifests under ``root``.

    Returns (speech_manifest_path, background_manifest_path).  Deterministic
    for a given seed.  Speaker genders rotate male / female / unspecified.
    Raises ValueError, before writing anything, for a count or a seed that
    is not a Python or numpy integer (a bool is not), a count below 1 or a
    negative seed.
    """
    for name, value, least in (("n_speakers", n_speakers, 1),
                               ("utterances_per_speaker", utterances_per_speaker, 1),
                               ("n_backgrounds", n_backgrounds, 1), ("seed", seed, 0)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    root = Path(root)
    (root / "speech").mkdir(parents=True, exist_ok=True)
    (root / "background").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    speech_rows = []
    for s in range(n_speakers):
        speaker_id = f"spk{s:02d}"
        gender = ("male", "female", None)[s % 3]
        f0 = 90.0 + 170.0 * s / max(1, n_speakers - 1)
        rate = (SAMPLE_RATE, 22050)[s % 2]
        for u in range(utterances_per_speaker):
            duration = float(rng.uniform(0.7, 2.0))
            x = _tone_utterance(rng, f0, duration, rate)
            if s == 0 and u == 0:  # one stereo file to cover downmixing
                x = np.stack([x, x * 0.8], axis=1)
            rel = f"speech/{speaker_id}_{u:03d}.wav"
            write_wav(root / rel, x, rate)
            row = {
                "path": rel,
                "speaker_id": speaker_id,
                "transcript": DEMO_SENTENCES[(s * utterances_per_speaker + u) % len(DEMO_SENTENCES)],
            }
            if gender is not None:
                row["gender"] = gender
            speech_rows.append(row)

    background_rows = []
    for b in range(n_backgrounds):
        duration = float(rng.uniform(10.0, 12.0))
        rate = (SAMPLE_RATE, 22050)[b % 2]
        x = _colored_noise(rng, int(round(duration * rate)), smooth=8 + 6 * (b % 4))
        rel = f"background/bg{b:02d}.wav"
        write_wav(root / rel, x, rate)
        background_rows.append(
            {"path": rel, "caption": _BACKGROUND_CAPTIONS[b % len(_BACKGROUND_CAPTIONS)]}
        )

    speech_manifest = root / "speech_manifest.jsonl"
    background_manifest = root / "background_manifest.jsonl"
    write_jsonl_atomic(speech_manifest, speech_rows)
    write_jsonl_atomic(background_manifest, background_rows)
    return speech_manifest, background_manifest
