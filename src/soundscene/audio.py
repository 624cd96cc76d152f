"""Waveform utilities: 16 kHz mono clip preprocessing, SNR-targeted mixing,
and 16-bit PCM WAV I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from soundscene.dsl import DEFAULT_CLIP_SECONDS as CLIP_SECONDS

__all__ = [
    "SAMPLE_RATE",
    "CLIP_SECONDS",
    "CLIP_SAMPLES",
    "rms",
    "preprocess_clip",
    "MixResult",
    "mix_at_snr",
    "read_wav",
    "write_wav",
]

SAMPLE_RATE = 16000
CLIP_SAMPLES = int(SAMPLE_RATE * CLIP_SECONDS)

PREPROCESS_MODES = ("pad_crop_head", "pad_crop_random")


def rms(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("rms of an empty signal")
    return float(np.sqrt(np.mean(np.square(x))))


def to_mono(audio: np.ndarray) -> np.ndarray:
    """Average (frames, channels) down to (frames,)."""
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim == 1:
        return audio
    if audio.ndim == 2:
        return audio.mean(axis=1)
    raise ValueError(f"expected 1-D or (frames, channels) audio, got shape {audio.shape}")


def resample_to_clip_rate(audio: np.ndarray, source_rate: int) -> np.ndarray:
    """Windowed-sinc polyphase resampling to the 16 kHz clip rate."""
    if source_rate <= 0:
        raise ValueError(f"source_rate must be positive, got {source_rate}")
    if source_rate == SAMPLE_RATE:
        return np.asarray(audio, dtype=np.float64)
    # imported here: scipy.signal takes about a second to import, and only
    # resampling needs it
    from scipy.signal import resample_poly

    g = math.gcd(SAMPLE_RATE, int(source_rate))
    return resample_poly(np.asarray(audio, dtype=np.float64), SAMPLE_RATE // g, source_rate // g)


def preprocess_clip(
    audio: np.ndarray,
    source_rate: int,
    mode: str = "pad_crop_head",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Normalize any input recording to one 10 s mono clip at 16 kHz.

    Long inputs crop (head, or a random 10 s segment under
    ``pad_crop_random``); short ones right-pad with zeros.
    """
    if mode not in PREPROCESS_MODES:
        raise ValueError(f"unknown mode {mode!r}, want one of {PREPROCESS_MODES}")
    x = to_mono(audio)
    if x.size == 0:
        raise ValueError("empty input audio")
    x = resample_to_clip_rate(x, source_rate)
    n = x.shape[0]
    if n >= CLIP_SAMPLES:
        if mode == "pad_crop_head" or n == CLIP_SAMPLES:
            return x[:CLIP_SAMPLES].copy()
        if rng is None:
            raise ValueError("pad_crop_random needs an rng")
        start = int(rng.integers(0, n - CLIP_SAMPLES + 1))
        return x[start : start + CLIP_SAMPLES].copy()
    out = np.zeros(CLIP_SAMPLES, dtype=np.float64)
    out[:n] = x
    return out


@dataclass(frozen=True)
class MixResult:
    """Mixed waveform plus the applied background gain and, when clipping
    forced it, the peak-normalization factor (1.0 otherwise)."""

    waveform: np.ndarray
    background_gain: float
    peak_norm: float


def mix_at_snr(
    speech: np.ndarray,
    background: np.ndarray,
    snr_db: float,
    active: np.ndarray | None = None,
) -> MixResult:
    """Mix speech over background at a target speech-active SNR.

    The background gain is rms(speech over active samples) divided by
    rms(background) * 10^(snr_db/20); speech RMS intentionally counts only
    the active region (the whole clip when ``active`` is None), background
    RMS the full clip.  If the sum would clip beyond full scale, the output
    is peak-normalized to 0.95.
    """
    speech = np.asarray(speech, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if speech.ndim != 1 or background.ndim != 1:
        raise ValueError("mix_at_snr wants 1-D signals")
    if speech.shape != background.shape:
        raise ValueError(
            f"length mismatch: speech {speech.shape[0]}, background {background.shape[0]}"
        )
    if active is None:
        active_speech = speech
    else:
        active = np.asarray(active, dtype=bool)
        if active.shape != speech.shape:
            raise ValueError("active mask must match the signal length")
        if not active.any():
            raise ValueError("speech-active region is empty")
        active_speech = speech[active]
    s_rms = rms(active_speech)
    if s_rms == 0.0:
        raise ValueError("silent speech over the active region")
    b_rms = rms(background)
    if b_rms == 0.0:
        raise ValueError("silent background")
    gain = s_rms / (b_rms * 10.0 ** (snr_db / 20.0))
    mix = speech + gain * background
    peak = float(np.max(np.abs(mix)))
    norm = 1.0
    if peak > 1.0:
        norm = 0.95 / peak
        mix = mix * norm
    return MixResult(waveform=mix, background_gain=gain, peak_norm=norm)


def read_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """(rate, float64 audio in [-1, 1]); stereo stays (frames, channels)."""
    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        audio = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        audio = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        audio = (data.astype(np.float64) - 128.0) / 128.0
    else:  # float32/float64 files are already in [-1, 1]
        audio = data.astype(np.float64)
    return int(rate), audio


def write_wav(path: str | Path, audio: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Write 16-bit PCM; values are clipped to [-1, 1] first."""
    x = np.clip(np.asarray(audio, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype(np.int16)
    wavfile.write(path, rate, pcm)
