"""Waveform utilities: 16 kHz mono clip preprocessing, SNR-targeted mixing,
and 16-bit PCM WAV I/O."""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from soundscene.dsl import DEFAULT_CLIP_SECONDS as CLIP_SECONDS

__all__ = [
    "SAMPLE_RATE",
    "CLIP_SECONDS",
    "CLIP_SAMPLES",
    "rms",
    "preprocess_clip",
    "resample_to_clip_rate",
    "MixResult",
    "mix_at_snr",
    "read_wav",
    "write_wav",
]

SAMPLE_RATE = 16000
CLIP_SAMPLES = int(SAMPLE_RATE * CLIP_SECONDS)


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


@functools.cache
def _resampling_filter(up: int, down: int) -> np.ndarray:
    """The low-pass FIR ``resample_poly`` designs by default for (up, down):
    a Kaiser-windowed sinc (beta 5) of 20 * max(up, down) + 1 taps."""
    from scipy.signal import firwin

    max_rate = max(up, down)
    h = firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.flags.writeable = False  # shared by every call with this (up, down)
    return h


def resample_to_clip_rate(audio: np.ndarray, source_rate: int) -> np.ndarray:
    """Windowed-sinc polyphase resampling to the 16 kHz clip rate.

    The output equals ``scipy.signal.resample_poly`` with its default
    window bit for bit; the filter is designed once per (up, down) pair and
    passed as ``window``, which scipy copies and uses unchanged.
    """
    if source_rate <= 0:
        raise ValueError(f"source_rate must be positive, got {source_rate}")
    if source_rate == SAMPLE_RATE:
        return np.asarray(audio, dtype=np.float64)
    # imported here: scipy.signal takes about a second to import, and only
    # resampling needs it
    from scipy.signal import resample_poly

    g = math.gcd(SAMPLE_RATE, int(source_rate))
    up, down = SAMPLE_RATE // g, source_rate // g
    h = _resampling_filter(up, down)
    return resample_poly(np.asarray(audio, dtype=np.float64), up, down, window=h)


def preprocess_clip(audio: np.ndarray, source_rate: int) -> np.ndarray:
    """Normalize any input recording to one 10 s mono clip at 16 kHz.

    Long inputs keep their first 10 s; short ones right-pad with zeros.
    """
    x = to_mono(audio)
    if x.size == 0:
        raise ValueError("empty input audio")
    x = resample_to_clip_rate(x, source_rate)
    n = x.shape[0]
    if n >= CLIP_SAMPLES:
        return x[:CLIP_SAMPLES].copy()
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
    active: np.ndarray,
    background_rms: float,
) -> MixResult:
    """Mix speech over background at a target speech-active SNR.

    The background gain is rms(speech over the ``active`` samples) divided
    by background_rms * 10^(snr_db/20): speech RMS intentionally counts
    only the active region, while ``background_rms`` is the caller's
    ``rms(background)`` over the full clip, so a background mixed into many
    scenes has it computed once.  If the sum would clip beyond full scale,
    the output is peak-normalized to 0.95.  The waveform is always a fresh
    array.
    """
    speech = np.asarray(speech, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    if speech.ndim != 1 or background.ndim != 1:
        raise ValueError("mix_at_snr wants 1-D signals")
    if speech.shape != background.shape:
        raise ValueError(
            f"length mismatch: speech {speech.shape[0]}, background {background.shape[0]}"
        )
    active = np.asarray(active, dtype=bool)
    if active.shape != speech.shape:
        raise ValueError("active mask must match the signal length")
    if not active.any():
        raise ValueError("speech-active region is empty")
    s_rms = rms(speech[active])
    if s_rms == 0.0:
        raise ValueError("silent speech over the active region")
    if not (math.isfinite(background_rms) and background_rms > 0.0):
        raise ValueError(f"background RMS must be finite and positive, got {background_rms}")
    gain = s_rms / (background_rms * 10.0 ** (snr_db / 20.0))
    # gain * background + speech: one fresh array, no temporaries
    mix = np.multiply(background, gain)
    mix += speech
    peak = max(float(mix.max()), -float(mix.min()))
    norm = 1.0
    if peak > 1.0:
        norm = 0.95 / peak
        mix *= norm
    return MixResult(waveform=mix, background_gain=gain, peak_norm=norm)


def read_wav(path: str | Path) -> tuple[int, np.ndarray]:
    """(rate, float64 audio in [-1, 1]); stereo stays (frames, channels).
    A floating-point file with a NaN or infinite sample is an error."""
    # imported here: scipy.io pulls in scipy.sparse, and only reading needs it
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        audio = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        audio = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        audio = (data.astype(np.float64) - 128.0) / 128.0
    else:  # float32/float64 files are already in [-1, 1]
        audio = data.astype(np.float64)
        if not np.isfinite(audio).all():
            raise ValueError("non-finite sample in a floating-point WAV")
    return int(rate), audio


def write_wav(path: str | Path, audio: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Write 16-bit PCM: round(clip(audio, -1, 1) * 32767), half to even.
    1-D audio is mono, (frames, channels) audio interleaves its channels."""
    pcm = np.clip(np.asarray(audio, dtype=np.float64), -1.0, 1.0)
    if pcm.ndim not in (1, 2):
        raise ValueError(f"expected 1-D or (frames, channels) audio, got shape {pcm.shape}")
    pcm *= 32767.0
    np.rint(pcm, out=pcm)
    # native byte order: wave swaps to little-endian itself; the row-major
    # ravel of a (frames, channels) array is its interleaved frames
    frames = pcm.astype(np.int16)
    channels = 1 if frames.ndim == 1 else frames.shape[1]
    with open(path, "wb") as f, wave.open(f, "wb") as w:
        w.setparams((channels, 2, rate, frames.shape[0], "NONE", "not compressed"))
        w.writeframes(frames.ravel())
