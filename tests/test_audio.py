import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile
from scipy.signal import resample_poly

from soundscene.audio import (
    CLIP_SAMPLES,
    SAMPLE_RATE,
    mix_at_snr,
    preprocess_clip,
    read_wav,
    resample_to_clip_rate,
    rms,
    to_mono,
    write_wav,
)


class TestRms:
    def test_constant(self):
        assert rms(np.full(100, 0.5)) == pytest.approx(0.5)

    def test_sine(self):
        t = np.arange(16000) / 16000
        x = np.sin(2 * np.pi * 100 * t)
        assert rms(x) == pytest.approx(1 / np.sqrt(2), abs=1e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rms(np.array([]))


class TestToMono:
    def test_passthrough_1d(self):
        x = np.arange(5, dtype=np.float64)
        assert np.array_equal(to_mono(x), x)

    def test_stereo_average(self):
        x = np.stack([np.ones(10), np.zeros(10)], axis=1)
        assert np.allclose(to_mono(x), 0.5)

    def test_3d_raises(self):
        with pytest.raises(ValueError):
            to_mono(np.zeros((4, 2, 2)))


class TestResample:
    def test_exact_length_22050(self):
        # 22050 -> 16000 reduces to 320/441, so one second stays one second
        out = resample_to_clip_rate(np.zeros(22050), 22050)
        assert out.shape == (16000,)

    def test_noop_at_clip_rate(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert np.array_equal(resample_to_clip_rate(x, SAMPLE_RATE), x)

    def test_tone_frequency_preserved(self):
        t = np.arange(2 * 22050) / 22050
        x = np.sin(2 * np.pi * 440 * t)
        y = resample_to_clip_rate(x, 22050)
        assert y.shape == (32000,)
        spectrum = np.abs(np.fft.rfft(y))
        # 2 s window -> 0.5 Hz bins, so 440 Hz lands at bin 880
        assert abs(int(np.argmax(spectrum)) - 880) <= 1

    def test_bad_rate_raises(self):
        with pytest.raises(ValueError):
            resample_to_clip_rate(np.zeros(10), 0)

    @pytest.mark.parametrize("rate", [22050, 44100, 8000])
    def test_bits_match_resample_poly_default_window(self, rate):
        x = np.random.default_rng(rate).standard_normal(3 * rate + 17)
        g = math.gcd(SAMPLE_RATE, rate)
        want = resample_poly(x, SAMPLE_RATE // g, rate // g).tobytes()
        # twice: the second call reuses the designed filter
        assert resample_to_clip_rate(x, rate).tobytes() == want
        assert resample_to_clip_rate(x, rate).tobytes() == want


class TestPreprocessClip:
    def test_pad_short_input(self):
        x = np.ones(SAMPLE_RATE)
        out = preprocess_clip(x, SAMPLE_RATE)
        assert out.shape == (CLIP_SAMPLES,)
        assert np.array_equal(out[:SAMPLE_RATE], x)
        assert not out[SAMPLE_RATE:].any()

    def test_head_crop_long_input(self):
        x = np.arange(11 * SAMPLE_RATE, dtype=np.float64)
        out = preprocess_clip(x, SAMPLE_RATE)
        assert np.array_equal(out, x[:CLIP_SAMPLES])

    def test_exact_length_passthrough(self):
        x = np.random.default_rng(1).standard_normal(CLIP_SAMPLES)
        out = preprocess_clip(x, SAMPLE_RATE)
        assert np.array_equal(out, x)

    def test_stereo_is_downmixed(self):
        x = np.stack([np.ones(SAMPLE_RATE), np.zeros(SAMPLE_RATE)], axis=1)
        out = preprocess_clip(x, SAMPLE_RATE)
        assert np.allclose(out[:SAMPLE_RATE], 0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            preprocess_clip(np.array([]), SAMPLE_RATE)


def _everywhere(signal):
    """An active mask covering the whole signal."""
    return np.ones(signal.shape, dtype=bool)


class TestMixAtSnr:
    def test_gain_oracle(self):
        # rms 0.1 speech over rms 0.2 background at 6 dB:
        # g = 0.1 / (0.2 * 10^0.3) = 0.2505937
        speech = np.full(1000, 0.1)
        background = np.tile([0.2, -0.2], 500)
        res = mix_at_snr(speech, background, 6.0, _everywhere(speech), rms(background))
        assert res.background_gain == pytest.approx(0.2505937, abs=1e-6)
        assert res.peak_norm == 1.0
        assert np.allclose(res.waveform, speech + res.background_gain * background)

    def test_measured_snr_matches_target(self):
        rng = np.random.default_rng(3)
        speech = 0.1 * rng.standard_normal(4000)
        background = 0.05 * rng.standard_normal(4000)
        active = np.zeros(4000, dtype=bool)
        active[500:2500] = True
        speech[~active] = 0.0
        res = mix_at_snr(speech, background, 7.3, active, rms(background))
        measured = 20 * np.log10(rms(speech[active]) / rms(res.background_gain * background))
        assert measured == pytest.approx(7.3, abs=1e-9)

    def test_active_mask_changes_gain(self):
        speech = np.concatenate([np.full(100, 0.4), np.zeros(100)])
        background = np.full(200, 0.1)
        active = np.concatenate([np.ones(100, dtype=bool), np.zeros(100, dtype=bool)])
        b_rms = rms(background)
        g_masked = mix_at_snr(speech, background, 5.0, active, b_rms).background_gain
        g_full = mix_at_snr(speech, background, 5.0, _everywhere(speech), b_rms).background_gain
        # full-clip rms counts the silence, so the full-clip gain is smaller
        assert g_masked == pytest.approx(g_full * np.sqrt(2), rel=1e-9)

    def test_peak_normalization(self):
        speech = np.full(100, 0.9)
        background = np.full(100, 1.0)
        res = mix_at_snr(speech, background, 0.0, _everywhere(speech), rms(background))
        assert res.peak_norm < 1.0
        assert np.max(np.abs(res.waveform)) == pytest.approx(0.95, abs=1e-12)
        raw = speech + res.background_gain * background
        assert np.allclose(res.waveform, raw * res.peak_norm)

    def test_no_normalization_below_full_scale(self):
        speech = np.full(100, 0.1)
        background = np.tile([0.1, -0.1], 50)
        res = mix_at_snr(speech, background, 10.0, _everywhere(speech), rms(background))
        assert res.peak_norm == 1.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length"):
            mix_at_snr(np.ones(10), np.ones(11), 5.0, np.ones(10, dtype=bool), 1.0)

    def test_silent_background_raises(self):
        with pytest.raises(ValueError, match="background"):
            mix_at_snr(np.ones(10), np.zeros(10), 5.0, np.ones(10, dtype=bool), rms(np.zeros(10)))

    def test_silent_speech_raises(self):
        with pytest.raises(ValueError, match="speech"):
            mix_at_snr(np.zeros(10), np.ones(10), 5.0, np.ones(10, dtype=bool), 1.0)

    def test_empty_active_mask_raises(self):
        with pytest.raises(ValueError, match="active"):
            mix_at_snr(np.ones(10), np.ones(10), 5.0, np.zeros(10, dtype=bool), 1.0)

    def test_mask_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mask"):
            mix_at_snr(np.ones(10), np.ones(10), 5.0, np.ones(9, dtype=bool), 1.0)

    def test_2d_raises(self):
        with pytest.raises(ValueError):
            mix_at_snr(np.ones((10, 2)), np.ones((10, 2)), 5.0, np.ones((10, 2), dtype=bool), 1.0)

    @staticmethod
    def _reference_mix(speech, background, snr_db, active):
        """The mixer as first written: fresh arrays on every pass."""
        s_rms = rms(speech[active])
        gain = s_rms / (rms(background) * 10.0 ** (snr_db / 20.0))
        mix = speech + gain * background
        peak = float(np.max(np.abs(mix)))
        norm = 0.95 / peak if peak > 1.0 else 1.0
        return (mix * norm if peak > 1.0 else mix), gain, norm

    @pytest.mark.parametrize("speech_amp", [0.1, 3.0])  # without and with peak normalization
    def test_cached_background_rms_matches_recomputed(self, speech_amp):
        rng = np.random.default_rng(11)
        speech = speech_amp * rng.standard_normal(CLIP_SAMPLES)
        background = 0.2 * rng.standard_normal(CLIP_SAMPLES)
        active = np.zeros(CLIP_SAMPLES, dtype=bool)
        active[1000:90000] = True
        speech[~active] = 0.0
        kept = background.tobytes(), speech.tobytes()
        res = mix_at_snr(speech, background, 4.2, active, rms(background))
        wave, gain, norm = self._reference_mix(speech, background, 4.2, active)
        assert (speech_amp > 1.0) == (norm < 1.0)
        assert res.waveform.tobytes() == wave.tobytes()
        assert (res.background_gain, res.peak_norm) == (gain, norm)
        assert not np.shares_memory(res.waveform, background)
        assert not np.shares_memory(res.waveform, speech)
        assert (background.tobytes(), speech.tobytes()) == kept

    @pytest.mark.parametrize("b_rms", [0.0, float("nan"), float("inf"), -0.5])
    def test_cached_silent_background_raises(self, b_rms):
        with pytest.raises(ValueError, match="background"):
            mix_at_snr(np.ones(10), np.ones(10), 5.0, np.ones(10, dtype=bool), b_rms)


class TestWavIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = 0.5 * rng.uniform(-1, 1, size=3000)
        path = tmp_path / "a.wav"
        write_wav(path, x)
        rate, y = read_wav(path)
        assert rate == SAMPLE_RATE
        assert y.shape == x.shape
        assert np.max(np.abs(y - x)) < 5e-5

    def test_custom_rate(self, tmp_path):
        path = tmp_path / "b.wav"
        write_wav(path, np.zeros(100), rate=22050)
        rate, _ = read_wav(path)
        assert rate == 22050

    def test_stereo_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = 0.3 * rng.uniform(-1, 1, size=(500, 2))
        path = tmp_path / "c.wav"
        write_wav(path, x)
        _, y = read_wav(path)
        assert y.shape == (500, 2)
        assert np.max(np.abs(y - x)) < 5e-5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_raises(self, tmp_path, bad):
        x = np.full(100, 0.25, dtype=np.float32)
        x[7] = bad
        path = tmp_path / "f.wav"
        wavfile.write(path, SAMPLE_RATE, x)
        with pytest.raises(ValueError, match="non-finite"):
            read_wav(path)

    def test_finite_float_wav_reads_unscaled(self, tmp_path):
        x = np.array([0.25, -0.5, 1.0], dtype=np.float32)
        wavfile.write(tmp_path / "f.wav", 22050, x)
        rate, y = read_wav(tmp_path / "f.wav")
        assert rate == 22050
        assert y.dtype == np.float64 and y.tolist() == [0.25, -0.5, 1.0]

    def test_write_clips_out_of_range(self, tmp_path):
        path = tmp_path / "d.wav"
        write_wav(path, np.array([1.5, -1.5]))
        _, y = read_wav(path)
        assert y[0] == pytest.approx(32767 / 32768)
        assert y[1] == pytest.approx(-32767 / 32768)


def _reference_wav_bytes(audio, rate=SAMPLE_RATE):
    """The writer as first written: clip, scale, round half to even, then
    scipy.io.wavfile.write."""
    pcm = np.round(np.clip(np.asarray(audio, dtype=np.float64), -1.0, 1.0) * 32767.0)
    buf = io.BytesIO()
    wavfile.write(buf, rate, pcm.astype(np.int16))
    return buf.getvalue()


def _half_lsb_ties():
    """Values whose scaled form is exactly k + 0.5, so rounding sees a tie."""
    k = np.arange(-40, 40) + 0.5
    x = k / 32767.0
    x = x[x * 32767.0 == k]
    return np.concatenate([x, [0.5 / 32767.0, -0.5 / 32767.0]])


class TestWriteWavMatchesScipy:
    CASES = {
        "mono": 0.6 * np.random.default_rng(1).uniform(-1, 1, 4001),
        "stereo": 0.6 * np.random.default_rng(2).uniform(-1, 1, (1500, 2)),
        "stereo_fortran": np.asfortranarray(0.6 * np.random.default_rng(3).uniform(-1, 1, (700, 2))),
        "out_of_range": np.array([1.5, -1.5, 1.0, -1.0, 1.0000001, np.inf, -np.inf, 1e308]),
        "half_lsb_ties": _half_lsb_ties(),
        "signed_zero": np.array([-0.0, 0.0, -0.0]),
        "empty": np.zeros(0),
        "float32": np.random.default_rng(4).uniform(-1.2, 1.2, 999).astype(np.float32),
        "list": [0.25, -0.5, 0.75],
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_bytes_equal_reference(self, tmp_path, name):
        audio = self.CASES[name]
        path = tmp_path / "x.wav"
        write_wav(path, audio)
        assert path.read_bytes() == _reference_wav_bytes(audio)

    def test_ties_round_half_to_even(self, tmp_path):
        ties = _half_lsb_ties()
        assert len(ties) > 10
        write_wav(tmp_path / "t.wav", ties)
        _, pcm = wavfile.read(tmp_path / "t.wav")
        assert np.all(pcm % 2 == 0)

    def test_custom_rate_and_str_path(self, tmp_path):
        audio = self.CASES["stereo"]
        path = tmp_path / "r.wav"
        write_wav(str(path), audio, rate=22050)
        assert path.read_bytes() == _reference_wav_bytes(audio, 22050)

    def test_input_left_unchanged(self, tmp_path):
        audio = self.CASES["out_of_range"].copy()
        write_wav(tmp_path / "u.wav", audio)
        assert audio.tobytes() == self.CASES["out_of_range"].tobytes()

    def test_3d_raises(self, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_wav(tmp_path / "z.wav", np.zeros((4, 2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.one_of(
                st.tuples(st.integers(0, 300)),
                st.tuples(st.integers(0, 100), st.integers(1, 3)),
            ),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_property_bytes_equal_reference(self, tmp_path_factory, audio):
        path = tmp_path_factory.mktemp("wav") / "p.wav"
        write_wav(path, audio)
        assert path.read_bytes() == _reference_wav_bytes(audio)
