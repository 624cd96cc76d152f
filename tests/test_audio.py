import io
import math
import re

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


def _refusal(segments, background, b_rms=1.0):
    """The message mix_at_snr refuses these segments with."""
    with pytest.raises(ValueError) as exc:
        mix_at_snr(segments, background, 5.0, b_rms)
    return str(exc.value)


@st.composite
def _placed_segments(draw):
    """Disjoint ascending segments over a background that just holds them.
    A gap may be 0: segments touch, the first starts at sample 0, or the
    last ends on the background's last sample.  Every magnitude is within
    10% of its scale, so the mix's peak is bounded on both sides."""
    k = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 40)), min_size=k + 1, max_size=k + 1))
    sizes = draw(st.lists(st.integers(1, 60), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def signed(n):
        return rng.uniform(0.9, 1.0, n) * rng.choice([-1.0, 1.0], n)

    segments, pos = [], 0
    for gap, size in zip(gaps, sizes):
        segments.append((pos + gap, signed(size)))
        pos += gap + size
    return segments, signed(pos + gaps[-1])


class TestMixAtSnr:
    def test_gain_oracle(self):
        # rms 0.1 speech over rms 0.2 background at 6 dB:
        # g = 0.1 / (0.2 * 10^0.3) = 0.2505937
        speech = np.full(1000, 0.1)
        background = np.tile([0.2, -0.2], 500)
        res = mix_at_snr([(0, speech)], background, 6.0, rms(background))
        assert res.background_gain == pytest.approx(0.2505937, abs=1e-6)
        assert res.peak_norm == 1.0
        assert np.allclose(res.waveform, speech + res.background_gain * background)

    def test_measured_snr_matches_target(self):
        rng = np.random.default_rng(3)
        speech = 0.1 * rng.standard_normal(2000)
        background = 0.05 * rng.standard_normal(4000)
        res = mix_at_snr([(500, speech)], background, 7.3, rms(background))
        measured = 20 * np.log10(rms(speech) / rms(res.background_gain * background))
        assert measured == pytest.approx(7.3, abs=1e-9)
        assert np.array_equal(res.waveform[:500], res.background_gain * background[:500])
        assert np.array_equal(res.waveform[2500:], res.background_gain * background[2500:])

    def test_only_segment_samples_count_toward_speech_rms(self):
        speech = np.full(100, 0.4)
        background = np.full(200, 0.1)
        b_rms = rms(background)
        g_segment = mix_at_snr([(0, speech)], background, 5.0, b_rms).background_gain
        padded = np.concatenate([speech, np.zeros(100)])
        g_full = mix_at_snr([(0, padded)], background, 5.0, b_rms).background_gain
        # a segment's rms counts its own silence, so the padded gain is smaller
        assert g_segment == pytest.approx(g_full * np.sqrt(2), rel=1e-9)

    def test_peak_normalization(self):
        speech = np.full(100, 0.9)
        background = np.full(100, 1.0)
        res = mix_at_snr([(0, speech)], background, 0.0, rms(background))
        assert res.peak_norm < 1.0
        assert np.max(np.abs(res.waveform)) == pytest.approx(0.95, abs=1e-12)
        raw = speech + res.background_gain * background
        assert np.allclose(res.waveform, raw * res.peak_norm)

    def test_no_normalization_below_full_scale(self):
        speech = np.full(100, 0.1)
        background = np.tile([0.1, -0.1], 50)
        res = mix_at_snr([(0, speech)], background, 10.0, rms(background))
        assert res.peak_norm == 1.0

    @pytest.mark.parametrize("segments, message", [
        pytest.param([(3, np.ones(4)), (6, np.ones(2))],
                     "speech segment at sample 6 overlaps the one ending at sample 7", id="overlap"),
        pytest.param([(6, np.ones(4)), (2, np.ones(2))],
                     "speech segment at sample 2 overlaps the one ending at sample 10",
                     id="out-of-order"),
        pytest.param([(0, np.ones(4)), (8, np.ones(3))],
                     "speech segment at samples 8..11 leaves the 10-sample background",
                     id="out-of-range"),
        pytest.param([(-1, np.ones(4))],
                     "speech segment at sample -1 starts before the background", id="negative-start"),
        pytest.param([], "no speech segments to mix", id="empty-set"),
        pytest.param([(0, np.ones((2, 2)))],
                     "speech segment at sample 0 is not 1-D: shape (2, 2)", id="2-D"),
        pytest.param([(0, np.zeros(4)), (4, np.zeros(6))],
                     "silent speech over the active region", id="silent-speech"),
    ])
    def test_refusals(self, segments, message):
        assert _refusal(segments, np.ones(10)) == message

    def test_touching_segments_are_mixed(self):
        background = np.full(10, 0.5)
        res = mix_at_snr([(0, np.ones(4)), (4, np.full(6, -1.0))], background, 0.0, 0.5)
        assert res.background_gain == 2.0
        assert res.waveform.tolist() == pytest.approx([0.95] * 4 + [0.0] * 6)

    def test_2d_background_raises(self):
        assert _refusal([(0, np.ones(2))], np.ones((10, 2))) == (
            "mix_at_snr wants a 1-D background, got shape (10, 2)"
        )

    @staticmethod
    def _reference_mix(segments, background, snr_db):
        """The mixer as first written, over the clip-length speech track and
        active mask the segments stand for: fresh arrays on every pass."""
        speech = np.zeros(background.shape[0])
        active = np.zeros(background.shape[0], dtype=bool)
        for i0, audio in segments:
            speech[i0 : i0 + audio.shape[0]] += audio
            active[i0 : i0 + audio.shape[0]] = True
        s_rms = rms(speech[active])
        gain = s_rms / (rms(background) * 10.0 ** (snr_db / 20.0))
        mix = speech + gain * background
        peak = float(np.max(np.abs(mix)))
        norm = 0.95 / peak if peak > 1.0 else 1.0
        return (mix * norm if peak > 1.0 else mix), gain, norm

    @pytest.mark.parametrize("speech_amp", [0.1, 3.0])  # without and with peak normalization
    def test_cached_background_rms_matches_recomputed(self, speech_amp):
        rng = np.random.default_rng(11)
        speech = speech_amp * rng.standard_normal(89000)
        background = 0.2 * rng.standard_normal(CLIP_SAMPLES)
        kept = background.tobytes(), speech.tobytes()
        res = mix_at_snr([(1000, speech)], background, 4.2, rms(background))
        wave, gain, norm = self._reference_mix([(1000, speech)], background, 4.2)
        assert (speech_amp > 1.0) == (norm < 1.0)
        assert res.waveform.tobytes() == wave.tobytes()
        assert (res.background_gain, res.peak_norm) == (gain, norm)
        assert not np.shares_memory(res.waveform, background)
        assert not np.shares_memory(res.waveform, speech)
        assert (background.tobytes(), speech.tobytes()) == kept

    @settings(max_examples=80, deadline=None)
    @given(placed=_placed_segments(), snr_db=st.floats(6.0, 20.0))
    @pytest.mark.parametrize("amp", [0.4, 4.0])  # without and with peak normalization
    def test_property_matches_track_and_mask_mixer(self, tmp_path_factory, placed, snr_db, amp):
        # |speech| is within 10% of amp and, at 6 dB or more, the scaled bed
        # is at most 0.56 * amp: 0.4 never reaches full scale, 4.0 always does
        segments = [(i0, amp * audio) for i0, audio in placed[0]]
        background = placed[1]
        res = mix_at_snr(segments, background, snr_db, rms(background))
        wave, gain, norm = self._reference_mix(segments, background, snr_db)
        assert (amp > 1.0) == (norm < 1.0)
        assert np.array_equal(res.waveform, wave)
        assert res.background_gain == gain and res.peak_norm == norm
        d = tmp_path_factory.mktemp("mix")
        write_wav(d / "new.wav", res.waveform)
        write_wav(d / "old.wav", wave)
        assert (d / "new.wav").read_bytes() == (d / "old.wav").read_bytes()

    def test_negative_zero_keeps_its_sign_outside_speech(self, tmp_path):
        # the track-and-mask mixer added the track's +0.0 to every sample, so
        # a -0.0 of the scaled bed became +0.0; int16 writes both as 0
        background = np.array([-0.0, 0.5, -0.5, -0.0])
        res = mix_at_snr([(1, np.array([0.25, 0.25]))], background, 0.0, rms(background))
        wave, _, _ = self._reference_mix([(1, np.array([0.25, 0.25]))], background, 0.0)
        assert np.signbit(res.waveform[[0, 3]]).all() and not np.signbit(wave[[0, 3]]).any()
        assert np.array_equal(res.waveform, wave)
        write_wav(tmp_path / "new.wav", res.waveform)
        write_wav(tmp_path / "old.wav", wave)
        assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "old.wav").read_bytes()

    def test_silent_background_raises(self):
        assert _refusal([(0, np.ones(10))], np.zeros(10), rms(np.zeros(10))) == (
            "background RMS must be finite and positive, got 0.0"
        )

    @pytest.mark.parametrize("b_rms", [0.0, float("nan"), float("inf"), -0.5])
    def test_cached_silent_background_raises(self, b_rms):
        assert _refusal([(0, np.ones(10))], np.ones(10), b_rms) == (
            f"background RMS must be finite and positive, got {b_rms}"
        )


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

    @pytest.mark.parametrize("audio", [[0.1, np.nan], np.full((3, 2), np.nan)], ids=["mono", "stereo"])
    def test_nan_sample_raises_and_writes_nothing(self, tmp_path, audio):
        path = tmp_path / "n.wav"
        with pytest.raises(ValueError, match=re.escape(f"{path}: NaN sample")):
            write_wav(path, audio)
        assert not path.exists()


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
