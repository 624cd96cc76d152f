import dataclasses
import hashlib
import json

import numpy as np
import pytest
from scipy import stats
from scipy.io import wavfile

from soundscene.audio import CLIP_SAMPLES, SAMPLE_RATE, rms, write_wav
from soundscene.dsl import parse, serialize, validate
from soundscene.scene import (
    UTTERANCE_COUNT_TABLE,
    BackgroundClip,
    BackgroundPool,
    ScenePriors,
    SpeechPool,
    UtteranceClip,
    arrange_timing,
    compose_scene,
    default_utterance_pmf,
    derive_scene_seed,
    load_background_pool,
    load_speech_pool,
    sample_scenario,
    sample_utterance_count,
    speaker_label,
)


# each pool loader with the fields a row needs besides its path
POOL_LOADERS = [
    (load_speech_pool, {"speaker_id": "a", "transcript": "hi"}),
    (load_background_pool, {"caption": "rain"}),
]


def _clip(duration, speaker="s0", transcript="hi there", amp=0.1):
    n = int(round(duration * SAMPLE_RATE))
    audio = amp * np.sin(2 * np.pi * 200 * np.arange(n) / SAMPLE_RATE)
    return UtteranceClip(audio=audio, speaker_id=speaker, transcript=transcript)


class TestUtteranceClip:
    def test_duration(self):
        assert _clip(1.5).duration == pytest.approx(1.5)

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="shorter"):
            _clip(0.01)

    def test_too_long_raises(self):
        with pytest.raises(ValueError, match="longer"):
            _clip(10.5)

    def test_empty_transcript_raises(self):
        with pytest.raises(ValueError, match="transcript"):
            _clip(1.0, transcript="  ")

    def test_2d_audio_raises(self):
        with pytest.raises(ValueError, match="1-D"):
            UtteranceClip(audio=np.zeros((100, 2)), speaker_id="s", transcript="x")


class TestSpeakerLabel:
    def test_known_genders(self):
        assert speaker_label("male") == "Man speaking"
        assert speaker_label("female") == "Woman speaking"

    def test_unknown(self):
        assert speaker_label(None) == "Speech"


class TestPriors:
    def test_default_pmf_normalized(self):
        pmf = default_utterance_pmf()
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
        total = sum(UTTERANCE_COUNT_TABLE.values())
        assert pmf[1] == pytest.approx(12723 / total)
        assert sorted(pmf) == list(range(1, 9))

    def test_defaults(self):
        p = ScenePriors()
        assert p.p_single_speaker == 0.791
        assert p.snr_range_db == (2.0, 10.0)

    def test_bad_probability_raises(self):
        with pytest.raises(ValueError):
            ScenePriors(p_single_speaker=1.2)

    def test_unnormalized_pmf_raises(self):
        with pytest.raises(ValueError, match="sums"):
            ScenePriors(utterance_count_pmf={1: 0.5, 2: 0.4})
        with pytest.raises(ValueError, match="sums to 0"):
            ScenePriors(utterance_count_pmf={})

    def test_bad_count_raises(self):
        with pytest.raises(ValueError, match="integers"):
            ScenePriors(utterance_count_pmf={0: 1.0})

    def test_bad_snr_range_raises(self):
        with pytest.raises(ValueError, match="snr"):
            ScenePriors(snr_range_db=(10.0, 2.0))

    @pytest.mark.parametrize("snr", [(np.nan, 5.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 5.0)])
    def test_snr_range_must_be_finite(self, snr):
        with pytest.raises(ValueError, match="snr_range_db must be finite"):
            ScenePriors(snr_range_db=snr)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -0.5])
    def test_pmf_probability_must_be_finite_and_nonnegative(self, p):
        with pytest.raises(ValueError, match=r"utterance_count_pmf\[1\] must be finite and >= 0"):
            ScenePriors(utterance_count_pmf={1: p})


class TestSampling:
    def test_scenario_frequency(self):
        priors = ScenePriors()
        rng = np.random.default_rng(11)
        n = 20000
        mono = sum(sample_scenario(priors, rng) == "monologue" for _ in range(n))
        assert mono / n == pytest.approx(0.791, abs=0.015)

    def test_count_support(self):
        priors = ScenePriors()
        rng = np.random.default_rng(12)
        counts = {sample_utterance_count(priors, rng) for _ in range(2000)}
        assert counts <= set(range(1, 9))
        assert 1 in counts and 8 in counts

    def test_count_distribution_chi_square(self):
        priors = ScenePriors()
        rng = np.random.default_rng(13)
        n = 20000
        observed = np.zeros(8)
        for _ in range(n):
            observed[sample_utterance_count(priors, rng) - 1] += 1
        expected = n * np.array([priors.utterance_count_pmf[k] for k in range(1, 9)])
        _, p = stats.chisquare(observed, expected)
        assert p > 0.001

    # first 40 default-prior draws per seed, recorded from the hand-written
    # inverse-CDF draw; a change to the rng stream fails here
    PINNED_COUNTS = {
        0: "3111563436515141531211433287444214312562",
        1: "3616125231432412121141276431173134361321",
        2: "1151341114312423742123541624111545323352",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_COUNTS))
    def test_count_stream_pinned(self, seed):
        rng = np.random.default_rng(seed)
        draws = "".join(str(sample_utterance_count(ScenePriors(), rng)) for _ in range(40))
        assert draws == self.PINNED_COUNTS[seed]

    def test_degenerate_pmf(self):
        priors = ScenePriors(utterance_count_pmf={3: 1.0})
        rng = np.random.default_rng(0)
        assert all(sample_utterance_count(priors, rng) == 3 for _ in range(50))


class TestArrangeTiming:
    def test_constraints_hold_over_many_draws(self):
        clips = [_clip(3.0), _clip(4.0)]
        rng = np.random.default_rng(21)
        orders = set()
        for _ in range(1000):
            placements = arrange_timing(clips, rng)
            assert len(placements) == 2
            prev_end = 0.0
            for clip, start in placements:
                assert start >= prev_end - 1e-9
                assert start >= 0.0
                assert start + clip.duration <= 10.0 + 1e-9
                prev_end = start + clip.duration
            orders.add(tuple(id(c) for c, _ in placements))
        assert len(orders) == 2  # both shuffle orders occur

    def test_budget_exceeded_raises(self):
        clips = [_clip(5.0), _clip(5.0)]
        with pytest.raises(ValueError, match="budget"):
            arrange_timing(clips, np.random.default_rng(0))

    def test_relaxed_fill_packs_exactly(self):
        clips = [_clip(6.0), _clip(4.0)]
        placements = arrange_timing(clips, np.random.default_rng(2), max_fill=1.0)
        ends = [s + c.duration for c, s in placements]
        assert placements[0][1] == pytest.approx(0.0, abs=1e-9)
        assert ends[-1] == pytest.approx(10.0, abs=1e-9)

    def test_empty_input(self):
        assert arrange_timing([], np.random.default_rng(0)) == []

    def test_gap_budget_is_used_up(self):
        clips = [_clip(2.0), _clip(1.5), _clip(1.0)]
        rng = np.random.default_rng(9)
        placements = arrange_timing(clips, rng)
        # gaps + durations never exceed the clip
        last_clip, last_start = placements[-1]
        assert last_start + last_clip.duration <= 10.0 + 1e-9


class TestPoolLoading:
    def test_demo_speech_pool_shape(self, speech_pool):
        assert len(speech_pool.speakers) == 6
        assert len(speech_pool) == 60
        for clips in speech_pool.by_speaker.values():
            assert len(clips) == 10
            for c in clips:
                assert c.audio.ndim == 1
                assert 0.69 <= c.duration <= 2.01
                assert c.transcript

    def test_demo_genders(self, speech_pool):
        assert speech_pool.speaker_gender["spk00"] == "male"
        assert speech_pool.speaker_gender["spk01"] == "female"
        assert speech_pool.speaker_gender["spk02"] is None

    def test_demo_background_pool_shape(self, background_pool):
        assert len(background_pool) == 8
        for clip in background_pool.clips:
            assert clip.audio.shape == (CLIP_SAMPLES,)
            assert clip.caption.strip()
        assert background_pool.clips[0].clip_id == "background/bg00.wav"

    def test_missing_field_raises(self, tmp_path):
        manifest = tmp_path / "sp.jsonl"
        # the blank first line still counts: errors name the file line
        manifest.write_text("\n" + json.dumps({"path": "x.wav", "speaker_id": "a"}) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_speech_pool(manifest)
        assert str(exc_info.value) == f"{manifest}:2: missing required field 'transcript'"

    def test_unknown_gender_raises(self, tmp_path):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        manifest = tmp_path / "m.jsonl"
        for gender in ("robot", ["male"]):
            row = {"path": "x.wav", "speaker_id": "a", "transcript": "hi", "gender": gender}
            manifest.write_text(json.dumps(row) + "\n")
            with pytest.raises(ValueError) as exc_info:
                load_speech_pool(manifest)
            assert str(exc_info.value) == f"{manifest}:1: unknown gender {gender!r}"

    def test_conflicting_gender_raises(self, tmp_path):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        manifest = tmp_path / "m.jsonl"
        rows = [
            {"path": "x.wav", "speaker_id": "a", "transcript": "hi", "gender": "male"},
            {"path": "x.wav", "speaker_id": "a", "transcript": "yo", "gender": "female"},
        ]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="conflicting"):
            load_speech_pool(manifest)

    def test_empty_speech_manifest_raises(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_speech_pool(manifest)

    def test_empty_caption_raises(self, tmp_path):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        manifest = tmp_path / "bg.jsonl"
        rows = [{"path": "x.wav", "caption": "rain"}, {"path": "x.wav", "caption": "  "}]
        manifest.write_text(json.dumps(rows[0]) + "\n\n" + json.dumps(rows[1]) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_background_pool(manifest)
        assert str(exc_info.value) == f"{manifest}:3: empty caption"

    @pytest.mark.parametrize("loader, row", POOL_LOADERS)
    def test_missing_wav_names_manifest_line(self, tmp_path, loader, row):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        manifest = tmp_path / "m.jsonl"
        rows = [{"path": "x.wav", **row}, {"path": "nope.wav", **row}]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError) as exc_info:
            loader(manifest)
        msg = str(exc_info.value)
        assert msg.startswith(f"{manifest}:2: cannot read WAV file {tmp_path / 'nope.wav'}: ")
        assert "No such file" in msg
        assert isinstance(exc_info.value.__cause__, OSError)

    @pytest.mark.parametrize("loader, row", POOL_LOADERS)
    def test_non_wav_file_names_manifest_line(self, tmp_path, loader, row):
        (tmp_path / "notes.wav").write_text("not a wave file at all\n")
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n" + json.dumps({"path": "notes.wav", **row}) + "\n")
        with pytest.raises(ValueError) as exc_info:
            loader(manifest)
        assert str(exc_info.value).startswith(
            f"{manifest}:2: cannot read WAV file {tmp_path / 'notes.wav'}: "
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("loader, row", POOL_LOADERS)
    def test_non_finite_float_wav_names_manifest_line(self, tmp_path, loader, row, bad):
        audio = np.full(SAMPLE_RATE, 0.1, dtype=np.float32)
        audio[100] = bad
        wavfile.write(tmp_path / "f.wav", SAMPLE_RATE, audio)
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("\n" + json.dumps({"path": "f.wav", **row}) + "\n")
        with pytest.raises(ValueError) as exc_info:
            loader(manifest)
        assert str(exc_info.value) == (
            f"{manifest}:2: cannot read WAV file {tmp_path / 'f.wav'}: "
            "non-finite sample in a floating-point WAV"
        )

    # (silent, loud) seconds: a bed whose sound starts after the 10 s it
    # keeps is silent too
    @pytest.mark.parametrize("silent, loud", [(1, 0), (11, 1)])
    def test_silent_background_names_manifest_line(self, tmp_path, silent, loud):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        bed = np.concatenate([np.zeros(silent * SAMPLE_RATE), np.full(loud * SAMPLE_RATE, 0.1)])
        write_wav(tmp_path / "quiet.wav", bed)
        manifest = tmp_path / "bg.jsonl"
        rows = [{"path": "x.wav", "caption": "rain"}, {"path": "quiet.wav", "caption": "hush"}]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_background_pool(manifest)
        assert str(exc_info.value) == (
            f"{manifest}:2: background {tmp_path / 'quiet.wav'} is silent over the clip"
        )

    # a clip silent from end to end, whatever its sample rate
    @pytest.mark.parametrize("rate", [SAMPLE_RATE, 22050])
    def test_silent_utterance_names_manifest_line(self, tmp_path, rate):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        write_wav(tmp_path / "quiet.wav", np.zeros(rate), rate=rate)
        manifest = tmp_path / "speech.jsonl"
        rows = [{"path": p, "speaker_id": "a", "transcript": "hi"} for p in ("x.wav", "quiet.wav")]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_speech_pool(manifest)
        assert str(exc_info.value) == f"{manifest}:2: utterance {tmp_path / 'quiet.wav'} is silent"

    def test_caption_with_block_opener_names_manifest_line(self, tmp_path):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        manifest = tmp_path / "bg.jsonl"
        rows = [{"path": "x.wav", "caption": "rain"}, {"path": "x.wav", "caption": "a @{b"}]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_background_pool(manifest)
        assert str(exc_info.value) == (
            f"{manifest}:2: caption contains the event-block opener '@{{'"
        )

    def test_overlong_utterance_raises(self, tmp_path):
        write_wav(tmp_path / "x.wav", np.full(11 * SAMPLE_RATE, 0.1))
        manifest = tmp_path / "m.jsonl"
        row = {"path": "x.wav", "speaker_id": "a", "transcript": "hi"}
        manifest.write_text("\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError) as exc_info:
            load_speech_pool(manifest)
        assert str(exc_info.value) == f"{manifest}:2: utterance longer than the 10.0 s clip: 11.00 s"

    @pytest.mark.parametrize("pool, field", [
        ("speech", "path"), ("speech", "speaker_id"), ("speech", "transcript"),
        ("background", "path"), ("background", "caption"),
    ])
    def test_null_field_raises(self, tmp_path, pool, field):
        write_wav(tmp_path / "x.wav", np.full(SAMPLE_RATE, 0.1))
        manifest = tmp_path / "m.jsonl"
        row = ({"path": "x.wav", "speaker_id": "a", "transcript": "hi"} if pool == "speech"
               else {"path": "x.wav", "caption": "rain"})
        manifest.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: None}) + "\n")
        load = load_speech_pool if pool == "speech" else load_background_pool
        with pytest.raises(ValueError) as exc_info:
            load(manifest)
        assert str(exc_info.value) == f"{manifest}:2: field {field!r} must be a string, got null"


class TestComposeScene:
    def test_deterministic_for_seed(self, speech_pool, background_pool):
        priors = ScenePriors()
        a = compose_scene(speech_pool, background_pool, priors, seed=123)
        b = compose_scene(speech_pool, background_pool, priors, seed=123)
        assert np.array_equal(a.waveform, b.waveform)
        assert a.prompt == b.prompt
        assert a.spec.snr_db == b.spec.snr_db
        assert a.spec.background_id == b.spec.background_id
        assert a.annotations == b.annotations

    def test_background_rms_computed_once_at_load(self, background_pool):
        for clip in background_pool.clips:
            assert clip.audio_rms == rms(clip.audio)
        bed = BackgroundClip("b", np.full(8, 0.5), "A room")
        assert bed.audio_rms == 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            bed.audio = np.full(8, 0.25)  # would leave audio_rms stale

    def test_each_scene_owns_a_fresh_waveform(self, speech_pool, background_pool):
        priors = ScenePriors()
        beds = [c.audio.tobytes() for c in background_pool.clips]
        scenes = [compose_scene(speech_pool, background_pool, priors, seed=s) for s in range(6)]
        kept = [sc.waveform.tobytes() for sc in scenes]
        for i, sc in enumerate(scenes):
            assert sc.waveform is sc.mix.waveform
            assert not any(np.shares_memory(sc.waveform, c.audio) for c in background_pool.clips)
            assert not any(np.shares_memory(sc.waveform, o.waveform) for o in scenes[i + 1 :])
        assert [sc.waveform.tobytes() for sc in scenes] == kept
        assert [c.audio.tobytes() for c in background_pool.clips] == beds

    def test_seeds_differ(self, speech_pool, background_pool):
        priors = ScenePriors()
        a = compose_scene(speech_pool, background_pool, priors, seed=1)
        b = compose_scene(speech_pool, background_pool, priors, seed=2)
        assert not np.array_equal(a.waveform, b.waveform)

    def test_scene_structure(self, speech_pool, background_pool):
        priors = ScenePriors()
        scenarios = set()
        for seed in range(60):
            scene = compose_scene(speech_pool, background_pool, priors, seed=seed)
            scenarios.add(scene.spec.scenario)
            assert scene.waveform.shape == (CLIP_SAMPLES,)
            assert len(scene.annotations) == len(scene.spec.placements)
            assert 1 <= len(scene.annotations) <= 8

            speakers = {c.speaker_id for c, _ in scene.spec.placements}
            if scene.spec.scenario == "monologue":
                assert len(speakers) == 1
            else:
                assert 2 <= len(speakers) <= 4
                per = {}
                for c, _ in scene.spec.placements:
                    per[c.speaker_id] = per.get(c.speaker_id, 0) + 1
                assert all(v <= 4 for v in per.values())

            prev_end = 0.0
            for clip, start in scene.spec.placements:
                assert start >= prev_end - 1e-9
                assert start + clip.duration <= 10.0 + 1e-9
                prev_end = start + clip.duration

            assert 2.0 <= scene.spec.snr_db <= 10.0
            for ann, (clip, start) in zip(scene.annotations, scene.spec.placements):
                gender = speech_pool.speaker_gender[clip.speaker_id]
                assert ann.label == speaker_label(gender)
                assert ann.span.start == pytest.approx(start, abs=0.005 + 1e-9)
                assert ann.span.end == pytest.approx(start + clip.duration, abs=0.005 + 1e-9)
                assert ann.transcript == clip.transcript
        assert scenarios == {"monologue", "dialogue"}

    def test_prompt_well_formed(self, speech_pool, background_pool):
        priors = ScenePriors()
        captions = {c.clip_id: c.caption for c in background_pool.clips}
        for seed in range(30):
            scene = compose_scene(speech_pool, background_pool, priors, seed=seed)
            assert scene.prompt.caption == captions[scene.spec.background_id]
            assert validate(scene.prompt) == []
            assert parse(serialize(scene.prompt)) == scene.prompt
            transcripts = {c.transcript for c, _ in scene.spec.placements}
            event_speech = {e.speech for e in scene.prompt.events}
            assert transcripts == event_speech

    def test_mix_hits_target_snr(self, speech_pool, background_pool):
        priors = ScenePriors()
        for seed in range(30):
            scene = compose_scene(speech_pool, background_pool, priors, seed=seed)
            speech = np.zeros(CLIP_SAMPLES)
            active = np.zeros(CLIP_SAMPLES, dtype=bool)
            for clip, start in scene.spec.placements:
                i0 = min(int(round(start * SAMPLE_RATE)), CLIP_SAMPLES - clip.audio.shape[0])
                speech[i0 : i0 + clip.audio.shape[0]] += clip.audio
                active[i0 : i0 + clip.audio.shape[0]] = True
            speech *= scene.mix.peak_norm
            residual = scene.waveform - speech
            measured = 20 * np.log10(rms(speech[active]) / rms(residual))
            assert measured == pytest.approx(scene.spec.snr_db, abs=1e-6)

    def test_utterance_draw_stream_pinned(self, speech_pool, background_pool):
        # the draw stream: each placement (speaker, transcript, length,
        # start), bed and SNR of the first 50 scenes of dataset seed 0 on the
        # demo pools (seed 0)
        h = hashlib.sha256()
        for i in range(50):
            spec = compose_scene(speech_pool, background_pool, ScenePriors(),
                                 derive_scene_seed(0, i)).spec
            for clip, start in spec.placements:
                h.update(f"{clip.speaker_id}|{clip.transcript}|{clip.audio.shape[0]}|{start!r};".encode())
            h.update(f"{spec.background_id}|{spec.snr_db!r}\n".encode())
        assert h.hexdigest() == "0fef1eb32c15d508b6b1d1a0aac8d21b3aede99aac3df3f9138a9d161468ee9e"

    def test_count_no_speaker_holds_is_redrawn(self):
        pool = SpeechPool(
            by_speaker={"a": [_clip(1.0, "a")], "b": [_clip(1.0, "b"), _clip(1.0, "b")]},
            speaker_gender={"a": None, "b": None},
        )
        bg = BackgroundPool(clips=[BackgroundClip("b", 0.05 * np.ones(CLIP_SAMPLES), "A room")])
        for p_single, pmf in ((1.0, {1: 0.5, 3: 0.5}), (0.0, {2: 0.5, 4: 0.5})):
            priors = ScenePriors(p_single_speaker=p_single, utterance_count_pmf=pmf)
            for seed in range(20):
                spec = compose_scene(pool, bg, priors, seed=seed).spec
                speakers = [c.speaker_id for c, _ in spec.placements]
                if p_single:
                    assert len(speakers) == 1
                else:
                    # each dialogue slot draws a speaker the scene has not
                    # used, so a count of 4 never fits and is redrawn
                    assert sorted(speakers) == ["a", "b"]

    def test_dialogue_needs_two_speakers(self):
        pool = SpeechPool(
            by_speaker={"a": [_clip(1.0, "a")]},
            speaker_gender={"a": None},
        )
        bg = BackgroundPool(
            clips=[BackgroundClip("b", 0.05 * np.ones(CLIP_SAMPLES), "A room")]
        )
        priors = ScenePriors(p_single_speaker=0.0)
        with pytest.raises(ValueError, match="2 speakers"):
            compose_scene(pool, bg, priors, seed=0)

    def test_unarrangeable_pool_raises(self):
        pool = SpeechPool(
            by_speaker={"a": [_clip(9.8, "a")]},
            speaker_gender={"a": None},
        )
        bg = BackgroundPool(
            clips=[BackgroundClip("b", 0.05 * np.ones(CLIP_SAMPLES), "A room")]
        )
        priors = ScenePriors(p_single_speaker=1.0, utterance_count_pmf={1: 1.0})
        with pytest.raises(RuntimeError, match="arrange"):
            compose_scene(pool, bg, priors, seed=0)

    def test_empty_pools_raise(self, background_pool, speech_pool):
        priors = ScenePriors()
        with pytest.raises(ValueError, match="speech pool"):
            compose_scene(SpeechPool({}, {}), background_pool, priors, seed=0)
        with pytest.raises(ValueError, match="background pool"):
            compose_scene(speech_pool, BackgroundPool([]), priors, seed=0)


class TestSceneSeeds:
    def test_deterministic(self):
        assert derive_scene_seed(42, 0) == derive_scene_seed(42, 0)

    def test_distinct_across_indices(self):
        seeds = {derive_scene_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_distinct_across_dataset_seeds(self):
        assert derive_scene_seed(1, 0) != derive_scene_seed(2, 0)

    def test_independent_of_batch_size(self):
        # seed of scene i does not depend on how many scenes are generated
        individually = [derive_scene_seed(7, i) for i in range(10)]
        assert individually == [derive_scene_seed(7, i) for i in range(10)]
