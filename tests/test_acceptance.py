"""Acceptance gate: one test per numbered release criterion.

Each test prints a single "criterion NN <name>: PASS/FAIL" line so a
full run reads as a checklist.  Runtime bounds that are part of a
criterion are asserted, not just observed.
"""

import itertools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from fixtures import (
    PLANNED_PROMPT_SAMPLES,
    RecordingDenoiser,
    diffusion_loss,
    expected_bind_log,
    random_prompt,
    reference_cfg_loop,
)
from soundscene.audio import SAMPLE_RATE
from soundscene.cli import main as cli_main
from soundscene.diffusion import (
    GaussianCondition,
    GaussianOracleDenoiser,
    GuidanceSchedule,
    cfg_combine,
    cosine_schedule,
    sample_progressive,
)
from soundscene.dsl import EventAnnotation, TimeSpan, parse, serialize, validate
from soundscene.manifest import read_jsonl
from soundscene.phonemes import g2p, load_default_lexicon
from soundscene.scene import (
    ScenePriors,
    compose_scene,
    derive_scene_seed,
    sample_scenario,
    sample_utterance_count,
)
from soundscene.sed import ClipAnnotations, EbConfig, event_based_f1, format_score
from soundscene.toytrain import (
    default_curriculum,
    make_toy_dataset,
    train_toy_denoiser,
    validation_loss,
)


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"criterion {num:02d} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:02d} {name}: PASS")


def rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


def test_c01_prompt_round_trip(capsys):
    with criterion(capsys, 1, "prompt round-trip"):
        t0 = time.perf_counter()
        assert len(PLANNED_PROMPT_SAMPLES) == 8
        for text in PLANNED_PROMPT_SAMPLES:
            p = parse(text)
            assert validate(p) == []
            canonical = serialize(p)
            assert serialize(parse(canonical)) == canonical
        rng = np.random.default_rng(1234)
        for _ in range(10_000):
            canonical = serialize(random_prompt(rng))
            assert serialize(parse(canonical)) == canonical
        assert time.perf_counter() - t0 < 5.0


def test_c02_phoneme_lookup(capsys):
    with criterion(capsys, 2, "phoneme lookup"):
        lex = load_default_lexicon()
        assert g2p("hello", lex) == ["HH", "AH0", "L", "OW1"]


def test_c03_scenario_priors(capsys):
    with criterion(capsys, 3, "scenario priors"):
        t0 = time.perf_counter()
        priors = ScenePriors()
        rng = np.random.default_rng(30)
        n = 100_000
        mono = sum(sample_scenario(priors, rng) == "monologue" for _ in range(n))
        assert abs(mono / n - 0.791) <= 0.01
        counts = Counter(sample_utterance_count(priors, rng) for _ in range(n))
        support = sorted(priors.utterance_count_pmf)
        assert sorted(counts) == support == list(range(1, 9))
        observed = [counts[k] for k in support]
        expected = [priors.utterance_count_pmf[k] * n for k in support]
        assert stats.chisquare(observed, expected).pvalue > 0.01
        assert time.perf_counter() - t0 < 30.0


def test_c04_mix_snr_and_placement(capsys, speech_pool, background_pool):
    with criterion(capsys, 4, "mix snr and placement"):
        t0 = time.perf_counter()
        priors = ScenePriors()
        normalized = 0
        for i in range(1000):
            scene = compose_scene(
                speech_pool, background_pool, priors, seed=derive_scene_seed(11, i)
            )
            n = len(scene.waveform)
            spans = []
            speech = np.zeros(n)
            mask = np.zeros(n, dtype=bool)
            for utt, start in scene.spec.placements:
                end = start + utt.duration
                assert -1e-9 <= start and end <= 10.0 + 1e-9
                spans.append((start, end))
                i0 = min(round(start * SAMPLE_RATE), n - len(utt.audio))
                speech[i0:i0 + len(utt.audio)] += utt.audio
                mask[i0:i0 + len(utt.audio)] = True
            spans.sort()
            for (_, e_prev), (s_next, _) in zip(spans, spans[1:]):
                assert s_next >= e_prev - 1e-9
            if scene.mix.peak_norm != 1.0:
                normalized += 1
                continue
            background = scene.waveform - speech
            measured = 20.0 * np.log10(rms(speech[mask]) / rms(background))
            assert abs(measured - scene.spec.snr_db) <= 0.5
        assert normalized < 1000
        assert time.perf_counter() - t0 < 600.0


def test_c05_guidance_identities(capsys):
    with criterion(capsys, 5, "guidance identities"):
        rng = np.random.default_rng(50)
        e_c = rng.standard_normal((4, 3))
        e_u = rng.standard_normal((4, 3))
        assert np.array_equal(cfg_combine(e_c, e_u, 0.0), e_u)
        assert np.array_equal(cfg_combine(e_c, e_u, 1.0), e_c)
        combined = cfg_combine(np.array(2.0), np.array(1.0), 3.0)
        assert float(combined) == 4.0


def test_c06_two_phase_step_accounting(capsys):
    with criterion(capsys, 6, "two-phase step accounting"):
        sched = cosine_schedule(100)
        a = GaussianCondition(np.zeros(2), 1.0)
        b = GaussianCondition(np.full(2, 2.0), 0.25)
        den = GaussianOracleDenoiser(prior=a, sched=sched)

        gs = GuidanceSchedule(c1=a, c2=b, w_low=3.0, w_high=9.0, t1=88, T=100)
        # a prior unlike a and b, so each phase's weight moves the bytes
        unlike = GaussianOracleDenoiser(prior=GaussianCondition(np.full(2, -1.0), 1.0), sched=sched)
        recording = RecordingDenoiser(unlike)
        z_T = np.random.default_rng(60).standard_normal(2)
        got = sample_progressive(recording, gs, sched, z_T, rng=np.random.default_rng(61))
        # 12 steps bound under a, then 88 under b
        log = recording.log
        assert log == expected_bind_log(gs, (2,))
        assert log[0] == ("bind", a, (2,), 100) and log[13] == ("bind", b, (2,), 88)
        assert len(log) == 2 + 100
        # and w 3 then 9: the reference loop states the phase rule itself
        want = reference_cfg_loop(unlike, gs, sched, z_T, rng=np.random.default_rng(61))
        assert got.tobytes() == want.tobytes()

        collapse = GuidanceSchedule(c1=b, c2=b, w_low=2.5, w_high=2.5, t1=88, T=100)
        one_phase = GuidanceSchedule(c1=b, c2=b, w_low=2.5, w_high=2.5, t1=0, T=100)
        for seed in range(100):
            z_T = np.random.default_rng(seed).standard_normal(2)
            two = sample_progressive(
                den, collapse, sched, z_T, rng=np.random.default_rng(1000 + seed)
            )
            one = reference_cfg_loop(
                den, one_phase, sched, z_T, rng=np.random.default_rng(1000 + seed)
            )
            assert np.array_equal(two, one)


def test_c07_oracle_sampler_marginals(capsys):
    with criterion(capsys, 7, "oracle sampler marginals"):
        t0 = time.perf_counter()
        sched = cosine_schedule(1000)
        den = GaussianOracleDenoiser(
            prior=GaussianCondition(np.zeros(2), 1.0), sched=sched
        )
        for k, (mu, sigma2) in enumerate([(0.0, 1.0), (2.0, 0.25), (-1.0, 4.0)]):
            target = GaussianCondition(np.full(2, mu), sigma2)
            rng = np.random.default_rng(70 + k)
            z_T = rng.standard_normal((20_000, 2))
            gs = GuidanceSchedule(target, target, 1.0, 1.0, t1=0, T=1000)
            z0 = sample_progressive(den, gs, sched, z_T, rng=rng)
            for j in range(2):
                p = stats.kstest(z0[:, j], "norm", args=(mu, np.sqrt(sigma2))).pvalue
                assert p > 0.01, (mu, sigma2, j, p)
        assert time.perf_counter() - t0 < 120.0


class _ScaledPredictor:
    """Wraps a denoiser, scaling its output by a constant factor."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = factor

    def predict(self, z_t, t, c=None):
        return self.factor * self.base.predict(z_t, t, c)


def test_c08_oracle_beats_perturbations(capsys):
    with criterion(capsys, 8, "oracle beats perturbations"):
        sched = cosine_schedule(100)
        target = GaussianCondition(np.array(1.5), 0.5)
        den = GaussianOracleDenoiser(prior=target, sched=sched)
        rng = np.random.default_rng(80)
        for t in (10, 30, 50, 70, 90):
            z0 = rng.normal(1.5, np.sqrt(0.5), size=10_000)
            eps = rng.standard_normal(10_000)
            base = diffusion_loss(den, z0, target, t, eps, sched)
            for factor in (0.9, 1.1):
                worse = diffusion_loss(
                    _ScaledPredictor(den, factor), z0, target, t, eps, sched
                )
                assert base < worse, (t, factor, base, worse)


def test_c09_toy_curriculum(capsys):
    with criterion(capsys, 9, "toy curriculum"):
        t0 = time.perf_counter()
        sched = cosine_schedule(100)
        dataset = make_toy_dataset(256, dim=4, rng=np.random.default_rng(5))
        stages = default_curriculum(steps=300, batch_size=64, lr=3e-3)
        finest = ("text", "text_timing", "full")
        denoiser = None
        text_vals = []
        for k, stage in enumerate(stages):
            denoiser = train_toy_denoiser(
                dataset, (stage,), sched, seed=100 + k, denoiser=denoiser
            )
            val = validation_loss(
                denoiser, dataset, sched, finest[k], np.random.default_rng(999)
            )
            zero = validation_loss(
                None, dataset, sched, finest[k], np.random.default_rng(999)
            )
            assert val < zero, (k, val, zero)
            text_vals.append(
                validation_loss(
                    denoiser, dataset, sched, "text", np.random.default_rng(777)
                )
            )
        drift = abs(text_vals[2] - text_vals[0]) / text_vals[0]
        assert drift <= 0.10, text_vals
        assert time.perf_counter() - t0 < 300.0


def test_c10_sed_scores(capsys):
    with criterion(capsys, 10, "sed scores"):
        t0 = time.perf_counter()

        def ev(label, start, end):
            return EventAnnotation(label=label, span=TimeSpan(start, end))

        truth = [
            ClipAnnotations("a", (ev("dog", 1.0, 2.0), ev("car", 4.0, 6.0))),
            ClipAnnotations("b", (ev("dog", 0.5, 1.5),)),
        ]
        eb = event_based_f1(truth, truth)
        from soundscene.sed import clip_level_macro_f1

        assert format_score(eb.micro.f1) == "100.0"
        assert format_score(eb.macro_f1) == "100.0"
        assert format_score(clip_level_macro_f1(truth, truth)) == "100.0"

        two = [ClipAnnotations("c", (ev("dog", 1.0, 2.0), ev("dog", 5.0, 6.0)))]
        one = [ClipAnnotations("c", (ev("dog", 1.05, 2.05),))]
        assert format_score(event_based_f1(two, one).micro.f1) == "66.7"

        # every instance drawn from a small quantized candidate grid, both
        # sides up to 4 events, checked against brute-force assignment
        cfg = EbConfig()
        cands = [
            ev("e", onset, onset + length)
            for onset in (0.0, 0.1, 0.2, 0.3)
            for length in (1.0, 2.0)
        ]
        subsets = [c for k in range(5) for c in itertools.combinations(cands, k)]

        def feasible(t, p):
            tol = 1e-9
            length = t.span.end - t.span.start
            return (
                abs(p.span.start - t.span.start) <= cfg.onset_collar + tol
                and abs(p.span.end - t.span.end)
                <= max(cfg.offset_collar_abs, cfg.offset_collar_rel * length) + tol
            )

        def brute_tp(ts, ps):
            for k in range(min(len(ts), len(ps)), 0, -1):
                for t_idx in itertools.combinations(range(len(ts)), k):
                    for p_idx in itertools.permutations(range(len(ps)), k):
                        if all(feasible(ts[i], ps[j]) for i, j in zip(t_idx, p_idx)):
                            return k
            return 0

        for ts in subsets:
            for ps in subsets:
                got = event_based_f1(
                    [ClipAnnotations("c", ts)], [ClipAnnotations("c", ps)], cfg
                ).micro.tp
                assert got == brute_tp(ts, ps), (ts, ps)
        assert time.perf_counter() - t0 < 60.0


def test_c11_end_to_end_determinism(capsys, tmp_path, demo_pool_dir):
    with criterion(capsys, 11, "end-to-end determinism"):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            f"""\
dataset_seed: 202
output_dir: out
speech_manifest: {demo_pool_dir / 'speech_manifest.jsonl'}
background_manifest: {demo_pool_dir / 'background_manifest.jsonl'}
""",
            encoding="utf-8",
        )
        for run in ("run_a", "run_b"):
            rc = cli_main([
                "simulate", "--config", str(cfg), "--count", "100",
                "--output-dir", str(tmp_path / run),
            ])
            assert rc == 0
        a, b = tmp_path / "run_a", tmp_path / "run_b"
        assert (a / "scenes.jsonl").read_bytes() == (b / "scenes.jsonl").read_bytes()
        for i in range(100):
            wav = f"audio/scene{i:05d}.wav"
            assert (a / wav).read_bytes() == (b / wav).read_bytes()

        records = read_jsonl(a / "scenes.jsonl")
        assert len(records) == 100
        for rec in records:
            p = parse(rec["prompt"])
            assert serialize(p) == rec["prompt"]

        manifest = str(a / "scenes.jsonl")
        rc = cli_main(["evaluate", "--truth", manifest, "--pred", manifest])
        out = capsys.readouterr().out
        assert rc == 0
        assert "micro: P 100.0  R 100.0  F1 100.0" in out
        assert "Clip-level macro F1 (At): 100.0" in out
