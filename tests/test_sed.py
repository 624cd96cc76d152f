import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import reference_feasibility_graph
from soundscene import sed
from soundscene.dsl import EventAnnotation, TimeSpan
from soundscene.sed import (
    ClipAnnotations,
    EbConfig,
    annotations_from_manifest,
    clip_level_macro_f1,
    event_based_f1,
    format_score,
    render_report,
)


def ev(label, start, end):
    return EventAnnotation(label=label, span=TimeSpan(start, end))


def clip(clip_id, *events):
    return ClipAnnotations(clip_id=clip_id, events=tuple(events))


def collar_feasible(truth, pred, cfg):
    """Reference predicate, one pair at a time: onsets within the onset
    collar, offsets within max(abs, rel * truth length), each with a 1e-9
    tolerance."""
    tol = 1e-9
    if abs(pred.span.start - truth.span.start) > cfg.onset_collar + tol:
        return False
    allowance = max(cfg.offset_collar_abs, cfg.offset_collar_rel * truth.span.duration)
    return abs(pred.span.end - truth.span.end) <= allowance + tol


def greedy_tp(truth_events, pred_events, cfg):
    """Order-dependent foil: each truth event takes the first still-free
    feasible prediction in list order."""
    taken = [False] * len(pred_events)
    tp = 0
    for te in truth_events:
        for j, pe in enumerate(pred_events):
            if not taken[j] and collar_feasible(te, pe, cfg):
                taken[j] = True
                tp += 1
                break
    return tp


def brute_force_tp(truth_events, pred_events, cfg):
    """Maximum matching by trying every injective assignment."""
    n, m = len(truth_events), len(pred_events)
    best = 0
    for k in range(min(n, m), 0, -1):
        for t_idx in itertools.combinations(range(n), k):
            for p_perm in itertools.permutations(range(m), k):
                if all(
                    collar_feasible(truth_events[i], pred_events[j], cfg)
                    for i, j in zip(t_idx, p_perm)
                ):
                    return k
    return best


def brute_force_counts(truth, pred, cfg):
    """Per-label [tp, fp, fn] summed over clips with the brute-force
    matcher; clips missing from one side count as empty there."""
    t_map = {c.clip_id: c.events for c in truth}
    p_map = {c.clip_id: c.events for c in pred}
    totals = {}
    for clip_id in set(t_map) | set(p_map):
        t_events, p_events = t_map.get(clip_id, ()), p_map.get(clip_id, ())
        for label in {e.label for e in t_events} | {e.label for e in p_events}:
            t = [e for e in t_events if e.label == label]
            p = [e for e in p_events if e.label == label]
            tp = brute_force_tp(t, p, cfg)
            acc = totals.setdefault(label, [0, 0, 0])
            acc[0] += tp
            acc[1] += len(p) - tp
            acc[2] += len(t) - tp
    return totals


# small multi-clip, multi-label sides on a 0.1 s grid, so many pairs sit
# exactly on a collar edge
_events = st.lists(
    st.builds(
        lambda label, start, length: ev(label, start / 10, (start + length) / 10),
        st.sampled_from(["a", "b"]),
        st.integers(0, 30),
        st.integers(1, 20),
    ),
    max_size=4,
)
_sides = st.dictionaries(st.sampled_from(["c1", "c2", "c3"]), _events, max_size=3).map(
    lambda clips: [clip(cid, *events) for cid, events in clips.items()]
)
_configs = st.builds(
    EbConfig,
    st.sampled_from([0.0, 0.1, 0.2, 0.5]),
    st.sampled_from([0.0, 0.1, 0.2]),
    st.sampled_from([0.0, 0.2, 0.5]),
)


@st.composite
def _dense_sides(draw):
    """Three clips x three labels with onsets on a centisecond grid shifted
    by up to 1e6 s, and collars that are whole centiseconds (zero among
    them); some predictions are truth events moved by exactly the onset
    and offset collars, so their pairs sit on a collar edge."""
    collars = st.sampled_from([0, 5, 10, 20])
    onset_cs, offset_cs = draw(collars), draw(collars)
    cfg = EbConfig(onset_cs / 100, offset_cs / 100, draw(st.sampled_from([0.0, 0.2])))
    base = 100 + draw(st.integers(0, 10**8))

    def event(label, start, end):
        return ev(label, (base + start) / 100, (base + max(end, start + 1)) / 100)

    cell = st.tuples(st.integers(0, 80), st.integers(1, 40))
    sign = st.sampled_from([-1, 0, 1])
    truth, pred = [], []
    for cid in ("c1", "c2", "c3"):
        t_events, p_events = [], []
        for label in ("a", "b", "c"):
            for start, length in draw(st.lists(cell, max_size=5)):
                t_events.append(event(label, start, start + length))
                for on, off in draw(st.lists(st.tuples(sign, sign), max_size=2)):
                    shifted = start + on * onset_cs
                    p_events.append(event(label, shifted, start + length + off * offset_cs))
            for start, length in draw(st.lists(cell, max_size=3)):
                p_events.append(event(label, start, start + length))
        truth.append(clip(cid, *draw(st.permutations(t_events))))
        pred.append(clip(cid, *draw(st.permutations(p_events))))
    return truth, pred, cfg


class TestEbConfig:
    def test_defaults(self):
        cfg = EbConfig()
        assert (cfg.onset_collar, cfg.offset_collar_abs, cfg.offset_collar_rel) == (0.2, 0.2, 0.2)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            EbConfig(onset_collar=-0.1)
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("onset_collar", "offset_collar_abs", "offset_collar_rel"):
                with pytest.raises(ValueError, match=name):
                    EbConfig(**{name: bad})


class TestEventBasedF1:
    def test_perfect_prediction(self):
        truth = [clip("c1", ev("Speech", 1.0, 3.0), ev("Dog", 4.0, 5.0))]
        res = event_based_f1(truth, truth)
        assert res.micro.precision == 1.0
        assert res.micro.recall == 1.0
        assert res.micro.f1 == 1.0
        assert res.macro_f1 == 1.0
        assert all(prf.f1 == 1.0 for prf in res.per_class.values())

    def test_hand_case_two_truth_one_match(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0), ev("Speech", 5.0, 6.0))]
        pred = [clip("c1", ev("Speech", 1.0, 2.0))]
        res = event_based_f1(truth, pred)
        assert res.micro.precision == 1.0
        assert res.micro.recall == 0.5
        assert res.micro.f1 == pytest.approx(2 / 3)
        assert format_score(res.micro.f1) == "66.7"

    def test_empty_predictions(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        res = event_based_f1(truth, [clip("c1")])
        assert res.micro.f1 == 0.0
        assert res.micro.fn == 1

    def test_missing_pred_clip_counts_as_empty(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        assert event_based_f1(truth, []).micro.fn == 1

    def test_extra_pred_clip_counts_false_positives(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        pred = [clip("c1", ev("Speech", 1.0, 2.0)), clip("c2", ev("Speech", 0.0, 1.0))]
        res = event_based_f1(truth, pred)
        assert res.micro.tp == 1
        assert res.micro.fp == 1

    def test_onset_collar_boundary(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        on_edge = [clip("c1", ev("Speech", 1.2, 2.0))]
        beyond = [clip("c1", ev("Speech", 1.21, 2.0))]
        assert event_based_f1(truth, on_edge).micro.tp == 1
        assert event_based_f1(truth, beyond).micro.tp == 0

    def test_relative_offset_collar_scales_with_length(self):
        # 10 s truth event: offset allowance max(0.2, 0.2*10) = 2 s
        truth = [clip("c1", ev("Music", 0.0, 10.0))]
        pred = [clip("c1", ev("Music", 0.1, 8.5))]
        assert event_based_f1(truth, pred).micro.tp == 1
        short_truth = [clip("c1", ev("Music", 0.0, 1.0))]
        short_pred = [clip("c1", ev("Music", 0.1, 2.5))]
        assert event_based_f1(short_truth, short_pred).micro.tp == 0

    def test_labels_must_match(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        pred = [clip("c1", ev("Dog", 1.0, 2.0))]
        res = event_based_f1(truth, pred)
        assert res.micro.tp == 0
        assert res.micro.fp == 1
        assert res.micro.fn == 1

    def test_each_truth_matches_at_most_one_pred(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        pred = [clip("c1", ev("Speech", 1.0, 2.0), ev("Speech", 1.05, 2.05))]
        res = event_based_f1(truth, pred)
        assert res.micro.tp == 1
        assert res.micro.fp == 1

    def test_pred_only_class_excluded_from_macro(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        pred = [clip("c1", ev("Speech", 1.0, 2.0), ev("Siren", 4.0, 5.0))]
        res = event_based_f1(truth, pred)
        assert res.macro_f1 == 1.0  # Siren not in truth, so not averaged
        assert res.per_class["Siren"].fp == 1
        assert res.per_class["Siren"].f1 == 0.0
        assert res.micro.fp == 1

    def test_truth_only_class_drags_macro_down(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0), ev("Dog", 3.0, 4.0))]
        pred = [clip("c1", ev("Speech", 1.0, 2.0))]
        res = event_based_f1(truth, pred)
        assert res.macro_f1 == pytest.approx(0.5)

    def test_duplicate_clip_id_raises(self):
        clips = [clip("c1"), clip("c1")]
        with pytest.raises(ValueError, match="duplicate"):
            event_based_f1(clips, [])
        with pytest.raises(ValueError, match="duplicate"):
            event_based_f1([], clips)

    def test_exact_matcher_beats_order_dependent_greedy(self):
        cfg = EbConfig()
        # T2's offset is only feasible with P1, but greedy hands P1 to T1
        truth_events = (ev("a", 0.0, 1.0), ev("a", 0.1, 1.3))
        pred_events = (ev("a", 0.15, 1.15), ev("a", 0.12, 1.0))
        assert greedy_tp(truth_events, pred_events, cfg) == 1
        res = event_based_f1(
            [clip("c1", *truth_events)], [clip("c1", *pred_events)], cfg
        )
        assert res.micro.tp == 2

    def test_matches_brute_force_on_random_instances(self):
        cfg = EbConfig()
        rng = np.random.default_rng(17)
        for _ in range(200):
            nt, npred = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            truth_events = tuple(
                ev("x", s, s + d)
                for s, d in zip(
                    np.round(rng.uniform(0, 3, nt), 1), np.round(rng.uniform(0.5, 2, nt), 1)
                )
            )
            pred_events = tuple(
                ev("x", s, s + d)
                for s, d in zip(
                    np.round(rng.uniform(0, 3, npred), 1), np.round(rng.uniform(0.5, 2, npred), 1)
                )
            )
            res = event_based_f1([clip("c1", *truth_events)], [clip("c1", *pred_events)], cfg)
            assert res.micro.tp == brute_force_tp(truth_events, pred_events, cfg)

    @settings(max_examples=200, deadline=None)
    @given(_sides, _sides, _configs)
    def test_matches_brute_force_across_clips_and_labels(self, truth, pred, cfg):
        res = event_based_f1(truth, pred, cfg)
        got = {label: [prf.tp, prf.fp, prf.fn] for label, prf in res.per_class.items()}
        assert got == brute_force_counts(truth, pred, cfg)
        assert list(res.per_class) == sorted(res.per_class)

    @settings(max_examples=200, deadline=None)
    @given(_dense_sides())
    def test_window_search_matches_rank_table(self, case):
        truth, pred, cfg = case
        group_of, label_of = {}, {}
        t_group, _, t_start, t_end = sed._columns(sed._by_clip(truth, "truth"), group_of, label_of)
        p_group, _, p_start, p_end = sed._columns(
            sed._by_clip(pred, "predictions"), group_of, label_of
        )
        columns = (t_group, t_start, t_end, p_group, p_start, p_end, cfg)
        got, want = sed._feasibility_graph(*columns), reference_feasibility_graph(*columns)
        # same rows, and in each row the same predictions in the same order
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @settings(max_examples=200, deadline=None)
    @given(_sides, _sides, _configs, st.randoms(use_true_random=False))
    def test_scores_do_not_depend_on_order(self, truth, pred, cfg, rnd):
        def shuffled(side):
            clips = [clip(c.clip_id, *rnd.sample(c.events, len(c.events))) for c in side]
            return rnd.sample(clips, len(clips))

        t_shuffled, p_shuffled = shuffled(truth), shuffled(pred)
        assert event_based_f1(t_shuffled, p_shuffled, cfg) == event_based_f1(truth, pred, cfg)
        assert clip_level_macro_f1(t_shuffled, p_shuffled) == clip_level_macro_f1(truth, pred)

    def test_long_displacement_chain_is_matched_in_full(self):
        # truth i is feasible with predictions i-1 and i only; a recursive
        # augmenting-path search overflows the stack on this chain
        n = 1201
        truth = [clip("c1", *(ev("a", 0.3 * i, 0.3 * i + 0.25) for i in range(n)))]
        pred = [clip("c1", *(ev("a", 0.3 * i + 0.15, 0.3 * i + 0.4) for i in range(n)))]
        cfg = EbConfig()
        assert collar_feasible(truth[0].events[1], pred[0].events[0], cfg)
        assert not collar_feasible(truth[0].events[0], pred[0].events[1], cfg)
        res = event_based_f1(truth, pred, cfg)
        assert (res.micro.tp, res.micro.fp, res.micro.fn) == (n, 0, 0)

    def test_large_class_in_one_clip(self):
        # 3,000 truth events 0.5 s apart; every second one has a prediction
        # 0.1 s late, plus 500 predictions far from any truth onset
        n = 3000
        truth = [clip("c1", *(ev("a", 0.5 * i, 0.5 * i + 1.0) for i in range(n)))]
        hits = [ev("a", 0.5 * i + 0.1, 0.5 * i + 1.1) for i in range(0, n, 2)]
        misses = [ev("a", 2000.0 + 0.5 * i, 2000.0 + 0.5 * i + 1.0) for i in range(500)]
        res = event_based_f1(truth, [clip("c1", *hits, *misses)])
        assert (res.micro.tp, res.micro.fp, res.micro.fn) == (1500, 500, 1500)

    def test_swap_symmetry_with_absolute_collars(self):
        # with the relative collar off, the match criterion is symmetric,
        # so swapping sides swaps precision and recall exactly
        cfg = EbConfig(offset_collar_rel=0.0)
        rng = np.random.default_rng(23)
        for _ in range(50):
            def make_clip(cid, n):
                events = tuple(
                    ev("x", s, s + d)
                    for s, d in zip(
                        np.round(rng.uniform(0, 4, n), 1), np.round(rng.uniform(0.5, 2, n), 1)
                    )
                )
                return clip(cid, *events)

            a = [make_clip("c1", int(rng.integers(0, 5)))]
            b = [make_clip("c1", int(rng.integers(0, 5)))]
            ab = event_based_f1(a, b, cfg)
            ba = event_based_f1(b, a, cfg)
            assert ab.micro.precision == pytest.approx(ba.micro.recall)
            assert ab.micro.recall == pytest.approx(ba.micro.precision)
            assert ab.micro.f1 == pytest.approx(ba.micro.f1)

    def test_adding_matching_pred_never_decreases_recall(self):
        cfg = EbConfig()
        truth = [clip("c1", ev("a", 0.0, 1.0), ev("a", 2.0, 3.0))]
        pred_events = [ev("a", 0.0, 1.0)]
        before = event_based_f1(truth, [clip("c1", *pred_events)], cfg)
        pred_events.append(ev("a", 2.0, 3.0))
        after = event_based_f1(truth, [clip("c1", *pred_events)], cfg)
        assert after.micro.recall >= before.micro.recall

    def test_adding_unmatched_pred_never_increases_precision(self):
        cfg = EbConfig()
        truth = [clip("c1", ev("a", 0.0, 1.0))]
        pred_events = [ev("a", 0.0, 1.0)]
        before = event_based_f1(truth, [clip("c1", *pred_events)], cfg)
        pred_events.append(ev("a", 8.0, 9.0))
        after = event_based_f1(truth, [clip("c1", *pred_events)], cfg)
        assert after.micro.precision <= before.micro.precision

    def test_scores_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            def random_clips(prefix):
                return [
                    clip(
                        f"{prefix}{i}",
                        *(
                            ev(rng.choice(["a", "b"]), s, s + 0.5)
                            for s in np.round(rng.uniform(0, 5, int(rng.integers(0, 4))), 1)
                        ),
                    )
                    for i in range(2)
                ]

            res = event_based_f1(random_clips("c"), random_clips("c"))
            for prf in [res.micro, *res.per_class.values()]:
                assert 0.0 <= prf.precision <= 1.0
                assert 0.0 <= prf.recall <= 1.0
                assert 0.0 <= prf.f1 <= 1.0
            assert 0.0 <= res.macro_f1 <= 1.0


class TestClipLevelMacroF1:
    def test_perfect(self):
        truth = [
            clip("c1", ev("Speech", 1.0, 2.0)),
            clip("c2", ev("Dog", 0.0, 1.0), ev("Speech", 3.0, 4.0)),
        ]
        assert clip_level_macro_f1(truth, truth) == 1.0

    def test_hand_case_one_of_two_clips(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0)), clip("c2", ev("Speech", 3.0, 4.0))]
        pred = [clip("c1", ev("Speech", 5.0, 6.0)), clip("c2")]
        # presence-only: c1 counts even though the span is wrong
        assert clip_level_macro_f1(truth, pred) == pytest.approx(2 / 3)

    def test_always_on_predictor_closed_form(self):
        # class a in 2 of 4 clips (p=0.5), class b in all 4 (p=1.0);
        # predicting everything everywhere gives mean of 2p/(p+1)
        truth = [
            clip("c1", ev("a", 0.0, 1.0), ev("b", 2.0, 3.0)),
            clip("c2", ev("a", 0.0, 1.0), ev("b", 2.0, 3.0)),
            clip("c3", ev("b", 2.0, 3.0)),
            clip("c4", ev("b", 2.0, 3.0)),
        ]
        pred = [clip(f"c{i}", ev("a", 0.0, 1.0), ev("b", 0.0, 1.0)) for i in range(1, 5)]
        expected = (2 * 0.5 / 1.5 + 2 * 1.0 / 2.0) / 2
        assert clip_level_macro_f1(truth, pred) == pytest.approx(expected)

    def test_empty_truth(self):
        assert clip_level_macro_f1([], [clip("c1", ev("a", 0.0, 1.0))]) == 0.0

    def test_pred_only_class_ignored(self):
        truth = [clip("c1", ev("a", 0.0, 1.0))]
        pred = [clip("c1", ev("a", 0.0, 1.0), ev("z", 2.0, 3.0))]
        assert clip_level_macro_f1(truth, pred) == 1.0

    def test_duplicate_clip_id_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            clip_level_macro_f1([clip("c1"), clip("c1")], [])


class TestManifestReader:
    def test_tsv_row(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("clip1\tSpeech\t3.00\t5.00\n")
        clips = annotations_from_manifest(path)
        assert len(clips) == 1
        assert clips[0].clip_id == "clip1"
        assert clips[0].events == (ev("Speech", 3.0, 5.0),)

    def test_tsv_groups_rows_by_clip(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text(
            "c1\tSpeech\t1.00\t2.00\nc2\tDog\t0.00\t1.00\nc1\tSpeech\t4.00\t5.00\n"
        )
        clips = annotations_from_manifest(path)
        assert [c.clip_id for c in clips] == ["c1", "c2"]
        assert len(clips[0].events) == 2

    def test_tsv_bad_span_order_raises_with_line(self, tmp_path):
        path = tmp_path / "events.tsv"
        # 1.001-1.004 rounds to the empty span [1.00, 1.00]
        for span in ("5.00\t3.00", "nan\t2.00", "1.00\tinf", "-inf\t1.00", "1.001\t1.004"):
            path.write_text(f"c1\tSpeech\t{span}\n")
            with pytest.raises(ValueError, match="events.tsv:1"):
                annotations_from_manifest(path)

    def test_tsv_non_numeric_raises_with_line(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("c1\tSpeech\t1.00\t2.00\nc1\tSpeech\tx\t2.00\n")
        with pytest.raises(ValueError, match=":2"):
            annotations_from_manifest(path)

    def test_tsv_wrong_field_count_raises(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("c1\tSpeech\t1.00\n")
        with pytest.raises(ValueError, match="4 tab-separated"):
            annotations_from_manifest(path)

    def test_jsonl_scene_schema(self, tmp_path):
        import json

        path = tmp_path / "scenes.jsonl"
        rec = {
            "clip_id": "scene0",
            "audio": "audio/scene0.wav",
            "caption": "Rain falling",
            "prompt": "Rain falling",
            "events": [
                {"label": "Speech", "start": 1.25, "end": 3.5, "transcript": "hello there"}
            ],
            "scenario": "monologue",
            "snr_db": 5.0,
            "seed": 1,
        }
        path.write_text(json.dumps(rec) + "\n")
        clips = annotations_from_manifest(path)
        assert clips[0].clip_id == "scene0"
        assert clips[0].events[0].label == "Speech"
        assert clips[0].events[0].span == TimeSpan(1.25, 3.5)
        assert clips[0].events[0].transcript == "hello there"

    def test_jsonl_duplicate_clip_raises(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"clip_id": "a", "events": []}\n{"clip_id": "a", "events": []}\n')
        with pytest.raises(ValueError, match="duplicate"):
            annotations_from_manifest(path)

    @pytest.mark.parametrize("clip_id, message", [
        (None, "field 'clip_id' must be a string, got null"),
        (7, "field 'clip_id' must be a string, got 7"),
        ("absent", "missing required field 'clip_id'"),
    ], ids=["null", "number", "absent"])
    def test_jsonl_clip_id_must_be_a_string(self, tmp_path, clip_id, message):
        path = tmp_path / "scenes.jsonl"
        bad = {"events": []} if clip_id == "absent" else {"clip_id": clip_id, "events": []}
        path.write_text('{"clip_id": "a", "events": []}\n' + json.dumps(bad) + "\n")
        with pytest.raises(ValueError) as exc_info:
            annotations_from_manifest(path)
        assert str(exc_info.value) == f"{path}:2: {message}"

    def test_jsonl_missing_event_field_raises(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"clip_id": "a", "events": [{"label": "Speech", "start": 1.0}]}\n')
        with pytest.raises(ValueError, match="malformed event"):
            annotations_from_manifest(path)
        good = '{"clip_id": "ok", "events": [{"label": "Speech", "start": 1.0, "end": 2.0}]}\n'
        for events in (
            "5",
            "[5]",
            '[{"label": "Speech", "start": "x", "end": 2.0}]',
            '[{"label": "Speech", "start": NaN, "end": 2.0}]',
            '[{"label": "Speech", "start": 1.0, "end": Infinity}]',
            '[{"label": "Speech", "start": 1.001, "end": 1.004}]',
            '[{"label": null, "start": 1.0, "end": 2.0}]',
            '[{"label": 5, "start": 1.0, "end": 2.0}]',
            '[{"label": "Speech", "start": 1.0, "end": 2.0, "transcript": 5}]',
        ):
            path.write_text(good + '{"clip_id": "a", "events": ' + events + "}\n")
            with pytest.raises(ValueError, match=r"scenes\.jsonl:2: "):
                annotations_from_manifest(path)

    @pytest.mark.parametrize("start, end, message", [
        ('"0.5"', "2.25", "start '0.5' is not a number"),
        ("false", "true", "start False is not a number"),
        ("0.5", "true", "end True is not a number"),
        ("1" * 400, "2.0", "start is an integer too large for a float"),
    ], ids=["string", "bools", "bool-end", "huge-int"])
    def test_jsonl_event_times_are_json_numbers(self, tmp_path, start, end, message):
        path = tmp_path / "scenes.jsonl"
        path.write_text(
            '{"clip_id": "ok", "events": [{"label": "Speech", "start": 1, "end": 2.5}]}\n'
            f'{{"clip_id": "a", "events": [{{"label": "Speech", "start": {start}, "end": {end}}}]}}\n'
        )
        with pytest.raises(ValueError) as exc_info:
            annotations_from_manifest(path)
        assert str(exc_info.value) == f"{path}:2: malformed event record: {message}"

    def test_tsv_times_keep_their_messages(self, tmp_path):
        path = tmp_path / "events.tsv"
        for span, message in (
            ("x\t2.00", "malformed event record: could not convert string to float: 'x'"),
            ("nan\t2.00", "malformed event record: TimeSpan.start must be finite, got nan"),
            ("5.00\t3.00", "invalid span [5.0, 3.0]"),
        ):
            path.write_text(f"c1\tSpeech\t{span}\n")
            with pytest.raises(ValueError) as exc_info:
                annotations_from_manifest(path)
            assert str(exc_info.value) == f"{path}:1: {message}"
        path.write_text("c1\tSpeech\t 0.5 \t2.25\n")
        assert annotations_from_manifest(path)[0].events[0].span == TimeSpan(0.5, 2.25)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("\nc1\tSpeech\t1.00\t2.00\n\n")
        assert len(annotations_from_manifest(path)) == 1


class TestReport:
    def test_report_contains_rendered_scores(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0), ev("Speech", 5.0, 6.0))]
        pred = [clip("c1", ev("Speech", 1.0, 2.0))]
        eb = event_based_f1(truth, pred)
        at = clip_level_macro_f1(truth, pred)
        report = render_report(eb, at)
        assert "F1 66.7" in report
        assert "Clip-level macro F1 (At): 100.0" in report
        assert "Speech:" in report

    def test_perfect_report(self):
        truth = [clip("c1", ev("Speech", 1.0, 2.0))]
        eb = event_based_f1(truth, truth)
        report = render_report(eb, clip_level_macro_f1(truth, truth))
        assert "P 100.0  R 100.0  F1 100.0" in report

    def test_format_score(self):
        assert format_score(1.0) == "100.0"
        assert format_score(2 / 3) == "66.7"
        assert format_score(0.0) == "0.0"
