import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import reference_annotations, reference_columns, reference_feasibility_graph
from soundscene import sed
from soundscene.dsl import MAX_SECONDS, EventAnnotation, TimeSpan
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
        t, p = sed._columns(truth, "truth"), sed._columns(pred, "predictions")
        _, (_, t_group), (_, p_group) = sed._groups(t, p)
        columns = (t_group, t.start, t.end, p_group, p.start, p.end, cfg)
        got, want = sed._feasibility_graph(*columns), reference_feasibility_graph(*columns)
        # same rows, and in each row the same predictions in the same order
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @settings(max_examples=200, deadline=None)
    # _dense_sides' times stay below 1e6 + 3 s
    @given(_dense_sides(), st.integers(0, int(MAX_SECONDS) - 10**6 - 3))
    def test_scores_do_not_depend_on_a_whole_second_shift(self, case, seconds):
        truth, pred, cfg = case

        def shifted(side):
            return [clip(c.clip_id, *(ev(e.label, e.span.start + seconds, e.span.end + seconds)
                                      for e in c.events)) for c in side]

        t_shifted, p_shifted = shifted(truth), shifted(pred)
        assert event_based_f1(t_shifted, p_shifted, cfg) == event_based_f1(truth, pred, cfg)
        assert clip_level_macro_f1(t_shifted, p_shifted) == clip_level_macro_f1(truth, pred)

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


_LABELS = ["dog", "Speech", "car"]
_BAD_VALUES = {
    "label": [None, 5, "", "  "],
    "start": [math.nan, math.inf, -math.inf, "0.5", True, None, 10**400, -0.5, 9.999],
    "end": [math.nan, math.inf, 0.0, "2", False, 10**400, 1.004],
    "transcript": [5, ["hi"]],
}


@st.composite
def _jsonl_manifests(draw):
    """Lines of a scene-manifest JSONL file: up to five clips of valid
    events, blank and malformed lines among them, and at most one
    corruption of a field, a span, a row, a clip id or the events list."""
    clip_ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=5, unique=True))
    row = st.builds(
        lambda label, start, length, transcript: {
            "label": label, "start": start / 100, "end": (start + length) / 100,
            "transcript": transcript,
        },
        st.sampled_from(_LABELS), st.integers(0, 900), st.integers(1, 300),
        st.sampled_from([None, "hello there"]),
    )
    records = [{"clip_id": cid, "events": draw(st.lists(row, max_size=4))} for cid in clip_ids]
    if records and draw(st.booleans()):
        rec = draw(st.sampled_from(records))
        kind = draw(st.sampled_from(["value", "drop", "empty", "row", "events", "clip_id", "duplicate"]))
        if kind in ("value", "drop", "empty") and rec["events"]:
            target = draw(st.sampled_from(rec["events"]))
            key = draw(st.sampled_from(sorted(_BAD_VALUES)))
            if kind == "empty":
                # a span that is empty once rounded to centiseconds
                target["end"] = target["start"] + 0.004
            elif kind == "drop":
                target.pop(key)
            else:
                target[key] = draw(st.sampled_from(_BAD_VALUES[key]))
        elif kind == "row":
            rec["events"].append(draw(st.sampled_from([5, "x", [1]])))
        elif kind == "events":
            rec["events"] = draw(st.sampled_from([5, "x", {}, None]))
        elif kind == "clip_id":
            rec["clip_id"] = draw(st.sampled_from([None, 7, ["a"]]))
        else:
            records.append({"clip_id": rec["clip_id"], "events": []})
    lines = [json.dumps(rec) for rec in records]
    if draw(st.booleans()):
        # a clip with no events field has no events
        lines.append(json.dumps({"clip_id": "z"}))
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["", "   ", "", "not json", "[1, 2]"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines)


_TIME_TEXT = st.sampled_from(["{:.2f}", "{:.1f}", " {:.2f} ", "{:e}", "+{:.3f}"])


@st.composite
def _annotation_tables(draw):
    """Lines of an annotation TSV with interleaved clips, blank lines among
    them, and at most one corruption: a wrong field count, a time that is
    not a finite decimal, an empty label or a span that is empty once
    rounded."""
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        start, length = draw(st.integers(0, 900)), draw(st.integers(1, 300))
        fmt = draw(_TIME_TEXT)
        lines.append([
            draw(st.sampled_from(["a", "b", "c"])), draw(st.sampled_from(_LABELS)),
            fmt.format(start / 100), fmt.format((start + length) / 100),
        ])
    if draw(st.booleans()):
        fields = draw(st.sampled_from(lines))
        kind = draw(st.sampled_from(["count", "start", "end", "label", "empty"]))
        if kind == "count":
            fields[:] = fields[:3] if draw(st.booleans()) else fields + ["x"]
        elif kind == "label":
            fields[1] = draw(st.sampled_from(["", "  "]))
        elif kind == "empty":
            fields[2:] = ["1.001", "1.004"]
        else:
            bad = ["x", "", "nan", "inf", "-inf", "1e400", "-0.5", "1.2.3"]
            fields[2 if kind == "start" else 3] = draw(st.sampled_from(bad))
    text = ["\t".join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 3))):
        text.insert(draw(st.integers(0, len(text))), draw(st.sampled_from(["", "  ", "\t "])))
    return "\n".join(text) + "\n"


def _assert_same_columns(got, want):
    for field, a, b in zip(got._fields, got, want):
        assert np.asarray(a).dtype == np.asarray(b).dtype and np.array_equal(a, b), field


def _read_or_message(read, path):
    try:
        return read(path), None
    except ValueError as exc:
        return None, str(exc)


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
        ("1" * 400, "2.0", "TimeSpan.start must be below 1e+13 s in magnitude"),
        ("0.5", "1e13", "TimeSpan.end must be below 1e+13 s in magnitude"),
    ], ids=["string", "bools", "bool-end", "huge-int", "past-the-bound"])
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
            ("1e13\t2.00",
             "malformed event record: TimeSpan.start must be below 1e+13 s in magnitude"),
            ("5.00\t3.00", "invalid span [5.0, 3.0]"),
        ):
            path.write_text(f"c1\tSpeech\t{span}\n")
            with pytest.raises(ValueError) as exc_info:
                annotations_from_manifest(path)
            assert str(exc_info.value) == f"{path}:1: {message}"
        path.write_text("c1\tSpeech\t 0.5 \t2.25\n")
        assert annotations_from_manifest(path)[0].events[0].span == TimeSpan(0.5, 2.25)

    @staticmethod
    def _assert_same_as_reference(path, text):
        path.write_text(text, encoding="utf-8")
        got, got_error = _read_or_message(annotations_from_manifest, path)
        want, want_error = _read_or_message(reference_annotations, path)
        assert got_error == want_error
        if want is None:
            return
        assert list(got) == want
        # the score columns, taken clip by clip, are the reference's
        cols = sed._columns(got, "truth")
        order = np.argsort(cols.clip, kind="stable")
        group_of, label_of = {}, {}
        r_group, r_label, r_start, r_end = reference_columns(want, group_of, label_of)
        pairs, labels = list(group_of), list(label_of)
        got_pairs = [(cols.clip_ids[c], cols.labels[k]) for c, k in zip(cols.clip[order], cols.label[order])]
        assert got_pairs == [pairs[g] for g in r_group]
        assert [cols.labels[k] for k in cols.label[order]] == [labels[k] for k in r_label]
        assert np.array_equal(cols.start[order], r_start)
        assert np.array_equal(cols.end[order], r_end)
        assert cols.clip_ids == [c.clip_id for c in want]
        # the reader's columns are the ones built from its clips' objects
        _assert_same_columns(cols, sed._columns(list(got), "truth"))

    @settings(max_examples=200, deadline=None)
    @given(_jsonl_manifests())
    def test_jsonl_reader_matches_object_reader(self, tmp_path_factory, text):
        self._assert_same_as_reference(tmp_path_factory.mktemp("ann") / "scenes.jsonl", text)

    @settings(max_examples=200, deadline=None)
    @given(_annotation_tables())
    def test_tsv_reader_matches_object_reader(self, tmp_path_factory, text):
        self._assert_same_as_reference(tmp_path_factory.mktemp("ann") / "events.tsv", text)

    def test_tsv_columns_run_clip_by_clip(self, tmp_path):
        text = "c1\tdog\t1.00\t2.00\nc2\tcar\t0.50\t1.00\nc1\tbird\t3.00\t4.00\n"
        self._assert_same_as_reference(tmp_path / "events.tsv", text)
        cols = sed._columns(annotations_from_manifest(tmp_path / "events.tsv"), "truth")
        assert cols.clip.tolist() == [0, 0, 1]
        assert [cols.labels[k] for k in cols.label] == ["dog", "bird", "car"]
        assert cols.start.tolist() == [100, 300, 50]

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text(
            '\ufeff{"clip_id": "a", "events": [{"label": "dog", "start": 1.0, "end": 2.0}]}\n',
            encoding="utf-8",
        )
        assert list(annotations_from_manifest(path)) == [clip("a", ev("dog", 1.0, 2.0))]
        tsv = tmp_path / "events.tsv"
        tsv.write_text("\ufeffc1\tdog\t1.00\t2.00\n", encoding="utf-8")
        assert list(annotations_from_manifest(tsv)) == [clip("c1", ev("dog", 1.0, 2.0))]

    def test_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "cr.tsv"
        # a lone carriage return is field data, not a line break
        path.write_bytes(b"c1\tdo\rg\t1.0\t2.0\n")
        assert list(annotations_from_manifest(path)) == [clip("c1", ev("do\rg", 1.0, 2.0))]
        # one carriage return before the newline is dropped; lines count newlines
        path.write_bytes(b"c1\tdog\t1.0\t2.0\r\n\r\nc1\tcar\t3.0\t4.0\r\n")
        assert list(annotations_from_manifest(path)) == [
            clip("c1", ev("dog", 1.0, 2.0), ev("car", 3.0, 4.0))
        ]
        path.write_bytes(b"c1\tdog\t1.0\t2.0\r\r\nc1\tdog\tx\t2.0\n")
        with pytest.raises(ValueError) as exc_info:
            annotations_from_manifest(path)
        assert str(exc_info.value) == (
            f"{path}:2: malformed event record: could not convert string to float: 'x'"
        )

    def test_reader_returns_a_read_only_sequence(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("c1\tdog\t1.00\t2.00\nc2\tcar\t0.50\t1.00\nc1\tdog\t3.00\t4.00\n")
        clips = annotations_from_manifest(path)
        assert len(clips) == 2
        assert clips[-1] == clip("c2", ev("car", 0.5, 1.0))
        assert clips[:1] == [clip("c1", ev("dog", 1.0, 2.0), ev("dog", 3.0, 4.0))]
        assert [c.clip_id for c in clips] == ["c1", "c2"]
        with pytest.raises(IndexError):
            clips[2]
        with pytest.raises(TypeError):
            clips[0] = clip("c3")

    @pytest.mark.parametrize("start, end, message", [
        ("1_5", "2.0", "start '1_5' is not an ASCII decimal"),
        ("1.5", "2_0", "end '2_0' is not an ASCII decimal"),
        ("\u0661.\u0665", "2.0", "start '\u0661.\u0665' is not an ASCII decimal"),
        ("1.5", "\uff12", "end '\uff12' is not an ASCII decimal"),
        ("\u00a01.5", "2.0", "start '\\xa01.5' is not an ASCII decimal"),
    ], ids=["underscore-start", "underscore-end", "arabic-indic", "fullwidth", "nbsp"])
    def test_tsv_times_are_ascii_decimals(self, tmp_path, start, end, message):
        path = tmp_path / "events.tsv"
        path.write_text(f"c1\tSpeech\t1.00\t2.00\nc1\tSpeech\t{start}\t{end}\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc_info:
            annotations_from_manifest(path)
        assert str(exc_info.value) == f"{path}:2: malformed event record: {message}"

    def test_format_sniffed_from_first_non_blank_line(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        record = '{"clip_id": "a", "events": [{"label": "dog", "start": 1.0, "end": 2.0}]}\n'
        path.write_text("\n" * 5000 + "  \n" + record)
        assert list(annotations_from_manifest(path)) == [clip("a", ev("dog", 1.0, 2.0))]
        tsv = tmp_path / "events.tsv"
        tsv.write_text(" \n" * 3000 + "a\tdog\t1.00\t2.00\n")
        assert list(annotations_from_manifest(tsv)) == [clip("a", ev("dog", 1.0, 2.0))]

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
