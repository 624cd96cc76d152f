import copy
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from soundscene.diffusion import GuidanceSchedule, cosine_schedule, sample_progressive
from soundscene.toytrain import (
    GRANULARITIES,
    CurriculumStage,
    ToyDenoiser,
    TrainingDiverged,
    _draw_granularity,
    default_curriculum,
    load_checkpoint,
    make_toy_dataset,
    save_checkpoint,
    train_toy_denoiser,
    validation_loss,
)


def _tiny_denoiser(dim=2, T=10, hidden=5, emb=3, n_freq=2, seed=0):
    return ToyDenoiser(
        dim, T, hidden=hidden, emb=emb, level_sizes=(2, 2, 2), n_freq=n_freq,
        rng=np.random.default_rng(seed),
    )


def _checkpoint_parts(dn):
    """The header sizes and (name, array) parameters save_checkpoint writes."""
    header = {
        "dim": dn.dim, "T": dn.T, "hidden": dn.hidden, "emb": dn.emb,
        "level_sizes": list(dn.level_sizes), "n_freq": dn.n_freq,
    }
    return header, [(name, dn.params[name]) for name in sorted(dn.params)]


def _write_checkpoint(tmp_path, header, params):
    """A checkpoint file laid out as save_checkpoint lays it out, holding
    these header sizes and these (name, array) parameters in order."""
    header = dict(header, params=[[name, list(np.shape(value))] for name, value in params])
    blob = json.dumps(header).encode("utf-8")
    path = tmp_path / "edited.ckpt"
    with open(path, "wb") as fh:
        fh.write(b"TOYDNZR\x00" + struct.pack("<II", 1, len(blob)) + blob)
        for _, value in params:
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return path


def _loss_only(dn, z_t, t, eps, gran, view_ids):
    out, _ = dn._forward(z_t, t, gran, view_ids)
    return float(np.sum((out - eps) ** 2)) / z_t.shape[0]


class TestGradients:
    @pytest.mark.parametrize("granularity,table", [("full", "E_full"), ("text", "E_text"), ("null", "E_null")])
    def test_backprop_matches_finite_differences(self, granularity, table):
        dn = _tiny_denoiser()
        rng = np.random.default_rng(3)
        n = 6
        z_t = rng.standard_normal((n, dn.dim))
        t = rng.integers(1, dn.T + 1, size=n).astype(np.float64)
        eps = rng.standard_normal((n, dn.dim))
        if granularity == "null":
            view_ids = np.zeros(n, dtype=np.int64)
        else:
            view_ids = rng.integers(0, dn.params[table].shape[0], size=n)
        _, grads = dn._loss_and_grads(z_t, t, eps, granularity, view_ids)
        h = 1e-6
        for key in ["W1", "b1", "W2", "b2", "W3", "b3", table]:
            P = dn.params[key]
            numeric = np.zeros_like(P)
            it = np.nditer(P, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = P[i]
                P[i] = orig + h
                lp = _loss_only(dn, z_t, t, eps, granularity, view_ids)
                P[i] = orig - h
                lm = _loss_only(dn, z_t, t, eps, granularity, view_ids)
                P[i] = orig
                numeric[i] = (lp - lm) / (2 * h)
            assert np.allclose(grads[key], numeric, rtol=1e-4, atol=1e-7), key

    def test_inactive_tables_get_zero_gradient(self):
        dn = _tiny_denoiser()
        rng = np.random.default_rng(4)
        z_t = rng.standard_normal((4, dn.dim))
        t = np.full(4, 3.0)
        eps = rng.standard_normal((4, dn.dim))
        _, grads = dn._loss_and_grads(z_t, t, eps, "text", np.zeros(4, dtype=np.int64))
        assert not grads["E_text"].sum() == 0.0  # active table moved
        assert np.all(grads["E_full"] == 0.0)
        assert np.all(grads["E_null"] == 0.0)


class TestConditionViews:
    def test_view_projection(self):
        dn = _tiny_denoiser()
        # id = (text*2 + timing)*2 + phoneme with sizes (2, 2, 2)
        assert dn.view_of(7, "full") == 7
        assert dn.view_of(7, "text_timing") == 3
        assert dn.view_of(7, "text") == 1
        assert dn.view_of(5, "text_timing") == 2
        assert dn.view_of(5, "text") == 1
        assert dn.view_of(0, "text") == 0
        assert dn.view_of(3, "null") == 0

    def test_out_of_range_id_raises(self):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="outside"):
            dn.view_of(8, "full")

    def test_unknown_granularity_raises(self):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="granularity"):
            dn.view_of(0, "prosody")

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_array_form_matches_scalar_calls(self, granularity):
        dn = ToyDenoiser(2, 10, level_sizes=(3, 4, 5), rng=np.random.default_rng(0))
        ids = np.random.default_rng(1).permutation(dn.n_conditions).reshape(6, 10)
        scalar = [[dn.view_of(int(c), granularity) for c in row] for row in ids]
        assert all(type(v) is int for row in scalar for v in row)
        views = dn.view_of(ids, granularity)
        assert views.shape == ids.shape and views.dtype == ids.dtype
        assert views.tolist() == scalar
        assert type(dn.view_of(np.int64(37), granularity)) is int

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_one_bad_id_in_array_raises(self, granularity):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="condition id 8 outside 0..7"):
            dn.view_of(np.array([0, 3, 8, 99, 1]), granularity)
        with pytest.raises(ValueError, match="condition id -2 outside 0..7"):
            dn.view_of(np.array([[0, 7], [-2, 1]]), granularity)

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.array([1.0, 2.0]), "3"])
    def test_non_integer_ids_rejected(self, bad):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="must be integers"):
            dn.view_of(bad, "full")


class TestPredict:
    def test_shape_follows_input(self):
        dn = _tiny_denoiser()
        single = dn.predict(np.zeros(2), 3, ("text", 1))
        assert single.shape == (2,)
        batch = dn.predict(np.zeros((7, 2)), 3, ("text", 1))
        assert batch.shape == (7, 2)

    def test_none_condition_is_null_embedding(self):
        dn = _tiny_denoiser()
        z = np.random.default_rng(1).standard_normal((3, 2))
        assert np.array_equal(dn.predict(z, 4, None), dn.predict(z, 4, ("null", 0)))

    def test_conditions_change_output(self):
        dn = _tiny_denoiser()
        z = np.ones((1, 2))
        a = dn.predict(z, 4, ("full", 0))
        b = dn.predict(z, 4, ("full", 7))
        assert not np.array_equal(a, b)

    def test_wrong_dim_raises(self):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="dimension"):
            dn.predict(np.zeros(3), 1, None)

    @pytest.mark.parametrize("t", [-3, -1, 11, 5000, float("nan")])
    def test_step_outside_schedule_raises(self, t):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match=r"outside 0\.\.10"):
            dn.predict(np.zeros(2), t, None)

    def test_schedule_end_steps_accepted(self):
        dn = _tiny_denoiser()
        for t in (0, dn.T, np.int64(dn.T)):
            assert dn.predict(np.zeros(2), t, ("text", 1)).shape == (2,)

    @pytest.mark.parametrize(
        "vid", [1.7, 0.5, -0.5, np.float64(1.25), float("inf"), float("nan"), None]
    )
    def test_fractional_view_id_raises(self, vid):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="not an integer"):
            dn.predict(np.zeros(2), 3, ("text", vid))

    def test_integral_view_id_of_any_type_is_that_view(self):
        dn = _tiny_denoiser()
        z = np.random.default_rng(2).standard_normal((3, 2))
        want = dn.predict(z, 3, ("text", 1)).tobytes()
        for vid in (1.0, np.int64(1), np.float64(1.0)):
            assert dn.predict(z, 3, ("text", vid)).tobytes() == want


def _reference_predict(dn, z_t, t, c=None):
    """The forward pass as first written: concatenate the per-row inputs,
    then np.tanh(x @ W + b) per layer, all in fresh arrays."""
    z = np.asarray(z_t, dtype=np.float64)
    z2 = z[None, :] if z.ndim == 1 else z
    n = z2.shape[0]
    granularity, vid = ("null", 0) if c is None else c
    E = dn.params[dn._table(granularity)]
    tau = np.full(n, t, dtype=np.float64)[:, None] / dn.T
    angles = 2.0 * np.pi * tau * 2.0 ** np.arange(dn.n_freq)
    feats = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    x = np.concatenate([z2, feats, E[np.full(n, int(vid))]], axis=1)
    p = dn.params
    h1 = np.tanh(x @ p["W1"] + p["b1"])
    h2 = np.tanh(h1 @ p["W2"] + p["b2"])
    out = h2 @ p["W3"] + p["b3"]
    return out[0] if z.ndim == 1 else out


def _sampling_denoiser():
    """Default-sized denoiser with nonzero biases, as after training."""
    dn = ToyDenoiser(4, 100, rng=np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for key in ("b1", "b2", "b3"):
        dn.params[key] = 0.3 * rng.standard_normal(dn.params[key].shape)
    return dn


class TestPredictWorkspace:
    CONDITIONS = [None] + [(g, 0 if g == "null" else 1) for g in GRANULARITIES]

    @pytest.mark.parametrize("c", CONDITIONS, ids=str)
    def test_bytes_match_reference_forward(self, c):
        dn = _sampling_denoiser()
        rng = np.random.default_rng(7)
        # interleaved row counts resize the scratch rows between calls
        for n in (1, 1024, 2, 7, 1024, 1, 7):
            z = rng.standard_normal((n, dn.dim))
            for t in (1, dn.T // 2, dn.T):
                got = dn.predict(z, t, c)
                assert got.tobytes() == _reference_predict(dn, z, t, c).tobytes(), (n, t)
        z1 = rng.standard_normal(dn.dim)
        assert dn.predict(z1, 3, c).tobytes() == _reference_predict(dn, z1, 3, c).tobytes()

    def test_every_view_id_matches_reference(self):
        dn = _sampling_denoiser()
        z = np.random.default_rng(8).standard_normal((7, dn.dim))
        for g in GRANULARITIES:
            for vid in range(dn.params[dn._table(g)].shape[0]):
                got = dn.predict(z, 40, (g, vid))
                assert got.tobytes() == _reference_predict(dn, z, 40, (g, vid)).tobytes()

    def test_outputs_do_not_alias(self):
        dn = _sampling_denoiser()
        rng = np.random.default_rng(9)
        z = rng.standard_normal((1024, dn.dim))
        a = dn.predict(z, 50, ("text", 1))
        kept = a.tobytes()
        b = dn.predict(z, 50, None)
        assert a.tobytes() == kept
        assert not np.shares_memory(a, b)
        assert not any(np.shares_memory(a, w) for w in dn._work)
        single = dn.predict(z[0], 50, ("full", 3))
        dn.predict(z[1], 50, ("full", 3))
        assert not any(np.shares_memory(single, w) for w in dn._work)

    def test_scratch_rows_kept_until_row_count_changes(self):
        dn = _sampling_denoiser()
        z = np.zeros((7, dn.dim))
        dn.predict(z, 5, None)
        work = dn._work
        dn.predict(z, 6, ("text", 0))
        assert dn._work is work
        dn.predict(z[:2], 6, ("text", 0))
        assert dn._work is not work and dn._work[0].shape[0] == 2

    def test_warm_batch_predict_allocates_little(self):
        dn = _sampling_denoiser()
        z = np.random.default_rng(10).standard_normal((1024, dn.dim))
        dn.predict(z, 50, ("text", 1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            dn.predict(z, 50, ("text", 1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the (1024, 4) result is 32 KB; fresh activations would be ~1.9 MB
        assert peak < 128 * 1024

    @pytest.mark.parametrize("c", [("full", 8), ("full", -1), ("text", 2), ("null", 1)])
    def test_view_id_outside_table_raises(self, c):
        dn = _sampling_denoiser()
        with pytest.raises(ValueError, match="view id outside"):
            dn.predict(np.zeros((3, dn.dim)), 5, c)

    def test_unknown_granularity_raises(self):
        dn = _sampling_denoiser()
        with pytest.raises(ValueError, match="granularity"):
            dn.predict(np.zeros(dn.dim), 5, ("prosody", 0))


class TestStageValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            CurriculumStage("s", 10, 8, 1e-3, {"text": 0.5})

    def test_unknown_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            CurriculumStage("s", 10, 8, 1e-3, {"pitch": 1.0})

    def test_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            CurriculumStage("s", 10, 8, 1e-3, {"text": 1.5, "null": -0.5})

    def test_positive_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            CurriculumStage("s", 0, 8, 1e-3, {"text": 1.0})

    def test_default_curriculum_shape(self):
        stages = default_curriculum()
        assert [s.name for s in stages] == ["stage1", "stage2", "stage3"]
        assert all(abs(sum(s.granularity_probs.values()) - 1.0) < 1e-12 for s in stages)
        assert all(s.granularity_probs["null"] == 0.1 for s in stages)
        assert "full" not in stages[0].granularity_probs
        assert "full" not in stages[1].granularity_probs
        assert "full" in stages[2].granularity_probs


class TestGranularityDraw:
    # stage3 of default_curriculum, 40 draws from default_rng(0), as
    # GRANULARITIES indices; recorded from the hand-written inverse-CDF draw
    STAGE3_SEED0 = "2000232213202020210100222133222102111231"

    def test_stage3_sequence_pinned(self):
        probs = default_curriculum()[2].granularity_probs
        rng = np.random.default_rng(0)
        seq = [_draw_granularity(probs, rng) for _ in range(40)]
        assert "".join(str(GRANULARITIES.index(g)) for g in seq) == self.STAGE3_SEED0

    def test_insertion_order_does_not_matter(self):
        probs = default_curriculum()[2].granularity_probs
        reordered = dict(reversed(list(probs.items())))
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert [_draw_granularity(probs, a) for _ in range(200)] == [
            _draw_granularity(reordered, b) for _ in range(200)
        ]


class TestTraining:
    def test_deterministic_for_seed(self):
        sched = cosine_schedule(20)
        data = make_toy_dataset(64, 2, np.random.default_rng(0))
        stage = CurriculumStage("s", 50, 16, 1e-3, {"text": 0.9, "null": 0.1})
        a = train_toy_denoiser(data, [stage], sched, seed=9)
        b = train_toy_denoiser(data, [stage], sched, seed=9)
        for key in a.params:
            assert np.array_equal(a.params[key], b.params[key]), key

    def test_training_beats_zero_predictor(self):
        sched = cosine_schedule(50)
        rng = np.random.default_rng(1)
        data = make_toy_dataset(256, 2, rng)
        stage = CurriculumStage("stage1", 300, 64, 3e-3, {"text": 0.9, "null": 0.1})
        dn = train_toy_denoiser(data, [stage], sched, seed=2)
        val = make_toy_dataset(128, 2, np.random.default_rng(99))
        trained = validation_loss(dn, val, sched, "text", np.random.default_rng(7))
        baseline = validation_loss(None, val, sched, "text", np.random.default_rng(7))
        assert trained < baseline

    def test_continue_training_mutates_and_returns_same_object(self):
        sched = cosine_schedule(20)
        data = make_toy_dataset(64, 2, np.random.default_rng(0))
        stage = CurriculumStage("s", 20, 16, 1e-3, {"text": 0.9, "null": 0.1})
        dn = train_toy_denoiser(data, [stage], sched, seed=1)
        before = copy.deepcopy(dn.params)
        out = train_toy_denoiser(data, [stage], sched, seed=2, denoiser=dn)
        assert out is dn
        assert any(not np.array_equal(before[k], dn.params[k]) for k in before)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_stage_and_step(self):
        sched = cosine_schedule(20)
        data = make_toy_dataset(64, 2, np.random.default_rng(0))
        stage = CurriculumStage("hot", 10, 16, 1e160, {"text": 0.9, "null": 0.1})
        with pytest.raises(TrainingDiverged, match="hot") as exc:
            train_toy_denoiser(data, [stage], sched, seed=1)
        assert exc.value.step >= 1

    def test_dimension_mismatch_raises(self):
        sched = cosine_schedule(20)
        data = make_toy_dataset(32, 3, np.random.default_rng(0))
        dn = _tiny_denoiser(dim=2, T=20)
        with pytest.raises(ValueError, match="dimension"):
            train_toy_denoiser(data, default_curriculum(steps=5), sched, seed=0, denoiser=dn)

    def test_schedule_length_mismatch_raises(self):
        data = make_toy_dataset(32, 2, np.random.default_rng(0))
        dn = _tiny_denoiser(dim=2, T=10)
        with pytest.raises(ValueError, match="T="):
            train_toy_denoiser(data, default_curriculum(steps=5), cosine_schedule(20), seed=0, denoiser=dn)

    def test_bad_condition_ids_raise(self):
        sched = cosine_schedule(10)
        data = [(np.zeros(2), 12)]
        with pytest.raises(ValueError, match="condition ids"):
            train_toy_denoiser(data, default_curriculum(steps=5), sched, seed=0)

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="empty"):
            train_toy_denoiser([], default_curriculum(steps=5), cosine_schedule(10), seed=0)


class TestValidationLoss:
    def test_zero_predictor_baseline_near_dim(self):
        sched = cosine_schedule(30)
        data = make_toy_dataset(400, 3, np.random.default_rng(0))
        base = validation_loss(None, data, sched, "text", np.random.default_rng(1))
        # E||eps||^2 = dim
        assert base == pytest.approx(3.0, rel=0.1)

    def test_same_rng_gives_identical_draws(self):
        sched = cosine_schedule(30)
        data = make_toy_dataset(64, 2, np.random.default_rng(0))
        a = validation_loss(None, data, sched, "text", np.random.default_rng(5))
        b = validation_loss(None, data, sched, "text", np.random.default_rng(5))
        assert a == b

    def test_unknown_granularity_raises(self):
        sched = cosine_schedule(30)
        data = make_toy_dataset(8, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="granularity"):
            validation_loss(None, data, sched, "wave", np.random.default_rng(0))

    @pytest.mark.parametrize("granularity", [*GRANULARITIES, None])
    def test_matches_inline_reference(self, granularity):
        # steps drawn before noise, the inline forward process, null rows on view 0;
        # granularity None scores the zero predictor
        sched = cosine_schedule(30)
        data = make_toy_dataset(40, 3, np.random.default_rng(2))
        dn = None if granularity is None else ToyDenoiser(3, 30, rng=np.random.default_rng(3))
        z0 = np.stack([z for z, _ in data])
        cids = [c for _, c in data]
        sqrt_ab, sqrt_1mab = np.sqrt(sched.alpha_bar), np.sqrt(1.0 - sched.alpha_bar)
        rng = np.random.default_rng(4)
        total = 0.0
        for _ in range(8):
            t = rng.integers(1, 31, size=40)
            eps = rng.standard_normal((40, 3))
            z_t = sqrt_ab[t, None] * z0 + sqrt_1mab[t, None] * eps
            if dn is None:
                total += float(np.sum(eps * eps))
                continue
            views = np.array([0 if granularity == "null" else dn.view_of(c, granularity) for c in cids])
            out, _ = dn._forward(z_t, t.astype(np.float64), granularity, views)
            total += float(np.sum((out - eps) ** 2))
        got = validation_loss(dn, data, sched, granularity or "text", np.random.default_rng(4))
        assert got == total / (40 * 8)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("bad_id", [8, 99, -1])
    def test_condition_ids_checked_for_every_granularity(self, granularity, bad_id):
        sched = cosine_schedule(10)
        data = make_toy_dataset(8, 2, np.random.default_rng(0)) + [(np.zeros(2), bad_id)]
        with pytest.raises(ValueError, match=f"condition id {bad_id} outside 0..7"):
            validation_loss(_tiny_denoiser(), data, sched, granularity, np.random.default_rng(0))


class TestToyDataset:
    def test_shapes_and_id_range(self):
        data = make_toy_dataset(100, 4, np.random.default_rng(0))
        assert len(data) == 100
        assert all(z.shape == (4,) for z, _ in data)
        assert all(0 <= c < 8 for _, c in data)

    def test_text_level_separates_components(self):
        data = make_toy_dataset(2000, 2, np.random.default_rng(1))
        lo = np.mean([z.mean() for z, c in data if c // 4 == 0])
        hi = np.mean([z.mean() for z, c in data if c // 4 == 1])
        assert lo < -1.0 < 1.0 < hi


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self, tmp_path):
        sched = cosine_schedule(20)
        data = make_toy_dataset(64, 2, np.random.default_rng(0))
        dn = train_toy_denoiser(data, default_curriculum(steps=20), sched, seed=3)
        path = tmp_path / "toy.ckpt"
        save_checkpoint(dn, path)
        loaded = load_checkpoint(path)
        z = np.random.default_rng(2).standard_normal((5, 2))
        for c in [None, ("text", 1), ("full", 6)]:
            assert np.array_equal(dn.predict(z, 7, c), loaded.predict(z, 7, c))

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a toy-denoiser"):
            load_checkpoint(path)

    def test_unsupported_version_raises(self, tmp_path):
        dn = _tiny_denoiser()
        path = tmp_path / "v99.ckpt"
        save_checkpoint(dn, path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_truncated_raises(self, tmp_path):
        dn = _tiny_denoiser()
        path = tmp_path / "cut.ckpt"
        save_checkpoint(dn, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_raise(self, tmp_path):
        dn = _tiny_denoiser()
        path = tmp_path / "extra.ckpt"
        save_checkpoint(dn, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_rewritten_file_matches_saved_bytes(self, tmp_path):
        dn = _tiny_denoiser()
        saved = tmp_path / "saved.ckpt"
        save_checkpoint(dn, saved)
        path = _write_checkpoint(tmp_path, *_checkpoint_parts(dn))
        assert path.read_bytes() == saved.read_bytes()

    def test_short_header_raises(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"TOYDNZR\x00" + struct.pack("<I", 1))
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated checkpoint header")):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob, text", [
        (b"[1, 2]", "checkpoint header is not a JSON object"),
        (b'{"dim": 2', "unreadable checkpoint header"),
        (b"\xff{}", "unreadable checkpoint header"),
    ])
    def test_malformed_header_raises(self, tmp_path, blob, text):
        path = tmp_path / "header.ckpt"
        path.write_bytes(b"TOYDNZR\x00" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {text}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, text", [
        ("dim", "2", "malformed checkpoint header"),
        ("hidden", 0, "malformed checkpoint header: all sizes must be positive"),
        ("level_sizes", 2, "malformed checkpoint header"),
        ("params", 5, "malformed checkpoint header"),
        ("params", [["W1", 7]], "malformed checkpoint header"),
        ("params", [["W1"]], "malformed checkpoint header"),
        ("params", [[["W1"], [2]]], "unknown parameter \"['W1']\""),
    ])
    def test_malformed_header_field_raises(self, tmp_path, field, value, text):
        header, _ = _checkpoint_parts(_tiny_denoiser())
        blob = json.dumps({**header, "params": [], field: value}).encode("utf-8")
        path = tmp_path / "field.ckpt"
        path.write_bytes(b"TOYDNZR\x00" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {text}")):
            load_checkpoint(path)

    def test_missing_header_key_raises(self, tmp_path):
        header, params = _checkpoint_parts(_tiny_denoiser())
        del header["hidden"]
        path = _write_checkpoint(tmp_path, header, params)
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint header has no 'hidden'")):
            load_checkpoint(path)

    def test_unknown_parameter_raises(self, tmp_path):
        header, params = _checkpoint_parts(_tiny_denoiser())
        path = _write_checkpoint(tmp_path, header, params + [("W9", np.zeros(2))])
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown parameter 'W9'")):
            load_checkpoint(path)

    def test_missing_parameter_raises(self, tmp_path):
        header, params = _checkpoint_parts(_tiny_denoiser())
        path = _write_checkpoint(tmp_path, header, [(k, v) for k, v in params if k != "W1"])
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing parameters ['W1']")):
            load_checkpoint(path)

    def test_duplicate_parameter_raises(self, tmp_path):
        header, params = _checkpoint_parts(_tiny_denoiser())
        path = _write_checkpoint(tmp_path, header, params + [params[0]])
        with pytest.raises(ValueError, match=re.escape(f"{path}: parameter '{params[0][0]}' appears twice")):
            load_checkpoint(path)

    def test_wrong_parameter_shape_raises(self, tmp_path):
        header, params = _checkpoint_parts(_tiny_denoiser())
        params = [(k, np.zeros(1) if k == "b1" else v) for k, v in params]
        path = _write_checkpoint(tmp_path, header, params)
        with pytest.raises(ValueError, match=re.escape(f"{path}: parameter 'b1' has shape (1,)")):
            load_checkpoint(path)


class TestGuidedSamplingWithTrainedDenoiser:
    def test_higher_weight_concentrates_on_conditioned_component(self):
        sched = cosine_schedule(50)
        rng = np.random.default_rng(0)
        data = make_toy_dataset(512, 2, rng)
        dn = train_toy_denoiser(data, default_curriculum(steps=250), sched, seed=4)
        n = 2000
        z_T = np.random.default_rng(10).standard_normal((n, 2))
        cond = ("text", 0)  # the component centered near -2
        low = sample_progressive(
            dn, GuidanceSchedule(cond, cond, 1.0, 1.0, t1=0, T=50), sched, z_T, rng=np.random.default_rng(11)
        )
        high = sample_progressive(
            dn, GuidanceSchedule(cond, cond, 3.0, 3.0, t1=0, T=50), sched, z_T, rng=np.random.default_rng(11)
        )
        frac_low = float(np.mean(low.mean(axis=1) < 0))
        frac_high = float(np.mean(high.mean(axis=1) < 0))
        assert frac_high >= frac_low
        assert frac_high > 0.8
