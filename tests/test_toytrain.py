import hashlib
import json
import os
import re
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fixtures import (
    RecordingDenoiser,
    expected_bind_log,
    fail_writes_partway,
    reference_cfg_loop,
    write_checkpoint,
)
from soundscene.diffusion import (
    MAX_T,
    GaussianCondition,
    GaussianOracleDenoiser,
    GuidanceSchedule,
    cosine_schedule,
    sample_progressive,
)
from soundscene.toytrain import (
    _CONCURRENT_ROWS,
    GRANULARITIES,
    CurriculumStage,
    ToyDenoiser,
    TrainingDiverged,
    _draw_granularity,
    _param_views,
    default_curriculum,
    load_checkpoint,
    make_toy_dataset,
    save_checkpoint,
    train_toy_denoiser,
    validation_loss,
)


def _tiny_denoiser(dim=2, T=10, seed=0):
    return ToyDenoiser(dim, T, rng=np.random.default_rng(seed))


def _sorted_params(dn):
    return [dn.params[name] for name in sorted(dn.params)]


def _loss_only(dn, z_t, t, eps, gran, view_ids):
    out = dn._bind_layers(dn._stacks(((gran, view_ids),), z_t.shape[0]))(t, z_t)[0]
    return float(np.sum((out - eps) ** 2)) / z_t.shape[0]


class TestGradients:
    @pytest.mark.parametrize("granularity,table", [("full", "E_full"), ("text", "E_text"), ("null", "E_null")])
    def test_backprop_matches_finite_differences(self, granularity, table):
        dn = _tiny_denoiser()
        rng = np.random.default_rng(3)
        n = 6
        z_t = rng.standard_normal((n, dn.dim))
        t = rng.integers(1, dn.T + 1, size=n)
        eps = rng.standard_normal((n, dn.dim))
        if granularity == "null":
            view_ids = np.zeros(n, dtype=np.int64)
        else:
            view_ids = rng.integers(0, dn.params[table].shape[0], size=n)
        _, grad = dn._loss_and_grads(z_t, t, eps, granularity, view_ids)
        grads = _param_views(grad, dn.dim)
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
        t = np.full(4, 3)
        eps = rng.standard_normal((4, dn.dim))
        _, grad = dn._loss_and_grads(z_t, t, eps, "text", np.zeros(4, dtype=np.int64))
        grads = _param_views(grad, dn.dim)
        assert not grads["E_text"].sum() == 0.0  # active table moved
        assert np.all(grads["E_full"] == 0.0)
        assert np.all(grads["E_null"] == 0.0)


class TestParameterVector:
    def test_params_are_views_of_the_vector_in_sorted_name_order(self):
        dn = _tiny_denoiser()
        base = dn.flat.__array_interface__["data"][0]
        offset = 0
        for name in sorted(dn.params):
            view = dn.params[name]
            assert np.shares_memory(view, dn.flat), name
            assert view.__array_interface__["data"][0] == base + 8 * offset, name
            offset += view.size
        assert offset == dn.flat.size and dn.flat.dtype == np.float64

    def test_params_cannot_be_rebound(self):
        dn = _tiny_denoiser()
        W1 = dn.params["W1"]
        with pytest.raises(TypeError):
            dn.params["W1"] = np.zeros_like(W1)
        with pytest.raises(TypeError):
            del dn.params["b1"]
        assert dn.params["W1"] is W1


class TestConstructor:
    @pytest.mark.parametrize("dim, T, message", [
        (2, 10.5, "T must be an integer >= 1, got 10.5"),
        (2, True, "T must be an integer >= 1, got True"),
        (2, 10.0, "T must be an integer >= 1, got 10.0"),
        (2, 0, "T must be an integer >= 1, got 0"),
        (2, 100_001, "T must be at most MAX_T = 100000, got 100001"),
        (2.5, 10, "dim must be an integer >= 1, got 2.5"),
        (True, 10, "dim must be an integer >= 1, got True"),
        (np.float64(2.0), 10, "dim must be an integer >= 1, got np.float64(2.0)"),
        (0, 10, "dim must be an integer >= 1, got 0"),
        ("2", 10, "dim must be an integer >= 1, got '2'"),
    ])
    def test_non_integer_or_small_sizes_refused(self, dim, T, message):
        with pytest.raises(ValueError) as exc:
            ToyDenoiser(dim, T)
        assert str(exc.value) == message

    def test_numpy_integer_sizes_build_a_saveable_model(self, tmp_path):
        dn = ToyDenoiser(np.int64(2), np.uint16(10))
        assert type(dn.dim) is int and type(dn.T) is int
        assert dn.flat.tobytes() == ToyDenoiser(2, 10).flat.tobytes()
        save_checkpoint(dn, tmp_path / "toy.ckpt")
        assert load_checkpoint(tmp_path / "toy.ckpt").flat.tobytes() == dn.flat.tobytes()


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

    def test_views_project_and_size_tables(self):
        dn = _tiny_denoiser()
        ids = np.arange(8)
        expected = {"text": ids // 4, "text_timing": ids // 2, "full": ids, "null": 0 * ids}
        for g, views in expected.items():
            assert dn.view_of(ids, g).tolist() == views.tolist()
            # the table has one row per distinct view
            assert dn.params["E_" + g].shape == (views.max() + 1, 8)

    def test_init_draws_tables_in_granularity_order(self):
        # reference: every parameter drawn explicitly at the fixed sizes
        # (hidden 64, embedding 8, 4 time frequencies, levels 2x2x2), the
        # tables coarsest first
        dim, T, hidden, emb, (s1, s2, s3) = 3, 20, 64, 8, (2, 2, 2)
        dn = ToyDenoiser(dim, T, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        in_dim = dim + 2 * 4 + emb
        reference = {
            "W1": rng.standard_normal((in_dim, hidden)) / np.sqrt(in_dim),
            "W2": rng.standard_normal((hidden, hidden)) / np.sqrt(hidden),
            "W3": rng.standard_normal((hidden, dim)) / np.sqrt(hidden),
            "E_text": 0.1 * rng.standard_normal((s1, emb)),
            "E_text_timing": 0.1 * rng.standard_normal((s1 * s2, emb)),
            "E_full": 0.1 * rng.standard_normal((s1 * s2 * s3, emb)),
            "E_null": 0.1 * rng.standard_normal((1, emb)),
        }
        reference.update(b1=np.zeros(hidden), b2=np.zeros(hidden), b3=np.zeros(dim))
        assert sorted(dn.params) == sorted(reference)
        for name, value in reference.items():
            assert dn.params[name].tobytes() == value.tobytes(), name

    def test_unknown_granularity_raises(self):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="granularity"):
            dn.view_of(0, "prosody")

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_array_form_matches_scalar_calls(self, granularity):
        dn = _tiny_denoiser()
        ids = np.random.default_rng(1).permutation(dn.n_conditions).reshape(2, 4)
        scalar = [[dn.view_of(int(c), granularity) for c in row] for row in ids]
        assert all(type(v) is int for row in scalar for v in row)
        views = dn.view_of(ids, granularity)
        assert views.shape == ids.shape and views.dtype == ids.dtype
        assert views.tolist() == scalar
        assert type(dn.view_of(np.int64(7), granularity)) is int

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
        for t in (0, dn.T, np.int64(dn.T), np.uint8(0)):
            assert dn.predict(np.zeros(2), t, ("text", 1)).shape == (2,)

    @pytest.mark.parametrize("t", [5.5, 5.0, np.float64(5), True, np.True_, "5"], ids=repr)
    def test_non_integer_step_refused(self, t):
        # a fractional step would evaluate fractional time features, a bool run as step 1
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match=re.escape(f"step {t!r} outside 0..10: steps are integers")):
            dn.predict(np.zeros(2), t, ("text", 1))

    @pytest.mark.parametrize(
        "vid", [1.7, 0.5, -0.5, np.float64(1.25), float("inf"), float("nan"), None]
    )
    def test_fractional_view_id_raises(self, vid):
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match="not an integer"):
            dn.predict(np.zeros(2), 3, ("text", vid))

    @pytest.mark.parametrize("vid", [1.0, np.float64(1.0), True, np.True_], ids=repr)
    def test_whole_float_or_bool_view_id_raises(self, vid):
        # the rule check_step applies to steps: no float, even a whole one, no bool
        dn = _tiny_denoiser()
        with pytest.raises(ValueError, match=re.escape(f"view id {vid!r} is not an integer")):
            dn.predict(np.zeros(2), 3, ("text", vid))

    def test_integral_view_id_of_any_type_is_that_view(self):
        dn = _tiny_denoiser()
        z = np.random.default_rng(2).standard_normal((3, 2))
        want = dn.predict(z, 3, ("text", 1)).tobytes()
        for vid in (np.int64(1), np.uint8(1)):
            assert dn.predict(z, 3, ("text", vid)).tobytes() == want


def _reference_predict(dn, z_t, t, c=None):
    """The forward pass as first written: concatenate the per-row inputs,
    then np.tanh(x @ W + b) per layer, all in fresh arrays."""
    z = np.asarray(z_t, dtype=np.float64)
    z2 = z[None, :] if z.ndim == 1 else z
    n = z2.shape[0]
    granularity, vid = ("null", 0) if c is None else c
    E = dn.params["E_" + granularity]
    tau = np.full(n, t, dtype=np.float64)[:, None] / dn.T
    angles = 2.0 * np.pi * tau * 2.0 ** np.arange(4)  # the four time frequencies
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
        dn.params[key][...] = 0.3 * rng.standard_normal(dn.params[key].shape)
    return dn


def _allow_cpus(monkeypatch, k):
    """Make bind_pair see k CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def _helpers(but=()):
    """The live threads that run a binding's null branch, except ``but``."""
    return {thread for thread in threading.enumerate() if thread.name.startswith("toy-null-branch")} - set(but)


class TestPredictWorkspace:
    CONDITIONS = [None] + [(g, 0 if g == "null" else 1) for g in GRANULARITIES]

    @pytest.mark.parametrize("c", CONDITIONS, ids=str)
    def test_bytes_match_reference_forward(self, c):
        dn = _sampling_denoiser()
        rng = np.random.default_rng(7)
        for n in (1, 1024, 2, 7, 1024, 1, 7):
            z = rng.standard_normal((n, dn.dim))
            for t in (1, dn.T // 2, dn.T):
                got = dn.predict(z, t, c)
                assert got.tobytes() == _reference_predict(dn, z, t, c).tobytes(), (n, t)
        z1 = rng.standard_normal(dn.dim)
        assert dn.predict(z1, 3, c).tobytes() == _reference_predict(dn, z1, 3, c).tobytes()

    @pytest.mark.parametrize("n", [1, 1024])
    def test_every_step_matches_reference(self, n):
        dn = _sampling_denoiser()
        z = np.random.default_rng(11).standard_normal((n, dn.dim))
        for t in range(dn.T + 1):
            for c in (("text", 1), None):
                assert dn.predict(z, t, c).tobytes() == _reference_predict(dn, z, t, c).tobytes(), t

    def test_every_view_id_matches_reference(self):
        dn = _sampling_denoiser()
        z = np.random.default_rng(8).standard_normal((7, dn.dim))
        for g in GRANULARITIES:
            for vid in range(dn.params["E_" + g].shape[0]):
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
        single = dn.predict(z[0], 50, ("full", 3))
        kept = single.tobytes()
        dn.predict(z[1], 50, ("full", 3))
        assert single.tobytes() == kept

    def test_predict_from_threads_gives_the_serial_bytes(self):
        # no instance scratch: concurrent calls on one denoiser, under
        # different conditions, cannot see each other's activations
        dn = _sampling_denoiser()
        rng = np.random.default_rng(10)
        conditions = [("text", 1), ("full", 6), None, ("text_timing", 2)] * 10
        jobs = [(rng.standard_normal((1024, dn.dim)), int(t), c)
                for t, c in zip(rng.integers(0, dn.T + 1, size=len(conditions)), conditions)]
        want = [dn.predict(z, t, c).tobytes() for z, t, c in jobs]
        got = [None] * len(jobs)
        n_threads = 4  # more than the cores of a small runner
        start = threading.Barrier(n_threads)

        def run(first):
            start.wait()
            for i in range(first, len(jobs), n_threads):
                z, t, c = jobs[i]
                for _ in range(3):
                    got[i] = dn.predict(z, t, c).tobytes()

        threads = [threading.Thread(target=run, args=(first,)) for first in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    def test_time_features_are_one_read_only_table(self):
        dn = _sampling_denoiser()
        times = dn._times
        assert times.shape == (dn.T + 1, 8) and dn._times is times
        assert not times.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            times[3] = 0.0

    @pytest.mark.parametrize("T", [1, 2, 3, 7, 59, 100, 1000, 4000])
    def test_time_table_rows_equal_single_step_features(self, T):
        # the table is built in one vectorized pass; each row must hold the
        # bytes a one-step evaluation gives, as predict computed them before
        times = ToyDenoiser(2, T)._times
        for t in range(T + 1):
            tau = np.full(1, t, dtype=np.float64)[:, None] / T
            angles = 2.0 * np.pi * tau * 2.0 ** np.arange(4)
            row = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
            assert times[t].tobytes() == row[0].tobytes(), t

    @pytest.mark.parametrize("c", [("full", 8), ("full", -1), ("text", 2), ("null", 1)])
    def test_view_id_outside_table_raises(self, c):
        dn = _sampling_denoiser()
        with pytest.raises(ValueError, match="view id outside"):
            dn.predict(np.zeros((3, dn.dim)), 5, c)

    def test_unknown_granularity_raises(self):
        dn = _sampling_denoiser()
        with pytest.raises(ValueError, match="granularity"):
            dn.predict(np.zeros(dn.dim), 5, ("prosody", 0))


class TestPredictPair:
    """The guidance pair of bind_pair(c, shape, t_max): (predict(z, t, c),
    predict(z, t, None)) from one forward over a two-view stack whose
    condition columns were filled at bind time."""

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_bytes_match_two_predict_calls(self, cpus, monkeypatch):
        _allow_cpus(monkeypatch, cpus)
        dn = _sampling_denoiser()
        rng = np.random.default_rng(12)
        conditions = [None] + [(g, v) for g in GRANULARITIES for v in range(dn.params["E_" + g].shape[0])]
        # a 1-D latent, then interleaved row counts that resize the scratch
        # stacks; the predict calls between pair calls displace them too.
        # At 12 rows the pair's two-view stack broadcasts its biases while
        # predict's one-view stack adds full-shape copies.  From
        # _CONCURRENT_ROWS rows on, with two CPUs, the branches run on two
        # threads; on one CPU every row count takes the stacked forward
        rows = (None, 1, 2, 7, 12, _CONCURRENT_ROWS - 1, _CONCURRENT_ROWS, 1024, 1, 7, 1024)
        others = _helpers()
        for n in rows:
            z = rng.standard_normal(dn.dim if n is None else (n, dn.dim))
            concurrent = cpus > 1 and n is not None and n >= _CONCURRENT_ROWS
            for c in conditions:
                pair = dn.bind_pair(c, z.shape, dn.T)
                for t in (dn.T, dn.T // 2, 1, 0):
                    eps_c, eps_uncond = pair(z, t)
                    assert eps_c.shape == eps_uncond.shape == z.shape
                    assert eps_c.tobytes() == dn.predict(z, t, c).tobytes(), (n, t, c)
                    assert eps_uncond.tobytes() == dn.predict(z, t, None).tobytes(), (n, t, c)
                assert len(_helpers(but=others)) == concurrent, (n, c)
                del pair  # its helper, if any, is joined here
                assert not _helpers(but=others)

    def test_concurrent_pair_waits_for_both_branches(self, monkeypatch):
        # z of the wrong shape fails in both branches; the call raises only
        # once the helper's branch has finished, so its error is the one
        # raised, chained on the conditional branch's, and the next call
        # gets its own results
        _allow_cpus(monkeypatch, 2)
        dn = _sampling_denoiser()
        z = np.random.default_rng(22).standard_normal((_CONCURRENT_ROWS, dn.dim))
        pair = dn.bind_pair(("text", 1), z.shape, dn.T)
        for _ in range(3):
            with pytest.raises(ValueError, match="broadcast") as raised:
                pair(z[:-1], 50)
            assert isinstance(raised.value.__context__, ValueError)
            eps_c, eps_uncond = pair(z, 50)
            assert eps_c.tobytes() == dn.predict(z, 50, ("text", 1)).tobytes()
            assert eps_uncond.tobytes() == dn.predict(z, 50, None).tobytes()
        del pair, raised  # the failed calls' tracebacks hold this frame

    def test_helper_starts_on_the_first_call_and_ends_with_the_binding(self, monkeypatch):
        _allow_cpus(monkeypatch, 2)
        dn = _sampling_denoiser()
        z = np.random.default_rng(23).standard_normal((1024, dn.dim))
        others = _helpers()
        pair = dn.bind_pair(None, z.shape, dn.T)
        assert not _helpers(but=others)
        pair(z, 5)
        (helper,) = _helpers(but=others)
        pair(z, 4)
        assert _helpers(but=others) == {helper}
        del pair
        helper.join(timeout=10)
        assert not helper.is_alive()

    def test_batched_bindings_from_threads_give_the_serial_bytes(self, monkeypatch):
        # two threads, each with its own concurrent binding, so four
        # branches run at once over two bindings' stacks
        _allow_cpus(monkeypatch, 2)
        dn = _sampling_denoiser()
        rng = np.random.default_rng(24)
        jobs = [(rng.standard_normal((1024, dn.dim)), c) for c in (("text", 1), ("full", 6))]
        steps = [int(t) for t in rng.integers(0, dn.T + 1, size=20)]
        want = [[(dn.predict(z, t, c).tobytes(), dn.predict(z, t, None).tobytes()) for t in steps]
                for z, c in jobs]
        got = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def run(i):
            z, c = jobs[i]
            pair = dn.bind_pair(c, z.shape, dn.T)
            start.wait()
            got[i] = [tuple(out.tobytes() for out in pair(z, t)) for t in steps]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want

    @pytest.mark.parametrize("shape", [(4,), (1, 4), (64, 4)], ids=str)
    def test_outputs_are_fresh_arrays(self, shape):
        dn = _sampling_denoiser()
        z = np.random.default_rng(13).standard_normal(shape)
        pair = dn.bind_pair(("full", 3), shape, dn.T)
        eps_c, eps_uncond = pair(z, 50)
        kept = eps_c.tobytes(), eps_uncond.tobytes()
        assert not np.shares_memory(eps_c, eps_uncond)
        for out in (eps_c, eps_uncond):
            assert not np.shares_memory(out, z)
        # a second call rewrites the binding's stacks
        pair(z + 1.0, 60)
        dn.bind_pair(("text", 0), shape, dn.T)(z + 1.0, 60)
        assert (eps_c.tobytes(), eps_uncond.tobytes()) == kept

    @pytest.mark.parametrize(
        "z_shape,t,c",
        [
            ((4,), -1, ("text", 1)), ((4,), 101, ("text", 1)), ((4,), 50.0, None), ((4,), True, None),
            ((3, 4), 5, ("full", 8)), ((3, 4), 5, ("full", -1)), ((3, 4), 5, ("text", 2)),
            ((3, 4), 5, ("null", 1)), ((3, 4), 5, ("full", 1.0)), ((3, 4), 5, ("full", True)),
            ((3, 4), 5, ("prosody", 0)),
            ((3,), 5, None), ((2, 5), 5, ("text", 1)), ((2, 2, 4), 5, None), ((), 5, None),
        ],
        ids=repr,
    )
    def test_bad_input_raises_as_predict_does(self, z_shape, t, c):
        # a bad condition, shape or highest step is refused at bind time
        dn = _sampling_denoiser()
        z = np.zeros(z_shape)
        with pytest.raises(ValueError) as want:
            dn.predict(z, t, c)
        with pytest.raises(ValueError) as got:
            dn.bind_pair(c, z_shape, t)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("shape", [(4,), (7, 4)], ids=str)
    def test_other_forwards_between_calls_change_nothing(self, shape):
        # predict (one view), a second binding, another row count and a
        # training step run between two calls of a live binding, which
        # owns its stacks
        dn = _sampling_denoiser()
        rng = np.random.default_rng(16)
        z = rng.standard_normal(shape)
        pair = dn.bind_pair(("full", 6), shape, dn.T)
        want = [b.tobytes() for b in pair(z, 40)]
        interlopers = [
            lambda: dn.predict(z, 40, ("text", 0)),
            lambda: dn.predict(rng.standard_normal((3, 4)), 7, None),
            lambda: dn.bind_pair(("text", 1), shape, dn.T)(z, 40),
            lambda: dn.bind_pair(None, (5, 4), dn.T)(rng.standard_normal((5, 4)), 9),
            lambda: dn._loss_and_grads(
                rng.standard_normal((7, 4)), np.full(7, 3), rng.standard_normal((7, 4)), "full", np.arange(7)
            ),
        ]
        for interloper in interlopers:
            interloper()
            assert [b.tobytes() for b in pair(z, 40)] == want

    def test_binding_allocates_no_second_stack_set(self):
        dn = _sampling_denoiser()
        z = np.random.default_rng(17).standard_normal((1024, dn.dim))
        pair = dn.bind_pair(("text", 1), z.shape, dn.T)
        pair(z, 50)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            pair(z, 50)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the (2, 1024, 4) output is 64 KB; fresh activations would be ~3.8 MB
        assert peak < 192 * 1024


class TestSamplerMatchesReferenceLoop:
    @pytest.mark.parametrize("shape", [(4,), (1024, 4)], ids=str)
    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    @pytest.mark.parametrize("w", [0.0, 1.0, 2.5])
    def test_bytes(self, w, mode, shape):
        # the reference runs two predict calls and the written-out update per
        # step; the sampler one bound pair per phase and per-phase coefficients
        dn = _sampling_denoiser()
        sched = cosine_schedule(dn.T)
        c = ("full", 5)
        gs = GuidanceSchedule(c, c, w, w, t1=0, T=dn.T)
        z_T = np.random.default_rng(14).standard_normal(shape)
        got = sample_progressive(dn, gs, sched, z_T, rng=np.random.default_rng(15), mode=mode)
        want = reference_cfg_loop(dn, gs, sched, z_T, rng=np.random.default_rng(15), mode=mode)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["toy", "oracle"])
    @pytest.mark.parametrize("shape", [(4,), (64, 4)], ids=str)
    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    @pytest.mark.parametrize("t1", [0, 1, 50, 99, 100])
    def test_two_phase_bytes_and_steps(self, t1, mode, shape, kind):
        sched = cosine_schedule(100)
        if kind == "toy":
            dn = _sampling_denoiser()
            c1, c2 = ("text", 1), ("full", 5)
        else:
            dn = GaussianOracleDenoiser(GaussianCondition(np.zeros(4), 1.0), sched)
            c1 = GaussianCondition(np.full(4, 0.5), 2.0)
            c2 = GaussianCondition(np.array([2.0, -1.0, 0.5, 0.0]), 0.25)
        gs = GuidanceSchedule(c1, c2, 3.0, 9.0, t1=t1, T=100)
        z_T = np.random.default_rng(18).standard_normal(shape)
        recording = RecordingDenoiser(dn)
        got = sample_progressive(recording, gs, sched, z_T, np.random.default_rng(19), mode)
        want = reference_cfg_loop(dn, gs, sched, z_T, np.random.default_rng(19), mode)
        assert got.tobytes() == want.tobytes()
        assert recording.log == expected_bind_log(gs, shape)

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    @pytest.mark.parametrize("n", [_CONCURRENT_ROWS, 1024])
    def test_batch_bytes_on_either_path(self, n, mode, cpus, monkeypatch):
        # two threads per step at two CPUs, the stacked forward at one:
        # both give the reference loop's bytes
        _allow_cpus(monkeypatch, cpus)
        dn = _sampling_denoiser()
        sched = cosine_schedule(dn.T)
        gs = GuidanceSchedule(("text", 1), ("full", 5), 3.0, 9.0, t1=88, T=dn.T)
        z_T = np.random.default_rng(25).standard_normal((n, dn.dim))
        got = sample_progressive(dn, gs, sched, z_T, np.random.default_rng(26), mode)
        want = reference_cfg_loop(dn, gs, sched, z_T, np.random.default_rng(26), mode)
        assert got.tobytes() == want.tobytes()

    def test_no_helper_outlives_a_batched_run(self, monkeypatch):
        # each phase's helper thread ends with its binding, which the sampler
        # drops at the phase end
        _allow_cpus(monkeypatch, 2)
        dn = _sampling_denoiser()
        others, seen = _helpers(), set()

        class Watching:
            def predict(self, z_t, t, c=None):
                return dn.predict(z_t, t, c)

            def bind_pair(self, c, shape, t_max):
                pair = dn.bind_pair(c, shape, t_max)

                def watched(z_t, t):
                    out = pair(z_t, t)
                    seen.update(_helpers(but=others))
                    return out

                return watched

        gs = GuidanceSchedule(("text", 1), ("full", 5), 3.0, 9.0, t1=88, T=dn.T)
        z_T = np.random.default_rng(27).standard_normal((_CONCURRENT_ROWS, dn.dim))
        sample_progressive(Watching(), gs, cosine_schedule(dn.T), z_T, rng=np.random.default_rng(28))
        assert len(seen) == 2  # one helper per phase
        for helper in seen:
            helper.join(timeout=10)
        assert not any(helper.is_alive() for helper in seen)

    def test_warm_batch_holds_one_binding_at_a_time(self):
        # each phase's binding owns (2, n, .) stacks; the sampler drops one
        # before the next phase binds, so two sets never coexist
        dn = _sampling_denoiser()
        sched = cosine_schedule(dn.T)
        gs = GuidanceSchedule(("text", 1), ("full", 5), 3.0, 9.0, t1=88, T=dn.T)
        z_T = np.random.default_rng(20).standard_normal((1024, dn.dim))
        sample_progressive(dn, gs, sched, z_T, rng=np.random.default_rng(21))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sample_progressive(dn, gs, sched, z_T, rng=np.random.default_rng(21))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        one_set = 8 * 2 * 1024 * (dn.dim + 8 + 8 + 64 + 64)  # x, h1, h2: 2.4 MB
        assert one_set < peak < one_set + 512 * 1024


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

    @pytest.mark.parametrize(
        "steps, batch_size, lr",
        [(2.5, 8, 1e-3), (10, True, 1e-3), (10, 8.0, 1e-3), (10, 8, np.nan), (10, 8, np.inf)],
    )
    def test_settings_that_would_fail_in_training_refused(self, steps, batch_size, lr):
        with pytest.raises(ValueError, match="^stage 'bad': steps, batch_size must be positive"):
            CurriculumStage("bad", steps, batch_size, lr, {"text": 1.0})

    def test_numpy_integer_sizes_accepted(self):
        stage = CurriculumStage("s", np.int64(3), np.int32(4), 1e-3, {"text": 1.0})
        data = make_toy_dataset(16, 2, np.random.default_rng(0))
        assert train_toy_denoiser(data, [stage], cosine_schedule(10), seed=0).dim == 2

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
        before = {k: v.copy() for k, v in dn.params.items()}
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
        with pytest.raises(ValueError, match="condition id 12 outside 0..7"):
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
            out = dn._bind_layers(dn._stacks(((granularity, views),), 40))(t, z_t)[0]
            total += float(np.sum((out - eps) ** 2))
        got = validation_loss(dn, data, sched, granularity or "text", np.random.default_rng(4))
        assert got == total / (40 * 8)

    @pytest.mark.parametrize("bad_id", [1.5, True, np.float64(2.0), "3"], ids=repr)
    def test_non_integer_condition_ids_name_their_item(self, bad_id):
        # an id is never truncated to an integer: training, a denoiser's
        # validation and the zero predictor all refuse it by dataset index
        sched = cosine_schedule(10)
        data = make_toy_dataset(3, 2, np.random.default_rng(0)) + [(np.zeros(2), bad_id)]
        message = re.escape(f"dataset item 3: condition id {bad_id!r} is not an integer")
        for dn in (_tiny_denoiser(), None):
            with pytest.raises(ValueError, match=message):
                validation_loss(dn, data, sched, "text", np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            train_toy_denoiser(data, default_curriculum(steps=2), sched, seed=0)

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("bad_id", [8, 99, -1])
    def test_condition_ids_checked_for_every_granularity(self, granularity, bad_id):
        # the zero predictor (denoiser None) checks ids like a denoiser does
        sched = cosine_schedule(10)
        data = make_toy_dataset(8, 2, np.random.default_rng(0)) + [(np.zeros(2), bad_id)]
        for dn in (_tiny_denoiser(), None):
            with pytest.raises(ValueError, match=f"condition id {bad_id} outside 0..7"):
                validation_loss(dn, data, sched, granularity, np.random.default_rng(0))


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

    def test_load_makes_no_random_draw(self, tmp_path, monkeypatch):
        dn = _tiny_denoiser(dim=3, T=20, seed=4)
        path = tmp_path / "toy.ckpt"
        save_checkpoint(dn, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        assert loaded.flat.tobytes() == dn.flat.tobytes()
        assert all(np.shares_memory(view, loaded.flat) for view in loaded.params.values())

    def test_loaded_model_keeps_training(self, tmp_path):
        sched = cosine_schedule(20)
        data = make_toy_dataset(64, 2, np.random.default_rng(0))
        stage = CurriculumStage("s", 5, 16, 1e-3, {"text": 0.9, "null": 0.1})
        dn = train_toy_denoiser(data, [stage], sched, seed=1)
        path = tmp_path / "toy.ckpt"
        save_checkpoint(dn, path)
        loaded = train_toy_denoiser(data, [stage], sched, seed=2, denoiser=load_checkpoint(path))
        in_memory = train_toy_denoiser(data, [stage], sched, seed=2, denoiser=dn)
        assert loaded.flat.tobytes() == in_memory.flat.tobytes()

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    @pytest.mark.parametrize("index", [0, -1])
    def test_non_finite_parameter_raises_naming_path(self, tmp_path, value, index):
        dn = _tiny_denoiser()
        flat = dn.flat.copy()
        flat[index] = value
        path = write_checkpoint(tmp_path / "bad.ckpt", dn.dim, dn.T, flat)
        at = index % flat.size
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite parameter {value} at index {at}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=repr)
    def test_save_refuses_non_finite_parameter_and_writes_nothing(self, tmp_path, value):
        dn = _tiny_denoiser()
        path = tmp_path / "toy.ckpt"
        save_checkpoint(dn, path)
        before = path.read_bytes()
        dn.flat[7] = value
        with pytest.raises(ValueError, match=re.escape(f"{path}: non-finite parameter {value} at index 7")):
            save_checkpoint(dn, path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["toy.ckpt"]

    def test_save_refuses_a_size_past_the_header_and_writes_nothing(self, tmp_path):
        # the constructor refuses this T (above MAX_T); built around it the
        # way load_checkpoint builds a model, it is still refused at save
        path = tmp_path / "toy.ckpt"
        dn = ToyDenoiser.__new__(ToyDenoiser)
        dn._adopt(2, 2**32, _tiny_denoiser().flat)
        with pytest.raises(ValueError) as exc:
            save_checkpoint(dn, path)
        assert str(exc.value) == f"{path}: T 4294967296 does not fit the checkpoint header's uint32"
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "toy.ckpt"
        save_checkpoint(_tiny_denoiser(seed=0), path)
        before = path.read_bytes()
        fail_writes_partway(monkeypatch)
        with pytest.raises(OSError):
            save_checkpoint(_tiny_denoiser(seed=1), path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["toy.ckpt"]

    def test_rewritten_file_matches_saved_bytes(self, tmp_path):
        dn = _tiny_denoiser()
        saved = tmp_path / "saved.ckpt"
        save_checkpoint(dn, saved)
        flat = np.concatenate([p.ravel() for p in _sorted_params(dn)])
        path = write_checkpoint(tmp_path / "rewritten.ckpt", dn.dim, dn.T, flat)
        assert path.read_bytes() == saved.read_bytes()

    def test_saved_bytes_pinned(self, tmp_path):
        # magic, version 3, dim 2, T 10, then the digest of those 12 bytes and the body
        path = tmp_path / "toy.ckpt"
        save_checkpoint(_tiny_denoiser(), path)
        raw = path.read_bytes()
        assert raw[:20].hex() == "544f59444e5a520003000000020000000a000000"
        assert hashlib.sha256(raw).hexdigest() == "46ce2970262014127ead3166c1e18d96c4e897c9706ad636b96a4aa2514d5189"

    @pytest.mark.parametrize("at", [16, 20, 51, 52, -1], ids=["T", "digest-first", "digest-last",
                                                              "body-first", "body-last"])
    def test_edited_field_fails_the_digest(self, tmp_path, at):
        path = tmp_path / "toy.ckpt"
        save_checkpoint(_tiny_denoiser(), path)
        raw = bytearray(path.read_bytes())
        raw[at] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint digest mismatch")):
            load_checkpoint(path)

    @pytest.mark.parametrize("dim, T", [(0, 10), (2, 0)])
    def test_zero_size_raises(self, tmp_path, dim, T):
        path = write_checkpoint(tmp_path / "zero.ckpt", dim, T, _tiny_denoiser().flat)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed checkpoint header: dim {dim} and T {T}")):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        # laid out as the version-1 writer laid it out: the sizes and a
        # name/shape table in the header, then the parameters in that order
        dn = _tiny_denoiser()
        names = sorted(dn.params)
        header = {
            "dim": dn.dim, "T": dn.T, "hidden": 64, "emb": 8, "level_sizes": [2, 2, 2], "n_freq": 4,
            "params": [[name, list(dn.params[name].shape)] for name in names],
        }
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"TOYDNZR\x00" + struct.pack("<II", 1, len(blob)) + blob
                         + b"".join(dn.params[name].astype("<f8").tobytes() for name in names))
        with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported checkpoint version 1")):
            load_checkpoint(path)

    def test_version_2_file_rejected(self, tmp_path):
        # laid out as the version-2 writer laid it out: a JSON header of
        # just dim and T, then the vector in sorted-name order
        dn = _tiny_denoiser()
        blob = json.dumps({"dim": dn.dim, "T": dn.T}).encode("utf-8")
        path = tmp_path / "v2.ckpt"
        path.write_bytes(b"TOYDNZR\x00" + struct.pack("<II", 2, len(blob)) + blob + dn.flat.astype("<f8").tobytes())
        with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported checkpoint version 2")):
            load_checkpoint(path)

    def test_short_header_raises(self, tmp_path):
        # version, dim and T, but not the digest
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"TOYDNZR\x00" + struct.pack("<III", 3, 2, 10))
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated checkpoint header")):
            load_checkpoint(path)

    def test_large_T_costs_no_time_table_until_used(self, tmp_path):
        # the (T+1)-row time-feature table (about 6.4 MB at MAX_T) is built
        # on the first forward pass
        dn = _tiny_denoiser()
        path = write_checkpoint(tmp_path / "big_T.ckpt", dn.dim, MAX_T, dn.flat)
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.T == MAX_T and "_times" not in vars(loaded)
        assert peak < 1024 * 1024

    def test_T_above_MAX_T_rejected(self, tmp_path):
        # the constructor's bound: a loaded model's first predict would
        # otherwise ask for a (T+1, 8) time table
        dn = _tiny_denoiser()
        path = write_checkpoint(tmp_path / "huge_T.ckpt", dn.dim, MAX_T + 1, dn.flat)
        message = f"{path}: malformed checkpoint header: T {MAX_T + 1} is above MAX_T = {MAX_T}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_lying_dim_rejected_before_allocation(self, tmp_path):
        # a ~200-byte file whose header claims a 4-billion-dimensional model
        path = write_checkpoint(tmp_path / "lying.ckpt", 2**32 - 1, 10, np.zeros(20))
        assert path.stat().st_size < 256
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(f"{path}: truncated checkpoint: 160 ")):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


class TestPinnedOutputs:
    """sha256 digests recorded before the sizes became module constants and
    the checkpoint lost its parameter table; any drift in init, training or
    the forward pass changes them."""

    PARAMS_SHA256 = "abbb0ae9ace4ff8cdee27905e7984a4fc6be4f74e2d270f4a089e0bacb161fe1"
    SAMPLE_SHA256 = "73573804eff75d234eea09260cd2cefccc133a38da717b6dfd133bb60d606017"

    @pytest.fixture(scope="class")
    def trained(self):
        data = make_toy_dataset(256, dim=4, rng=np.random.default_rng([0, 4]))
        return train_toy_denoiser(data, default_curriculum(steps=60), cosine_schedule(100), seed=0)

    def test_trained_parameter_bytes_pinned(self, trained):
        raw = b"".join(trained.params[name].tobytes() for name in sorted(trained.params))
        assert hashlib.sha256(raw).hexdigest() == self.PARAMS_SHA256

    def test_sampled_batch_pinned(self, trained):
        gs = GuidanceSchedule(("text", 1), ("full", 5), 3.0, 9.0, t1=88, T=100)
        z_T = np.random.default_rng(1).standard_normal((64, 4))
        z0 = sample_progressive(trained, gs, cosine_schedule(100), z_T, rng=np.random.default_rng(2))
        assert z0.shape == (64, 4)
        assert hashlib.sha256(z0.tobytes()).hexdigest() == self.SAMPLE_SHA256


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
