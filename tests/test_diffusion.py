import hashlib
import re

import numpy as np
import pytest
from scipy import stats

from fixtures import BranchDenoiser, RecordingDenoiser, diffusion_loss, expected_bind_log, reference_cfg_loop
from soundscene.diffusion import (
    NOISE_BLOCK_BYTES,
    GaussianCondition,
    GaussianOracleDenoiser,
    GuidanceSchedule,
    NoiseSchedule,
    SamplerConfig,
    cosine_schedule,
    forward_noise,
    sample_progressive,
)


# latent shapes whose noise block is a whole phase, three steps and one step
BLOCK_SHAPES = [(4,), (NOISE_BLOCK_BYTES // (8 * 3),), (NOISE_BLOCK_BYTES // 8,)]
# (T, t1) with blocks that end before, at and across phase ends
BLOCK_SPLITS = sorted({(T, min(t1, T)) for T in (1, 2, 100) for t1 in (0, 1, 50, T)})

# steps that are not Python or numpy integers: every one is refused by name
NON_INTEGER_STEPS = [50.5, 5.0, np.float64(5), True, np.True_, "5", None]


class _StubDenoiser:
    """predict() delegates to a captured function of (z, t, c)."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, z_t, t, c=None):
        return self.fn(z_t, t, c)


def zero_branches():
    """A BranchDenoiser predicting no noise in either branch."""
    return BranchDenoiser(*[lambda z, t: np.zeros(z.shape)] * 2)


def chain_moments(sched, mu, sigma2):
    """Exact (mean, variance) of the scalar ancestral chain output when the
    denoiser is the Gaussian posterior-mean predictor for N(mu, sigma2).

    Every update is affine in z plus independent Gaussian noise, so the
    output stays Gaussian and its moments follow this recursion from
    z_T ~ N(0, 1).
    """
    m, v = 0.0, 1.0
    for t in range(sched.T, 0, -1):
        ab = sched.alpha_bar[t]
        ab_prev = sched.alpha_bar[t - 1]
        alpha = ab / ab_prev
        beta = 1.0 - alpha
        slope = np.sqrt(1.0 - ab) / (ab * sigma2 + 1.0 - ab)
        intercept = -slope * np.sqrt(ab) * mu
        k = beta / np.sqrt(1.0 - ab)
        c_lin = (1.0 - k * slope) / np.sqrt(alpha)
        d_lin = -k * intercept / np.sqrt(alpha)
        m = c_lin * m + d_lin
        v = c_lin * c_lin * v
        if t > 1:
            v += beta * (1.0 - ab_prev) / (1.0 - ab)
    return m, v


class TestSchedules:
    @pytest.mark.parametrize("make", [cosine_schedule])
    def test_shape_and_monotonicity(self, make):
        sched = make(50)
        assert sched.T == 50
        assert sched.alpha_bar.shape == (51,)
        assert sched.alpha_bar[0] == 1.0
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar[-1] > 0

    def test_cosine_betas_clipped(self):
        ab = cosine_schedule(1000).alpha_bar
        betas = 1.0 - ab[1:] / ab[:-1]
        assert betas.max() <= 0.999 + 1e-12
        assert betas.min() > 0

    # sha256 of cosine_schedule(T).alpha_bar.tobytes(), recorded when the
    # offset s was still a parameter: the sampler's bytes rest on these
    COSINE_SHA256 = {
        1: "070988841dbc371f4dd8b8d7eb5ab6aa01590a7a8c064729f3c1f83344113bc0",
        10: "b75b19771bab464939c51122dc9120fa0daed0e869c920db36f64c4a6ec28249",
        100: "61e70bcfd11600ba9ee99214bd53f05dcda4752eebe611176559807ba388ad0a",
        1000: "ff6a0e156c5eb2c1a1b6a4c530fcd2ccd42b29c94c766b5a58aa347df56aeadd",
    }

    @pytest.mark.parametrize("T", sorted(COSINE_SHA256))
    def test_cosine_bytes_pinned(self, T):
        digest = hashlib.sha256(cosine_schedule(T).alpha_bar.tobytes()).hexdigest()
        assert digest == self.COSINE_SHA256[T]

    def test_alpha_consistency(self):
        # a deterministic step with zero predicted noise scales z by
        # sqrt(alpha_bar[t-1] / alpha_bar[t]) = 1 / sqrt(alpha_t)
        sched = cosine_schedule(20)
        zero = zero_branches()
        gs = GuidanceSchedule(None, None, 1.0, 1.0, t1=0, T=20)
        z_0 = sample_progressive(zero, gs, sched, np.ones(1), mode="deterministic")
        chain = [z for _, z in zero.seen] + [z_0]
        for (t, z_t), z_prev in zip(zero.seen, chain[1:]):
            inv_sqrt_alpha = z_prev[0] / z_t[0]
            assert sched.alpha_bar[t] == pytest.approx(
                sched.alpha_bar[t - 1] / inv_sqrt_alpha**2, rel=1e-12
            )

    def test_invalid_schedules_raise(self):
        with pytest.raises(ValueError, match="exactly 1"):
            NoiseSchedule(np.array([0.9, 0.5]))
        with pytest.raises(ValueError, match="decreasing"):
            NoiseSchedule(np.array([1.0, 0.5, 0.6]))
        with pytest.raises(ValueError, match="positive"):
            NoiseSchedule(np.array([1.0, 0.5, -0.1]))
        with pytest.raises(ValueError, match="length"):
            NoiseSchedule(np.array([1.0]))
        with pytest.raises(ValueError):
            cosine_schedule(0)

    @pytest.mark.parametrize("make", [cosine_schedule])
    @pytest.mark.parametrize("T", [10.5, 10.0, True, np.float64(4)], ids=repr)
    def test_non_integer_length_refused(self, make, T):
        with pytest.raises(ValueError, match=re.escape(f"T must be an integer >= 1, got {T!r}")):
            make(T)

    def test_numpy_integer_length_accepted(self):
        assert cosine_schedule(np.int64(10)).alpha_bar.tobytes() == cosine_schedule(10).alpha_bar.tobytes()

    # a schedule's steps are 0..T: forward_noise, the public per-step reader
    # of alpha_bar, holds every scalar step to that
    def test_step_range_checks(self):
        sched = cosine_schedule(10)
        z = np.ones(2)
        assert np.array_equal(forward_noise(z, 0, z, sched), z)
        for t in (-1, 11):
            with pytest.raises(ValueError, match=re.escape(f"step {t} outside 0..10")):
                forward_noise(z, t, z, sched)

    @pytest.mark.parametrize("t", NON_INTEGER_STEPS, ids=repr)
    def test_non_integer_step_refused(self, t):
        # a whole float and a bool too: neither indexes alpha_bar as a step
        sched = cosine_schedule(10)
        with pytest.raises(ValueError, match="steps must be integers, got "):
            forward_noise(np.zeros(2), t, np.zeros(2), sched)

    def test_numpy_integer_step_is_that_step(self):
        sched = cosine_schedule(10)
        z0, eps = np.array([0.5, -1.0]), np.array([0.2, 0.3])
        want = forward_noise(z0, 5, eps, sched)
        for kind in (np.int64, np.int32, np.uint8):
            assert forward_noise(z0, kind(5), eps, sched).tobytes() == want.tobytes()


class TestForwardNoise:
    def test_t0_is_identity(self):
        sched = cosine_schedule(10)
        z0 = np.array([1.0, -2.0, 3.0])
        eps = np.array([0.5, 0.5, 0.5])
        assert np.array_equal(forward_noise(z0, 0, eps, sched), z0)

    def test_small_alpha_bar_approaches_noise(self):
        sched = NoiseSchedule(np.array([1.0, 1e-12]))
        z0 = np.array([2.0, -1.0])
        eps = np.array([0.3, 0.7])
        out = forward_noise(z0, 1, eps, sched)
        assert np.allclose(out, eps, atol=1e-5)

    def test_algebraic_inversion(self):
        sched = cosine_schedule(100)
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal(16)
        eps = rng.standard_normal(16)
        for t in (1, 37, 100):
            ab = sched.alpha_bar[t]
            z_t = forward_noise(z0, t, eps, sched)
            rec = (z_t - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
            assert np.max(np.abs(rec - z0)) < 1e-9

    def test_shape_mismatch_raises(self):
        sched = cosine_schedule(10)
        with pytest.raises(ValueError, match="shape"):
            forward_noise(np.zeros(3), 1, np.zeros(4), sched)

    def test_step_out_of_range_raises(self):
        sched = cosine_schedule(10)
        with pytest.raises(ValueError):
            forward_noise(np.zeros(3), 11, np.zeros(3), sched)
        with pytest.raises(ValueError):
            forward_noise(np.zeros(3), -1, np.zeros(3), sched)

    def test_step_array_matches_scalar_calls_and_inline_form(self):
        sched = cosine_schedule(100)
        rng = np.random.default_rng(5)
        t = rng.integers(0, 101, size=64)
        z0 = rng.standard_normal((64, 4))
        eps = rng.standard_normal((64, 4))
        out = forward_noise(z0, t, eps, sched)
        rows = np.stack([forward_noise(z0[i], int(t[i]), eps[i], sched) for i in range(64)])
        sqrt_ab = np.sqrt(sched.alpha_bar)
        sqrt_1mab = np.sqrt(1.0 - sched.alpha_bar)
        inline = sqrt_ab[t, None] * z0 + sqrt_1mab[t, None] * eps
        assert out.tobytes() == rows.tobytes() == inline.tobytes()

    def test_step_array_over_higher_rank_rows(self):
        sched = cosine_schedule(10)
        rng = np.random.default_rng(6)
        z0 = rng.standard_normal((3, 2, 5))
        eps = rng.standard_normal((3, 2, 5))
        t = np.array([0, 4, 10])
        out = forward_noise(z0, t, eps, sched)
        for i in range(3):
            assert np.array_equal(out[i], forward_noise(z0[i], int(t[i]), eps[i], sched))

    def test_step_array_with_one_step_out_of_range_raises(self):
        sched = cosine_schedule(10)
        z = np.zeros((4, 2))
        for bad in (11, -1):
            with pytest.raises(ValueError, match=f"step {bad} outside 0..10"):
                forward_noise(z, np.array([3, 0, bad, 10]), z, sched)

    def test_step_array_must_match_rows_and_be_integral(self):
        sched = cosine_schedule(10)
        z = np.zeros((4, 2))
        with pytest.raises(ValueError, match="do not match"):
            forward_noise(z, np.array([1, 2, 3]), z, sched)
        with pytest.raises(ValueError, match="do not match"):
            forward_noise(z, np.ones((4, 2), dtype=np.int64), z, sched)
        with pytest.raises(ValueError, match="integers"):
            forward_noise(z, np.array([1.0, 2.0, 3.0, 4.0]), z, sched)


class TestDiffusionLoss:
    def test_exact_prediction_gives_zero(self):
        sched = cosine_schedule(10)
        eps = np.array([0.4, -0.2])
        denoiser = _StubDenoiser(lambda z, t, c: eps)
        assert diffusion_loss(denoiser, np.zeros(2), None, 5, eps, sched) == 0.0

    def test_offset_prediction_gives_norm_squared(self):
        sched = cosine_schedule(10)
        eps = np.zeros(3)
        d = np.array([1.0, 2.0, -2.0])
        denoiser = _StubDenoiser(lambda z, t, c: eps + d)
        loss = diffusion_loss(denoiser, np.zeros(3), None, 5, eps, sched)
        assert loss == pytest.approx(float(np.sum(d**2)))

    def test_oracle_beats_zero_predictor(self):
        sched = cosine_schedule(100)
        cond = GaussianCondition(mu=1.0, sigma2=0.5)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        zero = _StubDenoiser(lambda z, t, c: np.zeros_like(z))
        rng = np.random.default_rng(42)
        t = 60
        oracle_total = zero_total = 0.0
        for _ in range(2000):
            z0 = cond.mu + np.sqrt(cond.sigma2) * rng.standard_normal(1)
            eps = rng.standard_normal(1)
            oracle_total += diffusion_loss(oracle, z0, cond, t, eps, sched)
            zero_total += diffusion_loss(zero, z0, cond, t, eps, sched)
        assert oracle_total < zero_total

    def test_output_shape_mismatch_raises(self):
        sched = cosine_schedule(10)
        denoiser = _StubDenoiser(lambda z, t, c: np.zeros(5))
        with pytest.raises(ValueError, match="shape"):
            diffusion_loss(denoiser, np.zeros(3), None, 2, np.zeros(3), sched)


class TestGuidanceSchedule:
    def test_phase_boundaries(self):
        gs = GuidanceSchedule(c1="a", c2="b", w_low=3.0, w_high=9.0, t1=88, T=100)
        assert gs.phases() == ((1, "a", 3.0, range(100, 88, -1)), (2, "b", 9.0, range(88, 0, -1)))

    @pytest.mark.parametrize("t1", [0, 1, 5, 9, 10])
    def test_phase_walk_follows_the_threshold(self, t1):
        gs = GuidanceSchedule(c1="a", c2="b", w_low=3.0, w_high=9.0, t1=t1, T=10)
        walk = [(t, (c, w, phase)) for phase, c, w, steps in gs.phases() for t in steps]
        assert walk == [(t, ("a", 3.0, 1) if t > t1 else ("b", 9.0, 2)) for t in range(10, 0, -1)]
        assert all(steps for *_, steps in gs.phases())

    def test_t1_zero_is_all_first_phase(self):
        gs = GuidanceSchedule("a", "b", 1.0, 2.0, t1=0, T=10)
        assert gs.phases() == ((1, "a", 1.0, range(10, 0, -1)),)

    def test_t1_equals_T_is_all_second_phase(self):
        gs = GuidanceSchedule("a", "b", 1.0, 2.0, t1=10, T=10)
        assert gs.phases() == ((2, "b", 2.0, range(10, 0, -1)),)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError, match="t1"):
            GuidanceSchedule("a", "b", 1.0, 1.0, t1=-1, T=10)
        with pytest.raises(ValueError, match="t1"):
            GuidanceSchedule("a", "b", 1.0, 1.0, t1=11, T=10)
        with pytest.raises(ValueError, match="w_low"):
            GuidanceSchedule("a", "b", -1.0, 1.0, t1=5, T=10)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("name", ["w_low", "w_high"])
    def test_weights_must_be_finite_and_nonnegative(self, name, w):
        weights = {"w_low": 3.0, "w_high": 9.0, name: w}
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            GuidanceSchedule("a", "b", t1=5, T=10, **weights)

    @pytest.mark.parametrize("t1", [2.5, 2.0, True, np.float64(3)], ids=repr)
    def test_non_integer_t1_refused(self, t1):
        with pytest.raises(ValueError, match=re.escape(f"t1 must be an integer in [0, T=10], got {t1!r}")):
            GuidanceSchedule("a", "b", 1.0, 1.0, t1=t1, T=10)

    @pytest.mark.parametrize("T", [10.5, 10.0, True], ids=repr)
    def test_non_integer_T_refused(self, T):
        with pytest.raises(ValueError, match=re.escape(f"T must be an integer >= 1, got {T!r}")):
            GuidanceSchedule("a", "b", 1.0, 1.0, t1=0, T=T)

    def test_numpy_integer_t1_and_T_accepted(self):
        gs = GuidanceSchedule("a", "b", 1.0, 2.0, t1=np.int64(5), T=np.int32(10))
        assert gs.phases() == GuidanceSchedule("a", "b", 1.0, 2.0, t1=5, T=10).phases()

    @pytest.mark.parametrize("field, kwargs", [
        ("T", {"T": 10.5, "t1": 2.5, "seed": 1.5}),
        ("T", {"T": True, "t1": 0}),
        ("t1", {"T": 10, "t1": 2.5}),
        ("t1", {"T": 10, "t1": True}),
        ("seed", {"seed": 1.5}),
        ("seed", {"seed": 0.0}),
        ("seed", {"seed": True}),
    ], ids=repr)
    def test_sampler_config_integer_fields(self, field, kwargs):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SamplerConfig(**kwargs)

    def test_sampler_config_numpy_integers_accepted(self):
        sc = SamplerConfig(T=np.int64(10), t1=np.int64(4), seed=np.uint32(3))
        assert (sc.T, sc.t1, sc.seed) == (10, 4, 3)

    @pytest.mark.parametrize("kwargs", [{"T": 0, "t1": 0}, {"T": 10, "t1": 11}, {"w_high": np.nan}])
    def test_sampler_config_checks_through_guidance_schedule(self, kwargs):
        args = {"w_low": 3.0, "w_high": 9.0, "t1": 5, "T": 10, **kwargs}
        with pytest.raises(ValueError) as direct:
            GuidanceSchedule(None, None, **args)
        with pytest.raises(ValueError) as via_config:
            SamplerConfig(**kwargs)
        assert str(via_config.value) == str(direct.value)

    def test_sampler_config_and_sampler_share_mode_check(self):
        sched = cosine_schedule(10)
        gs = GuidanceSchedule(None, None, 1.0, 1.0, t1=0, T=10)
        with pytest.raises(ValueError) as direct:
            sample_progressive(zero_branches(), gs, sched, np.zeros(2), mode="heun")
        with pytest.raises(ValueError) as via_config:
            SamplerConfig(mode="heun")
        assert str(via_config.value) == str(direct.value) == (
            "mode must be one of ('ancestral', 'deterministic'), got 'heun'"
        )


class TestGaussianOracle:
    def test_condition_validates_variance(self):
        with pytest.raises(ValueError, match="sigma2"):
            GaussianCondition(mu=0.0, sigma2=0.0)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -np.inf])
    def test_condition_rejects_non_finite_variance(self, sigma2):
        with pytest.raises(ValueError, match="sigma2 must be positive and finite"):
            GaussianCondition(mu=0.0, sigma2=sigma2)

    @pytest.mark.parametrize("mu", [np.nan, np.inf, [0.0, -np.inf]])
    def test_condition_rejects_non_finite_mean(self, mu):
        with pytest.raises(ValueError, match="mu must be finite"):
            GaussianCondition(mu=mu, sigma2=1.0)

    @pytest.mark.parametrize("t", NON_INTEGER_STEPS, ids=repr)
    def test_non_integer_step_refused(self, t):
        sched = cosine_schedule(100)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(2.0, 1.0), sched=sched)
        with pytest.raises(ValueError, match=re.escape(f"step {t!r} outside 0..100: steps are integers")):
            oracle.predict(np.zeros(2), t)

    def test_numpy_integer_step_is_that_step(self):
        sched = cosine_schedule(100)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(2.0, 1.0), sched=sched)
        z = np.array([0.3, -1.2])
        assert oracle.predict(z, np.int64(50)).tobytes() == oracle.predict(z, 50).tobytes()

    @pytest.mark.parametrize("t", NON_INTEGER_STEPS, ids=repr)
    def test_bind_pair_refuses_a_non_integer_t_max(self, t):
        sched = cosine_schedule(10)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(2.0, 1.0), sched=sched)
        with pytest.raises(ValueError, match=re.escape(f"step {t!r} outside 0..10: steps are integers")):
            oracle.bind_pair(None, (2,), t)

    def test_bind_pair_refuses_a_t_max_outside_the_schedule(self):
        sched = cosine_schedule(10)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(2.0, 1.0), sched=sched)
        for t in (-1, 11):
            with pytest.raises(ValueError, match=re.escape(f"step {t} outside 0..10")):
                oracle.bind_pair(None, (2,), t)
        oracle.bind_pair(None, (2,), np.int64(10))

    @pytest.mark.parametrize("c", [None, GaussianCondition(np.array([1.0, -0.5]), 0.3)], ids=["prior", "cond"])
    def test_bound_pair_is_two_predict_calls(self, c):
        sched = cosine_schedule(10)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(2.0, 1.0), sched=sched)
        z = np.random.default_rng(2).standard_normal((3, 2))
        pair = oracle.bind_pair(c, z.shape, 10)
        for t in range(11):
            eps_c, eps_u = pair(z, t)
            assert eps_c.tobytes() == oracle.predict(z, t, c).tobytes()
            assert eps_u.tobytes() == oracle.predict(z, t, None).tobytes()

    def test_no_noise_no_prediction(self):
        sched = cosine_schedule(10)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(2.0, 1.0), sched=sched)
        # alpha_bar[0] = 1: nothing was added, so nothing is predicted
        assert np.array_equal(oracle.predict(np.array([5.0]), 0), np.array([0.0]))

    def test_pure_noise_limit_returns_input(self):
        sched = NoiseSchedule(np.array([1.0, 1e-12]))
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(3.0, 2.0), sched=sched)
        z = np.array([0.7, -0.4])
        assert np.allclose(oracle.predict(z, 1), z, atol=1e-5)

    def test_unconditional_uses_prior(self):
        sched = cosine_schedule(10)
        prior = GaussianCondition(1.0, 0.5)
        oracle = GaussianOracleDenoiser(prior, sched)
        z = np.array([0.3, 0.9])
        assert np.array_equal(oracle.predict(z, 5, None), oracle.predict(z, 5, prior))

    def test_explicit_condition_overrides_prior(self):
        sched = cosine_schedule(10)
        oracle = GaussianOracleDenoiser(GaussianCondition(0.0, 1.0), sched)
        other = GaussianCondition(5.0, 0.1)
        z = np.array([0.3])
        assert not np.array_equal(oracle.predict(z, 5, other), oracle.predict(z, 5, None))

    # (latent shape, condition mu, prior mu, the refused mu's owner):
    # broadcasting the latent against that mu would change its shape, or
    # fails outright
    BAD_SHAPES = [
        ((2, 1), np.zeros(2), np.zeros(2), "cond"),
        ((2, 1), 0.0, np.zeros(2), "prior"),
        ((2, 1), np.zeros(2), 0.0, "cond"),
        ((2,), np.zeros(3), 0.0, "cond"),
        ((), np.zeros(2), np.zeros(2), "cond"),
        ((5, 1), np.zeros((5, 2)), 0.0, "cond"),
    ]

    @pytest.mark.parametrize("shape, mu, prior_mu, owner", BAD_SHAPES, ids=[str(i) for i in range(6)])
    def test_latent_shape_that_broadcasting_would_change_is_refused(self, shape, mu, prior_mu, owner):
        sched = cosine_schedule(10)
        cond = GaussianCondition(mu, 1.0)
        oracle = GaussianOracleDenoiser(GaussianCondition(prior_mu, 1.0), sched)
        bad = cond if owner == "cond" else oracle.prior
        message = re.escape(f"latent shape {shape} does not fit mu of shape {bad.mu.shape}")
        with pytest.raises(ValueError, match=message):
            oracle.bind_pair(cond, shape, 10)
        with pytest.raises(ValueError, match=message):
            oracle.predict(np.zeros(shape), 5, cond if owner == "cond" else None)

    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_sampler_refuses_a_latent_the_condition_would_reshape(self, mode):
        # a (2, 1) z_T against mu of shape (2,) once came back as a (2, 2)
        # latent (deterministic) or failed inside numpy (ancestral)
        sched = cosine_schedule(10)
        cond = GaussianCondition(np.zeros(2), 1.0)
        oracle = GaussianOracleDenoiser(cond, sched)
        gs = GuidanceSchedule(cond, cond, 2.0, 2.0, t1=0, T=10)
        with pytest.raises(ValueError, match=re.escape("latent shape (2, 1) does not fit mu of shape (2,)")):
            sample_progressive(oracle, gs, sched, np.zeros((2, 1)), rng=np.random.default_rng(0), mode=mode)

    @pytest.mark.parametrize("shape, mu", [((2,), 0.0), ((2,), np.zeros(2)), ((7, 2), np.zeros(2)),
                                           ((7, 1), 0.0), ((7, 2), np.zeros((7, 2)))], ids=str)
    def test_latent_shape_broadcasting_keeps_is_accepted(self, shape, mu):
        sched = cosine_schedule(10)
        oracle = GaussianOracleDenoiser(GaussianCondition(mu, 1.0), sched)
        z = np.ones(shape)
        eps_c, eps_u = oracle.bind_pair(None, shape, 10)(z, 5)
        assert eps_c.shape == eps_u.shape == oracle.predict(z, 5).shape == shape

    @pytest.mark.parametrize("t", [10, 50, 90])
    def test_beats_scaled_perturbations(self, t):
        sched = cosine_schedule(100)
        cond = GaussianCondition(mu=1.0, sigma2=0.25)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        rng = np.random.default_rng(100 + t)
        n = 4000
        z0 = cond.mu + np.sqrt(cond.sigma2) * rng.standard_normal((n, 1))
        eps = rng.standard_normal((n, 1))
        z_t = forward_noise(z0, t, eps, sched)
        base = oracle.predict(z_t, t, cond)
        exact = float(np.sum((eps - base) ** 2))
        low = float(np.sum((eps - 0.9 * base) ** 2))
        high = float(np.sum((eps - 1.1 * base) ** 2))
        assert exact < low
        assert exact < high


class TestSampling:
    def test_step_accounting_at_operating_point(self):
        sched = cosine_schedule(100)
        cond = GaussianCondition(1.0, 0.5)
        # a condition unlike the prior, so each phase's weight moves the bytes
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(0.0, 1.0), sched=sched)
        gs = GuidanceSchedule(c1=cond, c2=cond, w_low=3.0, w_high=9.0, t1=88, T=100)
        recording = RecordingDenoiser(oracle)
        z_T = np.random.default_rng(0).standard_normal(2)
        got = sample_progressive(recording, gs, sched, z_T, rng=np.random.default_rng(1))
        # one binding per phase: steps 100..89, then 88..1
        assert recording.log == expected_bind_log(gs, (2,))
        assert [entry[3] for entry in recording.log if entry[0] == "bind"] == [100, 88]
        assert sum(entry[0] == "step" for entry in recording.log) == 100
        # the reference loop states each step's weight (3, then 9) itself
        want = reference_cfg_loop(oracle, gs, sched, z_T, rng=np.random.default_rng(1))
        assert got.tobytes() == want.tobytes()

    def test_phase_collapse_bit_identity(self):
        sched = cosine_schedule(60)
        cond = GaussianCondition(1.0, 0.5)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        gs = GuidanceSchedule(c1=cond, c2=cond, w_low=2.5, w_high=2.5, t1=20, T=60)
        one_phase = GuidanceSchedule(c1=cond, c2=cond, w_low=2.5, w_high=2.5, t1=0, T=60)
        for seed in range(10):
            z_T = np.random.default_rng(seed).standard_normal(3)
            a = sample_progressive(oracle, gs, sched, z_T, rng=np.random.default_rng(1000 + seed))
            b = reference_cfg_loop(oracle, one_phase, sched, z_T, rng=np.random.default_rng(1000 + seed))
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_one_phase_schedule_matches_reference_loop(self, mode):
        sched = cosine_schedule(40)
        cond = GaussianCondition(np.array([1.0, -0.5]), 0.5)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(np.zeros(2), 1.0), sched=sched)
        gs = GuidanceSchedule(cond, cond, 2.5, 2.5, t1=0, T=40)
        z_T = np.random.default_rng(3).standard_normal((16, 2))
        recording = RecordingDenoiser(oracle)
        a = sample_progressive(recording, gs, sched, z_T, rng=np.random.default_rng(4), mode=mode)
        b = reference_cfg_loop(oracle, gs, sched, z_T, rng=np.random.default_rng(4), mode=mode)
        assert a.tobytes() == b.tobytes()
        assert recording.log == [("bind", cond, (16, 2), 40)] + [("step", t) for t in range(40, 0, -1)]

    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    @pytest.mark.parametrize("T,t1", BLOCK_SPLITS)
    @pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=lambda shape: f"size{shape[0]}")
    def test_noise_blocks_give_the_per_step_stream(self, shape, T, t1, mode):
        # the reference draws each step's noise on its own; the sampler's
        # blocks must leave the same latents and the same rng state
        sched = cosine_schedule(T)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(0.0, 1.0), sched=sched)
        gs = GuidanceSchedule(GaussianCondition(1.0, 0.5), GaussianCondition(-0.5, 0.25),
                              3.0, 9.0, t1=t1, T=T)
        z_T = np.random.default_rng(T + t1).standard_normal(shape)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = sample_progressive(oracle, gs, sched, z_T, rng=rng, mode=mode)
        want = reference_cfg_loop(oracle, gs, sched, z_T, rng=ref_rng, mode=mode)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if mode == "deterministic":
            assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state

    def test_non_finite_phase_raises_at_its_end(self):
        # a NaN at step 95 is caught once phase 1 (steps 100..89) has run,
        # and phase 2 never binds
        sched = cosine_schedule(100)
        den = BranchDenoiser(lambda z, t: np.full(z.shape, np.nan if t == 95 else 0.0),
                             lambda z, t: np.zeros(z.shape))
        gs = GuidanceSchedule(c1="a", c2="b", w_low=3.0, w_high=9.0, t1=88, T=100)
        message = "phase 1 (steps 100..89) produced non-finite latents (3 of 3 values)"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_progressive(den, gs, sched, np.zeros(3), rng=np.random.default_rng(0))
        assert [t for t, _ in den.seen] == list(range(100, 88, -1))

    def test_schedule_length_mismatch_raises(self):
        sched = cosine_schedule(50)
        cond = GaussianCondition(0.0, 1.0)
        gs = GuidanceSchedule(cond, cond, 1.0, 1.0, t1=10, T=60)
        with pytest.raises(ValueError, match="match"):
            sample_progressive(GaussianOracleDenoiser(prior=cond, sched=sched), gs, sched, np.zeros(2))

    def test_marginals_match_closed_form(self):
        # the ancestral chain with a linear predictor is exactly Gaussian;
        # compare against the moment recursion, then KS against that Gaussian
        sched = cosine_schedule(400)
        mu, sigma2 = 1.5, 0.25
        cond = GaussianCondition(mu, sigma2)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        rng = np.random.default_rng(7)
        n = 4000
        gs = GuidanceSchedule(cond, cond, 1.0, 1.0, t1=0, T=400)
        z = sample_progressive(oracle, gs, sched, rng.standard_normal((n, 1)), rng=rng)
        m_cf, v_cf = chain_moments(sched, mu, sigma2)
        assert z.mean() == pytest.approx(m_cf, abs=4 * np.sqrt(v_cf / n))
        assert z.var() == pytest.approx(v_cf, abs=4 * v_cf * np.sqrt(2 / n))
        _, p = stats.kstest(z[:, 0], "norm", args=(m_cf, np.sqrt(v_cf)))
        assert p > 0.001

    def test_closed_form_tracks_target(self):
        # the recursion itself should land near (mu, sigma2) once T is large
        sched = cosine_schedule(1000)
        m, v = chain_moments(sched, 2.0, 0.25)
        assert m == pytest.approx(2.0, abs=0.01)
        assert v == pytest.approx(0.25, rel=0.02)

    def test_deterministic_mode_needs_no_rng(self):
        sched = cosine_schedule(50)
        cond = GaussianCondition(4.0, 1e-8)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        gs = GuidanceSchedule(cond, cond, 1.0, 1.0, t1=0, T=50)
        z = sample_progressive(oracle, gs, sched, np.random.default_rng(0).standard_normal(4), mode="deterministic")
        # with a near-point target the deterministic chain collapses onto mu
        assert np.allclose(z, 4.0, atol=1e-3)

    def test_progressive_changes_output_when_phases_differ(self):
        sched = cosine_schedule(60)
        a = GaussianCondition(-2.0, 1.0)
        b = GaussianCondition(2.0, 1.0)
        oracle = GaussianOracleDenoiser(GaussianCondition(0.0, 4.0), sched)
        z_T = np.random.default_rng(2).standard_normal(5)
        gs_ab = GuidanceSchedule(a, b, 1.0, 1.0, t1=30, T=60)
        gs_aa = GuidanceSchedule(a, a, 1.0, 1.0, t1=30, T=60)
        za = sample_progressive(oracle, gs_ab, sched, z_T, rng=np.random.default_rng(11))
        zb = sample_progressive(oracle, gs_aa, sched, z_T, rng=np.random.default_rng(11))
        assert not np.array_equal(za, zb)
        # late-phase condition b pulls samples toward its mean
        assert za.mean() > zb.mean()

    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_every_step_matches_the_written_formula_byte_for_byte(self, mode):
        sched = cosine_schedule(100)
        z_T, eps_hat = np.random.default_rng(5).standard_normal((2, 3))
        den = BranchDenoiser(lambda z, t: eps_hat, lambda z, t: eps_hat)
        gs = GuidanceSchedule("c", "c", 1.0, 1.0, t1=0, T=100)
        z_0 = sample_progressive(den, gs, sched, z_T, np.random.default_rng(6), mode)
        draws = np.random.default_rng(6)
        chain = [z for _, z in den.seen] + [z_0]
        assert [t for t, _ in den.seen] == list(range(100, 0, -1))
        for (t, z_t), got in zip(den.seen, chain[1:]):
            ab, ab_prev = sched.alpha_bar[t], sched.alpha_bar[t - 1]
            if mode == "deterministic":
                z0_hat = (z_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
                want = np.sqrt(ab_prev) * z0_hat + np.sqrt(1.0 - ab_prev) * eps_hat
            else:
                alpha = float(ab / ab_prev)
                beta = 1.0 - alpha
                want = (z_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
                if t > 1:
                    var = beta * (1.0 - ab_prev) / (1.0 - ab)
                    want = want + np.sqrt(var) * draws.standard_normal(3)
            assert got.tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("T", [40, 1000])
    def test_deterministic_chain_inverts_the_forward_process(self, T):
        # given the noise that built z_T, each step lands on z_{t-1} and the
        # chain on z0
        sched = cosine_schedule(T)
        z0, eps = np.random.default_rng(T).standard_normal((2, 6))
        den = BranchDenoiser(lambda z, t: eps, lambda z, t: eps)
        gs = GuidanceSchedule("c", "c", 2.5, 2.5, t1=0, T=T)
        got = sample_progressive(den, gs, sched, forward_noise(z0, T, eps, sched), mode="deterministic")
        for t, z_t in den.seen:
            assert np.max(np.abs(z_t - forward_noise(z0, t, eps, sched))) < 1e-9, t
        assert np.max(np.abs(got - z0)) < 1e-9

    def test_final_step_is_noise_free(self):
        # a one-step ancestral chain needs no rng, and draws nothing from one
        sched = cosine_schedule(1)
        den = BranchDenoiser(lambda z, t: np.full(2, 0.2), lambda z, t: np.full(2, 0.3))
        gs = GuidanceSchedule("c", "c", 2.0, 2.0, t1=0, T=1)
        z_1 = np.array([0.5, -1.0])
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with_rng = sample_progressive(den, gs, sched, z_1, rng)
        assert rng.bit_generator.state == state
        assert with_rng.tobytes() == sample_progressive(den, gs, sched, z_1).tobytes()

    def test_seeded_rng_reproducible(self):
        sched = cosine_schedule(50)
        cond = GaussianCondition(1.0, 0.5)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(0.0, 1.0), sched=sched)
        gs = GuidanceSchedule(cond, cond, 3.0, 9.0, t1=20, T=50)
        z_T = np.ones(3)
        a, b, other = (
            sample_progressive(oracle, gs, sched, z_T, np.random.default_rng(seed)) for seed in (9, 9, 10)
        )
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, other)

    def test_ancestral_needs_rng_above_t1(self):
        gs = GuidanceSchedule("c", "c", 1.0, 1.0, t1=0, T=2)
        with pytest.raises(ValueError, match="ancestral steps with t > 1 need an rng"):
            sample_progressive(zero_branches(), gs, cosine_schedule(2), np.zeros(2))

    @pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=str)
    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_z_T_is_left_unchanged(self, mode, w, shape):
        # the sampler updates its own copy of z_T in place
        z_T = np.random.default_rng(8).standard_normal(shape)
        kept = z_T.copy()
        den = BranchDenoiser(lambda z, t: 0.1 * z, lambda z, t: -0.1 * z)
        gs = GuidanceSchedule("c", "c", w, w, t1=0, T=10)
        z_0 = sample_progressive(den, gs, cosine_schedule(10), z_T, np.random.default_rng(9), mode)
        assert z_T.tobytes() == kept.tobytes()
        assert not np.shares_memory(z_0, z_T)

    @pytest.mark.parametrize("shape", [(3,), (2, 3)], ids=str)
    @pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_bound_results_are_left_unchanged(self, mode, w, shape):
        # the bound function returns the same two arrays on every call; the
        # sampler reads them and writes into neither
        eps_c, eps_u = np.random.default_rng(10).standard_normal((2, *shape))
        kept = eps_c.tobytes(), eps_u.tobytes()
        den = BranchDenoiser(lambda z, t: eps_c, lambda z, t: eps_u)
        gs = GuidanceSchedule("c", "c", w, w, t1=0, T=10)
        sample_progressive(den, gs, cosine_schedule(10), np.ones(shape), np.random.default_rng(11), mode)
        assert (eps_c.tobytes(), eps_u.tobytes()) == kept

    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_guided_step_is_affine_in_weight(self, mode):
        rng = np.random.default_rng(1)
        cond, uncond, z_1 = rng.standard_normal((3, 8))
        den = BranchDenoiser(lambda z, t: cond, lambda z, t: uncond)
        sched = cosine_schedule(1)
        a, mid, b = (
            sample_progressive(den, GuidanceSchedule("c", "c", w, w, t1=0, T=1), sched, z_1, mode=mode)
            for w in (2.0, 4.0, 6.0)
        )
        assert np.allclose(mid, (a + b) / 2)
