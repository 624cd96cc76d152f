import numpy as np
import pytest
from scipy import stats

from fixtures import reference_cfg_loop
from soundscene.diffusion import (
    GaussianCondition,
    GaussianOracleDenoiser,
    GuidanceSchedule,
    NoiseSchedule,
    SamplerConfig,
    cfg_combine,
    cosine_schedule,
    diffusion_loss,
    forward_noise,
    linear_schedule,
    reverse_step,
    sample_progressive,
)


class _StubDenoiser:
    """predict() delegates to a captured function of (z, t, c)."""

    def __init__(self, fn):
        self.fn = fn

    def predict(self, z_t, t, c=None):
        return self.fn(z_t, t, c)


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
    @pytest.mark.parametrize("make", [cosine_schedule, linear_schedule])
    def test_shape_and_monotonicity(self, make):
        sched = make(50)
        assert sched.T == 50
        assert sched.alpha_bar.shape == (51,)
        assert sched.alpha_bar[0] == 1.0
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar[-1] > 0

    def test_cosine_betas_clipped(self):
        sched = cosine_schedule(1000)
        betas = [sched.beta(t) for t in range(1, 1001)]
        assert max(betas) <= 0.999 + 1e-12
        assert min(betas) > 0

    def test_linear_betas_match_endpoints(self):
        sched = linear_schedule(100, beta_start=1e-4, beta_end=0.02)
        assert sched.beta(1) == pytest.approx(1e-4, rel=1e-9)
        assert sched.beta(100) == pytest.approx(0.02, rel=1e-9)

    def test_alpha_consistency(self):
        sched = cosine_schedule(20)
        for t in range(1, 21):
            assert sched.alpha_bar[t] == pytest.approx(
                sched.alpha_bar[t - 1] * sched.alpha(t), rel=1e-12
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

    def test_step_range_checks(self):
        sched = cosine_schedule(10)
        with pytest.raises(ValueError, match="outside"):
            sched.beta(0)
        with pytest.raises(ValueError, match="outside"):
            sched.alpha(11)


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


class TestCfgCombine:
    def test_weight_zero_is_unconditional(self):
        cond = np.array([1.0, 2.0])
        uncond = np.array([3.0, 4.0])
        assert np.array_equal(cfg_combine(cond, uncond, 0.0), uncond)

    def test_weight_one_is_conditional(self):
        cond = np.array([0.1, 0.2])
        uncond = np.array([5.0, 6.0])
        assert np.array_equal(cfg_combine(cond, uncond, 1.0), cond)

    def test_arithmetic_case(self):
        out = cfg_combine(np.array([2.0]), np.array([1.0]), 3.0)
        assert out[0] == 4.0

    def test_affine_in_weight(self):
        rng = np.random.default_rng(1)
        cond = rng.standard_normal(8)
        uncond = rng.standard_normal(8)
        a = cfg_combine(cond, uncond, 2.0)
        b = cfg_combine(cond, uncond, 6.0)
        mid = cfg_combine(cond, uncond, 4.0)
        assert np.allclose(mid, (a + b) / 2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            cfg_combine(np.zeros(2), np.zeros(3), 1.0)


class TestReverseStep:
    def test_ancestral_matches_hand_formula(self):
        sched = cosine_schedule(50)
        t = 20
        z_t = np.array([0.5, -1.0])
        eps_hat = np.array([0.2, 0.3])
        out = reverse_step(z_t, t, eps_hat, sched, rng=np.random.default_rng(3))
        ab, ab_prev = sched.alpha_bar[t], sched.alpha_bar[t - 1]
        alpha = ab / ab_prev
        beta = 1 - alpha
        mean = (z_t - beta / np.sqrt(1 - ab) * eps_hat) / np.sqrt(alpha)
        var = beta * (1 - ab_prev) / (1 - ab)
        noise = np.random.default_rng(3).standard_normal(2)
        assert np.allclose(out, mean + np.sqrt(var) * noise)

    def test_final_step_is_noise_free(self):
        sched = cosine_schedule(50)
        z_1 = np.array([0.5, -1.0])
        eps_hat = np.array([0.2, 0.3])
        a = reverse_step(z_1, 1, eps_hat, sched)  # no rng required
        b = reverse_step(z_1, 1, eps_hat, sched)
        assert np.array_equal(a, b)

    def test_ancestral_needs_rng_above_t1(self):
        sched = cosine_schedule(50)
        with pytest.raises(ValueError, match="rng"):
            reverse_step(np.zeros(2), 2, np.zeros(2), sched)

    def test_deterministic_single_step_consistency(self):
        # stepping z_t back with the true eps lands exactly on z_{t-1}
        sched = cosine_schedule(40)
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        for t in range(1, 41):
            z_t = forward_noise(z0, t, eps, sched)
            back = reverse_step(z_t, t, eps, sched, mode="deterministic")
            expect = forward_noise(z0, t - 1, eps, sched)
            assert np.max(np.abs(back - expect)) < 1e-9

    def test_deterministic_recovers_z0_at_t1(self):
        sched = cosine_schedule(40)
        rng = np.random.default_rng(6)
        z0 = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        z_1 = forward_noise(z0, 1, eps, sched)
        assert np.max(np.abs(reverse_step(z_1, 1, eps, sched, mode="deterministic") - z0)) < 1e-6

    def test_seeded_rng_reproducible(self):
        sched = cosine_schedule(50)
        z = np.ones(3)
        eps = 0.1 * np.ones(3)
        a = reverse_step(z, 10, eps, sched, rng=np.random.default_rng(9))
        b = reverse_step(z, 10, eps, sched, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_bad_mode_raises(self):
        sched = cosine_schedule(10)
        with pytest.raises(ValueError, match="mode"):
            reverse_step(np.zeros(2), 1, np.zeros(2), sched, mode="heun")

    def test_step_out_of_range_raises(self):
        sched = cosine_schedule(10)
        with pytest.raises(ValueError, match="outside"):
            reverse_step(np.zeros(2), 0, np.zeros(2), sched)


class TestGuidanceSchedule:
    def test_phase_boundaries(self):
        gs = GuidanceSchedule(c1="a", c2="b", w_low=3.0, w_high=9.0, t1=88, T=100)
        assert gs.at(100) == ("a", 3.0, 1)
        assert gs.at(89) == ("a", 3.0, 1)
        assert gs.at(88) == ("b", 9.0, 2)
        assert gs.at(1) == ("b", 9.0, 2)

    def test_t1_zero_is_all_first_phase(self):
        gs = GuidanceSchedule("a", "b", 1.0, 2.0, t1=0, T=10)
        assert all(gs.at(t)[2] == 1 for t in range(1, 11))

    def test_t1_equals_T_is_all_second_phase(self):
        gs = GuidanceSchedule("a", "b", 1.0, 2.0, t1=10, T=10)
        assert all(gs.at(t)[2] == 2 for t in range(1, 11))

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

    @pytest.mark.parametrize("kwargs", [{"T": 0, "t1": 0}, {"T": 10, "t1": 11}, {"w_high": np.nan}])
    def test_sampler_config_checks_through_guidance_schedule(self, kwargs):
        args = {"w_low": 3.0, "w_high": 9.0, "t1": 5, "T": 10, **kwargs}
        with pytest.raises(ValueError) as direct:
            GuidanceSchedule(None, None, **args)
        with pytest.raises(ValueError) as via_config:
            SamplerConfig(**kwargs)
        assert str(via_config.value) == str(direct.value)

    def test_sampler_config_and_reverse_step_share_mode_check(self):
        with pytest.raises(ValueError) as direct:
            reverse_step(np.zeros(2), 1, np.zeros(2), cosine_schedule(10), mode="heun")
        with pytest.raises(ValueError) as via_config:
            SamplerConfig(mode="heun")
        assert str(via_config.value) == str(direct.value)


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
        cond = GaussianCondition(0.0, 1.0)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        gs = GuidanceSchedule(c1=cond, c2=cond, w_low=3.0, w_high=9.0, t1=88, T=100)
        seen = []
        rng = np.random.default_rng(0)
        sample_progressive(oracle, gs, sched, rng.standard_normal(2), rng=rng, on_step=lambda info, z: seen.append(info))
        assert [info.t for info in seen] == list(range(100, 0, -1))
        phases = [info.phase for info in seen]
        assert phases.count(1) == 12
        assert phases.count(2) == 88
        assert phases == [1] * 12 + [2] * 88
        assert all(info.w == 3.0 for info in seen[:12])
        assert all(info.w == 9.0 for info in seen[12:])

    def test_phase_collapse_bit_identity(self):
        sched = cosine_schedule(60)
        cond = GaussianCondition(1.0, 0.5)
        oracle = GaussianOracleDenoiser(prior=cond, sched=sched)
        gs = GuidanceSchedule(c1=cond, c2=cond, w_low=2.5, w_high=2.5, t1=20, T=60)
        for seed in range(10):
            z_T = np.random.default_rng(seed).standard_normal(3)
            a = sample_progressive(oracle, gs, sched, z_T, rng=np.random.default_rng(1000 + seed))
            b = reference_cfg_loop(oracle, cond, 2.5, sched, z_T, rng=np.random.default_rng(1000 + seed))
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["ancestral", "deterministic"])
    def test_one_phase_schedule_matches_reference_loop(self, mode):
        sched = cosine_schedule(40)
        cond = GaussianCondition(np.array([1.0, -0.5]), 0.5)
        oracle = GaussianOracleDenoiser(prior=GaussianCondition(np.zeros(2), 1.0), sched=sched)
        gs = GuidanceSchedule(cond, cond, 2.5, 2.5, t1=0, T=40)
        z_T = np.random.default_rng(3).standard_normal((16, 2))
        seen = []
        a = sample_progressive(
            oracle, gs, sched, z_T, rng=np.random.default_rng(4), mode=mode,
            on_step=lambda info, z: seen.append(info),
        )
        b = reference_cfg_loop(oracle, cond, 2.5, sched, z_T, rng=np.random.default_rng(4), mode=mode)
        assert a.tobytes() == b.tobytes()
        assert [info.t for info in seen] == list(range(40, 0, -1))
        assert all(info.phase == 1 and info.w == 2.5 and info.condition is cond for info in seen)

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
