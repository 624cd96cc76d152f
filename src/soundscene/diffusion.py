"""Discrete-time diffusion over pluggable denoisers: noise schedules, the
epsilon-prediction objective, classifier-free guidance, and two-phase
progressive sampling that switches condition and guidance scale at a
threshold step, with the `sample` command's settings (SamplerConfig)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Denoiser",
    "NoiseSchedule",
    "cosine_schedule",
    "linear_schedule",
    "forward_noise",
    "diffusion_loss",
    "cfg_combine",
    "reverse_step",
    "GuidanceSchedule",
    "SamplerConfig",
    "StepInfo",
    "sample_progressive",
    "GaussianCondition",
    "GaussianOracleDenoiser",
]

REVERSE_MODES = ("ancestral", "deterministic")


def _check_T(T: int) -> None:
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")


def _check_choice(name: str, value: str, choices: Any) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")


@runtime_checkable
class Denoiser(Protocol):
    """Anything that predicts the noise in z_t given the step and an optional
    condition (None means unconditional)."""

    def predict(self, z_t: np.ndarray, t: int, c: Any | None) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Cumulative signal fractions alpha_bar[0..T] with alpha_bar[0] = 1."""

    alpha_bar: np.ndarray

    def __post_init__(self) -> None:
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        object.__setattr__(self, "alpha_bar", ab)
        if ab.ndim != 1 or ab.shape[0] < 2:
            raise ValueError("alpha_bar must be a 1-D sequence of length T+1 with T >= 1")
        if ab[0] != 1.0:
            raise ValueError(f"alpha_bar[0] must be exactly 1, got {ab[0]!r}")
        if not np.all(np.diff(ab) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")
        if ab[-1] <= 0.0:
            raise ValueError("alpha_bar must stay positive through the last step")

    @property
    def T(self) -> int:
        return self.alpha_bar.shape[0] - 1

    def alpha(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise ValueError(f"step {t} outside 1..{self.T}")
        return float(self.alpha_bar[t] / self.alpha_bar[t - 1])

    def beta(self, t: int) -> float:
        return 1.0 - self.alpha(t)


def cosine_schedule(T: int, s: float = 0.008) -> NoiseSchedule:
    """Squared-cosine alpha_bar; per-step betas are clipped to 0.999 so the
    tail never collapses to zero signal."""
    _check_T(T)
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + s) / (1.0 + s)) * np.pi / 2.0) ** 2
    ab = f / f[0]
    betas = np.clip(1.0 - ab[1:] / ab[:-1], 0.0, 0.999)
    ab = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(alpha_bar=ab)


def linear_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    _check_T(T)
    betas = np.linspace(beta_start, beta_end, T)
    ab = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(alpha_bar=ab)


SCHEDULES = {"cosine": cosine_schedule, "linear": linear_schedule}


def forward_noise(
    z0: np.ndarray, t: int | np.ndarray, eps: np.ndarray, sched: NoiseSchedule
) -> np.ndarray:
    """z_t = sqrt(alpha_bar[t]) z0 + sqrt(1 - alpha_bar[t]) eps.

    ``t`` is one step for all of z0, or an integer array with one step per
    leading row of z0.  Step 0 is allowed and returns z0 unchanged.
    """
    z0 = np.asarray(z0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if z0.shape != eps.shape:
        raise ValueError(f"shape mismatch: z0 {z0.shape}, eps {eps.shape}")
    steps = np.asarray(t)
    if steps.dtype.kind not in "iu":
        raise ValueError(f"steps must be integers, got {steps.dtype}")
    if steps.ndim and (steps.ndim > 1 or z0.ndim == 0 or steps.shape[0] != z0.shape[0]):
        raise ValueError(f"steps of shape {steps.shape} do not match z0 of shape {z0.shape}")
    outside = (steps < 0) | (steps > sched.T)
    if np.any(outside):
        raise ValueError(f"step {steps[outside].flat[0]} outside 0..{sched.T}")
    ab = sched.alpha_bar[steps]
    if steps.ndim:
        ab = ab.reshape(-1, *(1,) * (z0.ndim - 1))
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def diffusion_loss(
    denoiser: Denoiser,
    z0: np.ndarray,
    c: Any | None,
    t: int,
    eps: np.ndarray,
    sched: NoiseSchedule,
) -> float:
    """Squared L2 between the injected and the predicted noise at step t."""
    z_t = forward_noise(z0, t, eps, sched)
    eps_hat = np.asarray(denoiser.predict(z_t, t, c), dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps_hat.shape != eps.shape:
        raise ValueError(f"denoiser output shape {eps_hat.shape} != noise shape {eps.shape}")
    return float(np.sum(np.square(eps - eps_hat)))


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """eps_uncond + w * (eps_cond - eps_uncond); exact branches at w in {0, 1}."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError(f"shape mismatch: {eps_cond.shape} vs {eps_uncond.shape}")
    if w == 0.0:
        return eps_uncond.copy()
    if w == 1.0:
        return eps_cond.copy()
    return eps_uncond + w * (eps_cond - eps_uncond)


def reverse_step(
    z_t: np.ndarray,
    t: int,
    eps_hat: np.ndarray,
    sched: NoiseSchedule,
    mode: str = "ancestral",
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One reverse-process update z_t -> z_{t-1}.

    Ancestral mode uses the epsilon-parameterized posterior mean with
    variance beta_t (1 - alpha_bar[t-1]) / (1 - alpha_bar[t]) and fresh
    Gaussian noise, skipped at t = 1.  Deterministic mode re-noises the
    implied clean latent with the predicted noise itself (no rng needed).
    """
    _check_choice("mode", mode, REVERSE_MODES)
    alpha, beta = sched.alpha(t), sched.beta(t)
    z_t = np.asarray(z_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if z_t.shape != eps_hat.shape:
        raise ValueError(f"shape mismatch: z_t {z_t.shape}, eps_hat {eps_hat.shape}")
    ab = sched.alpha_bar[t]
    ab_prev = sched.alpha_bar[t - 1]
    if mode == "deterministic":
        z0_hat = (z_t - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)
        return np.sqrt(ab_prev) * z0_hat + np.sqrt(1.0 - ab_prev) * eps_hat
    mean = (z_t - beta / np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(alpha)
    if t == 1:
        return mean
    if rng is None:
        raise ValueError("ancestral steps with t > 1 need an rng")
    var = beta * (1.0 - ab_prev) / (1.0 - ab)
    return mean + np.sqrt(var) * rng.standard_normal(z_t.shape)


@dataclass(frozen=True, eq=False)
class GuidanceSchedule:
    """Two-phase sampling policy: steps t > t1 run under (c1, w_low), the
    remaining t1 steps under (c2, w_high).

    t1 = 0 keeps the first phase throughout, so ``GuidanceSchedule(c, c, w,
    w, t1=0, T=T)`` is single-phase classifier-free guidance under (c, w);
    t1 = T starts in the second.
    """

    c1: Any
    c2: Any
    w_low: float
    w_high: float
    t1: int
    T: int

    def __post_init__(self) -> None:
        _check_T(self.T)
        if not 0 <= self.t1 <= self.T:
            raise ValueError(f"t1 must lie in [0, T={self.T}], got {self.t1}")
        for name in ("w_low", "w_high"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def at(self, t: int) -> tuple[Any, float, int]:
        """(condition, guidance weight, phase) in effect at step t."""
        if t > self.t1:
            return self.c1, self.w_low, 1
        return self.c2, self.w_high, 2


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-process settings for the `sample` command."""

    T: int = 100
    schedule: str = "cosine"
    t1: int = 88
    w_low: float = 3.0
    w_high: float = 9.0
    mode: str = "ancestral"
    seed: int = 0

    def __post_init__(self) -> None:
        # the guidance schedule checks T, t1 and the weights
        GuidanceSchedule(None, None, self.w_low, self.w_high, t1=self.t1, T=self.T)
        _check_choice("schedule", self.schedule, SCHEDULES)
        _check_choice("mode", self.mode, REVERSE_MODES)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class StepInfo:
    t: int
    phase: int
    condition: Any
    w: float


def _guided_eps(denoiser: Denoiser, z: np.ndarray, t: int, c: Any, w: float) -> np.ndarray:
    eps_c = np.asarray(denoiser.predict(z, t, c), dtype=np.float64)
    eps_u = np.asarray(denoiser.predict(z, t, None), dtype=np.float64)
    return cfg_combine(eps_c, eps_u, w)


def sample_progressive(
    denoiser: Denoiser,
    gs: GuidanceSchedule,
    sched: NoiseSchedule,
    z_T: np.ndarray,
    rng: np.random.Generator | None = None,
    mode: str = "ancestral",
    on_step: Callable[[StepInfo, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Run the full reverse chain from z_T under the two-phase policy.

    Every step combines conditional and unconditional predictions with the
    phase's guidance weight.  ``on_step`` sees each post-update latent.
    """
    if gs.T != sched.T:
        raise ValueError(f"guidance schedule T={gs.T} does not match noise schedule T={sched.T}")
    z = np.asarray(z_T, dtype=np.float64)
    for t in range(sched.T, 0, -1):
        c, w, phase = gs.at(t)
        eps = _guided_eps(denoiser, z, t, c, w)
        z = reverse_step(z, t, eps, sched, mode=mode, rng=rng)
        if on_step is not None:
            on_step(StepInfo(t=t, phase=phase, condition=c, w=w), z)
    return z


@dataclass(frozen=True, eq=False)
class GaussianCondition:
    """Target N(mu, sigma2 I); mu may be a scalar or a vector."""

    mu: Any
    sigma2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not np.all(np.isfinite(self.mu)):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")


class GaussianOracleDenoiser:
    """Bayes-optimal epsilon predictor for Gaussian data.

    For z0 ~ N(mu, sigma2 I), the posterior mean of the injected noise is
    sqrt(1-ab) (z_t - sqrt(ab) mu) / (ab sigma2 + 1 - ab).  Unconditional
    calls (c=None) fall back to the configured prior.
    """

    def __init__(self, prior: GaussianCondition, sched: NoiseSchedule):
        self.prior = prior
        self.sched = sched

    def predict(self, z_t: np.ndarray, t: int, c: GaussianCondition | None = None) -> np.ndarray:
        if not 0 <= t <= self.sched.T:
            raise ValueError(f"step {t} outside 0..{self.sched.T}")
        cond = self.prior if c is None else c
        ab = self.sched.alpha_bar[t]
        z_t = np.asarray(z_t, dtype=np.float64)
        return np.sqrt(1.0 - ab) * (z_t - np.sqrt(ab) * cond.mu) / (ab * cond.sigma2 + 1.0 - ab)

