"""Discrete-time diffusion over pluggable denoisers: the cosine noise
schedule, the forward process, classifier-free guidance, and two-phase
progressive sampling that switches condition and guidance scale at a
threshold step, with the `sample` command's settings (SamplerConfig).
Steps are integers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Denoiser",
    "NoiseSchedule",
    "cosine_schedule",
    "forward_noise",
    "cfg_combine",
    "reverse_step",
    "GuidanceSchedule",
    "SamplerConfig",
    "sample_progressive",
    "GaussianCondition",
    "GaussianOracleDenoiser",
]

REVERSE_MODES = ("ancestral", "deterministic")
# cosine_schedule's offset s: keeps the first betas from vanishing
COSINE_OFFSET = 0.008


def _is_int(value: Any) -> bool:
    """A Python or numpy integer, not a bool."""
    return type(value) is int or isinstance(value, np.integer)


def _check_T(T: int) -> None:
    if not _is_int(T) or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")


def check_step(t: int, lo: int, hi: int) -> None:
    """Raise ValueError naming ``t`` unless it is a Python or numpy integer in
    lo..hi; a float (50.0 included) and a bool are refused."""
    if not _is_int(t):
        raise ValueError(f"step {t!r} outside {lo}..{hi}: steps are integers, not {type(t).__name__}")
    if not lo <= t <= hi:
        raise ValueError(f"step {t} outside {lo}..{hi}")


def _check_choice(name: str, value: str, choices: Any) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")


# a bound guidance pair: (z_t, t) -> (eps_cond, eps_uncond)
PairFn = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


@runtime_checkable
class Denoiser(Protocol):
    """Anything that predicts the noise in z_t given the step and an optional
    condition (None means unconditional), and binds both guidance branches
    of one sampling phase at once.

    bind_pair(c, shape, t_max) makes every check predict would make of the
    condition, of latents of that shape and of steps up to t_max, then
    returns fn(z_t, t) = (predict(z_t, t, c), predict(z_t, t, None)) for
    z_t of that shape and integer steps t in 0..t_max, which checks
    neither again."""

    def predict(self, z_t: np.ndarray, t: int, c: Any | None) -> np.ndarray: ...

    def bind_pair(self, c: Any, shape: tuple[int, ...], t_max: int) -> PairFn: ...


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


def cosine_schedule(T: int) -> NoiseSchedule:
    """Squared-cosine alpha_bar over T steps (Nichol & Dhariwal 2021, offset
    COSINE_OFFSET); per-step betas are clipped to 0.999 so the tail never
    collapses to zero signal.  The one noise schedule the sampler runs."""
    _check_T(T)
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * np.pi / 2.0) ** 2
    ab = f / f[0]
    betas = np.clip(1.0 - ab[1:] / ab[:-1], 0.0, 0.999)
    ab = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(alpha_bar=ab)


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


def _guide(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """cfg_combine's arithmetic, unchecked; at w in {0, 1} it returns that
    branch itself, not a copy."""
    if w == 0.0:
        return eps_uncond
    if w == 1.0:
        return eps_cond
    return eps_uncond + w * (eps_cond - eps_uncond)


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """eps_uncond + w * (eps_cond - eps_uncond); exact branches at w in {0, 1}.
    The result is always a fresh array."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError(f"shape mismatch: {eps_cond.shape} vs {eps_uncond.shape}")
    eps_hat = _guide(eps_cond, eps_uncond, w)
    return eps_hat.copy() if eps_hat is eps_cond or eps_hat is eps_uncond else eps_hat


def _step_coefficients(sched: NoiseSchedule, t: Any, mode: str) -> tuple[Any, ...]:
    """The scalars of reverse_step's update at step t, or one array of them
    per scalar over an integer array of steps (elementwise, so each entry
    holds the bytes the one-step call gives).

    Deterministic: (sqrt(1-ab), sqrt(ab), sqrt(ab_prev), sqrt(1-ab_prev)).
    Ancestral: (beta / sqrt(1-ab), sqrt(alpha), sqrt(posterior variance)),
    with alpha = ab / ab_prev, beta = 1 - alpha and the variance
    beta (1 - ab_prev) / (1 - ab)."""
    ab, ab_prev = sched.alpha_bar[t], sched.alpha_bar[t - 1]
    if mode == "deterministic":
        return np.sqrt(1.0 - ab), np.sqrt(ab), np.sqrt(ab_prev), np.sqrt(1.0 - ab_prev)
    alpha = ab / ab_prev
    beta = 1.0 - alpha
    return beta / np.sqrt(1.0 - ab), np.sqrt(alpha), np.sqrt(beta * (1.0 - ab_prev) / (1.0 - ab))


def _apply_step(
    z_t: np.ndarray,
    eps_hat: np.ndarray,
    coefficients: tuple[Any, ...],
    mode: str,
    rng: np.random.Generator | None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """z_{t-1} from _step_coefficients' scalars for step t, unchecked (z_t
    and eps_hat are float64 arrays of one shape); ``rng`` draws the
    ancestral noise and is None at t = 1, which adds none.  The draw goes
    into ``noise`` when given, a float64 buffer of z_t's shape: the same
    values a fresh draw gives."""
    if mode == "deterministic":
        noise_scale, signal_scale, signal_scale_prev, noise_scale_prev = coefficients
        z0_hat = (z_t - noise_scale * eps_hat) / signal_scale
        return signal_scale_prev * z0_hat + noise_scale_prev * eps_hat
    eps_scale, sqrt_alpha, sigma = coefficients
    mean = (z_t - eps_scale * eps_hat) / sqrt_alpha
    if rng is None:
        return mean
    return mean + sigma * rng.standard_normal(z_t.shape, out=noise)


def _check_mode(mode: str, t_max: int, rng: np.random.Generator | None) -> None:
    """The mode of a run whose highest step is t_max, and its rng: ancestral
    steps with t > 1 draw noise, so they need one."""
    _check_choice("mode", mode, REVERSE_MODES)
    if mode == "ancestral" and t_max > 1 and rng is None:
        raise ValueError("ancestral steps with t > 1 need an rng")


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
    check_step(t, 1, sched.T)
    _check_mode(mode, t, rng)
    z_t = np.asarray(z_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if z_t.shape != eps_hat.shape:
        raise ValueError(f"shape mismatch: z_t {z_t.shape}, eps_hat {eps_hat.shape}")
    return _apply_step(z_t, eps_hat, _step_coefficients(sched, t, mode), mode, rng if t > 1 else None)


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
        if not _is_int(self.t1) or not 0 <= self.t1 <= self.T:
            raise ValueError(f"t1 must be an integer in [0, T={self.T}], got {self.t1!r}")
        for name in ("w_low", "w_high"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    def phases(self) -> tuple[tuple[int, Any, float, range], ...]:
        """(phase, condition, guidance weight, steps) for each phase a run
        walks, in order, empty ones left out: steps T..t1+1 under
        (c1, w_low), then t1..1 under (c2, w_high)."""
        walk = (
            (1, self.c1, self.w_low, range(self.T, self.t1, -1)),
            (2, self.c2, self.w_high, range(self.t1, 0, -1)),
        )
        return tuple(p for p in walk if p[3])


@dataclass(frozen=True)
class SamplerConfig:
    """Reverse-process settings for the `sample` command, which always runs
    on ``cosine_schedule(T)``."""

    T: int = 100
    t1: int = 88
    w_low: float = 3.0
    w_high: float = 9.0
    mode: str = "ancestral"
    seed: int = 0

    def __post_init__(self) -> None:
        # the guidance schedule checks T, t1 and the weights
        GuidanceSchedule(None, None, self.w_low, self.w_high, t1=self.t1, T=self.T)
        _check_choice("mode", self.mode, REVERSE_MODES)
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


def sample_progressive(
    denoiser: Denoiser,
    gs: GuidanceSchedule,
    sched: NoiseSchedule,
    z_T: np.ndarray,
    rng: np.random.Generator | None = None,
    mode: str = "ancestral",
) -> np.ndarray:
    """Run the full reverse chain from z_T under the two-phase policy.

    Each phase binds the denoiser once (``bind_pair``, which makes the
    checks), and drops that binding before the next phase binds; every
    step combines the bound pair's conditional and unconditional
    predictions with the phase's guidance weight.  Ancestral noise is
    drawn into one buffer reused across steps.
    """
    if gs.T != sched.T:
        raise ValueError(f"guidance schedule T={gs.T} does not match noise schedule T={sched.T}")
    _check_mode(mode, sched.T, rng)
    z = np.asarray(z_T, dtype=np.float64)
    noise = np.empty(z.shape)
    for _, c, w, steps in gs.phases():
        pair = denoiser.bind_pair(c, z.shape, steps[0])
        coefficients = zip(*_step_coefficients(sched, np.array(steps), mode))
        for t, coefs in zip(steps, coefficients):
            eps_c, eps_u = pair(z, t)
            z = _apply_step(z, _guide(eps_c, eps_u, w), coefs, mode, rng if t > 1 else None, noise)
        del pair  # with any stacks it owns, before the next phase binds
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
        check_step(t, 0, self.sched.T)
        z = np.asarray(z_t, dtype=np.float64)
        return self._eps(z, t, self._condition(c, z.shape))

    def bind_pair(self, c: GaussianCondition | None, shape: tuple[int, ...], t_max: int) -> PairFn:
        """fn(z_t, t) = (predict(z_t, t, c), predict(z_t, t, None)) for
        float64 z_t of ``shape`` and steps 0..t_max, checked once here."""
        check_step(t_max, 0, self.sched.T)
        cond, prior = self._condition(c, tuple(shape)), self._condition(None, tuple(shape))
        return lambda z_t, t: (self._eps(z_t, t, cond), self._eps(z_t, t, prior))

    def _condition(self, c: GaussianCondition | None, shape: tuple[int, ...]) -> GaussianCondition:
        """c, or the prior for None; refused if broadcasting latents of
        ``shape`` against its mu would change that shape."""
        cond = self.prior if c is None else c
        try:
            fits = np.broadcast_shapes(shape, cond.mu.shape) == shape
        except ValueError:  # no common shape at all
            fits = False
        if not fits:
            raise ValueError(f"latent shape {shape} does not fit mu of shape {cond.mu.shape}")
        return cond

    def _eps(self, z_t: np.ndarray, t: int, cond: GaussianCondition) -> np.ndarray:
        ab = self.sched.alpha_bar[t]
        return np.sqrt(1.0 - ab) * (z_t - np.sqrt(ab) * cond.mu) / (ab * cond.sigma2 + 1.0 - ab)
