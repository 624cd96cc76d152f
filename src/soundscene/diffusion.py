"""Discrete-time diffusion over pluggable denoisers: the cosine noise
schedule, the forward process, classifier-free guidance, and two-phase
progressive sampling that switches condition and guidance scale at a
threshold step, with the `sample` command's settings (SamplerConfig).
Steps are integers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Protocol

import numpy as np

__all__ = [
    "Denoiser",
    "NoiseSchedule",
    "cosine_schedule",
    "forward_noise",
    "GuidanceSchedule",
    "SamplerConfig",
    "sample_progressive",
    "GaussianCondition",
    "GaussianOracleDenoiser",
]

REVERSE_MODES = ("ancestral", "deterministic")
# cosine_schedule's offset s: keeps the first betas from vanishing
COSINE_OFFSET = 0.008
# bytes of ancestral noise one rng call draws ahead: as many steps' rows as
# fit, at least one and at most the longest phase
NOISE_BLOCK_BYTES = 64 * 1024


def _is_int(value: Any) -> bool:
    """A Python or numpy integer, not a bool."""
    return type(value) is int or isinstance(value, np.integer)


def _check_T(T: int) -> None:
    if not _is_int(T) or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")


def check_step(t: int, hi: int) -> None:
    """Raise ValueError naming ``t`` unless it is a Python or numpy integer in
    0..hi; a float (50.0 included) and a bool are refused."""
    if not _is_int(t):
        raise ValueError(f"step {t!r} outside 0..{hi}: steps are integers, not {type(t).__name__}")
    if not 0 <= t <= hi:
        raise ValueError(f"step {t} outside 0..{hi}")


def _check_choice(name: str, value: str, choices: Any) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")


# a bound guidance pair: (z_t, t) -> (eps_cond, eps_uncond)
PairFn = Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]


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


def _step_coefficients(sched: NoiseSchedule, t: np.ndarray, mode: str) -> tuple[np.ndarray, ...]:
    """The scalars of the reverse update, one array of each over the integer
    array of steps ``t``.

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
    checks), and drops that binding before the next phase binds.  Every
    step is one in-place update of the sampler's own latent: the bound
    pair's conditional and unconditional predictions, combined with the
    phase's guidance weight, go into one buffer reused across steps.
    Ancestral noise is drawn a block of steps at a time, as many as
    NOISE_BLOCK_BYTES holds, into a second reused buffer and scaled there
    by each step's sigma; a Generator fills an array in order, so the
    latents and the rng's state after a phase are those of one draw per
    step.  The deterministic mode draws nothing.  The bound function gets
    the latent, valid only during the call; the sampler reads both results
    before its next call and writes into neither, nor into z_T.  A phase
    that ends with a non-finite latent raises ValueError naming the phase
    and its steps.
    """
    if gs.T != sched.T:
        raise ValueError(f"guidance schedule T={gs.T} does not match noise schedule T={sched.T}")
    _check_choice("mode", mode, REVERSE_MODES)
    # ancestral steps with t > 1 draw noise
    if mode == "ancestral" and sched.T > 1 and rng is None:
        raise ValueError("ancestral steps with t > 1 need an rng")
    z = np.array(z_T, dtype=np.float64)
    eps = np.empty(z.shape)
    walk = gs.phases()
    if mode == "deterministic":
        scratch = np.empty(z.shape)
    else:
        longest = max(len(steps) for *_, steps in walk)
        noise = np.empty((max(1, min(NOISE_BLOCK_BYTES // max(z.nbytes, 1), longest)), *z.shape))
    for phase, c, w, steps in walk:
        pair = denoiser.bind_pair(c, z.shape, steps[0])
        coefficients = _step_coefficients(sched, np.array(steps), mode)
        # ancestral: one sigma per step, shaped to scale that step's row of noise
        sigmas = coefficients[-1].reshape(-1, *(1,) * z.ndim)
        noisy = len(steps) - (steps[-1] == 1)  # the phase's steps with t > 1
        for i, (t, coefs) in enumerate(zip(steps, zip(*(a.tolist() for a in coefficients)))):
            eps_c, eps_u = pair(z, t)
            # guidance: exactly one branch at w = 0 or 1, else eps_u + w (eps_c - eps_u)
            if w == 0.0 or w == 1.0:
                np.copyto(eps, eps_u if w == 0.0 else eps_c)
            else:
                np.subtract(eps_c, eps_u, out=eps)
                eps *= w
                eps += eps_u
            if mode == "deterministic":
                # z0_hat = (z - noise_scale eps) / signal_scale, re-noised with eps
                noise_scale, signal_scale, signal_scale_prev, noise_scale_prev = coefs
                z -= np.multiply(eps, noise_scale, out=scratch)
                z /= signal_scale
                z *= signal_scale_prev
                z += np.multiply(eps, noise_scale_prev, out=scratch)
                continue
            # the posterior mean, plus sigma times fresh noise except at t = 1
            eps_scale, sqrt_alpha, _ = coefs
            eps *= eps_scale
            z -= eps
            z /= sqrt_alpha
            if t > 1:
                row = i % len(noise)
                if row == 0:  # draw and scale the next block of this phase's steps
                    block = noise[:min(len(noise), noisy - i)]
                    rng.standard_normal(out=block)
                    block *= sigmas[i:i + len(block)]
                z += noise[row]
        del pair  # with any stacks it owns, before the next phase binds
        if not np.isfinite(z).all():
            raise ValueError(f"phase {phase} (steps {steps[0]}..{steps[-1]}) produced non-finite "
                             f"latents ({np.count_nonzero(~np.isfinite(z))} of {z.size} values)")
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
        check_step(t, self.sched.T)
        z = np.asarray(z_t, dtype=np.float64)
        return self._eps(z, t, self._condition(c, z.shape))

    def bind_pair(self, c: GaussianCondition | None, shape: tuple[int, ...], t_max: int) -> PairFn:
        """fn(z_t, t) = (predict(z_t, t, c), predict(z_t, t, None)) for
        float64 z_t of ``shape`` and steps 0..t_max, checked once here."""
        check_step(t_max, self.sched.T)
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
