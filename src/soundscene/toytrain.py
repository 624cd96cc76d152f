"""A tiny trainable epsilon-predictor and its curriculum trainer.

The denoiser is a two-hidden-layer tanh perceptron over
[z_t, sinusoidal time features, condition embedding], written directly in
numpy with hand-derived gradients so training is exactly reproducible.

Conditions are hierarchical: a full condition id factors into
(text, timing, phoneme) levels, and coarser views drop the finer levels.
Each curriculum stage draws one granularity per batch, including the
unconditional branch used for classifier-free guidance.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .diffusion import NoiseSchedule, forward_noise

__all__ = [
    "GRANULARITIES",
    "ToyDenoiser",
    "CurriculumStage",
    "default_curriculum",
    "TrainingDiverged",
    "train_toy_denoiser",
    "validation_loss",
    "make_toy_dataset",
    "save_checkpoint",
    "load_checkpoint",
]

# Condition granularities, coarsest first; "null" is the unconditional branch.
GRANULARITIES = ("text", "text_timing", "full", "null")

# Sizes of the (text, timing, phoneme) condition levels; a full condition
# id indexes their product.
LEVEL_SIZES = (2, 2, 2)

# make_toy_dataset: the text level's mean offset and the within-condition std
_TOY_SPREAD = 2.0
_TOY_SIGMA = 0.4

# validation_loss: fresh (t, eps) draws per dataset item
_VALIDATION_REPEATS = 8

_CKPT_MAGIC = b"TOYDNZR\x00"
_CKPT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the stage name and step number."""

    def __init__(self, stage: str, step: int):
        super().__init__(f"stage {stage!r}: non-finite loss at step {step}")
        self.stage = stage
        self.step = step


def _time_features(t: np.ndarray | float, T: int, n_freq: int) -> np.ndarray:
    """Sinusoidal features of normalized time, one row per step (a scalar
    step gives one row), shape (n, 2*n_freq)."""
    tau = np.reshape(np.asarray(t, dtype=np.float64), (-1, 1)) / T
    freqs = 2.0 ** np.arange(n_freq)
    angles = 2.0 * np.pi * tau * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


class ToyDenoiser:
    """Two-hidden-layer MLP epsilon predictor with per-granularity
    condition-embedding tables and a dedicated null embedding."""

    def __init__(
        self,
        dim: int,
        T: int,
        hidden: int = 64,
        emb: int = 8,
        level_sizes: tuple[int, int, int] = LEVEL_SIZES,
        n_freq: int = 4,
        rng: np.random.Generator | None = None,
    ):
        if dim < 1 or T < 1 or hidden < 1 or emb < 1 or n_freq < 1:
            raise ValueError("all sizes must be positive")
        if len(level_sizes) != 3 or any(s < 1 for s in level_sizes):
            raise ValueError(f"level_sizes must be three positive ints, got {level_sizes!r}")
        self.dim = dim
        self.T = T
        self.hidden = hidden
        self.emb = emb
        self.level_sizes = tuple(int(s) for s in level_sizes)
        self.n_freq = n_freq
        if rng is None:
            rng = np.random.default_rng(0)
        s1, s2, s3 = self.level_sizes
        in_dim = dim + 2 * n_freq + emb
        self.params: dict[str, np.ndarray] = {
            "W1": rng.standard_normal((in_dim, hidden)) / np.sqrt(in_dim),
            "b1": np.zeros(hidden),
            "W2": rng.standard_normal((hidden, hidden)) / np.sqrt(hidden),
            "b2": np.zeros(hidden),
            "W3": rng.standard_normal((hidden, dim)) / np.sqrt(hidden),
            "b3": np.zeros(dim),
            "E_text": 0.1 * rng.standard_normal((s1, emb)),
            "E_text_timing": 0.1 * rng.standard_normal((s1 * s2, emb)),
            "E_full": 0.1 * rng.standard_normal((s1 * s2 * s3, emb)),
            "E_null": 0.1 * rng.standard_normal((1, emb)),
        }
        # predict's (x, h1, h2) scratch rows, resized when the row count changes
        self._work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ---- condition bookkeeping -------------------------------------------

    @property
    def n_conditions(self) -> int:
        s1, s2, s3 = self.level_sizes
        return s1 * s2 * s3

    def view_of(self, full_id: int | np.ndarray, granularity: str) -> int | np.ndarray:
        """Project full condition ids (an int, or an integer array projected
        element-wise) onto a coarser granularity; a scalar id gives an int."""
        ids = np.asarray(full_id)
        n = self.n_conditions
        if ids.dtype.kind not in "iu":
            raise ValueError(f"condition ids must be integers in 0..{n - 1}, got {full_id!r}")
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            raise ValueError(f"condition id {ids[bad].flat[0]} outside 0..{n - 1}")
        _, s2, s3 = self.level_sizes
        # every in-range id // n is 0, the null table's one row
        divisors = {"full": 1, "text_timing": s3, "text": s2 * s3, "null": n}
        if granularity not in divisors:
            raise ValueError(f"unknown granularity {granularity!r}")
        views = ids // divisors[granularity]
        return int(views) if views.ndim == 0 else views

    def _table(self, granularity: str) -> str:
        if granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {granularity!r}")
        return {"text": "E_text", "text_timing": "E_text_timing", "full": "E_full", "null": "E_null"}[granularity]

    # ---- forward / backward ----------------------------------------------

    def _buffers(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uninitialized (x, h1, h2) activation arrays for n rows."""
        in_dim = self.dim + 2 * self.n_freq + self.emb
        return np.empty((n, in_dim)), np.empty((n, self.hidden)), np.empty((n, self.hidden))

    def _forward(
        self,
        z_t: np.ndarray,
        t: np.ndarray | float,
        granularity: str,
        view_ids: np.ndarray | int,
        work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        """Output for the rows of z_t; ``t`` and ``view_ids`` are per-row
        arrays, or scalars broadcast over the rows.  The input and hidden
        activations are written into ``work`` (x, h1, h2) when given, else
        into fresh arrays; the output is always a fresh array."""
        table = self._table(granularity)
        E = self.params[table]
        if np.any(view_ids < 0) or np.any(view_ids >= E.shape[0]):
            raise ValueError(f"view id outside the {granularity} table of {E.shape[0]} rows")
        x, h1, h2 = self._buffers(z_t.shape[0]) if work is None else work
        d, f = self.dim, self.dim + 2 * self.n_freq
        x[:, :d] = z_t
        x[:, d:f] = _time_features(t, self.T, self.n_freq)
        x[:, f:] = E[view_ids]
        p = self.params
        for h, h_in, W, b in ((h1, x, "W1", "b1"), (h2, h1, "W2", "b2")):
            np.matmul(h_in, p[W], out=h)
            h += p[b]
            np.tanh(h, out=h)
        out = h2 @ p["W3"]
        out += p["b3"]
        return out, (x, h1, h2, table, view_ids)

    def _loss_and_grads(
        self,
        z_t: np.ndarray,
        t: np.ndarray,
        eps: np.ndarray,
        granularity: str,
        view_ids: np.ndarray,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean per-item squared L2 objective and gradients for every
        parameter (untouched embedding tables get zero gradients)."""
        out, (x, h1, h2, table, view_ids) = self._forward(z_t, t, granularity, view_ids)
        n = z_t.shape[0]
        diff = out - eps
        loss = float(np.sum(diff * diff)) / n
        g_out = 2.0 * diff / n
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        grads["W3"] = h2.T @ g_out
        grads["b3"] = g_out.sum(axis=0)
        g_h2 = (g_out @ self.params["W3"].T) * (1.0 - h2 * h2)
        grads["W2"] = h1.T @ g_h2
        grads["b2"] = g_h2.sum(axis=0)
        g_h1 = (g_h2 @ self.params["W2"].T) * (1.0 - h1 * h1)
        grads["W1"] = x.T @ g_h1
        grads["b1"] = g_h1.sum(axis=0)
        g_x = g_h1 @ self.params["W1"].T
        g_emb = g_x[:, self.dim + 2 * self.n_freq :]
        np.add.at(grads[table], view_ids, g_emb)
        return loss, grads

    # ---- Denoiser interface ----------------------------------------------

    def predict(self, z_t: np.ndarray, t: int, c: tuple[str, int] | None = None) -> np.ndarray:
        """Predicted noise for one latent (dim,) or a batch (n, dim) at step t
        in 0..T; a condition's view id must be an integer.

        The activations go to this instance's scratch rows, so one instance
        must not predict from two threads at once; the result is always a
        fresh array."""
        z = np.asarray(z_t, dtype=np.float64)
        single = z.ndim == 1
        z2 = z[None, :] if single else z
        if z2.ndim != 2 or z2.shape[1] != self.dim:
            raise ValueError(f"expected latents of dimension {self.dim}, got shape {z.shape}")
        if not 0 <= t <= self.T:
            raise ValueError(f"step {t} outside 0..{self.T}")
        granularity, view = ("null", 0) if c is None else c
        try:
            vid = int(view)
            if vid != view:
                raise ValueError
        except (OverflowError, TypeError, ValueError):
            raise ValueError(f"view id {view!r} is not an integer") from None
        n = z2.shape[0]
        if self._work is None or self._work[0].shape[0] != n:
            self._work = self._buffers(n)
        out, _ = self._forward(z2, float(t), granularity, vid, self._work)
        return out[0] if single else out


@dataclass(frozen=True)
class CurriculumStage:
    """One training stage: how long, how big, how fast, and which condition
    granularities its batches draw from."""

    name: str
    steps: int
    batch_size: int
    lr: float
    granularity_probs: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError(f"stage {self.name!r}: steps, batch_size, lr must be positive")
        probs = dict(self.granularity_probs)
        if not probs:
            raise ValueError(f"stage {self.name!r}: empty granularity_probs")
        for g, p in probs.items():
            if g not in GRANULARITIES:
                raise ValueError(f"stage {self.name!r}: unknown granularity {g!r}")
            if p < 0:
                raise ValueError(f"stage {self.name!r}: negative probability for {g!r}")
        if abs(sum(probs.values()) - 1.0) > 1e-9:
            raise ValueError(f"stage {self.name!r}: granularity_probs sum to {sum(probs.values())}")
        object.__setattr__(self, "granularity_probs", probs)


def default_curriculum(steps: int = 300, batch_size: int = 64, lr: float = 3e-3) -> tuple[CurriculumStage, ...]:
    """Three stages that widen the condition mix while keeping 10%
    unconditional dropout throughout."""
    return (
        CurriculumStage("stage1", steps, batch_size, lr, {"text": 0.9, "null": 0.1}),
        CurriculumStage(
            "stage2", steps, batch_size, lr, {"text": 0.45, "text_timing": 0.45, "null": 0.1}
        ),
        CurriculumStage(
            "stage3", steps, batch_size, lr,
            {"text": 0.3, "text_timing": 0.3, "full": 0.3, "null": 0.1},
        ),
    )


def _draw_granularity(probs: Mapping[str, float], rng: np.random.Generator) -> str:
    # canonical order keeps the draw independent of dict insertion order
    keys = [g for g in GRANULARITIES if g in probs]
    return keys[rng.choice(len(keys), p=[probs[g] for g in keys])]


def _stack_dataset(dataset: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, np.ndarray]:
    if not dataset:
        raise ValueError("empty dataset")
    z0 = np.stack([np.asarray(z, dtype=np.float64) for z, _ in dataset])
    cids = np.array([int(c) for _, c in dataset])
    if z0.ndim != 2:
        raise ValueError("dataset latents must be 1-D vectors of a common dimension")
    return z0, cids


def _noised_batch(
    denoiser: ToyDenoiser | None,
    z0: np.ndarray,
    cids: np.ndarray,
    granularity: str,
    sched: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """(z_t, t, eps, view_ids) for the rows of z0: per-row steps in 1..T are
    drawn before the noise, and each condition id is range-checked and
    projected onto the granularity's view (no view ids without a denoiser)."""
    t = rng.integers(1, sched.T + 1, size=z0.shape[0])
    eps = rng.standard_normal(z0.shape)
    z_t = forward_noise(z0, t, eps, sched)
    view_ids = None
    if denoiser is not None:
        view_ids = denoiser.view_of(cids, granularity)
    return z_t, t.astype(np.float64), eps, view_ids


def train_toy_denoiser(
    dataset: Sequence[tuple[np.ndarray, int]],
    curriculum: Sequence[CurriculumStage],
    sched: NoiseSchedule,
    seed: int,
    denoiser: ToyDenoiser | None = None,
) -> ToyDenoiser:
    """Train (or continue training) the toy denoiser through the curriculum;
    without ``denoiser`` a new one with ToyDenoiser's default sizes starts.

    Each step draws a batch with replacement, one granularity for the whole
    batch, per-item timesteps and noise, and takes one Adam step on the
    squared-noise-error objective.  Fully deterministic for a given seed.
    """
    z0_all, cid_all = _stack_dataset(dataset)
    n, dim = z0_all.shape
    rng = np.random.default_rng(seed)
    if denoiser is None:
        denoiser = ToyDenoiser(dim, sched.T, rng=rng)
    if denoiser.dim != dim:
        raise ValueError(f"denoiser dimension {denoiser.dim} != dataset dimension {dim}")
    if denoiser.T != sched.T:
        raise ValueError(f"denoiser was built for T={denoiser.T}, schedule has T={sched.T}")
    if np.any(cid_all < 0) or np.any(cid_all >= denoiser.n_conditions):
        raise ValueError(f"condition ids must lie in 0..{denoiser.n_conditions - 1}")

    # fresh Adam state per call; continuing training restarts the optimizer
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(v) for k, v in denoiser.params.items()}
    v = {k: np.zeros_like(p) for k, p in denoiser.params.items()}
    adam_t = 0

    for stage in curriculum:
        for step in range(stage.steps):
            idx = rng.integers(0, n, size=stage.batch_size)
            granularity = _draw_granularity(stage.granularity_probs, rng)
            z_t, t, eps, view_ids = _noised_batch(
                denoiser, z0_all[idx], cid_all[idx], granularity, sched, rng
            )
            loss, grads = denoiser._loss_and_grads(z_t, t, eps, granularity, view_ids)
            if not np.isfinite(loss):
                raise TrainingDiverged(stage.name, step)
            adam_t += 1
            for key in denoiser.params:
                g = grads[key]
                m[key] = beta1 * m[key] + (1 - beta1) * g
                v[key] = beta2 * v[key] + (1 - beta2) * g * g
                m_hat = m[key] / (1 - beta1**adam_t)
                v_hat = v[key] / (1 - beta2**adam_t)
                denoiser.params[key] -= stage.lr * m_hat / (np.sqrt(v_hat) + adam_eps)
    return denoiser


def validation_loss(
    denoiser: ToyDenoiser | None,
    dataset: Sequence[tuple[np.ndarray, int]],
    sched: NoiseSchedule,
    granularity: str,
    rng: np.random.Generator,
) -> float:
    """Mean squared-noise-error over the dataset with fresh (t, eps) draws.

    ``denoiser=None`` scores the zero predictor, the natural baseline whose
    expected loss is the latent dimension.  Use the same rng seed to compare
    models on identical draws.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    z0_all, cid_all = _stack_dataset(dataset)
    total = 0.0
    for _ in range(_VALIDATION_REPEATS):
        z_t, t, eps, view_ids = _noised_batch(denoiser, z0_all, cid_all, granularity, sched, rng)
        out = 0.0 if denoiser is None else denoiser._forward(z_t, t, granularity, view_ids)[0]
        total += float(np.sum((out - eps) ** 2))
    return total / (z0_all.shape[0] * _VALIDATION_REPEATS)


def make_toy_dataset(n: int, dim: int, rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    """Gaussian components indexed by the full condition id.

    The text level sets the dominant mean (+/- _TOY_SPREAD); timing and phoneme
    levels add progressively smaller offsets, so every granularity carries
    usable signal.
    """
    s1, s2, s3 = LEVEL_SIZES
    items: list[tuple[np.ndarray, int]] = []
    for _ in range(n):
        cid = int(rng.integers(0, s1 * s2 * s3))
        tt = cid // (s2 * s3)
        gg = (cid // s3) % s2
        pp = cid % s3
        mean = _TOY_SPREAD * (2.0 * tt / max(1, s1 - 1) - 1.0)
        mean += 0.25 * _TOY_SPREAD * (2.0 * gg / max(1, s2 - 1) - 1.0)
        mean += 0.125 * _TOY_SPREAD * (2.0 * pp / max(1, s3 - 1) - 1.0)
        z0 = mean + _TOY_SIGMA * rng.standard_normal(dim)
        items.append((z0, cid))
    return items


def save_checkpoint(denoiser: ToyDenoiser, path: str | Path) -> None:
    """Flat binary: magic, version, JSON header (sizes + parameter shapes),
    then raw little-endian float64 parameter data in header order."""
    names = sorted(denoiser.params)
    header = {
        "dim": denoiser.dim,
        "T": denoiser.T,
        "hidden": denoiser.hidden,
        "emb": denoiser.emb,
        "level_sizes": list(denoiser.level_sizes),
        "n_freq": denoiser.n_freq,
        "params": [[name, list(denoiser.params[name].shape)] for name in names],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for name in names:
            fh.write(np.ascontiguousarray(denoiser.params[name], dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> ToyDenoiser:
    """Read a save_checkpoint file.  Raises ValueError naming the path unless
    the file holds exactly one parameter of the right shape for each
    parameter of the model its header sizes build."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a toy-denoiser checkpoint")
        prefix = fh.read(8)
        if len(prefix) != 8:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, header_len = struct.unpack("<II", prefix)
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ValueError(f"{path}: unreadable checkpoint header: {exc}") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: checkpoint header is not a JSON object")
        try:
            denoiser = ToyDenoiser(
                dim=header["dim"],
                T=header["T"],
                hidden=header["hidden"],
                emb=header["emb"],
                level_sizes=tuple(header["level_sizes"]),
                n_freq=header["n_freq"],
            )
            entries = [(str(name), tuple(int(n) for n in shape)) for name, shape in header["params"]]
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint header has no {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header: {exc}") from None
        loaded: set[str] = set()
        for name, shape in entries:
            if name not in denoiser.params:
                raise ValueError(f"{path}: unknown parameter {name!r}")
            if name in loaded:
                raise ValueError(f"{path}: parameter {name!r} appears twice")
            expected = denoiser.params[name].shape
            if shape != expected:
                raise ValueError(
                    f"{path}: parameter {name!r} has shape {shape}, the header's sizes give {expected}"
                )
            count = int(np.prod(expected))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"{path}: truncated checkpoint at parameter {name!r}")
            denoiser.params[name] = np.frombuffer(raw, dtype="<f8").reshape(expected).copy()
            loaded.add(name)
        missing = sorted(set(denoiser.params) - loaded)
        if missing:
            raise ValueError(f"{path}: missing parameters {missing}")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    return denoiser
