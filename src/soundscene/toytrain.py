"""A tiny trainable epsilon-predictor and its curriculum trainer.

The denoiser is a two-hidden-layer tanh perceptron over
[z_t, sinusoidal time features, condition embedding], written directly in
numpy with hand-derived gradients so training is exactly reproducible.
Its sizes are module constants, so only the latent dimension and schedule
length T vary; a checkpoint stores those two plus the one parameter vector.

Conditions are hierarchical: a full condition id factors into
(text, timing, phoneme) levels, and coarser views drop the finer levels.
Each curriculum stage draws one granularity per batch, including the
unconditional branch used for classifier-free guidance.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
import weakref
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .diffusion import MAX_T, NoiseSchedule, PairFn, _check_T, _is_int, check_step, forward_noise
from .manifest import _staged

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
_N_CONDITIONS = math.prod(LEVEL_SIZES)

# The condition hierarchy, once: a granularity's view of a full id is
# id // divisor, its table has _N_CONDITIONS // divisor rows, and every
# in-range id // _N_CONDITIONS is 0, the null table's one row.
_DIVISORS = dict(
    zip(GRANULARITIES, (LEVEL_SIZES[1] * LEVEL_SIZES[2], LEVEL_SIZES[2], 1, _N_CONDITIONS))
)


def _divisor(granularity: str) -> int:
    """The granularity's view divisor; the one check of a granularity name."""
    if granularity not in GRANULARITIES:
        raise ValueError(f"unknown granularity {granularity!r}")
    return _DIVISORS[granularity]


# The denoiser's hidden width, condition-embedding width and number of
# sinusoidal time frequencies.
_HIDDEN = 64
_EMB = 8
_N_FREQ = 4

# make_toy_dataset: the text level's mean offset and the within-condition std
_TOY_SPREAD = 2.0
_TOY_SIGMA = 0.4

# validation_loss: fresh (t, eps) draws per dataset item
_VALIDATION_REPEATS = 8

# _bias: the most layer rows (views times latents) that get a bias copy
_BIAS_COPY_ROWS = 16

# bind_pair: the fewest latent rows whose two guidance branches run on two
# threads, the measured crossover (see the README's toy-denoiser section)
_CONCURRENT_ROWS = 384

_CKPT_MAGIC = b"TOYDNZR\x00"
_CKPT_VERSION = 3
# after the magic: version, dim, T, then the sha256 of those 12 bytes and the body
_CKPT_HEADER = struct.Struct("<III32s")


def _bias(b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A bias to add to a layer of ``shape``: a copy repeated to that shape
    when the layer has at most _BIAS_COPY_ROWS rows, as numpy's broadcasting
    setup costs more than so small an add (about 1 us against 0.5 us for a
    (2, 64) layer), else ``b`` itself, so no copy grows with the batch."""
    if math.prod(shape[:-1]) > _BIAS_COPY_ROWS:
        return b
    return np.broadcast_to(b, shape).copy()


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the stage name and step number."""

    def __init__(self, stage: str, step: int):
        super().__init__(f"stage {stage!r}: non-finite loss at step {step}")
        self.stage, self.step = stage, step


def _param_shapes(dim: int) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape for latent dimension ``dim``, in the order
    ToyDenoiser draws them: the layers, then one condition-embedding table
    per granularity, coarsest first."""
    in_dim = dim + 2 * _N_FREQ + _EMB
    shapes = {
        "W1": (in_dim, _HIDDEN), "b1": (_HIDDEN,),
        "W2": (_HIDDEN, _HIDDEN), "b2": (_HIDDEN,),
        "W3": (_HIDDEN, dim), "b3": (dim,),
    }
    for g, divisor in _DIVISORS.items():
        shapes["E_" + g] = (_N_CONDITIONS // divisor, _EMB)
    return shapes


def _n_params(dim: int) -> int:
    return sum(math.prod(shape) for shape in _param_shapes(dim).values())


def _param_views(flat: np.ndarray, dim: int) -> Mapping[str, np.ndarray]:
    """Read-only name -> view mapping over _n_params(dim) values, laid out
    one parameter after another in sorted-name order (the checkpoint's)."""
    shapes = _param_shapes(dim)
    views, offset = {}, 0
    for name in sorted(shapes):
        count = math.prod(shapes[name])
        views[name] = flat[offset : offset + count].reshape(shapes[name])
        offset += count
    return MappingProxyType(views)


class ToyDenoiser:
    """Two-hidden-layer MLP epsilon predictor with per-granularity
    condition-embedding tables and a dedicated null embedding."""

    def __init__(self, dim: int, T: int, rng: np.random.Generator | None = None):
        if not _is_int(dim) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        _check_T(T)
        dim, T = int(dim), int(T)  # plain ints, as a loaded checkpoint's are
        self._adopt(dim, T, np.zeros(_n_params(dim)))
        rng = np.random.default_rng(0) if rng is None else rng
        for name, shape in _param_shapes(dim).items():  # biases stay zero
            if name[0] == "W":  # scaled by fan-in
                self.params[name][...] = rng.standard_normal(shape) / np.sqrt(shape[0])
            elif name[0] == "E":
                self.params[name][...] = 0.1 * rng.standard_normal(shape)

    def _adopt(self, dim: int, T: int, flat: np.ndarray) -> None:
        """Take ``flat``, not copied, as this new instance's parameter vector."""
        self.dim, self.T, self.flat = dim, T, flat
        self.params = _param_views(flat, dim)

    @functools.cached_property
    def _times(self) -> np.ndarray:
        """Read-only sinusoidal features of normalized time, row t for step t,
        shape (T+1, 2*_N_FREQ).  Built on first use, so loading a checkpoint
        allocates nothing for its T."""
        tau = np.arange(self.T + 1, dtype=np.float64)[:, None] / self.T
        angles = 2.0 * np.pi * tau * 2.0 ** np.arange(_N_FREQ)
        times = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
        times.flags.writeable = False
        return times

    # ---- condition bookkeeping -------------------------------------------

    @property
    def n_conditions(self) -> int:
        return _N_CONDITIONS

    @staticmethod
    def view_of(full_id: int | np.ndarray, granularity: str) -> int | np.ndarray:
        """Project full condition ids (an int, or an integer array projected
        element-wise) onto a coarser granularity; a scalar id gives an int.
        The one check that condition ids are integers in 0..n_conditions-1."""
        ids = np.asarray(full_id)
        n = _N_CONDITIONS
        if ids.dtype.kind not in "iu":
            raise ValueError(f"condition ids must be integers in 0..{n - 1}, got {full_id!r}")
        bad = (ids < 0) | (ids >= n)
        if bad.any():
            raise ValueError(f"condition id {ids[bad].flat[0]} outside 0..{n - 1}")
        views = ids // _divisor(granularity)
        return int(views) if views.ndim == 0 else views

    # ---- forward / backward ----------------------------------------------

    def _stacks(self, views: Sequence[tuple[str, np.ndarray | int]], n: int) -> tuple[np.ndarray, ...]:
        """New (x, h1, h2) stacks of shape (k, n, .) for the k condition
        views in ``views``, (granularity, view_ids) pairs, views[i]'s
        embedding rows written into the condition columns of x's slice i.
        A view_ids is per row or one for all rows; nothing is checked."""
        f = self.dim + 2 * _N_FREQ
        stacks = tuple(np.empty((len(views), n, w)) for w in (f + _EMB, _HIDDEN, _HIDDEN))
        for x_view, (granularity, view_ids) in zip(stacks[0], views):
            x_view[:, f:] = self.params["E_" + granularity][view_ids]
        return stacks

    def _bind_layers(
        self, stacks: tuple[np.ndarray, ...]
    ) -> Callable[[np.ndarray | int, np.ndarray], np.ndarray]:
        """fn(t, z_t) writes z_t and the time features of ``t`` (steps in
        0..T, per row or one for all rows) into _stacks' x and runs the three
        layers over the stacks: a fresh (k, n, dim) output; the activations
        stay in the stacks.  np.matmul runs the same 2-D kernel on each
        (n, .) slice, so slice i holds the bytes a one-view stack of views[i]
        gives.  The stacks' column views, the time table, the parameter views
        and (see _bias) the biases are taken once, at binding, so a change to
        the parameters needs a new fn."""
        x, h1, h2 = stacks
        d = self.dim
        x_z, x_time = x[:, :, :d], x[:, :, d : d + 2 * _N_FREQ]
        times, p = self._times, self.params
        hidden = tuple((h_in, h, p[W], _bias(p[b], h.shape))
                       for h_in, h, W, b in ((x, h1, "W1", "b1"), (h1, h2, "W2", "b2")))
        W3, b3 = p["W3"], _bias(p["b3"], (*x.shape[:2], d))

        def layers(t: np.ndarray | int, z_t: np.ndarray) -> np.ndarray:
            x_z[...] = z_t
            x_time[...] = times[t]
            for h_in, h, W, b in hidden:
                np.matmul(h_in, W, out=h)
                h += b
                np.tanh(h, out=h)
            out = h2 @ W3
            out += b3
            return out

        return layers

    def _loss_and_grads(
        self, z_t: np.ndarray, t: np.ndarray, eps: np.ndarray, granularity: str, view_ids: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Mean per-item squared L2 objective and its gradient, one vector
        laid out as ``flat`` (untouched embedding tables get zero rows)."""
        n = z_t.shape[0]
        stacks = self._stacks(((granularity, view_ids),), n)
        out = self._bind_layers(stacks)(t, z_t)[0]
        x, h1, h2 = (s[0] for s in stacks)
        diff = out - eps
        loss = float(np.sum(diff * diff)) / n
        g_out = 2.0 * diff / n
        grad = np.zeros_like(self.flat)
        g, p = _param_views(grad, self.dim), self.params
        np.matmul(h2.T, g_out, out=g["W3"])
        np.sum(g_out, axis=0, out=g["b3"])
        g_h2 = (g_out @ p["W3"].T) * (1.0 - h2 * h2)
        np.matmul(h1.T, g_h2, out=g["W2"])
        np.sum(g_h2, axis=0, out=g["b2"])
        g_h1 = (g_h2 @ p["W2"].T) * (1.0 - h1 * h1)
        np.matmul(x.T, g_h1, out=g["W1"])
        np.sum(g_h1, axis=0, out=g["b1"])
        g_x = g_h1 @ p["W1"].T
        np.add.at(g["E_" + granularity], view_ids, g_x[:, self.dim + 2 * _N_FREQ :])
        return loss, grad

    # ---- Denoiser interface ----------------------------------------------

    def predict(self, z_t: np.ndarray, t: int, c: tuple[str, int] | None = None) -> np.ndarray:
        """Predicted noise for one latent (dim,) or a batch (n, dim) at the
        integer step t in 0..T; a condition's view id must be a Python or
        numpy integer (not a bool) naming a row of its granularity's table.
        Each call runs on stacks of its own, so threads may share an
        instance; the result is always a fresh array."""
        z = np.asarray(z_t, dtype=np.float64)
        n = self._rows(z.shape)
        check_step(t, self.T)
        out = self._bind_layers(self._stacks((self._view(c),), n))(t, z)
        return out[0, 0] if z.ndim == 1 else out[0]

    def bind_pair(self, c: tuple[str, int] | None, shape: tuple[int, ...], t_max: int) -> PairFn:
        """fn(z_t, t) = (predict(z_t, t, c), predict(z_t, t, None)), byte for
        byte, for float64 z_t of ``shape`` and integer steps t in 0..t_max:
        the classifier-free guidance branches of one sampling phase.

        predict's checks run here, once, and so does the copy of the
        condition and null embedding rows into the binding's own two-view
        stacks; each call writes only the latent and time columns and runs
        one forward over both views.  Every call rewrites those stacks, so
        bind once per thread (and again after changing the parameters).
        The two results share no memory with each other or the stacks.

        From _CONCURRENT_ROWS rows on, when the process may use two or
        more CPUs, each call runs the two views as two one-view forwards
        at once: a helper thread runs the null view's slice of the stacks
        while the caller runs the condition's.  Each slice is the stack
        predict builds, so the bytes are predict's on either path.  The
        helper starts with the first call and is joined when the binding
        is dropped; a call returns, or raises, only after both branches
        have finished."""
        n = self._rows(tuple(shape))
        check_step(t_max, self.T)
        stacks = self._stacks((self._view(c), ("null", 0)), n)
        if n < _CONCURRENT_ROWS or _cpus() < 2:
            layers = self._bind_layers(stacks)
            single = len(shape) == 1

            def pair(z_t: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
                out = layers(t, z_t)
                return (out[0, 0], out[1, 0]) if single else (out[0], out[1])

            return pair

        from concurrent.futures import ThreadPoolExecutor  # loads logging: only here

        cond, null = (self._bind_layers(tuple(s[i : i + 1] for s in stacks)) for i in (0, 1))
        helper = ThreadPoolExecutor(1, thread_name_prefix="toy-null-branch")  # starts on submit

        def concurrent_pair(z_t: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
            null_out = helper.submit(null, t, z_t)
            try:
                eps_c = cond(t, z_t)[0]
            finally:
                eps_u = null_out.result()[0]
            return eps_c, eps_u

        weakref.finalize(concurrent_pair, helper.shutdown)  # joins the thread
        return concurrent_pair

    def _rows(self, shape: tuple[int, ...]) -> int:
        """The row count of latents of this shape, (dim,) counting as one."""
        if len(shape) not in (1, 2) or shape[-1] != self.dim:
            raise ValueError(f"expected latents of dimension {self.dim}, got shape {shape}")
        return 1 if len(shape) == 1 else shape[0]

    @staticmethod
    def _view(c: tuple[str, int] | None) -> tuple[str, int]:
        """The (granularity, view id) a condition names, None being the null
        view; refused unless the id is an integer row of that table."""
        granularity, view = ("null", 0) if c is None else c
        if not _is_int(view):
            raise ValueError(f"view id {view!r} is not an integer")
        rows = _N_CONDITIONS // _divisor(granularity)
        if not 0 <= view < rows:
            raise ValueError(f"view id outside the {granularity} table of {rows} rows")
        return granularity, view


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
        sizes = (self.steps, self.batch_size)
        if not (all(_is_int(v) and v >= 1 for v in sizes) and 0 < self.lr < math.inf):
            raise ValueError(f"stage {self.name!r}: steps, batch_size must be positive integers "
                             f"and lr positive and finite, got {(*sizes, self.lr)!r}")
        probs = dict(self.granularity_probs)
        if not probs:
            raise ValueError(f"stage {self.name!r}: empty granularity_probs")
        for g, p in probs.items():
            try:
                _divisor(g)
            except ValueError as exc:
                raise ValueError(f"stage {self.name!r}: {exc}") from None
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
    for i, (_, c) in enumerate(dataset):
        if not _is_int(c):
            raise ValueError(f"dataset item {i}: condition id {c!r} is not an integer")
    cids = np.array([int(c) for _, c in dataset])
    if z0.ndim != 2:
        raise ValueError("dataset latents must be 1-D vectors of a common dimension")
    return z0, cids


def _noised_batch(
    z0: np.ndarray,
    cids: np.ndarray,
    granularity: str,
    sched: NoiseSchedule,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(z_t, t, eps, view_ids) for the rows of z0: each condition id is
    range-checked and projected onto the granularity's view, then per-row
    steps in 1..T are drawn before the noise."""
    view_ids = ToyDenoiser.view_of(cids, granularity)
    t = rng.integers(1, sched.T + 1, size=z0.shape[0])
    eps = rng.standard_normal(z0.shape)
    return forward_noise(z0, t, eps, sched), t, eps, view_ids


def train_toy_denoiser(
    dataset: Sequence[tuple[np.ndarray, int]],
    curriculum: Sequence[CurriculumStage],
    sched: NoiseSchedule,
    seed: int,
    denoiser: ToyDenoiser | None = None,
) -> ToyDenoiser:
    """Train (or continue training) the toy denoiser through the curriculum;
    without ``denoiser`` a new one, drawn from the seeded rng, starts.

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
    ToyDenoiser.view_of(cid_all, "full")  # every id checked before the first step

    # fresh Adam state per call; continuing training restarts the optimizer
    beta1, beta2, adam_eps = 0.9, 0.999, 1e-8
    m = np.zeros_like(denoiser.flat)
    v = np.zeros_like(m)
    adam_t = 0

    for stage in curriculum:
        for step in range(stage.steps):
            idx = rng.integers(0, n, size=stage.batch_size)
            granularity = _draw_granularity(stage.granularity_probs, rng)
            z_t, t, eps, views = _noised_batch(z0_all[idx], cid_all[idx], granularity, sched, rng)
            loss, g = denoiser._loss_and_grads(z_t, t, eps, granularity, views)
            if not np.isfinite(loss):
                raise TrainingDiverged(stage.name, step)
            adam_t += 1
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**adam_t)
            v_hat = v / (1 - beta2**adam_t)
            denoiser.flat -= stage.lr * m_hat / (np.sqrt(v_hat) + adam_eps)
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
    expected loss is the latent dimension; it checks the granularity and the
    condition ids as a denoiser does.  Use the same rng seed to compare
    models on identical draws.
    """
    z0_all, cid_all = _stack_dataset(dataset)
    total = 0.0
    for _ in range(_VALIDATION_REPEATS):
        z_t, t, eps, view_ids = _noised_batch(z0_all, cid_all, granularity, sched, rng)
        out = 0.0
        if denoiser is not None:
            out = denoiser._bind_layers(denoiser._stacks(((granularity, view_ids),), len(t)))(t, z_t)[0]
        total += float(np.sum((out - eps) ** 2))
    return total / (z0_all.shape[0] * _VALIDATION_REPEATS)


def make_toy_dataset(n: int, dim: int, rng: np.random.Generator) -> list[tuple[np.ndarray, int]]:
    """Gaussian components indexed by the full condition id.

    The text level sets the dominant mean (+/- _TOY_SPREAD); timing and phoneme
    levels add progressively smaller offsets, so every granularity carries
    usable signal.
    """
    items: list[tuple[np.ndarray, int]] = []
    for _ in range(n):
        cid = int(rng.integers(0, _N_CONDITIONS))
        mean = 0.0
        for g, size, weight in zip(GRANULARITIES, LEVEL_SIZES, (1.0, 0.25, 0.125)):
            level = cid // _DIVISORS[g] % size
            mean += weight * _TOY_SPREAD * (2.0 * level / (size - 1) - 1.0)
        z0 = mean + _TOY_SIGMA * rng.standard_normal(dim)
        items.append((z0, cid))
    return items


def _check_finite(flat: np.ndarray, path: str | Path) -> None:
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise ValueError(f"{path}: non-finite parameter {flat[bad[0]]} at index {bad[0]} of {flat.size}")


def save_checkpoint(denoiser: ToyDenoiser, path: str | Path) -> None:
    """Version 3: the magic; version, dim and T as little-endian uint32; the
    sha256 of those 12 bytes and the body; the body, the parameter vector as
    little-endian float64 in sorted-name order (see _param_views).  A
    non-finite parameter, or a dim or T past 2**32 - 1, raises ValueError
    naming the path, and a failed save keeps ``path``."""
    for field, value in (("dim", denoiser.dim), ("T", denoiser.T)):
        if value > 2**32 - 1:
            raise ValueError(f"{path}: {field} {value} does not fit the checkpoint header's uint32")
    _check_finite(denoiser.flat, path)
    body = denoiser.flat.astype("<f8", copy=False).tobytes()
    sizes = _CKPT_HEADER.pack(_CKPT_VERSION, denoiser.dim, denoiser.T, b"")[:12]  # digest field dropped
    with _staged(Path(path)) as new:
        new.write_bytes(_CKPT_MAGIC + sizes + hashlib.sha256(sizes + body).digest() + body)


def load_checkpoint(path: str | Path) -> ToyDenoiser:
    """Read a save_checkpoint file.  Raises ValueError naming the path for a
    bad magic, a version other than 3, a zero dim or T, a T above MAX_T
    (checked, as the sizes are, from the header alone), a byte count other
    than the one dim implies (checked before the body is read, so a lying
    dim costs no memory), a digest mismatch or a non-finite parameter.  The
    model is built on the body as read, with no random init."""
    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a toy-denoiser checkpoint")
        header = fh.read(_CKPT_HEADER.size)
        if len(header) != _CKPT_HEADER.size:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, dim, T, digest = _CKPT_HEADER.unpack(header)
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if dim < 1 or T < 1:
            raise ValueError(f"{path}: malformed checkpoint header: dim {dim} and T {T} must be >= 1")
        if T > MAX_T:
            raise ValueError(f"{path}: malformed checkpoint header: T {T} is above MAX_T = {MAX_T}")
        need = 8 * _n_params(dim)
        have = os.fstat(fh.fileno()).st_size - fh.tell()
        if have != need:
            problem = "truncated checkpoint" if have < need else "trailing bytes after parameters"
            raise ValueError(f"{path}: {problem}: {have} parameter bytes, dim {dim} needs {need}")
        body = bytearray(need)
        fh.readinto(body)
    if hashlib.sha256(header[:12] + body).digest() != digest:
        raise ValueError(f"{path}: checkpoint digest mismatch: the file changed after it was saved")
    flat = np.frombuffer(body, dtype="<f8")
    _check_finite(flat, path)
    denoiser = ToyDenoiser.__new__(ToyDenoiser)
    denoiser._adopt(dim, T, flat)
    return denoiser
