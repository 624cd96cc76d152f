"""Reference results the benchmark checks the program against.

Nothing here imports ``soundscene.sed`` or ``soundscene.diffusion``: the
event matcher is a brute-force feasibility matrix fed to scipy's
Hopcroft-Karp matching, and the sampler reference propagates a Gaussian's
mean and variance through the reverse chain in closed form.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

# soundscene.sed documents this guard against float dust on its <= tests
TOL = 1e-9

Event = tuple[str, float, float]  # (label, start, end)


def feasibility(
    truth: np.ndarray,
    pred: np.ndarray,
    onset_collar: float,
    offset_abs: float,
    offset_rel: float,
) -> np.ndarray:
    """Boolean (n_truth, n_pred) matrix of collar-feasible pairs.

    ``truth`` and ``pred`` are (n, 2) arrays of (start, end).  A pair is
    feasible when the onsets differ by at most ``onset_collar`` and the
    offsets by at most max(offset_abs, offset_rel * truth length).
    """
    t = np.asarray(truth, dtype=np.float64).reshape(-1, 2)
    p = np.asarray(pred, dtype=np.float64).reshape(-1, 2)
    onset_ok = np.abs(p[None, :, 0] - t[:, None, 0]) <= onset_collar + TOL
    allowance = np.maximum(offset_abs, offset_rel * (t[:, 1] - t[:, 0]))
    offset_ok = np.abs(p[None, :, 1] - t[:, None, 1]) <= allowance[:, None] + TOL
    return onset_ok & offset_ok


def matching_size(feasible: np.ndarray) -> int:
    if not feasible.any():
        return 0
    matched = maximum_bipartite_matching(csr_matrix(feasible), perm_type="column")
    return int(np.count_nonzero(matched >= 0))


def eb_counts(
    truth: Mapping[str, Sequence[Event]],
    pred: Mapping[str, Sequence[Event]],
    collars: tuple[float, float, float] = (0.2, 0.2, 0.2),
) -> tuple[dict[str, list[int]], int, int]:
    """Per-label [tp, fp, fn] summed over clips, the number of (clip, label)
    groups, and the number of collar-feasible pairs.  Clips missing from
    one side count as empty there."""
    totals: dict[str, list[int]] = {}
    groups = 0
    feasible_pairs = 0
    for clip_id in set(truth) | set(pred):
        t_events = truth.get(clip_id, ())
        p_events = pred.get(clip_id, ())
        for label in {e[0] for e in t_events} | {e[0] for e in p_events}:
            t = np.array([(s, e) for lab, s, e in t_events if lab == label]).reshape(-1, 2)
            p = np.array([(s, e) for lab, s, e in p_events if lab == label]).reshape(-1, 2)
            feasible = feasibility(t, p, *collars)
            tp = matching_size(feasible)
            acc = totals.setdefault(label, [0, 0, 0])
            acc[0] += tp
            acc[1] += len(p) - tp
            acc[2] += len(t) - tp
            groups += 1
            feasible_pairs += int(np.count_nonzero(feasible))
    return totals, groups, feasible_pairs


def oracle_moments(
    alpha_bar: np.ndarray,
    prior: tuple[np.ndarray, float],
    c1: tuple[np.ndarray, float],
    c2: tuple[np.ndarray, float],
    w_low: float,
    w_high: float,
    t1: int,
) -> tuple[np.ndarray, float]:
    """Exact mean (per dimension) and variance of z_0 from z_T ~ N(0, I)
    under ancestral two-phase guided sampling with the Gaussian oracle.

    The oracle's noise estimate for N(mu, s2) data is
    sqrt(1-ab) (z - sqrt(ab) mu) / (ab s2 + 1 - ab), so every guided
    reverse step is z' = a z + b + s xi and the moments propagate exactly.
    """
    ab_all = np.asarray(alpha_bar, dtype=np.float64)
    T = ab_all.shape[0] - 1
    mean = np.zeros_like(np.asarray(prior[0], dtype=np.float64))
    var = 1.0
    for t in range(T, 0, -1):
        (mu_c, s2_c), w = (c1, w_low) if t > t1 else (c2, w_high)
        mu_u, s2_u = prior
        ab, ab_prev = ab_all[t], ab_all[t - 1]
        k_c = np.sqrt(1.0 - ab) / (ab * s2_c + 1.0 - ab)
        k_u = np.sqrt(1.0 - ab) / (ab * s2_u + 1.0 - ab)
        # guided eps = A z - B
        A = (1.0 - w) * k_u + w * k_c
        B = np.sqrt(ab) * ((1.0 - w) * k_u * np.asarray(mu_u) + w * k_c * np.asarray(mu_c))
        alpha = ab / ab_prev
        beta = 1.0 - alpha
        g = beta / np.sqrt(1.0 - ab)
        a = (1.0 - g * A) / np.sqrt(alpha)
        b = g * B / np.sqrt(alpha)
        mean = a * mean + b
        var = a * a * var
        if t > 1:
            var += beta * (1.0 - ab_prev) / (1.0 - ab)
    return mean, float(var)
