"""Temporal-control metrics over event annotation lists: event-based
precision/recall/F1 with onset/offset collars, and clip-level macro F1 over
label presence.

Matching within each (clip, class) pair is exact maximum-cardinality
bipartite matching on the collar-feasibility graph, so scores do not depend
on event order.  The graph of every pair is built at once with a sorted
onset search and scored by one Hopcroft-Karp run
(``scipy.sparse.csgraph.maximum_bipartite_matching``); no edge crosses
pairs, so that is the per-pair matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dsl import EventAnnotation
from .manifest import decode_events, iter_jsonl, read_tsv

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

__all__ = [
    "EbConfig",
    "ClipAnnotations",
    "PRF",
    "EbResult",
    "event_based_f1",
    "clip_level_macro_f1",
    "annotations_from_manifest",
    "render_report",
    "format_score",
]

# guards <= comparisons against float dust in span arithmetic
_TOL = 1e-9
# relative widening of the onset search window: far above the few-ulp
# float64 rounding of its bounds and of the onset test, so the window holds
# every prediction that test accepts
_WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class EbConfig:
    """Collars for event matching, in seconds (offset_collar_rel is a fraction): onsets
    agree within onset_collar, offsets within max(offset_collar_abs,
    offset_collar_rel * truth length)."""

    onset_collar: float = 0.2
    offset_collar_abs: float = 0.2
    offset_collar_rel: float = 0.2

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ClipAnnotations:
    clip_id: str
    events: tuple[EventAnnotation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class EbResult:
    """Micro-averaged headline plus per-class scores and the macro F1 over
    classes that appear in the truth."""

    micro: PRF
    per_class: dict[str, PRF]
    macro_f1: float


def _prf(tp: int, fp: int, fn: int) -> PRF:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return PRF(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn)


def _by_clip(side: Sequence[ClipAnnotations], name: str) -> dict[str, ClipAnnotations]:
    out: dict[str, ClipAnnotations] = {}
    for clip in side:
        if clip.clip_id in out:
            raise ValueError(f"duplicate clip_id {clip.clip_id!r} in {name}")
        out[clip.clip_id] = clip
    return out


def _columns(
    clips: dict[str, ClipAnnotations],
    group_of: dict[tuple[str, str], int],
    label_of: dict[str, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(clip, label) group id, label id, onset and offset of every event on
    one side; new groups and labels are numbered in order of appearance."""
    groups: list[int] = []
    labels: list[int] = []
    starts: list[float] = []
    ends: list[float] = []
    for clip_id, clip in clips.items():
        for e in clip.events:
            groups.append(group_of.setdefault((clip_id, e.label), len(group_of)))
            labels.append(label_of.setdefault(e.label, len(label_of)))
            starts.append(e.span.start)
            ends.append(e.span.end)
    return (
        np.array(groups, dtype=np.int64),
        np.array(labels, dtype=np.int64),
        np.array(starts, dtype=np.float64),
        np.array(ends, dtype=np.float64),
    )


def _feasibility_graph(
    t_group: np.ndarray,
    t_start: np.ndarray,
    t_end: np.ndarray,
    p_group: np.ndarray,
    p_start: np.ndarray,
    p_end: np.ndarray,
    cfg: EbConfig,
) -> csr_matrix:
    """Sparse (n_truth, n_pred) graph of collar-feasible pairs; pairs in
    different (clip, label) groups are never candidates."""
    # imported here, as is the matcher: scipy.sparse is slow to import and
    # only scoring needs it
    from scipy.sparse import csr_matrix

    order = np.lexsort((p_start, p_group))
    reach = cfg.onset_collar + _TOL
    slack = _WINDOW_SLACK * (1.0 + np.abs(t_start) + reach)
    bounds = np.concatenate([p_start[order], t_start - reach - slack, t_start + reach + slack])
    # (group, onset rank) as one exact integer key; predictions sorted by
    # (group, onset) have ascending keys, so each truth event's window is a
    # contiguous run of them
    values, rank = np.unique(bounds, return_inverse=True)
    key = np.concatenate([p_group[order], t_group, t_group]) * len(values) + rank
    p_key, lo_key, hi_key = np.split(key, [len(order), len(order) + len(t_group)])
    first = np.searchsorted(p_key, lo_key, side="left")
    count = np.searchsorted(p_key, hi_key, side="right") - first
    # expand each truth event's window into (row, position-in-order) pairs
    rows = np.repeat(np.arange(len(t_group)), count)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    cols = order[np.repeat(first, count) + offsets]
    allowance = np.maximum(cfg.offset_collar_abs, cfg.offset_collar_rel * (t_end - t_start))
    ok = (np.abs(p_start[cols] - t_start[rows]) <= reach) & (
        np.abs(p_end[cols] - t_end[rows]) <= allowance[rows] + _TOL
    )
    rows, cols = rows[ok], cols[ok]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(t_group)))])
    return csr_matrix(
        (np.ones(len(cols), dtype=np.int8), cols, indptr), shape=(len(t_group), len(p_group))
    )


def event_based_f1(
    truth: Sequence[ClipAnnotations],
    pred: Sequence[ClipAnnotations],
    cfg: EbConfig = EbConfig(),
) -> EbResult:
    """Collar-matched event scores.  Clips missing from one side count as
    empty on that side; classes never seen in the truth still accumulate
    false positives but stay out of the macro average."""
    from scipy.sparse.csgraph import maximum_bipartite_matching

    group_of: dict[tuple[str, str], int] = {}
    label_of: dict[str, int] = {}
    t_group, t_label, t_start, t_end = _columns(_by_clip(truth, "truth"), group_of, label_of)
    p_group, p_label, p_start, p_end = _columns(_by_clip(pred, "predictions"), group_of, label_of)
    graph = _feasibility_graph(t_group, t_start, t_end, p_group, p_start, p_end, cfg)
    # one Hopcroft-Karp run over the block-diagonal graph of all groups
    matched = maximum_bipartite_matching(graph, perm_type="column") >= 0
    n_labels = len(label_of)
    tp = np.bincount(t_label[matched], minlength=n_labels)
    n_truth = np.bincount(t_label, minlength=n_labels)
    n_pred = np.bincount(p_label, minlength=n_labels)
    per_class = {
        label: _prf(int(tp[i]), int(n_pred[i] - tp[i]), int(n_truth[i] - tp[i]))
        for label, i in sorted(label_of.items())
    }
    micro = _prf(int(tp.sum()), int(n_pred.sum() - tp.sum()), int(n_truth.sum() - tp.sum()))
    truth_labels = [label for label, prf in per_class.items() if prf.tp + prf.fn > 0]
    macro_f1 = (
        sum(per_class[label].f1 for label in truth_labels) / len(truth_labels)
        if truth_labels
        else 0.0
    )
    return EbResult(micro=micro, per_class=per_class, macro_f1=macro_f1)


def _presence(side: Sequence[ClipAnnotations], name: str) -> dict[str, set[str]]:
    """The clips in which each label is present."""
    out: dict[str, set[str]] = {}
    for clip_id, clip in _by_clip(side, name).items():
        for e in clip.events:
            out.setdefault(e.label, set()).add(clip_id)
    return out


def clip_level_macro_f1(
    truth: Sequence[ClipAnnotations],
    pred: Sequence[ClipAnnotations],
) -> float:
    """Each clip is a binary presence trial per class; per-class F1 over
    clips, macro-averaged over classes present in the truth."""
    truth_clips = _presence(truth, "truth")
    pred_clips = _presence(pred, "predictions")
    if not truth_clips:
        return 0.0
    total = 0.0
    for label in sorted(truth_clips):
        in_truth, in_pred = truth_clips[label], pred_clips.get(label, set())
        tp = len(in_truth & in_pred)
        total += _prf(tp, len(in_pred) - tp, len(in_truth) - tp).f1
    return total / len(truth_clips)


def _from_jsonl(path: Path) -> list[ClipAnnotations]:
    clips: list[ClipAnnotations] = []
    seen: set[str] = set()
    for where, rec in iter_jsonl(path):
        if "clip_id" not in rec:
            raise ValueError(f"{where}: expected an object with a clip_id")
        clip_id = str(rec["clip_id"])
        if clip_id in seen:
            raise ValueError(f"{where}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        events = decode_events(rec.get("events", []), where)
        clips.append(ClipAnnotations(clip_id=clip_id, events=events))
    return clips


def _from_tsv(path: Path) -> list[ClipAnnotations]:
    events: dict[str, list[EventAnnotation]] = {}
    for where, row in read_tsv(path, ("clip_id", "label", "start", "end")):
        events.setdefault(row["clip_id"], []).extend(decode_events([row], where))
    return [ClipAnnotations(clip_id=cid, events=tuple(evs)) for cid, evs in events.items()]


def annotations_from_manifest(path: str | Path) -> list[ClipAnnotations]:
    """Read clip annotations from either the scene-manifest JSONL schema or
    a minimal TSV (clip_id, label, start, end).  The format is sniffed from
    the first non-blank character."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(4096)
    stripped = head.lstrip()
    if stripped.startswith("{"):
        return _from_jsonl(path)
    return _from_tsv(path)


def format_score(value: float) -> str:
    """Scores render as percentages with one decimal (1.0 -> '100.0')."""
    return f"{100.0 * value:.1f}"


def render_report(eb: EbResult, at: float, cfg: EbConfig = EbConfig()) -> str:
    lines = [
        "Event-based scores (Eb)",
        (
            f"  onset collar {cfg.onset_collar:.2f} s; offset collar "
            f"max({cfg.offset_collar_abs:.2f} s, {cfg.offset_collar_rel:.2f} x truth length)"
        ),
        (
            f"  micro: P {format_score(eb.micro.precision)}  R {format_score(eb.micro.recall)}  "
            f"F1 {format_score(eb.micro.f1)}  (tp={eb.micro.tp} fp={eb.micro.fp} fn={eb.micro.fn})"
        ),
        f"  macro F1: {format_score(eb.macro_f1)}",
        "  per class:",
    ]
    for label, prf in eb.per_class.items():
        lines.append(
            f"    {label}: P {format_score(prf.precision)}  R {format_score(prf.recall)}  "
            f"F1 {format_score(prf.f1)}  (tp={prf.tp} fp={prf.fp} fn={prf.fn})"
        )
    if not eb.per_class:
        lines.append("    (none)")
    lines.append(f"Clip-level macro F1 (At): {format_score(at)}")
    return "\n".join(lines) + "\n"
