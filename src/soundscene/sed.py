"""Temporal-control metrics over event annotation lists: event-based
precision/recall/F1 with onset/offset collars, and clip-level macro F1 over
label presence.

Matching within each (clip, class) pair is exact maximum-cardinality
bipartite matching on the collar-feasibility graph, so scores do not depend
on event order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dsl import EventAnnotation
from .manifest import decode_events, iter_jsonl, read_tsv

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


@dataclass(frozen=True)
class EbConfig:
    """Collars for event matching: onsets must agree within onset_collar,
    offsets within max(offset_collar_abs, offset_collar_rel * truth length)."""

    onset_collar: float = 0.2
    offset_collar_abs: float = 0.2
    offset_collar_rel: float = 0.2

    def __post_init__(self) -> None:
        if self.onset_collar < 0 or self.offset_collar_abs < 0 or self.offset_collar_rel < 0:
            raise ValueError("collars must be non-negative")


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


def _matches(truth: EventAnnotation, pred: EventAnnotation, cfg: EbConfig) -> bool:
    if abs(pred.span.start - truth.span.start) > cfg.onset_collar + _TOL:
        return False
    allowance = max(cfg.offset_collar_abs, cfg.offset_collar_rel * truth.span.duration)
    return abs(pred.span.end - truth.span.end) <= allowance + _TOL


def _max_matching(adjacency: list[list[int]], n_pred: int) -> int:
    """Kuhn's augmenting-path algorithm; returns the matching size."""
    matched_pred = [-1] * n_pred

    def augment(u: int, visited: list[bool]) -> bool:
        for v in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            if matched_pred[v] == -1 or augment(matched_pred[v], visited):
                matched_pred[v] = u
                return True
        return False

    size = 0
    for u in range(len(adjacency)):
        if augment(u, [False] * n_pred):
            size += 1
    return size


def _class_counts(
    truth_events: Sequence[EventAnnotation],
    pred_events: Sequence[EventAnnotation],
    cfg: EbConfig,
) -> dict[str, tuple[int, int, int]]:
    """(tp, fp, fn) per label for one clip."""
    labels = {e.label for e in truth_events} | {e.label for e in pred_events}
    out: dict[str, tuple[int, int, int]] = {}
    for label in labels:
        t = [e for e in truth_events if e.label == label]
        p = [e for e in pred_events if e.label == label]
        adjacency = [[j for j, pe in enumerate(p) if _matches(te, pe, cfg)] for te in t]
        tp = _max_matching(adjacency, len(p))
        out[label] = (tp, len(p) - tp, len(t) - tp)
    return out


def event_based_f1(
    truth: Sequence[ClipAnnotations],
    pred: Sequence[ClipAnnotations],
    cfg: EbConfig = EbConfig(),
) -> EbResult:
    """Collar-matched event scores.  Clips missing from one side count as
    empty on that side; classes never seen in the truth still accumulate
    false positives but stay out of the macro average."""
    truth_map = _by_clip(truth, "truth")
    pred_map = _by_clip(pred, "predictions")
    totals: dict[str, list[int]] = {}
    for clip_id in sorted(set(truth_map) | set(pred_map)):
        t_events = truth_map[clip_id].events if clip_id in truth_map else ()
        p_events = pred_map[clip_id].events if clip_id in pred_map else ()
        for label, (tp, fp, fn) in _class_counts(t_events, p_events, cfg).items():
            acc = totals.setdefault(label, [0, 0, 0])
            acc[0] += tp
            acc[1] += fp
            acc[2] += fn
    per_class = {label: _prf(*counts) for label, counts in sorted(totals.items())}
    micro = _prf(
        sum(c[0] for c in totals.values()),
        sum(c[1] for c in totals.values()),
        sum(c[2] for c in totals.values()),
    )
    truth_labels = [label for label, prf in per_class.items() if prf.tp + prf.fn > 0]
    macro_f1 = (
        sum(per_class[label].f1 for label in truth_labels) / len(truth_labels)
        if truth_labels
        else 0.0
    )
    return EbResult(micro=micro, per_class=per_class, macro_f1=macro_f1)


def clip_level_macro_f1(
    truth: Sequence[ClipAnnotations],
    pred: Sequence[ClipAnnotations],
) -> float:
    """Each clip is a binary presence trial per class; per-class F1 over
    clips, macro-averaged over classes present in the truth."""
    truth_map = _by_clip(truth, "truth")
    pred_map = _by_clip(pred, "predictions")
    clip_ids = sorted(set(truth_map) | set(pred_map))
    truth_labels = sorted({e.label for clip in truth_map.values() for e in clip.events})
    if not truth_labels:
        return 0.0
    total = 0.0
    for label in truth_labels:
        tp = fp = fn = 0
        for clip_id in clip_ids:
            in_truth = clip_id in truth_map and any(
                e.label == label for e in truth_map[clip_id].events
            )
            in_pred = clip_id in pred_map and any(
                e.label == label for e in pred_map[clip_id].events
            )
            if in_truth and in_pred:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_truth:
                fn += 1
        total += _prf(tp, fp, fn).f1
    return total / len(truth_labels)


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
