"""Temporal-control metrics over event annotation lists: event-based
precision/recall/F1 with onset/offset collars, and clip-level macro F1 over
label presence.

Matching within each (clip, class) pair is exact maximum-cardinality
bipartite matching on the collar-feasibility graph, so scores do not depend
on event order.  The graph of every pair is built at once: predictions are
sorted by one complex key, (clip, class) group id as the real part and
onset as the imaginary part, which numpy orders lexicographically, so one
binary search per collar bound finds each truth event's onset window.
The graph is scored by one Hopcroft-Karp run
(``scipy.sparse.csgraph.maximum_bipartite_matching``); no edge crosses
pairs, so that is the per-pair matching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence, overload

import numpy as np

from .dsl import MAX_SECONDS, EventAnnotation, TimeSpan
from .manifest import _Row, decode_event_rows, iter_jsonl, iter_lines, read_tsv, require_str

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

# 1e-9 s in centiseconds: guards a collar in seconds times 100, or a float
# offset allowance, against float dust where it meets an integer distance
_TOL = 1e-7


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


class _Columns(NamedTuple):
    """One side's events as score columns.  Clip ids and labels are listed
    once each, in order of first appearance; per event, ``clip`` and
    ``label`` index those lists, and ``start`` and ``end`` hold its onset
    and offset in whole centiseconds."""

    clip_ids: list[str]
    clip: np.ndarray
    labels: list[str]
    label: np.ndarray
    start: np.ndarray
    end: np.ndarray


def _index(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct values in order of first appearance, and each value's
    position among them."""
    position = {value: i for i, value in enumerate(dict.fromkeys(values))}
    return list(position), np.fromiter(map(position.__getitem__, values), np.int64, len(values))


def _assemble(
    clip_ids: list[str], counts: Sequence[int], labels: Sequence[str],
    starts: Sequence[int], ends: Sequence[int],
) -> _Columns:
    """Score columns from the clip ids, each clip's event count, and the
    events' labels, onsets and offsets in centiseconds, clip by clip."""
    clip = np.repeat(np.arange(len(clip_ids)), counts)
    start, end = np.array(starts, dtype=np.int64), np.array(ends, dtype=np.int64)
    return _Columns(clip_ids, clip, *_index(labels), start, end)


class _ClipTable(Sequence[ClipAnnotations]):
    """Read-only clips over a reader's decoded (label, start, end, transcript)
    rows, grouped by clip in order of first appearance; the score columns are
    built at construction, a clip's objects only when it is indexed."""

    def __init__(self, clips: dict[str, list[_Row]]):
        self._rows = list(clips.values())
        rows = [row for clip_rows in self._rows for row in clip_rows]
        label, start, end, _ = zip(*rows) if rows else ((),) * 4
        self.columns = _assemble(list(clips), list(map(len, self._rows)), label, start, end)

    def __len__(self) -> int:
        return len(self._rows)

    @overload
    def __getitem__(self, index: int) -> ClipAnnotations: ...

    @overload
    def __getitem__(self, index: slice) -> list[ClipAnnotations]: ...

    def __getitem__(self, index: int | slice) -> ClipAnnotations | list[ClipAnnotations]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return ClipAnnotations(self.columns.clip_ids[index], tuple(
            EventAnnotation(label, TimeSpan(start / 100, end / 100), transcript)
            for label, start, end, transcript in self._rows[index]
        ))


def _columns(side: Sequence[ClipAnnotations], name: str) -> _Columns:
    """The score columns of one side: a reader's own, or built from its
    clips."""
    if isinstance(side, _ClipTable):
        return side.columns
    clips: dict[str, ClipAnnotations] = {}
    for clip in side:
        if clip.clip_id in clips:
            raise ValueError(f"duplicate clip_id {clip.clip_id!r} in {name}")
        clips[clip.clip_id] = clip
    events = [e for clip in clips.values() for e in clip.events]
    spans = [e.span for e in events]
    return _assemble(
        list(clips), [len(clip.events) for clip in clips.values()],
        [e.label for e in events], [s.start_cs for s in spans], [s.end_cs for s in spans],
    )


def _groups(
    t: _Columns, p: _Columns
) -> tuple[list[str], tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The labels of both sides, in order of first appearance, truth first,
    and each side's label id (position in that list) and (clip, label)
    group id per event.  Clips are numbered across both sides the same way,
    and a group id is clip * n_labels + label id."""
    labels, label_of = _index(t.labels + p.labels)
    _, clip_of = _index(t.clip_ids + p.clip_ids)
    n_labels, n_clips = len(labels), len(t.clip_ids)
    t_label = label_of[: len(t.labels)][t.label]
    p_label = label_of[len(t.labels) :][p.label]
    return (
        labels,
        (t_label, clip_of[:n_clips][t.clip] * n_labels + t_label),
        (p_label, clip_of[n_clips:][p.clip] * n_labels + p_label),
    )


def _key(group: np.ndarray, onset: np.ndarray) -> np.ndarray:
    """(group, onset) as one complex128: group id real, onset imaginary."""
    key = group.astype(np.complex128)
    key.imag = onset
    return key


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

    # numpy orders complex values by real part, then imaginary part, so
    # predictions sorted by (group, onset) key hold each truth event's
    # window as a contiguous run.  Group ids and onsets are whole numbers
    # below 2**53, exact doubles, so that run is exactly the onset test; a
    # collar of twice MAX_SECONDS already reaches every onset.
    p_key = _key(p_group, p_start)
    order = np.argsort(p_key, kind="stable")
    p_key = p_key[order]
    reach = math.floor(min(cfg.onset_collar, 2 * MAX_SECONDS) * 100 + _TOL)
    first = np.searchsorted(p_key, _key(t_group, t_start - reach), side="left")
    count = np.searchsorted(p_key, _key(t_group, t_start + reach), side="right") - first
    # expand each truth event's window into (row, position-in-order) pairs
    rows = np.repeat(np.arange(len(t_group)), count)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    cols = order[np.repeat(first, count) + offsets]
    with np.errstate(over="ignore"):  # an infinite allowance reaches every offset, as it should
        allowance = np.maximum(cfg.offset_collar_abs * 100, cfg.offset_collar_rel * (t_end - t_start))
    ok = np.abs(p_end[cols] - t_end[rows]) <= allowance[rows] + _TOL
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

    t, p = _columns(truth, "truth"), _columns(pred, "predictions")
    labels, (t_label, t_group), (p_label, p_group) = _groups(t, p)
    graph = _feasibility_graph(t_group, t.start, t.end, p_group, p.start, p.end, cfg)
    # one Hopcroft-Karp run over the block-diagonal graph of all groups
    matched = maximum_bipartite_matching(graph, perm_type="column") >= 0
    tp = np.bincount(t_label[matched], minlength=len(labels))
    n_truth = np.bincount(t_label, minlength=len(labels))
    n_pred = np.bincount(p_label, minlength=len(labels))
    per_class = {
        label: _prf(int(tp[i]), int(n_pred[i] - tp[i]), int(n_truth[i] - tp[i]))
        for label, i in sorted(zip(labels, range(len(labels))))
    }
    micro = _prf(int(tp.sum()), int(n_pred.sum() - tp.sum()), int(n_truth.sum() - tp.sum()))
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
    labels, (_, t_group), (_, p_group) = _groups(
        _columns(truth, "truth"), _columns(pred, "predictions")
    )
    if not len(t_group):
        return 0.0
    # a label is present in a clip when its (clip, label) group has an event
    t_present, p_present = np.unique(t_group), np.unique(p_group)
    hits = np.intersect1d(t_present, p_present, assume_unique=True)
    in_truth, in_pred, tp = (
        np.bincount(groups % len(labels), minlength=len(labels))
        for groups in (t_present, p_present, hits)
    )
    f1 = [
        _prf(int(tp[i]), int(in_pred[i] - tp[i]), int(in_truth[i] - tp[i])).f1
        for _, i in sorted(zip(labels, range(len(labels))))
        if in_truth[i]
    ]
    return sum(f1) / len(f1)


def _read_jsonl(path: Path) -> _ClipTable:
    clips: dict[str, list[_Row]] = {}
    for where, rec in iter_jsonl(path):
        clip_id = require_str(rec, "clip_id", where)
        if clip_id in clips:
            raise ValueError(f"{where}: duplicate clip_id {clip_id!r}")
        clips[clip_id] = decode_event_rows(rec.get("events", []), where)
    return _ClipTable(clips)


def _tsv_time(row: dict[str, Any], key: str) -> float:
    """``row[key]`` as seconds: text that ``float()`` reads, all ASCII and
    with no ``_`` digit separator."""
    text = row[key]
    if not text.isascii() or "_" in text:
        raise ValueError(f"{key} {text!r} is not an ASCII decimal")
    return float(text)


def _read_tsv(path: Path) -> _ClipTable:
    clips: dict[str, list[_Row]] = {}
    for where, row in read_tsv(path, ("clip_id", "label", "start", "end")):
        try:
            row["start"], row["end"] = _tsv_time(row, "start"), _tsv_time(row, "end")
        except ValueError as exc:
            raise ValueError(f"{where}: malformed event record: {exc}") from exc
        clips.setdefault(row["clip_id"], []).extend(decode_event_rows([row], where))
    return _ClipTable(clips)


def annotations_from_manifest(path: str | Path) -> Sequence[ClipAnnotations]:
    """Read clip annotations from either the scene-manifest JSONL schema or
    a minimal TSV (clip_id, label, start, end).  The format is sniffed from
    the first non-blank line: JSONL when it starts with ``{``.  The clips
    come in order of first appearance, as a read-only sequence."""
    path = Path(path)
    first = next((line for _, line in iter_lines(path) if line.strip()), "")
    return (_read_jsonl if first.lstrip().startswith("{") else _read_tsv)(path)


def format_score(value: float) -> str:
    """Scores render as percentages with one decimal (1.0 -> '100.0')."""
    return f"{100.0 * value:.1f}"


def _collar_text(value: float) -> str:
    """A collar or multiplier with two decimals, or in ``g`` form (1e+300)
    at or past MAX_SECONDS, where the decimals would run to hundreds of digits."""
    return f"{value:g}" if value >= MAX_SECONDS else f"{value:.2f}"


def render_report(eb: EbResult, at: float, cfg: EbConfig = EbConfig()) -> str:
    onset, offset_abs, offset_rel = (
        _collar_text(v) for v in (cfg.onset_collar, cfg.offset_collar_abs, cfg.offset_collar_rel)
    )
    lines = [
        "Event-based scores (Eb)",
        f"  onset collar {onset} s; offset collar max({offset_abs} s, {offset_rel} x truth length)",
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
