"""The pipeline's line formats: JSONL manifests, header-less TSV tables and
the ``events`` row codec the manifests share.  Every reader error names
``path:line``; every write is staged, so a failed one leaves the old output."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .dsl import EventAnnotation, _centiseconds

__all__ = [
    "iter_lines",
    "iter_jsonl",
    "read_jsonl",
    "read_tsv",
    "require_str",
    "encode_events",
    "decode_event_rows",
    "write_jsonl_atomic",
]


def iter_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield (``path:line``, line) for each line of a UTF-8 text file: a
    leading byte-order mark is skipped, lines end at "\\n" alone, and one
    "\\r" before it is dropped.  The line rule of every text input.  A line
    that is not UTF-8 raises ValueError naming ``path:line`` and the 0-based
    byte offset in that line."""
    name = str(path)
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                # utf-8-sig counts from after the byte-order mark
                col = exc.start + len(raw) - len(exc.object)
                raise ValueError(f"{name}:{lineno}: not UTF-8: {exc.reason} at byte {col}") from exc
            yield f"{name}:{lineno}", line.removesuffix("\n").removesuffix("\r")


def iter_jsonl(path: str | Path) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield (``path:line``, record) for each JSON object line; blank lines
    are ignored."""
    for where, line in iter_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"{where}: expected a JSON object, got {type(obj).__name__}")
        yield where, obj


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read one JSON object per line; blank lines are ignored."""
    return [rec for _, rec in iter_jsonl(path)]


def require_str(record: Mapping[str, Any], key: str, where: str) -> str:
    """``record[key]``, which must be present and a JSON string; errors
    name ``where``."""
    if key not in record:
        raise ValueError(f"{where}: missing required field {key!r}")
    value = record[key]
    if not isinstance(value, str):
        raise ValueError(f"{where}: field {key!r} must be a string, got {json.dumps(value)}")
    return value


def read_tsv(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[str, dict[str, str]]]:
    """Yield (``path:line``, {column: field}) for each row of a header-less
    tab-separated table; blank lines are ignored and every other row must
    have exactly one field per column."""
    for where, line in iter_lines(path):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(columns):
            raise ValueError(
                f"{where}: expected {len(columns)} tab-separated fields"
                f" ({', '.join(columns)}), got {len(fields)}"
            )
        yield where, dict(zip(columns, fields))


def encode_events(events: Iterable[EventAnnotation]) -> list[dict[str, Any]]:
    """Manifest ``events`` rows: label, onset and offset in seconds, and the
    transcript (null for a non-speech event)."""
    return [
        {"label": a.label, "start": a.span.start, "end": a.span.end, "transcript": a.transcript}
        for a in events
    ]


def _event_time(row: Mapping[str, Any], key: str) -> float:
    """``row[key]`` as seconds; it must be an int or float, not a bool (a
    JSON number).  A plain float, the common case, is checked first."""
    value = row[key]
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{key} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is an integer too large for a float") from None


# a decoded events row: label, onset, offset, transcript
_Row = tuple[str, float, float, str | None]


def decode_event_rows(rows: Any, where: str) -> list[_Row]:
    """Check ``events`` rows (mappings with a string label, numeric start and
    end in seconds, and an optional string-or-null transcript) and return
    them as (label, start, end, transcript) tuples, the times rounded to
    centiseconds by TimeSpan's rule.  Spans must be finite and, once
    rounded, satisfy 0 <= start < end; any malformed row raises ValueError
    naming ``where``."""
    if not isinstance(rows, list):
        raise ValueError(f"{where}: malformed event record: events must be a list")
    events = []
    for row in rows:
        if not isinstance(row, dict):
            raise ValueError(f"{where}: malformed event record: {row!r} is not an object")
        try:
            label, transcript = row["label"], row.get("transcript")
            start, end = _event_time(row, "start"), _event_time(row, "end")
            # rejects non-finite times
            start_cs, end_cs = _centiseconds("start", start), _centiseconds("end", end)
        except KeyError as exc:
            raise ValueError(f"{where}: malformed event record: missing field {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{where}: malformed event record: {exc}") from exc
        if not isinstance(label, str):
            raise ValueError(f"{where}: malformed event record: label {label!r} is not a string")
        if not (transcript is None or isinstance(transcript, str)):
            raise ValueError(
                f"{where}: malformed event record: transcript {transcript!r} is not a string or null"
            )
        if not label.strip():
            raise ValueError(f"{where}: empty label")
        if not 0 <= start_cs < end_cs:
            raise ValueError(f"{where}: invalid span [{start}, {end}]")
        events.append((label, start_cs, end_cs, transcript))
    return events


@contextlib.contextmanager
def _staged(path: Path) -> Iterator[Path]:
    """Yield a fresh path in a hidden stage directory beside ``path``.  On a
    clean exit the file or directory written there replaces ``path`` whole (an
    old directory is moved into the stage); on an exception ``path`` stays as
    it was.  The stage is removed either way.  Kinds are never swapped."""
    path.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    try:
        yield (new := stage / "new")
        if new.is_dir() and path.is_dir():
            os.replace(path, stage / "old")
        os.replace(new, path)  # a file over a directory, or the reverse, raises OSError
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def write_jsonl_atomic(path: str | Path, records: Iterable[Mapping[str, Any]]) -> None:
    """Write records as JSONL to ``path`` through ``_staged``: readers never
    see a partial manifest, and a failed write leaves ``path`` as it was."""
    with _staged(Path(path)) as new, open(new, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(dict(rec), ensure_ascii=False))
            fh.write("\n")
