"""Structured prompt DSL for timed audio-scene descriptions.

A prompt is a free-text caption followed by zero or more event blocks:

    caption @{description & <start,end> <start,end> "optional speech"}

Times are seconds at centisecond precision; the default clip is 10.00 s.
Canonical renderings use exactly two fraction digits, a single space
between tokens, spans sorted by start time, and the quoted speech last
inside its block.  Within quoted speech a backslash escapes ``\\"`` and
``\\\\``; everywhere else the surface form is taken literally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "DEFAULT_CLIP_SECONDS",
    "TimeSpan",
    "EventSpec",
    "StructuredPrompt",
    "EventAnnotation",
    "Violation",
    "PromptSyntaxError",
    "parse",
    "serialize",
    "validate",
    "from_annotations",
    "check_caption",
]

DEFAULT_CLIP_SECONDS = 10.0


class PromptSyntaxError(ValueError):
    """Raised by parse() with the UTF-8 byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


@dataclass(frozen=True, order=True)
class TimeSpan:
    """Half-open interval in seconds, quantized to centiseconds; spans
    order by (start, end).

    Construction rejects non-finite values but deliberately not ordering
    or range problems; those are data for validate() to report.
    """

    start: float
    end: float

    def __post_init__(self):
        for name in ("start", "end"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"TimeSpan.{name} must be finite, got {v!r}")
            # + 0.0 turns -0.0 into 0.0 so the canonical rendering has no sign
            object.__setattr__(self, name, round(v, 2) + 0.0)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EventSpec:
    """One sound event: a description, when it happens, what was said."""

    description: str
    spans: tuple[TimeSpan, ...]
    speech: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))


@dataclass(frozen=True)
class StructuredPrompt:
    caption: str
    events: tuple[EventSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))


@dataclass(frozen=True)
class EventAnnotation:
    """Ground-truth row: one labeled span, optionally with a transcript."""

    label: str
    span: TimeSpan
    transcript: str | None = None


@dataclass(frozen=True)
class Violation:
    """One finding from validate(); warnings do not make a prompt invalid."""

    code: str
    message: str
    severity: str = "error"
    event_index: int | None = None
    span_index: int | None = None


_DECIMAL_RE = re.compile(r"\d+(?:\.\d{1,2})?")
_DESC_STOP_RE = re.compile(r'[&}"]|@\{')
_SPEECH_STOP_RE = re.compile(r'[\\"]')
_WS_RE = re.compile(r"\s*")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def fail(self, message: str, pos: int | None = None):
        where = self.pos if pos is None else pos
        raise PromptSyntaxError(message, _byte_offset(self.text, where))

    def skip_ws(self):
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def looking_at(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str):
        if not self.text.startswith(token, self.pos):
            self.fail(f"expected {token!r}")
        self.pos += len(token)


def parse(text: str) -> StructuredPrompt:
    """Parse DSL text into a StructuredPrompt.

    Raises PromptSyntaxError (carrying a byte offset) on malformed input,
    including spans whose start is not strictly below their end.
    """
    first_block = text.find("@{")
    if first_block < 0:
        return StructuredPrompt(caption=text.strip(), events=())
    caption = text[:first_block].strip()
    cur = _Cursor(text, first_block)
    events: list[EventSpec] = []
    while True:
        cur.expect("@{")
        events.append(_parse_block(cur))
        cur.skip_ws()
        if cur.at_end():
            break
        if not cur.looking_at("@{"):
            cur.fail("expected '@{' or end of input")
    return StructuredPrompt(caption=caption, events=tuple(events))


def _parse_block(cur: _Cursor) -> EventSpec:
    desc_start = cur.pos
    m = _DESC_STOP_RE.search(cur.text, cur.pos)
    if m is None:
        cur.fail("expected '&' after event description", len(cur.text))
    if m.group() != "&":
        cur.fail(f"forbidden {m.group()!r} in event description", m.start())
    description = cur.text[desc_start:m.start()].strip()
    if not description:
        cur.fail("empty event description", desc_start)
    cur.pos = m.end()

    spans: list[TimeSpan] = []
    cur.skip_ws()
    if not cur.looking_at("<"):
        cur.fail("expected '<'")
    while cur.looking_at("<"):
        spans.append(_parse_span(cur))
        cur.skip_ws()

    speech: str | None = None
    if cur.looking_at('"'):
        speech = _parse_quoted(cur)
        cur.skip_ws()
    cur.expect("}")
    # canonical span order so parse(serialize(p)) == p regardless of the
    # order spans were written in the source
    spans.sort()
    return EventSpec(description=description, spans=tuple(spans), speech=speech)


def _parse_span(cur: _Cursor) -> TimeSpan:
    span_start_pos = cur.pos
    cur.expect("<")
    start = _parse_decimal(cur)
    cur.skip_ws()
    cur.expect(",")
    end = _parse_decimal(cur)
    cur.skip_ws()
    cur.expect(">")
    if not start < end:
        cur.fail(
            f"span start {start:.2f} must be strictly below end {end:.2f}",
            span_start_pos,
        )
    return TimeSpan(start, end)


def _parse_decimal(cur: _Cursor) -> float:
    cur.skip_ws()
    m = _DECIMAL_RE.match(cur.text, cur.pos)
    if m is None:
        cur.fail("expected a decimal with at most two fraction digits")
    cur.pos = m.end()
    return float(m.group())


def _parse_quoted(cur: _Cursor) -> str:
    cur.expect('"')
    parts: list[str] = []
    chunk_start = cur.pos
    while True:
        m = _SPEECH_STOP_RE.search(cur.text, cur.pos)
        if m is None:
            cur.fail("unterminated quoted speech", len(cur.text))
        parts.append(cur.text[chunk_start : m.start()])
        if m.group() == '"':
            cur.pos = m.end()
            return "".join(parts)
        # backslash: only \" and \\ are defined
        esc_pos = m.start() + 1
        if esc_pos >= len(cur.text):
            cur.fail("unterminated escape in quoted speech", m.start())
        esc = cur.text[esc_pos]
        if esc not in ('"', "\\"):
            cur.fail(f"invalid escape sequence '\\{esc}'", m.start())
        parts.append(esc)
        cur.pos = esc_pos + 1
        chunk_start = cur.pos


def _format_time(v: float) -> str:
    return f"{v:.2f}"


def _check_field_text(text: str, what: str):
    for bad in ("&", "}", '"'):
        if bad in text:
            raise ValueError(f"forbidden {bad!r} in {what}: {text!r}")
    if "@{" in text:
        raise ValueError(f"forbidden '@{{' in {what}: {text!r}")


def check_caption(caption: str, what: str = "caption") -> None:
    """Raise ValueError, naming ``what``, if the grammar cannot carry
    ``caption``: a caption must not contain the event-block opener '@{'."""
    if "@{" in caption:
        raise ValueError(f"{what} contains the event-block opener '@{{'")


def _escape_speech(speech: str) -> str:
    return speech.replace("\\", "\\\\").replace('"', '\\"')


def serialize(p: StructuredPrompt) -> str:
    """Render the canonical surface form.

    Raises ValueError when the prompt violates an invariant that the
    grammar cannot express (empty span list, empty description, forbidden
    characters, spans outside 0 <= start < end).
    """
    text, _ = _serialize_with_speech_regions(p)
    return text


def _serialize_with_speech_regions(
    p: StructuredPrompt,
) -> tuple[str, list[tuple[int, int, str]]]:
    """Canonical text plus (start, end, speech) for each quoted segment.

    The region covers the quotes themselves; the tokenizer uses the
    regions to swap quoted speech for phoneme token runs.
    """
    check_caption(p.caption)
    parts: list[str] = []
    regions: list[tuple[int, int, str]] = []
    length = 0

    caption = p.caption.strip()
    if caption:
        parts.append(caption)
        length += len(caption)

    for i, event in enumerate(p.events):
        description = event.description.strip()
        if not description:
            raise ValueError(f"event {i}: empty description")
        _check_field_text(description, f"event {i} description")
        if not event.spans:
            raise ValueError(f"event {i}: no spans")
        for s in event.spans:
            if s.start < 0 or not s.start < s.end:
                raise ValueError(
                    f"event {i}: span <{_format_time(s.start)},"
                    f"{_format_time(s.end)}> violates 0 <= start < end"
                )
        span_text = " ".join(
            f"<{_format_time(s.start)},{_format_time(s.end)}>"
            for s in sorted(event.spans)
        )
        block = f"@{{{description} & {span_text}"
        if parts:
            block = " " + block
        if event.speech is not None:
            block += ' '
            q_start = length + len(block)
            quoted = f'"{_escape_speech(event.speech)}"'
            block += quoted
            regions.append((q_start, q_start + len(quoted), event.speech))
        block += "}"
        parts.append(block)
        length += len(block)

    return "".join(parts), regions


def validate(p: StructuredPrompt) -> list[Violation]:
    """Report every finding against the fixed clip length; no
    error-severity findings means valid.

    Overlapping spans inside one event are legal data and come back as
    warnings, not errors.
    """
    findings: list[Violation] = []
    for i, event in enumerate(p.events):
        if not event.description.strip():
            findings.append(
                Violation("empty-description", f"event {i}: empty description", event_index=i)
            )
        if not event.spans:
            findings.append(
                Violation("no-spans", f"event {i}: no spans", event_index=i)
            )
        for j, s in enumerate(event.spans):
            if s.start < 0:
                findings.append(
                    Violation(
                        "negative-start",
                        f"event {i} span {j}: start {_format_time(s.start)} below 0.00",
                        event_index=i,
                        span_index=j,
                    )
                )
            if not s.start < s.end:
                findings.append(
                    Violation(
                        "degenerate-span",
                        f"event {i} span {j}: start {_format_time(s.start)} "
                        f"not strictly below end {_format_time(s.end)}",
                        event_index=i,
                        span_index=j,
                    )
                )
            if s.end > DEFAULT_CLIP_SECONDS:
                findings.append(
                    Violation(
                        "end-exceeds-clip",
                        f"event {i} span {j}: end {_format_time(s.end)} "
                        f"beyond clip {_format_time(DEFAULT_CLIP_SECONDS)}",
                        event_index=i,
                        span_index=j,
                    )
                )
        ordered = sorted(event.spans)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                findings.append(
                    Violation(
                        "overlapping-spans",
                        f"event {i}: spans <{_format_time(a.start)},{_format_time(a.end)}> and "
                        f"<{_format_time(b.start)},{_format_time(b.end)}> overlap",
                        severity="warning",
                        event_index=i,
                    )
                )
                break
    return findings


def from_annotations(caption: str, annotations: list[EventAnnotation]) -> StructuredPrompt:
    """Assemble a prompt from ground-truth annotation rows.

    Rows sharing a label merge into one multi-span event when they all
    carry the same transcript (an absent and an empty transcript count
    as the same: none); otherwise the label's rows stay separate events.
    Events appear in first-occurrence order of their label.
    """
    for k, ann in enumerate(annotations):
        s = ann.span
        if not (0.0 <= s.start < s.end <= DEFAULT_CLIP_SECONDS):
            raise ValueError(
                f"annotation {k} ({ann.label!r}): span "
                f"<{_format_time(s.start)},{_format_time(s.end)}> outside "
                f"0.00..{_format_time(DEFAULT_CLIP_SECONDS)} or degenerate"
            )
        if not ann.label.strip():
            raise ValueError(f"annotation {k}: empty label")

    groups: dict[str, list[EventAnnotation]] = {}
    for ann in annotations:
        groups.setdefault(ann.label, []).append(ann)

    events: list[EventSpec] = []
    for label, rows in groups.items():
        transcripts = {(row.transcript or None) for row in rows}
        if len(transcripts) == 1:
            speech = next(iter(transcripts))
            spans = tuple(sorted(row.span for row in rows))
            events.append(EventSpec(description=label, spans=spans, speech=speech))
        else:
            for row in rows:
                events.append(
                    EventSpec(
                        description=label,
                        spans=(row.span,),
                        speech=row.transcript or None,
                    )
                )
    return StructuredPrompt(caption=caption, events=tuple(events))
