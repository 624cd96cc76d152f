"""Structured prompt DSL for timed audio-scene descriptions.

A prompt is a free-text caption followed by zero or more event blocks:

    caption @{description & <start,end> <start,end> "optional speech"}

Times are seconds held as whole centiseconds; the default clip is 10.00 s.
Canonical renderings use exactly two fraction digits, a single space
between tokens, spans sorted by start time, and the quoted speech last
inside its block.  Within quoted speech a backslash escapes ``\\"`` and
``\\\\``; everywhere else the surface form is taken literally.

parse() reads the caption up to the first '@{'.  A description runs to
its '&' and may not contain '}', '"' or '@{'; a block needs one or more
spans; a time is an unsigned decimal of ASCII digits with at most two
fraction digits, below MAX_SECONDS; whitespace may separate any two tokens.

validate() is the one list of prompt rules.  serialize() refuses every
error it reports except a span ending past the clip, and
from_annotations() refuses every error it reports.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NoReturn

__all__ = [
    "DEFAULT_CLIP_SECONDS",
    "MAX_SECONDS",
    "TimeSpan",
    "EventSpec",
    "StructuredPrompt",
    "EventAnnotation",
    "Violation",
    "PromptSyntaxError",
    "parse",
    "serialize",
    "serialize_with_speech_regions",
    "validate",
    "from_annotations",
    "check_caption",
]

DEFAULT_CLIP_SECONDS = 10.0
# every time's magnitude stays below this; below 2**46 s neighbouring
# centiseconds are distinct doubles
MAX_SECONDS = 1e13


class PromptSyntaxError(ValueError):
    """Raised by parse() with the UTF-8 byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.message, self.offset = message, offset


def _centiseconds(name: str, value: float) -> int:
    """The one float-to-time rule: ``value`` as the whole centiseconds k
    whose ``k / 100`` has the bits of ``round(float(value), 2) + 0.0``.
    Below MAX_SECONDS an ulp is at most 2**-9, so an on-grid ``v`` (the
    double nearest some k/100) has ``round(v, 2) == v``, and ``v * 100`` or
    ``round(v, 2) * 100`` is within 0.2 of its k."""
    try:
        v = float(value)
    except OverflowError:  # an integer past every double is past the bound
        v = MAX_SECONDS
    if -MAX_SECONDS < v < MAX_SECONDS:
        k = round(v * 100)
        return k if k / 100 == v else round(round(v, 2) * 100)
    if not math.isfinite(v):
        raise ValueError(f"TimeSpan.{name} must be finite, got {v!r}")
    raise ValueError(f"TimeSpan.{name} must be below {MAX_SECONDS:.0e} s in magnitude")


@dataclass(frozen=True, order=True, init=False)
class TimeSpan:
    """Half-open interval in whole centiseconds, built from seconds by
    _centiseconds; spans order by (start, end).  Construction rejects a
    non-finite time, or one not below MAX_SECONDS in magnitude, naming the
    field; ordering and range problems are data for validate() to report."""

    start_cs: int
    end_cs: int

    def __init__(self, start: float, end: float):
        object.__setattr__(self, "start_cs", _centiseconds("start", start))
        object.__setattr__(self, "end_cs", _centiseconds("end", end))

    # in seconds: k / 100 is the double nearest k/100, the bits round(v, 2) gives
    start = property(lambda self: self.start_cs / 100)
    end = property(lambda self: self.end_cs / 100)
    duration = property(lambda self: self.end - self.start)


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


_DECIMAL = r"([0-9]+(?:\.[0-9]{1,2})?)"
# one span; each token is optional, so a match that stops early ends at the
# first missing token, and its lastindex (groups matched) names that token
_SPAN_RE = re.compile(
    rf"(?:(<)\s*(?:{_DECIMAL}\s*(?:(,)\s*(?:{_DECIMAL}\s*(>)?)?)?)?)?"
)
_SPAN_ERRORS = (
    "expected '<'",
    "expected a decimal with at most two fraction digits",
    "expected ','",
    "expected a decimal with at most two fraction digits",
    "expected '>'",
)
# quoted speech up to the first character that is neither text nor a
# defined escape: the closing quote, a bad escape, or the end of input
_QUOTED_RE = re.compile(r'"([^"\\]*(?:\\["\\][^"\\]*)*)')
_ESCAPE_RE = re.compile(r'\\(["\\])')
_DESC_STOP_RE = re.compile(r'[&}"]|@\{')
_WS_RE = re.compile(r"\s*")


def _fail(text: str, pos: int, message: str) -> NoReturn:
    raise PromptSyntaxError(message, len(text[:pos].encode("utf-8")))


def parse(text: str) -> StructuredPrompt:
    """Parse DSL text into a StructuredPrompt.

    Raises PromptSyntaxError (carrying a byte offset) on malformed input,
    including spans whose start is not strictly below their end.
    """
    first_block = text.find("@{")
    if first_block < 0:
        return StructuredPrompt(caption=text.strip(), events=())
    events: list[EventSpec] = []
    pos = first_block
    while pos < len(text):
        if not text.startswith("@{", pos):
            _fail(text, pos, "expected '@{' or end of input")
        event, pos = _parse_block(text, pos + 2)
        events.append(event)
        pos = _WS_RE.match(text, pos).end()
    return StructuredPrompt(caption=text[:first_block].strip(), events=tuple(events))


def _parse_block(text: str, pos: int) -> tuple[EventSpec, int]:
    """The event block whose description starts at ``pos``, and the
    position after its closing '}'."""
    m = _DESC_STOP_RE.search(text, pos)
    if m is None:
        _fail(text, len(text), "expected '&' after event description")
    if m.group() != "&":
        _fail(text, m.start(), f"forbidden {m.group()!r} in event description")
    description = text[pos:m.start()].strip()
    if not description:
        _fail(text, pos, "empty event description")
    pos = _WS_RE.match(text, m.end()).end()

    spans: list[TimeSpan] = []
    # the first span is required: a missing '<' there is lastindex None
    while not spans or text.startswith("<", pos):
        m = _SPAN_RE.match(text, pos)
        if m.lastindex != 5:
            _fail(text, m.end(), _SPAN_ERRORS[m.lastindex or 0])
        start, end = float(m[2]), float(m[4])
        if max(start, end) >= MAX_SECONDS:  # decimals are unsigned
            at = m.start(2 if start >= MAX_SECONDS else 4)
            _fail(text, at, f"time must be below {MAX_SECONDS:.0e} s")
        if not start < end:
            _fail(text, pos, f"span start {start:.2f} must be strictly below end {end:.2f}")
        spans.append(TimeSpan(start, end))
        pos = _WS_RE.match(text, m.end()).end()

    speech: str | None = None
    m = _QUOTED_RE.match(text, pos)
    if m is not None:
        stop = m.end()
        if stop == len(text):
            _fail(text, stop, "unterminated quoted speech")
        if text[stop] == "\\":
            if stop + 1 == len(text):
                _fail(text, stop, "unterminated escape in quoted speech")
            _fail(text, stop, f"invalid escape sequence '\\{text[stop + 1]}'")
        speech = _ESCAPE_RE.sub(r"\1", m[1])
        pos = _WS_RE.match(text, stop + 1).end()
    if not text.startswith("}", pos):
        _fail(text, pos, "expected '}'")
    # canonical span order so parse(serialize(p)) == p regardless of the
    # order spans were written in the source
    spans.sort()
    return EventSpec(description=description, spans=tuple(spans), speech=speech), pos + 1


def _format_time(v: float) -> str:
    return f"{v:.2f}"


def check_caption(caption: str, what: str = "caption") -> None:
    """Raise ValueError, naming ``what``, if the grammar cannot carry
    ``caption``: a caption must not contain the event-block opener '@{'."""
    if "@{" in caption:
        raise ValueError(f"{what} contains the event-block opener '@{{'")


def _escape_speech(speech: str) -> str:
    return speech.replace("\\", "\\\\").replace('"', '\\"')


def serialize(p: StructuredPrompt) -> str:
    """Render the canonical surface form.

    Raises ValueError with validate()'s first error, except that a span
    ending past the clip is rendered: the grammar can carry it, and
    ``fmt`` and ``plan`` accept one.
    """
    text, _ = serialize_with_speech_regions(p)
    return text


def serialize_with_speech_regions(
    p: StructuredPrompt,
) -> tuple[str, list[tuple[int, int, str]]]:
    """serialize()'s text, with its refusals, plus (start, end, speech)
    for each quoted segment.

    The region covers the quotes themselves; the tokenizer uses the
    regions to swap quoted speech for phoneme token runs.
    """
    _raise_first_error(v for v in validate(p) if v.code != "end-exceeds-clip")
    parts: list[str] = []
    regions: list[tuple[int, int, str]] = []
    length = 0

    caption = p.caption.strip()
    if caption:
        parts.append(caption)
        length += len(caption)

    for event in p.events:
        description = event.description.strip()
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
    """The prompt rules: report every finding against the fixed clip
    length; no error-severity findings means valid.

    serialize() and from_annotations() refuse a prompt through this list
    alone.  Overlapping spans inside one event are legal data and come
    back as warnings, not errors.
    """
    findings: list[Violation] = []

    def add(code: str, message: str, i: int | None = None, j: int | None = None,
            severity: str = "error"):
        findings.append(Violation(code, message, severity, i, j))

    try:
        check_caption(p.caption)
    except ValueError as exc:
        add("caption-opener", str(exc))
    for i, event in enumerate(p.events):
        description = event.description.strip()
        if not description:
            add("empty-description", f"event {i}: empty description", i)
        elif m := _DESC_STOP_RE.search(description):
            add("forbidden-token",
                f"forbidden {m.group()!r} in event {i} description: {description!r}", i)
        if not event.spans:
            add("no-spans", f"event {i}: no spans", i)
        for j, s in enumerate(event.spans):
            if s.start_cs < 0:
                add("negative-start",
                    f"event {i} span {j}: start {_format_time(s.start)} below 0.00", i, j)
            if not s.start_cs < s.end_cs:
                add("degenerate-span", f"event {i} span {j}: start {_format_time(s.start)} "
                    f"not strictly below end {_format_time(s.end)}", i, j)
            if s.end_cs > DEFAULT_CLIP_SECONDS * 100:
                add("end-exceeds-clip", f"event {i} span {j}: end {_format_time(s.end)} "
                    f"beyond clip {_format_time(DEFAULT_CLIP_SECONDS)}", i, j)
        if len(event.spans) > 1:
            ordered = sorted(event.spans)
            for a, b in zip(ordered, ordered[1:]):
                if b.start_cs < a.end_cs:
                    add("overlapping-spans",
                        f"event {i}: spans <{_format_time(a.start)},{_format_time(a.end)}> and "
                        f"<{_format_time(b.start)},{_format_time(b.end)}> overlap",
                        i, severity="warning")
                    break
    return findings


def _raise_first_error(findings) -> None:
    for v in findings:
        if v.severity == "error":
            raise ValueError(v.message)


def from_annotations(caption: str, annotations: list[EventAnnotation]) -> StructuredPrompt:
    """Assemble a prompt from ground-truth annotation rows.

    Rows sharing a label merge into one multi-span event when they all
    carry the same transcript (an absent and an empty transcript count
    as the same: none); otherwise the label's rows stay separate events.
    Events appear in first-occurrence order of their label.  Raises
    ValueError with validate()'s first error when the result is not a
    valid prompt.
    """
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
    p = StructuredPrompt(caption=caption, events=tuple(events))
    _raise_first_error(validate(p))
    return p
