"""Prompt DSL: parsing, canonical serialization, validation, assembly."""

from __future__ import annotations

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PLANNED_PROMPT_SAMPLES, random_prompt
from soundscene.dsl import (
    MAX_SECONDS,
    EventAnnotation,
    EventSpec,
    PromptSyntaxError,
    StructuredPrompt,
    TimeSpan,
    from_annotations,
    parse,
    serialize,
    validate,
)


_DECIMAL = "expected a decimal with at most two fraction digits"


def span(a, b):
    return TimeSpan(a, b)


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


class TestTimeSpan:
    def test_quantizes_to_centiseconds(self):
        s = TimeSpan(1.234, 2.009)
        assert s.start == 1.23
        assert s.end == 2.01
        # spans order by quantized (start, end): equal starts by their end
        spans = [span(5, 6), s, span(1.23, 1.5), span(0.5, 9)]
        assert sorted(spans) == [span(0.5, 9), span(1.23, 1.5), s, span(5, 6)]

    def test_negative_zero_normalized(self):
        s = TimeSpan(-0.001, 1.0)
        assert str(s.start) == "0.0"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSpan(float("nan"), 1.0)
        with pytest.raises(ValueError):
            TimeSpan(0.0, float("inf"))

    @pytest.mark.parametrize("start, end, message", [
        (float("nan"), 1.0, "TimeSpan.start must be finite, got nan"),
        (0.0, float("inf"), "TimeSpan.end must be finite, got inf"),
        (float("-inf"), float("nan"), "TimeSpan.start must be finite, got -inf"),
        (1.0, "nan", "TimeSpan.end must be finite, got nan"),
    ])
    def test_non_finite_message(self, start, end, message):
        with pytest.raises(ValueError) as exc:
            TimeSpan(start, end)
        assert str(exc.value) == message

    @pytest.mark.parametrize("v", [
        0.0, -0.0, 1.005, 2.675, -2.675, 0.125, -0.005, 0.1 + 0.2, 999999999.99,
        1e9, -1e9, math.nextafter(1e9, 0.0), math.nextafter(1e9, math.inf),
        math.nextafter(-1e9, 0.0), math.nextafter(-1e9, -math.inf),
        5e-324, -5e-324, 9999999999999.99, -9999999999999.995, 2**43 + 0.005,
        math.nextafter(MAX_SECONDS, 0.0), math.nextafter(-MAX_SECONDS, 0.0),
    ])
    def test_stored_bits_are_round_to_centiseconds(self, v):
        s = TimeSpan(v, v)
        assert _bits(s.start) == _bits(s.end) == _bits(round(v, 2) + 0.0)
        assert (s.start_cs, s.end_cs) == (round(s.start * 100),) * 2

    @pytest.mark.parametrize("v", [
        MAX_SECONDS, -MAX_SECONDS, 1e300, -1e300, sys.float_info.max, 4503599627370495.5,
        10**400, -(10**400),
    ])
    def test_times_past_the_bound_are_refused(self, v):
        for start, end, name in ((v, 0.0, "start"), (0.0, v, "end")):
            with pytest.raises(ValueError) as exc:
                TimeSpan(start, end)
            assert str(exc.value) == f"TimeSpan.{name} must be below 1e+13 s in magnitude"

    @settings(max_examples=2000)
    @given(st.one_of(
        st.floats(min_value=-MAX_SECONDS, max_value=MAX_SECONDS, exclude_min=True,
                  exclude_max=True),
        st.floats(min_value=-2e9, max_value=2e9),
        st.integers(-10**11, 10**11).map(lambda k: k / 100),
        st.integers(-10**11, 10**11).map(lambda k: math.nextafter(k / 100, math.inf)),
        st.integers(-10**11, 10**11).map(lambda k: (k + 0.5) / 100),
    ))
    def test_any_finite_value_stores_round_to_centiseconds(self, v):
        assert _bits(TimeSpan(v, 0.0).start) == _bits(round(v, 2) + 0.0)


class TestParse:
    def test_caption_and_multi_span_event(self):
        p = parse("Rain falls. @{dog barking & <1.25,3.50> <7.00,8.20>}")
        assert p.caption == "Rain falls."
        assert len(p.events) == 1
        e = p.events[0]
        assert e.description == "dog barking"
        assert e.spans == (span(1.25, 3.50), span(7.00, 8.20))
        assert e.speech is None

    def test_quoted_speech(self):
        p = parse('@{Man speaking & <2.00,7.50> "Mama Mama snow mama come over here, baby"}')
        assert p.caption == ""
        assert p.events[0].speech == "Mama Mama snow mama come over here, baby"

    def test_caption_only(self):
        p = parse("Quiet rain on a tin roof.")
        assert p.caption == "Quiet rain on a tin roof."
        assert p.events == ()

    def test_empty_input(self):
        assert parse("") == StructuredPrompt(caption="", events=())

    def test_flexible_whitespace(self):
        for text in (
            "A. @{x & <0.00, 10.00>}@{y & <1.50, 6.00>}",
            "A.   @{ x &   < 0 , 10 > }  @{y&<1.5,6>}",
        ):
            p = parse(text)
            assert p.caption == "A."
            assert [e.description for e in p.events] == ["x", "y"]
            assert p.events[0].spans == (span(0, 10),)
            assert p.events[1].spans == (span(1.5, 6),)

    def test_escaped_quotes_and_backslashes(self):
        p = parse('@{a & <1,2> "say \\"hi\\" with a \\\\ slash"}')
        assert p.events[0].speech == 'say "hi" with a \\ slash'
        # adjacent escapes: \\ then \"
        p = parse('@{a & <1,2> "\\\\\\""}')
        assert p.events[0].speech == '\\"'

    def test_spans_come_back_sorted(self):
        p = parse("@{a & <5.00,6.00> <1.00,2.00>}")
        assert p.events[0].spans == (span(1, 2), span(5, 6))

    def test_fraction_digit_counts(self):
        p = parse("@{a & <1,2.5> <3.25,4>}")
        assert p.events[0].spans == (span(1.0, 2.5), span(3.25, 4.0))

    # (text, message, byte offset): every error kind parse() can raise,
    # with the offset it reports; the id is the text, cut at 40 characters
    @pytest.mark.parametrize(
        "text, message, offset",
        [pytest.param(*case, id=case[0][:40]) for case in [
            # missing '&'
            ("@{a <1,2>}", "forbidden '}' in event description", 9),
            ("@{a", "expected '&' after event description", 3),
            ("@{", "expected '&' after event description", 2),
            # description
            ("@{ & <1,2>}", "empty event description", 2),
            ("@{   & <1,2>}", "empty event description", 2),
            ('@{a"b & <1,2>}', "forbidden '\"' in event description", 3),
            ("@{a@{b & <1,2>}", "forbidden '@{' in event description", 3),
            ("@{a}b & <1,2>}", "forbidden '}' in event description", 3),
            # '<'
            ("@{a & }", "expected '<'", 6),  # no spans
            ("@{a &", "expected '<'", 5),
            ("@{a & 1,2>}", "expected '<'", 6),
            # decimal
            ("@{a & <.5,2>}", _DECIMAL, 7),  # no integer part
            ("@{a & <-1,2>}", _DECIMAL, 7),  # sign not in grammar
            ("@{a & <", _DECIMAL, 7),
            ("@{a & <1,>}", _DECIMAL, 9),
            ("@{a & <1,", _DECIMAL, 9),
            ("a @{b & <\u0663,\u0664.\u0665>}", _DECIMAL, 9),  # non-ASCII digits
            # ','
            ("@{a & <1.234,2>}", "expected ','", 11),  # too many fraction digits
            ("@{a & <1 2>}", "expected ','", 9),
            ("@{a & <1", "expected ','", 8),
            # '>'
            ("@{a & <1,2}", "expected '>'", 10),
            ("@{a & <1, 2 ,3>}", "expected '>'", 12),
            ("@{a & < 1 , 2.345>}", "expected '>'", 16),
            ("@{a & <1,2", "expected '>'", 10),
            # '}'
            ("@{a & <1,2>", "expected '}'", 11),  # unterminated block
            ("@{a & <1,2> x}", "expected '}'", 12),
            ('@{a & <1,2> "s" <3,4>}', "expected '}'", 16),
            # '@{' or end
            ("@{a & <1,2>} trailing", "expected '@{' or end of input", 13),
            ("@{a & <1,2>} @", "expected '@{' or end of input", 13),  # garbage after block
            ("@{a & <1,2>} x @{b & <3,4>}", "expected '@{' or end of input", 13),
            # start not below end
            ("@{a & <4.00,4.00>}", "span start 4.00 must be strictly below end 4.00", 6),
            ("@{a & <5,2>}", "span start 5.00 must be strictly below end 2.00", 6),
            ("@{a & <1,2.5> <3.00,1.00>}",
             "span start 3.00 must be strictly below end 1.00", 14),
            # a time not below MAX_SECONDS: at the byte of that decimal
            ("Rain @{a & <1," + "9" * 400 + ">}", "time must be below 1e+13 s", 14),
            ("@{a & <" + "9" * 400 + "," + "9" * 400 + ">}", "time must be below 1e+13 s", 7),
            ("@{a & <10000000000000,10000000000001>}", "time must be below 1e+13 s", 7),
            # quoted speech
            ('@{a & <1,2> "unterminated}', "unterminated quoted speech", 26),
            ('@{a & <1,2> "', "unterminated quoted speech", 13),
            ('@{a & <1,2> "x\\"', "unterminated quoted speech", 16),
            ('@{a & <1,2> "x\\', "unterminated escape in quoted speech", 14),
            ('@{a & <1,2> "bad \\x escape"}', "invalid escape sequence '\\x'", 17),
            # multi-byte text before the error: offsets count UTF-8 bytes
            ("caf\u00e9 @{\u00fc & <2,1>}",
             "span start 2.00 must be strictly below end 1.00", 13),
            ('\u65e5\u672c @{a & <1,2> "\u00e9\\q"}', "invalid escape sequence '\\q'", 22),
        ]],
    )
    def test_syntax_errors(self, text, message, offset):
        with pytest.raises(PromptSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} at byte {offset}"
        assert exc.value.offset == offset

    def test_error_carries_byte_offset(self):
        with pytest.raises(PromptSyntaxError) as exc:
            parse("abc @{x <1,2>}")
        # description scan hits the closing '}' (char 13) before any '&'
        assert exc.value.offset == 13
        assert "at byte 13" in str(exc.value)

    def test_byte_offset_counts_utf8_bytes(self):
        with pytest.raises(PromptSyntaxError) as exc:
            parse("caf\u00e9 @{x <1,2>}")
        # same shape as above but the e-acute is two UTF-8 bytes: 14 chars in,
        # 15 bytes in
        assert exc.value.offset == 15


class TestSerialize:
    def test_canonical_form(self):
        p = parse("A.   @{x   &   <1 , 2>}@{y & <3,4> \"hi\"}")
        assert serialize(p) == 'A. @{x & <1.00,2.00>} @{y & <3.00,4.00> "hi"}'

    def test_sorts_spans(self):
        e = EventSpec("x", (span(5, 6), span(1, 2)))
        assert serialize(StructuredPrompt("", (e,))) == "@{x & <1.00,2.00> <5.00,6.00>}"

    def test_escapes_speech(self):
        e = EventSpec("x", (span(1, 2),), speech='say "hi" \\ now')
        assert serialize(StructuredPrompt("", (e,))) == '@{x & <1.00,2.00> "say \\"hi\\" \\\\ now"}'

    def test_caption_only(self):
        assert serialize(StructuredPrompt("Just rain.", ())) == "Just rain."

    def test_empty_prompt(self):
        assert serialize(StructuredPrompt("", ())) == ""

    @pytest.mark.parametrize(
        "prompt",
        [
            StructuredPrompt("", (EventSpec("x", ()),)),
            StructuredPrompt("", (EventSpec("   ", (span(1, 2),)),)),
            StructuredPrompt("", (EventSpec("a&b", (span(1, 2),)),)),
            StructuredPrompt("", (EventSpec("a@{b", (span(1, 2),)),)),
            StructuredPrompt("", (EventSpec('a"b', (span(1, 2),)),)),
            StructuredPrompt("bad @{ caption", ()),
            StructuredPrompt("", (EventSpec("x", (span(4, 4),)),)),
            StructuredPrompt("", (EventSpec("x", (span(-1, 2),)),)),
        ],
    )
    def test_rejects_invariant_violations(self, prompt):
        with pytest.raises(ValueError):
            serialize(prompt)

    # the leftmost token that would end the description is the one named
    @pytest.mark.parametrize("description, token", [
        ("a&b", "&"), ("a}b", "}"), ('a"b', '"'), ("a@{b", "@{"),
        ("x}y&z", "}"), ('say "hi" & go', '"'), ("@{ and }", "@{"), ("a@b{c}&", "}"),
    ])
    def test_names_leftmost_forbidden_token(self, description, token):
        prompt = StructuredPrompt("", (EventSpec("ok", (span(1, 2),)), EventSpec(description, (span(1, 2),))))
        with pytest.raises(ValueError) as exc_info:
            serialize(prompt)
        assert str(exc_info.value) == f"forbidden {token!r} in event 1 description: {description!r}"


class TestSamplePrompts:
    @pytest.mark.parametrize("raw", PLANNED_PROMPT_SAMPLES)
    def test_round_trip_after_canonicalization(self, raw):
        p = parse(raw)
        assert validate(p) == []
        canonical = serialize(p)
        assert parse(canonical) == p
        assert serialize(parse(canonical)) == canonical

    def test_first_sample_structure(self):
        p = parse(PLANNED_PROMPT_SAMPLES[0])
        assert p.caption == "She is talking in the park."
        assert [e.description for e in p.events] == [
            "park ambient sounds.",
            "Female speech, woman speaking.",
        ]
        assert p.events[0].spans == (span(0, 10),)
        assert p.events[1].speech == "Good morning! How are you feeling today?"


class TestValidate:
    def test_valid_prompt(self):
        p = StructuredPrompt("", (EventSpec("x", (span(3, 5),)),))
        assert validate(p) == []

    def test_degenerate_span(self):
        p = StructuredPrompt("", (EventSpec("x", (span(4, 4),)),))
        assert [v.code for v in validate(p)] == ["degenerate-span"]

    def test_end_exceeds_clip(self):
        p = StructuredPrompt("", (EventSpec("x", (span(9.5, 10.5),)),))
        assert [v.code for v in validate(p)] == ["end-exceeds-clip"]

    def test_negative_start_and_empty_description(self):
        p = StructuredPrompt(
            "", (EventSpec("", (span(-1, 2),)), EventSpec("y", (span(1, 2),)))
        )
        codes = {v.code for v in validate(p)}
        assert codes == {"empty-description", "negative-start"}

    def test_overlap_is_warning_not_error(self):
        p = StructuredPrompt("", (EventSpec("x", (span(1, 5), span(4, 6))),))
        findings = validate(p)
        assert [v.code for v in findings] == ["overlapping-spans"]
        assert findings[0].severity == "warning"
        # touching spans do not overlap
        q = StructuredPrompt("", (EventSpec("x", (span(1, 4), span(4, 6))),))
        assert validate(q) == []

    def test_reports_every_violation(self):
        p = StructuredPrompt(
            "",
            (
                EventSpec("", (span(4, 4), span(9, 12))),
                EventSpec("y", (span(2, 3),)),
            ),
        )
        codes = sorted(v.code for v in validate(p))
        assert codes == ["degenerate-span", "empty-description", "end-exceeds-clip"]

    def test_caption_opener(self):
        p = StructuredPrompt("rain @{ on tin", (EventSpec("x", (span(1, 2),)),))
        findings = validate(p)
        assert [v.code for v in findings] == ["caption-opener"]
        assert findings[0].message == "caption contains the event-block opener '@{'"
        assert findings[0].event_index is None

    def test_forbidden_token(self):
        p = StructuredPrompt("", (EventSpec("ok", (span(1, 2),)), EventSpec(" a}b&c ", (span(1, 2),))))
        findings = validate(p)
        assert [(v.code, v.event_index) for v in findings] == [("forbidden-token", 1)]
        assert findings[0].message == "forbidden '}' in event 1 description: 'a}b&c'"


class TestFromAnnotations:
    def test_merges_same_label_without_transcripts(self):
        anns = [
            EventAnnotation("dog barking", span(6, 7)),
            EventAnnotation("dog barking", span(1, 2)),
        ]
        p = from_annotations("Dogs.", anns)
        assert len(p.events) == 1
        assert p.events[0].spans == (span(1, 2), span(6, 7))
        assert p.events[0].speech is None

    def test_keeps_separate_on_differing_transcripts(self):
        anns = [
            EventAnnotation("Man speaking", span(1, 4.5), "I brought the rope."),
            EventAnnotation("Man speaking", span(5, 6.5), "Still fishing."),
        ]
        p = from_annotations("", anns)
        assert len(p.events) == 2
        assert p.events[0].speech == "I brought the rope."
        assert p.events[1].speech == "Still fishing."

    def test_merges_shared_transcript(self):
        anns = [
            EventAnnotation("Man speaking", span(1, 2), "Hello."),
            EventAnnotation("Man speaking", span(5, 6), "Hello."),
        ]
        p = from_annotations("", anns)
        assert len(p.events) == 1
        assert p.events[0].speech == "Hello."
        assert p.events[0].spans == (span(1, 2), span(5, 6))

    def test_empty_transcript_means_no_speech(self):
        anns = [EventAnnotation("Speech", span(1, 2), "")]
        p = from_annotations("", anns)
        assert p.events[0].speech is None

    def test_first_occurrence_order(self):
        anns = [
            EventAnnotation("b", span(3, 4)),
            EventAnnotation("a", span(1, 2)),
            EventAnnotation("b", span(7, 8)),
        ]
        p = from_annotations("", anns)
        assert [e.description for e in p.events] == ["b", "a"]

    @pytest.mark.parametrize(
        "ann",
        [
            EventAnnotation("x", span(4, 4)),
            EventAnnotation("x", span(9, 11)),
            EventAnnotation("x", span(-1, 2)),
            EventAnnotation(" ", span(1, 2)),
        ],
    )
    def test_rejects_invalid_annotations(self, ann):
        with pytest.raises(ValueError):
            from_annotations("", [ann])

    def test_result_serializes_and_validates(self):
        anns = [
            EventAnnotation("Woman speaking", span(1.5, 6), "Good morning."),
            EventAnnotation("rain", span(0, 10)),
        ]
        p = from_annotations("A woman talks in the rain.", anns)
        assert validate(p) == []
        assert parse(serialize(p)) == p


# hypothesis strategies for canonical prompts

_DESC_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ',.!?-:;()<"
)
_SPEECH_ALPHABET = _DESC_ALPHABET + '"\\&}{\n'

_descriptions = (
    st.text(alphabet=_DESC_ALPHABET, min_size=1, max_size=30)
    .map(str.strip)
    .filter(bool)
)


def _span_strategy(max_centiseconds: int):
    cs = st.integers(min_value=0, max_value=max_centiseconds)
    return st.tuples(cs, cs).filter(lambda ab: ab[0] != ab[1]).map(
        lambda ab: TimeSpan(min(ab) / 100.0, max(ab) / 100.0)
    )


_spans = _span_strategy(1000)
# up to twice the 10 s clip, so spans land on both sides of its end
_wide_spans = _span_strategy(2000)
_events = st.builds(
    lambda desc, spans, speech: EventSpec(
        description=desc,
        spans=tuple(sorted(spans, key=lambda s: (s.start, s.end))),
        speech=speech,
    ),
    _descriptions,
    st.lists(_spans, min_size=1, max_size=3),
    st.one_of(st.none(), st.text(alphabet=_SPEECH_ALPHABET, max_size=30)),
)
_prompts = st.builds(
    lambda caption, events: StructuredPrompt(caption=caption, events=tuple(events)),
    st.text(alphabet=_DESC_ALPHABET, max_size=40).map(str.strip),
    st.lists(_events, max_size=4),
)

# arbitrary text and spans in [-2, 14]: legal and illegal prompts alike
_any_spans = st.builds(
    TimeSpan,
    st.floats(min_value=-2, max_value=14),
    st.floats(min_value=-2, max_value=14),
)
_any_prompts = st.builds(
    StructuredPrompt,
    st.text(max_size=20),
    st.lists(
        st.builds(EventSpec, st.text(max_size=12), st.lists(_any_spans, max_size=3),
                  st.one_of(st.none(), st.text(max_size=12))),
        max_size=3,
    ),
)


class TestProperties:
    @given(_prompts)
    def test_round_trip_identity(self, p):
        assert parse(serialize(p)) == p

    @given(_prompts)
    def test_canonicalization_idempotent(self, p):
        once = serialize(p)
        assert serialize(parse(once)) == once

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_parse_total_over_arbitrary_text(self, text):
        try:
            parse(text)
        except PromptSyntaxError:
            pass  # the only error parse may raise

    @given(
        _prompts,
        st.data(),
        st.sampled_from(["insert", "delete", "truncate"]),
        st.sampled_from(list('<>,.&{}@"\\ 5\u00e9')),
    )
    @settings(max_examples=500)
    def test_parse_total_over_near_valid_prompts(self, p, data, edit, char):
        # one edit to a canonical prompt reaches the span, quote and escape
        # errors that arbitrary text rarely gets to
        text = serialize(p)
        i = data.draw(st.integers(min_value=0, max_value=len(text)))
        text = {
            "insert": text[:i] + char + text[i:],
            "delete": text[:i] + text[i + 1:],
            "truncate": text[:i],
        }[edit]
        try:
            parse(text)
        except PromptSyntaxError as exc:
            assert 0 <= exc.offset <= len(text.encode("utf-8"))

    @given(
        st.lists(
            st.builds(
                EventSpec,
                _descriptions,
                st.lists(_wide_spans, min_size=1, max_size=3).map(tuple),
            ),
            max_size=3,
        )
    )
    def test_validate_iff_in_range(self, events):
        p = StructuredPrompt("", tuple(events))
        errors = [v for v in validate(p) if v.severity == "error"]
        in_range = all(
            0 <= s.start < s.end <= 10.0 for e in p.events for s in e.spans
        )
        assert (errors == []) == in_range

    @given(_any_prompts)
    @settings(max_examples=300)
    def test_serialize_refuses_exactly_validate_errors(self, p):
        refused = [v.message for v in validate(p)
                   if v.severity == "error" and v.code != "end-exceeds-clip"]
        try:
            text = serialize(p)
        except ValueError as exc:
            assert refused and str(exc) == refused[0]
        else:
            assert refused == []
            assert serialize(parse(text)) == text

    @given(
        st.text(max_size=20),
        st.lists(
            st.builds(EventAnnotation, st.text(max_size=12), _any_spans,
                      st.one_of(st.none(), st.text(max_size=12))),
            max_size=4,
        ),
    )
    @settings(max_examples=300)
    def test_from_annotations_returns_only_valid_prompts(self, caption, annotations):
        try:
            p = from_annotations(caption, annotations)
        except ValueError:
            return
        assert [v for v in validate(p) if v.severity == "error"] == []
        serialize(p)  # so every prompt it returns also renders

    def test_seeded_generator_round_trips(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_prompt(rng)
            assert parse(serialize(p)) == p
