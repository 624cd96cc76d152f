"""Lexicon loading, g2p, vocabulary construction, prompt tokenization."""

from __future__ import annotations

import copy
import pickle
import re
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PLANNED_PROMPT_SAMPLES, random_prompt
from soundscene import phonemes
from soundscene.demo import DEMO_SENTENCES
from soundscene.dsl import (
    EventSpec,
    StructuredPrompt,
    TimeSpan,
    parse,
    serialize,
    serialize_with_speech_regions,
)
from soundscene.phonemes import (
    ARPABET_INVENTORY,
    LETTER_FALLBACK,
    OOV_POLICIES,
    ExtendedVocabulary,
    LexiconError,
    OovWordError,
    PhonemeLexicon,
    build_vocab,
    g2p,
    load_default_lexicon,
    load_lexicon,
    TokenizedPrompt,
    render_tokens,
    tokenize_prompt,
)

LEX = load_default_lexicon()


class TestInventory:
    def test_shape(self):
        # 24 consonants + 15 vowels x 3 stress levels
        assert len(ARPABET_INVENTORY) == 24 + 45
        assert "HH" in ARPABET_INVENTORY
        assert "AH0" in ARPABET_INVENTORY
        assert "AH" not in ARPABET_INVENTORY  # vowels carry stress digits


def _lexicon_file(tmp_path, text: str):
    path = tmp_path / "lex.dict"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_basic_parsing(self, tmp_path):
        lex = load_lexicon(_lexicon_file(tmp_path, ";;; comment\n\nRED  R EH1 D\nBLUE  B L UW1\n"))
        assert lex.lookup("red") == ("R", "EH1", "D")
        assert lex.lookup("BLUE") == ("B", "L", "UW1")
        assert len(lex) == 2

    def test_duplicates_keep_first(self, tmp_path):
        lex = load_lexicon(_lexicon_file(tmp_path, "RED  R EH1 D\nRED  R IY1 D\n"))
        assert lex.lookup("red") == ("R", "EH1", "D")

    def test_variant_suffix_collapses(self, tmp_path):
        lex = load_lexicon(_lexicon_file(tmp_path, "READ  R IY1 D\nREAD(1)  R EH1 D\n"))
        assert len(lex) == 1
        assert lex.lookup("read") == ("R", "IY1", "D")

    def test_variant_suffix_is_ascii_digits(self, tmp_path):
        lex = load_lexicon(_lexicon_file(tmp_path, "READ  R IY1 D\nREAD(\u0661)  R EH1 D\n"))
        assert lex.lookup("read") == ("R", "IY1", "D")
        assert lex.lookup("read(\u0661)") == ("R", "EH1", "D")

    def test_byte_order_mark_is_skipped_in_a_file(self, tmp_path):
        path = tmp_path / "lex.dict"
        path.write_text("RED  R EH1 D\nBLUE  B L UW1\n", encoding="utf-8-sig")
        lex = load_lexicon(path)
        assert sorted(lex.entries) == ["BLUE", "RED"]
        assert lex.lookup("red") == ("R", "EH1", "D")

    def test_missing_pronunciation_reports_line(self, tmp_path):
        path = _lexicon_file(tmp_path, "RED  R EH1 D\nBAD\n")
        with pytest.raises(LexiconError, match=f"^{re.escape(str(path))}:2: "):
            load_lexicon(path)

    def test_unknown_phoneme_reports_line(self, tmp_path):
        path = _lexicon_file(tmp_path, "FOO  QQ\n")
        with pytest.raises(LexiconError, match=f"^{re.escape(str(path))}:1: .*'QQ'"):
            load_lexicon(path)

    def test_file_lines_end_at_newline_only_and_errors_name_path_line(self, tmp_path):
        # a lone CR does not end a line: "CAT" is read as a phoneme of line 1
        path = tmp_path / "lex.dict"
        path.write_bytes(b"DOG  D AO1 G\rCAT  K AE1 T\nBAD  XX\n")
        with pytest.raises(LexiconError) as err:
            load_lexicon(path)
        assert str(err.value) == f"{path}:1: unknown phoneme 'CAT' in 'DOG'"
        path.write_bytes(b"DOG  D AO1 G\r\nBAD\r\n")
        with pytest.raises(LexiconError) as err:
            load_lexicon(str(path))
        assert str(err.value) == f"{path}:2: entry 'BAD' has no pronunciation"

    def test_byte_that_is_not_utf8_names_path_and_line(self, tmp_path):
        lines = [f"WORD{i}  W ER1 D" for i in range(1000)]
        lines[600] = "CAF\xc9  K AE0 F EY1"
        path = tmp_path / "lex.dict"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(ValueError) as err:
            load_lexicon(path)
        assert str(err.value) == f"{path}:601: not UTF-8: invalid continuation byte at byte 3"

    def test_default_lexicon_is_read_by_path(self, monkeypatch):
        # through the one path reader, so its errors name the packaged file
        paths = []
        monkeypatch.setattr(phonemes, "load_lexicon", lambda path: paths.append(Path(path)) or LEX)
        assert phonemes.load_default_lexicon() is LEX
        assert [p.parts[-3:] for p in paths] == [("soundscene", "data", "lexicon.dict")]

    def test_default_lexicon_is_well_formed(self):
        assert len(LEX) > 100
        for pron in LEX.entries.values():
            assert pron
            assert all(p in ARPABET_INVENTORY for p in pron)


class TestG2p:
    def test_hello(self):
        assert g2p("hello", LEX) == ["HH", "AH0", "L", "OW1"]

    def test_case_and_punctuation(self):
        assert g2p("Hello, you!", LEX) == ["HH", "AH0", "L", "OW1", "Y", "UW1"]

    def test_internal_apostrophe_kept(self):
        assert g2p("it's", LEX) == ["IH1", "T", "S"]

    def test_pure_punctuation_word_skipped(self):
        assert g2p("hello -- you", LEX) == g2p("hello you", LEX)

    def test_empty_text(self):
        assert g2p("", LEX) == []

    def test_error_policy(self):
        with pytest.raises(OovWordError, match="zyxq"):
            g2p("hello zyxq", LEX, oov_policy="error")

    def test_digit_bearing_word_rejected_under_error(self):
        with pytest.raises(OovWordError):
            g2p("42nd", LEX, oov_policy="error")

    def test_skip_policy(self):
        assert g2p("hello zyxq you", LEX, oov_policy="skip") == g2p("hello you", LEX)

    def test_letter_fallback(self):
        assert g2p("zyx", LEX, oov_policy="letter_fallback") == ["Z", "Y", "K", "S"]

    def test_letter_fallback_drops_non_letters(self):
        assert g2p("a1b", LEX, oov_policy="letter_fallback") == ["AH0", "B"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="oov_policy"):
            g2p("hello", LEX, oov_policy="loud")

    @given(st.lists(st.sampled_from(sorted(LEX.entries)), min_size=0, max_size=6))
    def test_concatenative_over_words(self, words):
        joined = g2p(" ".join(words), LEX)
        per_word = [p for w in words for p in g2p(w, LEX)]
        assert joined == per_word


class TestBuildVocab:
    def test_frequency_order_ties_lexicographic(self):
        vocab = build_vocab("b b a a c", LEX)
        assert vocab.base_tokens == ("a", "b", "c")

    def test_line_order_does_not_matter(self):
        a = build_vocab("dog cat\nbird dog\n", LEX)
        b = build_vocab("bird dog\ndog cat\n", LEX)
        assert a == b

    def test_segments_and_ids(self):
        vocab = build_vocab("a b", LEX)
        n_base, n_ph = len(vocab.base_tokens), len(vocab.phoneme_tokens)
        assert n_ph == len(ARPABET_INVENTORY)
        assert len(vocab) == n_base + n_ph + 2
        assert vocab.id_of(vocab.boundary_open) == n_base + n_ph
        assert vocab.id_of(vocab.boundary_close) == n_base + n_ph + 1
        for i in range(len(vocab)):
            assert vocab.id_of(vocab.token_of(i)) == i

    def test_token_tuple_built_once(self):
        vocab = ExtendedVocabulary(base_tokens=("b", "a"))
        tokens = vocab.all_tokens()
        assert tokens == ("b", "a", *sorted(ARPABET_INVENTORY), "<SPK>", "</SPK>")
        assert vocab.all_tokens() is tokens
        assert len(vocab) == len(tokens) == 73
        assert [vocab.token_of(i) for i in range(len(vocab))] == list(tokens)
        for bad in (-1, len(tokens)):
            with pytest.raises(ValueError, match=f"token id {bad} out of range 0..72"):
                vocab.token_of(bad)

    def test_phoneme_segment_is_fixed(self):
        assert ExtendedVocabulary.phoneme_tokens == tuple(sorted(ARPABET_INVENTORY))
        assert build_vocab("a b", LEX).phoneme_tokens is ExtendedVocabulary.phoneme_tokens
        with pytest.raises(TypeError):
            ExtendedVocabulary(base_tokens=("a",), phoneme_tokens=("AH0",))

    def test_rejects_cross_segment_duplicates(self):
        for token in ("AH0", "<SPK>", "</SPK>"):
            with pytest.raises(ValueError, match=f"duplicate token across vocabulary segments: '{token}'"):
                ExtendedVocabulary(base_tokens=("a", token))

    def test_unknown_token_error(self):
        vocab = build_vocab("a b", LEX)
        with pytest.raises(ValueError, match="not in vocabulary"):
            vocab.id_of("zebra")


def _speech_prompt(speech: str | None = "hello") -> StructuredPrompt:
    return StructuredPrompt(
        caption="A greeting.",
        events=(
            EventSpec("Man speaking", (TimeSpan(1.0, 3.0),), speech=speech),
            EventSpec("rain", (TimeSpan(0.0, 10.0),)),
        ),
    )


def _vocab_for(p: StructuredPrompt) -> ExtendedVocabulary:
    return build_vocab(serialize(p), LEX)


_QUOTED_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def _non_speech_text(source: str) -> str:
    return _QUOTED_RE.sub("", source)


class TestTokenizePrompt:
    def test_speech_becomes_bounded_phoneme_run(self):
        p = _speech_prompt("hello")
        vocab = _vocab_for(p)
        tp = tokenize_prompt(p, vocab, LEX)
        tokens = [vocab.token_of(i) for i in tp.ids]
        i = tokens.index(vocab.boundary_open)
        assert tokens[i : i + 6] == ["<SPK>", "HH", "AH0", "L", "OW1", "</SPK>"]

    def test_slices_reconstruct_non_speech_text(self):
        for raw in PLANNED_PROMPT_SAMPLES:
            p = parse(raw)
            vocab = _vocab_for(p)
            tp = tokenize_prompt(p, vocab, LEX, oov_policy="letter_fallback")
            rebuilt = "".join(tp.source[s:e] for s, e in tp.spans_meta)
            assert rebuilt == _non_speech_text(tp.source)

    def test_token_count_decomposition(self):
        p = _speech_prompt("hello you")
        vocab = _vocab_for(p)
        tp = tokenize_prompt(p, vocab, LEX)
        source = serialize(p)
        base_count = len(_ref_base_tokenize(_non_speech_text(source)))
        speech_count = sum(
            2 + len(g2p(e.speech, LEX)) for e in p.events if e.speech is not None
        )
        assert len(tp.ids) == base_count + speech_count

    def test_render_swaps_speech_for_markers(self):
        p = _speech_prompt("hello")
        vocab = _vocab_for(p)
        tp = tokenize_prompt(p, vocab, LEX)
        expected = _QUOTED_RE.sub("<SPK> HH AH0 L OW1 </SPK>", tp.source)
        assert render_tokens(tp, vocab) == expected

    def test_empty_speech_keeps_boundaries(self):
        p = _speech_prompt("")
        vocab = _vocab_for(p)
        tp = tokenize_prompt(p, vocab, LEX)
        tokens = [vocab.token_of(i) for i in tp.ids]
        i = tokens.index(vocab.boundary_open)
        assert tokens[i + 1] == vocab.boundary_close

    def test_no_speech_no_boundaries(self):
        p = _speech_prompt(None)
        vocab = _vocab_for(p)
        tp = tokenize_prompt(p, vocab, LEX)
        assert vocab.id_of(vocab.boundary_open) not in tp.ids
        rebuilt = "".join(tp.source[s:e] for s, e in tp.spans_meta)
        assert rebuilt == tp.source

    def test_oov_error_policy_propagates(self):
        p = _speech_prompt("zyxq")
        vocab = _vocab_for(p)
        with pytest.raises(OovWordError):
            tokenize_prompt(p, vocab, LEX, oov_policy="error")

    def test_oov_skip_policy_keeps_boundaries(self):
        p = _speech_prompt("zyxq")
        vocab = _vocab_for(p)
        tp = tokenize_prompt(p, vocab, LEX, oov_policy="skip")
        tokens = [vocab.token_of(i) for i in tp.ids]
        i = tokens.index(vocab.boundary_open)
        assert tokens[i + 1] == vocab.boundary_close

    def test_base_token_missing_from_vocab(self):
        p = _speech_prompt("hello")
        vocab = build_vocab("unrelated words only", LEX)
        with pytest.raises(ValueError, match="not in vocabulary"):
            tokenize_prompt(p, vocab, LEX)

    def test_unknown_policy_rejected_without_speech(self):
        p = parse("Rain @{Rain & <0.00,1.00>}")
        vocab = _vocab_for(p)
        want = re.escape(f"unknown oov_policy 'bogus', want one of {OOV_POLICIES}")
        with pytest.raises(ValueError, match=f"^{want}$"):
            tokenize_prompt(p, vocab, LEX, oov_policy="bogus")


# ---- the one-pass tokenizer against the per-token reference -------------
#
# Straightforward versions of g2p, the base tokenizer, build_vocab and
# tokenize_prompt: a regex sub on every word, a list of (token, start, end)
# per segment, one vocabulary lookup per token.  The package's versions
# must give the same output, and the same error, on every input.

_REF_WORD_EDGE_RE = re.compile(r"^[^A-Za-z0-9]+|[^A-Za-z0-9]+$")
_REF_BASE_TOKEN_RE = re.compile(r"[A-Za-z0-9']+|[^\sA-Za-z0-9']")


def _ref_g2p(text, lex, oov_policy="error"):
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown oov_policy {oov_policy!r}, want one of {OOV_POLICIES}")
    phones = []
    for raw_word in text.split():
        word = _REF_WORD_EDGE_RE.sub("", raw_word)
        if not word:
            continue
        pron = lex.lookup(word)
        if pron is not None:
            phones.extend(pron)
        elif oov_policy == "error":
            raise OovWordError(word)
        elif oov_policy == "skip":
            continue
        else:
            for ch in word.upper():
                phones.extend(LETTER_FALLBACK.get(ch, ()))
    return phones


def _ref_base_tokenize_with_spans(text):
    return [(m.group().lower(), m.start(), m.end()) for m in _REF_BASE_TOKEN_RE.finditer(text)]


def _ref_base_tokenize(text):
    return [tok for tok, _, _ in _ref_base_tokenize_with_spans(text)]


def _ref_build_vocab(lines):
    counts = Counter()
    for line in lines:
        counts.update(_ref_base_tokenize(line))
    base = tuple(tok for tok, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return ExtendedVocabulary(base_tokens=base)


def _ref_tokenize_prompt(p, vocab, lex, oov_policy="error"):
    source, regions = serialize_with_speech_regions(p)
    open_id = vocab.id_of(vocab.boundary_open)
    close_id = vocab.id_of(vocab.boundary_close)
    ids, meta = [], []
    pos = 0
    for r_start, r_end, speech in regions + [(len(source), len(source), None)]:
        toks = _ref_base_tokenize_with_spans(source[pos:r_start])
        for k, (tok, t_start, _) in enumerate(toks):
            tile_start = pos if k == 0 else pos + t_start
            tile_end = pos + toks[k + 1][1] if k + 1 < len(toks) else r_start
            ids.append(vocab.id_of(tok))
            meta.append((tile_start, tile_end))
        if speech is not None:
            ids.append(open_id)
            meta.append((r_start, r_start))
            for ph in _ref_g2p(speech, lex, oov_policy):
                ids.append(vocab.id_of(ph))
                meta.append((r_start, r_start))
            ids.append(close_id)
            meta.append((r_end, r_end))
        pos = r_end
    return TokenizedPrompt(source=source, ids=tuple(ids), spans_meta=tuple(meta))


def _outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# case-changing letters ('İ' lowers to two code points, the Kelvin sign
# to ASCII k, 'ß' uppers to SS), apostrophes, digits and edge punctuation
_TRICKY = "İKkßﬁaZ09'’-.,!?()<>@{}&\"\\ \t\n"
_chars = st.one_of(st.sampled_from(_TRICKY), st.characters(codec="utf-8"))
_free_text = st.text(_chars, max_size=24)
_lexicon_word = st.sampled_from(sorted(LEX.entries)).map(str.lower)
_speech_word = st.one_of(
    _lexicon_word,
    st.tuples(st.sampled_from("'\"(-"), _lexicon_word, st.sampled_from("'.,!?)-")).map("".join),
    st.text(_chars, min_size=1, max_size=8),
)
_speech = st.lists(_speech_word, max_size=6).map(" ".join)
_caption = _free_text.filter(lambda c: "@{" not in c)
_description = (
    st.text(_chars, min_size=1, max_size=16)
    .map(lambda d: re.sub(r'[&}"@]', "", d))
    .filter(lambda d: d.strip())
)


@st.composite
def _prompts(draw):
    events = []
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 990))
        end = draw(st.integers(start + 1, 1000))
        events.append(EventSpec(
            draw(_description),
            (TimeSpan(start / 100, end / 100),),
            speech=draw(st.none() | _speech),
        ))
    return StructuredPrompt(caption=draw(_caption), events=tuple(events))


class TestOnePassTokenizerParity:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_free_text, max_size=5))
    def test_base_tokenize_and_build_vocab(self, lines):
        assert build_vocab(lines, LEX).all_tokens() == _ref_build_vocab(lines).all_tokens()
        corpus = "\n".join(lines)
        assert build_vocab(corpus, LEX).all_tokens() == _ref_build_vocab(corpus.splitlines()).all_tokens()

    @settings(max_examples=300, deadline=None)
    @given(_speech, st.sampled_from(OOV_POLICIES))
    def test_g2p(self, speech, oov_policy):
        assert _outcome(g2p, speech, LEX, oov_policy) == _outcome(_ref_g2p, speech, LEX, oov_policy)

    @settings(max_examples=300, deadline=None)
    @given(
        _prompts(),
        st.sampled_from(OOV_POLICIES),
        st.sampled_from(["own", "other"]),
        st.lists(_free_text, max_size=3),
    )
    def test_tokenize_prompt(self, p, oov_policy, vocab_kind, other_corpus):
        text = serialize(p)
        if vocab_kind == "own":
            vocab = build_vocab(text, LEX)
        else:  # base tokens go missing
            vocab = build_vocab(other_corpus, LEX)
        got = _outcome(tokenize_prompt, p, vocab, LEX, oov_policy)
        assert got == _outcome(_ref_tokenize_prompt, p, vocab, LEX, oov_policy)
        if vocab_kind == "own" and isinstance(got, TokenizedPrompt):
            assert got.source == text

    def test_missing_token_message_names_the_lowercased_token(self):
        p = StructuredPrompt(caption="Kelvin \u212a İ")
        vocab = build_vocab("kelvin", LEX)
        with pytest.raises(ValueError, match=r"^token not in vocabulary: 'k'$"):
            tokenize_prompt(p, vocab, LEX)
        vocab = build_vocab("kelvin \u212a", LEX)
        with pytest.raises(ValueError, match=r"^token not in vocabulary: 'i\u0307'$"):
            tokenize_prompt(p, vocab, LEX)
        vocab = build_vocab(serialize(p), LEX)
        tp = tokenize_prompt(p, vocab, LEX)
        assert [vocab.token_of(i) for i in tp.ids] == ["kelvin", "k", "i\u0307"]
        assert tp.spans_meta == ((0, 7), (7, 9), (9, 10))


# _prompts(), sometimes with one more event on a refused span or one
# ending past the clip (which renders)
_odd_spans = st.sampled_from([(-0.5, 1.0), (3.0, 3.0), (4.0, 2.0), (9.5, 10.5), (12.0, 14.0)])


@st.composite
def _checked_prompts(draw):
    p = draw(_prompts())
    if draw(st.booleans()):
        extra = EventSpec("rain", (TimeSpan(*draw(_odd_spans)),), speech=draw(st.none() | _speech))
        p = StructuredPrompt(p.caption, (*p.events, extra))
    return p


class TestMemos:
    """A prompt's findings and rendering, and a lexicon's surface-word
    pronunciations, are kept after first use; no result may show it."""

    @settings(max_examples=300, deadline=None)
    @given(_checked_prompts(), st.sampled_from(OOV_POLICIES))
    def test_tokenize_prompt_with_a_filled_memo(self, p, oov_policy):
        text = _outcome(serialize, p)  # fills the memo, or refuses
        vocab = build_vocab(text if isinstance(text, str) else "", LEX)
        first = _outcome(tokenize_prompt, p, vocab, LEX, oov_policy)
        assert _outcome(tokenize_prompt, p, vocab, LEX, oov_policy) == first
        fresh = StructuredPrompt(p.caption, p.events)
        assert _outcome(tokenize_prompt, fresh, vocab, LEX, oov_policy) == first
        fresh = StructuredPrompt(p.caption, p.events)
        assert _outcome(_ref_tokenize_prompt, fresh, vocab, LEX, oov_policy) == first
        fresh_lex = PhonemeLexicon(dict(LEX.entries))
        assert _outcome(tokenize_prompt, p, vocab, fresh_lex, oov_policy) == first

    def test_entries_are_a_read_only_copy(self):
        given_entries = {"RAIN": ("R", "EY1", "N")}
        lex = PhonemeLexicon(entries=given_entries)
        assert g2p("rain", lex) == ["R", "EY1", "N"]
        given_entries["RAIN"] = ("S", "N", "OW1")
        given_entries["SNOW"] = ("S", "N", "OW1")
        assert g2p("rain", lex) == ["R", "EY1", "N"]
        assert g2p("Rain!", lex) == ["R", "EY1", "N"]
        with pytest.raises(OovWordError):
            g2p("snow", lex)
        with pytest.raises(TypeError):
            lex.entries["SNOW"] = ("S", "N", "OW1")
        assert "snow" not in lex and len(lex) == 1

    def test_surface_words_under_every_policy(self):
        lex = PhonemeLexicon(dict(LEX.entries))
        # 'Zyxq' is first seen out of the lexicon; each text runs twice
        texts = ["(Zyxq) Hello, HELLO! hello-- 'you' You.", "hello zyxq.", "YOU, zyxq? Hello"]
        for policy in ("skip", "letter_fallback", "error", "letter_fallback", "skip"):
            for text in texts * 2:
                assert _outcome(g2p, text, lex, policy) == _outcome(_ref_g2p, text, LEX, policy)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_speech, st.sampled_from(OOV_POLICIES)), min_size=1, max_size=6))
    def test_g2p_on_a_fresh_lexicon(self, calls):
        lex = PhonemeLexicon(dict(LEX.entries))
        for text, policy in calls:
            assert _outcome(g2p, text, lex, policy) == _outcome(_ref_g2p, text, LEX, policy)

    def test_pickle_and_copy(self):
        lex = PhonemeLexicon({"RAIN": ("R", "EY1", "N")})
        g2p("Rain", lex)
        for twin in (pickle.loads(pickle.dumps(lex)), copy.copy(lex), copy.deepcopy(lex)):
            assert twin == lex and dict(twin.entries) == {"RAIN": ("R", "EY1", "N")}
            assert g2p("rain RAIN.", twin) == ["R", "EY1", "N"] * 2
            with pytest.raises(TypeError):
                twin.entries["SNOW"] = ("S", "N", "OW1")

    def test_two_threads_tokenize_alike(self):
        def prompts():
            rng = np.random.default_rng(5)
            out = []
            for i in range(400):
                p = random_prompt(rng)
                said = EventSpec("Man speaking", (TimeSpan(1.0, 2.0),),
                                 speech=DEMO_SENTENCES[i % len(DEMO_SENTENCES)])
                out.append(StructuredPrompt(p.caption, (*p.events, said)))
            return out

        vocab = build_vocab([serialize(p) for p in prompts()], LEX)
        lex = PhonemeLexicon(dict(LEX.entries))
        want = [tokenize_prompt(p, vocab, lex, "letter_fallback") for p in prompts()]
        shared, lex = prompts(), PhonemeLexicon(dict(LEX.entries))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                runs = [pool.submit(lambda: [tokenize_prompt(p, vocab, lex, "letter_fallback")
                                             for p in shared]) for _ in range(2)]
                got = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want, want]
