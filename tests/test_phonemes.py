"""Lexicon loading, g2p, vocabulary construction, prompt tokenization."""

from __future__ import annotations

import io
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixtures import PLANNED_PROMPT_SAMPLES
from soundscene.dsl import EventSpec, StructuredPrompt, TimeSpan, parse, serialize
from soundscene.phonemes import (
    ARPABET_INVENTORY,
    ExtendedVocabulary,
    LexiconError,
    OovWordError,
    base_tokenize,
    build_vocab,
    g2p,
    load_default_lexicon,
    load_lexicon,
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


class TestLoadLexicon:
    def test_basic_parsing(self):
        lex = load_lexicon(io.StringIO(";;; comment\n\nRED  R EH1 D\nBLUE  B L UW1\n"))
        assert lex.lookup("red") == ("R", "EH1", "D")
        assert lex.lookup("BLUE") == ("B", "L", "UW1")
        assert len(lex) == 2

    def test_duplicates_keep_first(self):
        lex = load_lexicon(io.StringIO("RED  R EH1 D\nRED  R IY1 D\n"))
        assert lex.lookup("red") == ("R", "EH1", "D")

    def test_variant_suffix_collapses(self):
        lex = load_lexicon(io.StringIO("READ  R IY1 D\nREAD(1)  R EH1 D\n"))
        assert len(lex) == 1
        assert lex.lookup("read") == ("R", "IY1", "D")

    def test_missing_pronunciation_reports_line(self):
        with pytest.raises(LexiconError, match="line 2"):
            load_lexicon(io.StringIO("RED  R EH1 D\nBAD\n"))

    def test_unknown_phoneme_reports_line(self):
        with pytest.raises(LexiconError, match="line 1.*'QQ'"):
            load_lexicon(io.StringIO("FOO  QQ\n"))

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
        vocab = ExtendedVocabulary(base_tokens=["b", "a"], phoneme_tokens=("AH0", "K"))
        tokens = vocab.all_tokens()
        assert tokens == ("b", "a", "AH0", "K", "<SPK>", "</SPK>")
        assert vocab.all_tokens() is tokens
        assert len(vocab) == len(tokens)
        assert [vocab.token_of(i) for i in range(len(vocab))] == list(tokens)
        for bad in (-1, len(tokens)):
            with pytest.raises(ValueError, match=f"token id {bad} out of range 0..5"):
                vocab.token_of(bad)

    def test_rejects_cross_segment_duplicates(self):
        with pytest.raises(ValueError, match="duplicate token"):
            ExtendedVocabulary(base_tokens=("AH0",), phoneme_tokens=("AH0",))

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
        base_count = len(base_tokenize(_non_speech_text(source)))
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
