"""Phoneme lexicon, grapheme-to-phoneme lookup, and the extended vocabulary
that layers phoneme tokens and speech-boundary markers over a word-level
base vocabulary.

The lexicon file format is one entry per line, ``WORD  PH1 PH2 ...``, with
``;;;`` comment lines; variant entries like ``WORD(1)`` collapse onto the
base word, first pronunciation wins.  Phonemes are ARPAbet, vowels carrying
a stress digit (0/1/2).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import ClassVar, Iterable, Mapping

from .dsl import serialize_with_speech_regions
from .manifest import iter_lines

__all__ = [
    "ARPABET_CONSONANTS",
    "ARPABET_VOWELS",
    "ARPABET_INVENTORY",
    "LETTER_FALLBACK",
    "LexiconError",
    "OovWordError",
    "PhonemeLexicon",
    "load_lexicon",
    "load_default_lexicon",
    "g2p",
    "base_tokenize",
    "ExtendedVocabulary",
    "build_vocab",
    "TokenizedPrompt",
    "tokenize_prompt",
    "render_tokens",
]

ARPABET_CONSONANTS = (
    "B", "CH", "D", "DH", "F", "G", "HH", "JH", "K", "L", "M", "N", "NG",
    "P", "R", "S", "SH", "T", "TH", "V", "W", "Y", "Z", "ZH",
)
ARPABET_VOWELS = (
    "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY", "IH", "IY",
    "OW", "OY", "UH", "UW",
)
ARPABET_INVENTORY = frozenset(ARPABET_CONSONANTS) | {
    f"{v}{stress}" for v in ARPABET_VOWELS for stress in "012"
}

# naive per-letter phonemes for out-of-vocabulary words; X is the only
# letter that expands to two
LETTER_FALLBACK: dict[str, tuple[str, ...]] = {
    "A": ("AH0",), "B": ("B",), "C": ("K",), "D": ("D",), "E": ("EH1",),
    "F": ("F",), "G": ("G",), "H": ("HH",), "I": ("IH1",), "J": ("JH",),
    "K": ("K",), "L": ("L",), "M": ("M",), "N": ("N",), "O": ("OW1",),
    "P": ("P",), "Q": ("K",), "R": ("R",), "S": ("S",), "T": ("T",),
    "U": ("AH1",), "V": ("V",), "W": ("W",), "X": ("K", "S"), "Y": ("Y",),
    "Z": ("Z",),
}

OOV_POLICIES = ("error", "skip", "letter_fallback")


def _check_oov_policy(oov_policy: str) -> None:
    if oov_policy not in OOV_POLICIES:
        raise ValueError(f"unknown oov_policy {oov_policy!r}, want one of {OOV_POLICIES}")


class LexiconError(ValueError):
    """Malformed lexicon line; the message starts with ``path:line``."""


class OovWordError(ValueError):
    """Word missing from the lexicon under the error policy."""

    def __init__(self, word: str):
        super().__init__(f"word not in lexicon: {word!r}")
        self.word = word


# the most surface words one lexicon remembers, so a long-lived lexicon fed
# unbounded text stays bounded; words past it are looked up each time
_FOUND_LIMIT = 1 << 16


@dataclass(frozen=True)
class PhonemeLexicon:
    """Case-insensitive word -> pronunciation map over a fixed inventory.

    ``entries`` is a read-only copy of the mapping given, so g2p can keep
    the pronunciation of each surface word it found (case and edge
    punctuation as written), up to _FOUND_LIMIT words, for the lexicon's
    lifetime."""

    entries: Mapping[str, tuple[str, ...]]
    _found: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "_found", {})

    def __reduce__(self):  # a mappingproxy does not pickle
        return PhonemeLexicon, (dict(self.entries),)

    def lookup(self, word: str) -> tuple[str, ...] | None:
        return self.entries.get(word.upper())

    def __contains__(self, word: str) -> bool:
        return word.upper() in self.entries

    def __len__(self) -> int:
        return len(self.entries)


_VARIANT_RE = re.compile(r"^(.+)\(([0-9]+)\)$")


def load_lexicon(path: str | Path) -> PhonemeLexicon:
    """Read a lexicon file through manifest.iter_lines; errors name
    ``path:line``."""
    entries: dict[str, tuple[str, ...]] = {}
    for where, line in iter_lines(path):
        if not line.strip() or line.startswith(";;;"):
            continue
        fields = line.split()
        word, phones = fields[0], fields[1:]
        if not phones:
            raise LexiconError(f"{where}: entry {word!r} has no pronunciation")
        m = _VARIANT_RE.match(word)
        if m:
            word = m.group(1)
        word = word.upper()
        for p in phones:
            if p not in ARPABET_INVENTORY:
                raise LexiconError(f"{where}: unknown phoneme {p!r} in {word!r}")
        if word not in entries:  # duplicates keep the first pronunciation
            entries[word] = tuple(phones)
    return PhonemeLexicon(entries=entries)


def load_default_lexicon() -> PhonemeLexicon:
    """The lexicon shipped with the package."""
    with resources.as_file(resources.files("soundscene") / "data/lexicon.dict") as path:
        return load_lexicon(path)


_WORD_EDGE_RE = re.compile(r"^[^A-Za-z0-9]+|[^A-Za-z0-9]+$")


def g2p(text: str, lex: PhonemeLexicon, oov_policy: str = "error") -> list[str]:
    """Phoneme sequence for whitespace-separated words.

    Leading/trailing non-alphanumerics are stripped per word (internal
    apostrophes survive); words that strip to nothing are skipped.  The
    result is concatenative: g2p(a + " " + b) == g2p(a) + g2p(b).
    """
    _check_oov_policy(oov_policy)
    found = lex._found
    phones: list[str] = []
    for raw_word in text.split():
        pron = found.get(raw_word)
        if pron is None:
            word = _WORD_EDGE_RE.sub("", raw_word)
            if not word:
                continue
            pron = lex.lookup(word)
            if pron is None:  # not remembered: what follows depends on the policy
                if oov_policy == "error":
                    raise OovWordError(word)
                if oov_policy == "letter_fallback":  # non-letters (digits, apostrophes) drop out
                    for ch in word.upper():
                        phones.extend(LETTER_FALLBACK.get(ch, ()))
                continue
            if len(found) < _FOUND_LIMIT:
                found[raw_word] = pron
        phones.extend(pron)
    return phones


# base tokenizer: lowercased word runs (apostrophes included) or single
# non-space symbols; lowercasing keeps base tokens disjoint from the
# uppercase phoneme tokens
_BASE_TOKEN_RE = re.compile(r"[A-Za-z0-9']+|[^\sA-Za-z0-9']")


def base_tokenize(text: str) -> list[str]:
    return list(map(str.lower, _BASE_TOKEN_RE.findall(text)))


@dataclass(frozen=True)
class ExtendedVocabulary:
    """Base word tokens, then every inventory phoneme (sorted; the same for
    every vocabulary), then the two speech-boundary markers.  Ids are dense
    and assigned in that order."""

    base_tokens: tuple[str, ...]
    phoneme_tokens: ClassVar[tuple[str, ...]] = tuple(sorted(ARPABET_INVENTORY))
    boundary_open: ClassVar[str] = "<SPK>"
    boundary_close: ClassVar[str] = "</SPK>"
    _tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = (*self.base_tokens, *self.phoneme_tokens, self.boundary_open, self.boundary_close)
        ids: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if tok in ids:
                raise ValueError(f"duplicate token across vocabulary segments: {tok!r}")
            ids[tok] = i
        object.__setattr__(self, "_tokens", tokens)
        object.__setattr__(self, "_ids", ids)

    def all_tokens(self) -> tuple[str, ...]:
        return self._tokens

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ValueError(f"token not in vocabulary: {token!r}") from None

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise ValueError(f"token id {idx} out of range 0..{len(self._tokens) - 1}")
        return self._tokens[idx]


def build_vocab(corpus: str | Iterable[str], lex: PhonemeLexicon) -> ExtendedVocabulary:
    """Base tokens ordered by corpus frequency (ties lexicographic), then
    every ARPAbet phoneme, then the boundary pair.  The phoneme segment does
    not depend on ``lex``: a lexicon holds only ARPABET_INVENTORY phonemes."""
    # every line break is whitespace, which no token contains, so a string
    # is matched whole; tokens are counted as written and then folded to
    # lowercase, which sums the same counts as counting them lowercased
    texts = (corpus,) if isinstance(corpus, str) else corpus
    counts: Counter[str] = Counter()
    for tok, n in Counter(chain.from_iterable(map(_BASE_TOKEN_RE.findall, texts))).items():
        counts[tok.lower()] += n
    base = tuple(tok for tok, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return ExtendedVocabulary(base_tokens=base)


@dataclass(frozen=True)
class TokenizedPrompt:
    """Token ids over the canonical serialization of a prompt.

    spans_meta holds one (start, end) pair of ``str`` indices into
    ``source`` per token (character offsets, not UTF-8 bytes: in
    ``'café …'`` the first two tokens span (0, 3) and (3, 5));
    speech-side tokens (boundaries, phonemes) carry zero-width ranges, so
    concatenating every slice reproduces the source with the quoted speech
    segments removed.
    """

    source: str
    ids: tuple[int, ...]
    spans_meta: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.ids) != len(self.spans_meta):
            raise ValueError("ids and spans_meta must have equal length")


def tokenize_prompt(
    p,
    vocab: ExtendedVocabulary,
    lex: PhonemeLexicon,
    oov_policy: str = "error",
) -> TokenizedPrompt:
    """Tokenize the canonical form of a prompt.

    Base text (caption, descriptions, structural characters, span digits)
    goes through the base tokenizer, one regex pass over each stretch of
    source between quoted segments.  The base tokens tile their stretch:
    a token's range runs from its match start to the next token's, the
    first from the stretch start and the last to the stretch end, so
    whitespace joins the token before it.  Each quoted speech segment
    becomes boundary-open, its g2p phoneme tokens, boundary-close, all
    zero-width.  A token missing from ``vocab`` raises
    ValueError("token not in vocabulary: ...").  An ``oov_policy`` outside
    OOV_POLICIES raises ValueError before anything else is read.
    """
    _check_oov_policy(oov_policy)
    source, regions = serialize_with_speech_regions(p)
    open_id = vocab.id_of(vocab.boundary_open)
    close_id = vocab.id_of(vocab.boundary_close)
    ids_of = vocab._ids
    finditer = _BASE_TOKEN_RE.finditer

    ids: list[int] = []
    meta: list[tuple[int, int]] = []
    pos = 0
    end = len(source)
    try:
        for r_start, r_end, speech in (*regions, (end, end, None)):
            # tokens are matched in the source as written and lowercased one
            # by one: lowercasing first can change lengths ('İ'.lower() is
            # two code points) and what matches (the Kelvin sign lowers to k)
            tile_start, tok = pos, None
            for m in finditer(source, pos, r_start):
                if tok is not None:
                    ids.append(ids_of[tok.lower()])
                    start = m.start()
                    meta.append((tile_start, start))
                    tile_start = start
                tok = m.group()
            if tok is not None:
                ids.append(ids_of[tok.lower()])
                meta.append((tile_start, r_start))
            if speech is not None:
                phone_ids = [ids_of[ph] for ph in g2p(speech, lex, oov_policy)]
                ids.append(open_id)
                ids.extend(phone_ids)
                ids.append(close_id)
                meta.extend([(r_start, r_start)] * (len(phone_ids) + 1))
                meta.append((r_end, r_end))
            pos = r_end
    except KeyError as exc:
        raise ValueError(f"token not in vocabulary: {exc.args[0]!r}") from None

    return TokenizedPrompt(source=source, ids=tuple(ids), spans_meta=tuple(meta))


def render_tokens(tp: TokenizedPrompt, vocab: ExtendedVocabulary) -> str:
    """Re-render a tokenized prompt: base tokens back out of the source by
    their ranges, speech segments as space-joined marker/phoneme tokens."""
    parts: list[str] = []
    marker_group: list[str] = []
    for idx, (s, e) in zip(tp.ids, tp.spans_meta):
        if s == e:
            marker_group.append(vocab.token_of(idx))
            continue
        if marker_group:
            parts.append(" ".join(marker_group))
            marker_group = []
        parts.append(tp.source[s:e])
    if marker_group:
        parts.append(" ".join(marker_group))
    return "".join(parts)
