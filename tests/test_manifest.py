import argparse
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from soundscene import cli
from soundscene.config import ConfigError, load_config
from soundscene.demo import build_demo_pools
from soundscene.dsl import TimeSpan
from soundscene.manifest import _staged, decode_event_rows, iter_lines, read_jsonl, write_jsonl_atomic
from soundscene.phonemes import build_vocab, load_default_lexicon, load_lexicon
from soundscene.scene import load_background_pool, load_speech_pool
from soundscene.sed import annotations_from_manifest
from soundscene.toytrain import ToyDenoiser, load_checkpoint, save_checkpoint


# the line boundaries of str.splitlines besides "\n", "\r" and "\r\n"
OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


class TestIterLines:
    def test_lines_end_at_newline_alone(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes("\ufeffa\r\nb\rc\r\r\n\nd".encode("utf-8") + OTHER_LINE_BREAKS.encode("utf-8") + b"\n")
        assert list(iter_lines(p)) == [
            (f"{p}:1", "a"), (f"{p}:2", "b\rc\r"), (f"{p}:3", ""), (f"{p}:4", "d" + OTHER_LINE_BREAKS),
        ]

    def test_empty_file_gives_no_lines(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("")
        assert list(iter_lines(str(p))) == []

    def test_other_line_breaks_leave_the_vocabulary_as_splitlines_did(self, tmp_path):
        # the corpus once went through str.splitlines; the base tokenizer
        # reads each of its other breaks as whitespace
        text = "".join(f"dog{i} barks{brk}the dog{brk}{brk}wind\n" for i, brk in enumerate(OTHER_LINE_BREAKS))
        p = tmp_path / "corpus.txt"
        p.write_text(text, encoding="utf-8")
        lines = [line for _, line in iter_lines(p)]
        assert len(lines) == len(OTHER_LINE_BREAKS) < len(text.splitlines())
        lex = load_default_lexicon()
        assert build_vocab(lines, lex) == build_vocab(text.splitlines(), lex)


    # text-mode decoding reads ahead in blocks, so it raised such a byte
    # at an earlier line, and named no path
    def test_byte_that_is_not_utf8_is_named_at_its_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        rows = [json.dumps({"clip_id": f"c{i}", "events": []}) for i in range(1000)]
        rows[600] = '{"clip_id": "caf\xe9", "events": []}'
        p.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
        with pytest.raises(ValueError) as err:
            read_jsonl(p)
        assert str(err.value) == f"{p}:601: not UTF-8: invalid continuation byte at byte 16"

    def test_byte_that_is_not_utf8_in_an_events_table(self, tmp_path):
        p = tmp_path / "events.tsv"
        rows = [f"c{i}\tdog\t0.5\t1.25" for i in range(1000)]
        rows[600] = "c600\tcaf\xe9\t0.5\t1.25"
        p.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
        with pytest.raises(ValueError) as err:
            annotations_from_manifest(p)
        assert str(err.value) == f"{p}:601: not UTF-8: invalid continuation byte at byte 8"

    @pytest.mark.parametrize("data, where", [
        # the offset counts the byte-order mark
        pytest.param(b"\xef\xbb\xbfab\xff\n", "1: not UTF-8: invalid start byte at byte 5",
                     id="after-bom"),
        pytest.param(b"ok\r\nab\xe2\x82", "2: not UTF-8: unexpected end of data at byte 2",
                     id="truncated-at-eof"),
        pytest.param(b"ok\n\xed\xa0\x80\n", "2: not UTF-8: invalid continuation byte at byte 0",
                     id="surrogate"),
    ])
    def test_error_names_line_and_byte_offset(self, tmp_path, data, where):
        p = tmp_path / "t.txt"
        p.write_bytes(data)
        with pytest.raises(ValueError) as err:
            list(iter_lines(p))
        assert str(err.value) == f"{p}:{where}"


class TestReadJsonl:
    def test_reads_records_in_order(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"a": 1}\n{"a": 2}\n')
        assert read_jsonl(p) == [{"a": 1}, {"a": 2}]

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"a": 1}\n\n   \n{"a": 2}\n')
        assert read_jsonl(p) == [{"a": 1}, {"a": 2}]

    def test_invalid_json_reports_line_number(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2"):
            read_jsonl(p)

    def test_non_dict_record_rejected(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="object"):
            read_jsonl(p)

    def test_empty_file_gives_empty_list(self, tmp_path):
        p = tmp_path / "m.jsonl"
        p.write_text("")
        assert read_jsonl(p) == []


class TestWriteJsonlAtomic:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "out" / "m.jsonl"
        records = [{"id": "a", "x": 1.5}, {"id": "b", "x": None}]
        write_jsonl_atomic(p, records)
        assert read_jsonl(p) == records

    def test_creates_parent_directories(self, tmp_path):
        p = tmp_path / "deep" / "nested" / "m.jsonl"
        write_jsonl_atomic(p, [])
        assert p.exists()
        assert p.read_text() == ""

    def test_no_temp_files_left_behind(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_jsonl_atomic(p, [{"a": 1}])
        assert [f.name for f in tmp_path.iterdir()] == ["m.jsonl"]

    def test_overwrites_previous_content(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_jsonl_atomic(p, [{"a": 1}, {"a": 2}])
        write_jsonl_atomic(p, [{"a": 3}])
        assert read_jsonl(p) == [{"a": 3}]

    def test_unicode_preserved_without_escapes(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_jsonl_atomic(p, [{"caption": "café naïve"}])
        raw = p.read_text(encoding="utf-8")
        assert "café" in raw and "\\u" not in raw
        assert json.loads(raw) == {"caption": "café naïve"}

    def test_unserializable_record_leaves_no_file(self, tmp_path):
        p = tmp_path / "m.jsonl"
        with pytest.raises(TypeError):
            write_jsonl_atomic(p, [{"bad": object()}])
        assert list(tmp_path.iterdir()) == []


class TestStaged:
    def test_directory_replaced_whole(self, tmp_path):
        old = tmp_path / "audio"
        old.mkdir()
        (old / "a.wav").write_text("old")
        (old / "b.wav").write_text("old")
        with _staged(old) as new:
            new.mkdir()
            (new / "a.wav").write_text("new")
        assert {f.name: f.read_text() for f in old.iterdir()} == {"a.wav": "new"}
        assert [f.name for f in tmp_path.iterdir()] == ["audio"]

    def test_failure_keeps_old_directory(self, tmp_path):
        old = tmp_path / "audio"
        old.mkdir()
        (old / "a.wav").write_text("old")
        with pytest.raises(KeyError), _staged(old) as new:
            new.mkdir()
            (new / "a.wav").write_text("new")
            raise KeyError("stop")
        assert {f.name: f.read_text() for f in old.iterdir()} == {"a.wav": "old"}
        assert [f.name for f in tmp_path.iterdir()] == ["audio"]

    def test_directory_never_replaces_file(self, tmp_path):
        old = tmp_path / "audio"
        old.write_text("kept")
        with pytest.raises(NotADirectoryError, match=re.escape(str(old))), _staged(old) as new:
            new.mkdir()
        assert old.read_text() == "kept"
        assert [f.name for f in tmp_path.iterdir()] == ["audio"]


class TestDecodeEventRows:
    def test_rows_become_tuples_with_timespan_rounding(self):
        rows = [
            {"label": "dog", "start": -0.001, "end": 2},
            {"label": "Speech", "start": 6.985, "end": 7.5, "transcript": "hi"},
        ]
        decoded = decode_event_rows(rows, "m.jsonl:1")
        assert decoded == [("dog", 0, 200, None), ("Speech", 699, 750, "hi")]
        for (_, start, end, _), row in zip(decoded, rows):
            span = TimeSpan(row["start"], row["end"])
            assert (start, end) == (span.start_cs, span.end_cs)
        assert all(type(t) is int for _, start, end, _ in decoded for t in (start, end))


_SCENES = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in [
    {"clip_id": "scene00000", "audio": "audio/scene00000.wav", "caption": "Rain on a café roof.",
     "prompt": 'Rain on a café roof. @{rain & <0.00,10.00>} @{Man speaking & <1.25,3.50> "hello"}',
     "events": [{"label": "rain", "start": 0.0, "end": 10.0, "transcript": None},
                {"label": "Man speaking", "start": 1.25, "end": 3.5, "transcript": "hello"}],
     "scenario": "monologue", "snr_db": 12.5, "seed": 42},
    {"clip_id": "scene00001", "audio": "audio/scene00001.wav", "caption": "A dog.",
     "prompt": "A dog. @{dog barking & <2.00,2.75>}",
     "events": [{"label": "dog barking", "start": 2.0, "end": 2.75, "transcript": None}],
     "scenario": "monologue", "snr_db": 3.0, "seed": 7},
]).encode("utf-8")
_EVENTS = "c0\tdog barking\t0.5\t1.25\nc0\tMan speaking\t2\t3.5\nc1\train\t0\t10\n".encode("utf-8")
_LEXICON = ";;; a comment\nRED  R EH1 D\nCAFÉ  K AE0 F EY1\nREAD(1)  R EH1 D\n".encode("utf-8")
_TRANSCRIPTS = "c0\t1\tHello, café.\nc0\t3\t\nc1\t0\tgood night\n".encode("utf-8")
_CAPTIONS = "c0\tRain on a café roof.\nc1\tA dog barks.\n".encode("utf-8")
_CORPUS = 'Rain on a café roof. @{rain & <0.00,10.00>}\nA dog barks; "bonjour".\n'.encode("utf-8")


@st.composite
def _one_byte_edit(draw, data: bytes) -> bytes:
    """``data`` with one byte flipped, inserted or deleted."""
    i = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(("flip", "insert", "delete")))
    if edit == "delete":
        return data[:i] + data[i + 1:]
    if edit == "insert":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]


class TestOneByteEdits:
    """Each line-format reader returns a result or raises ValueError naming
    ``path:line`` for any one-byte edit of a valid file."""

    # valid None: the manifest of that name in a tiny build_demo_pools tree
    READERS = [
        pytest.param("scenes.jsonl", _SCENES, annotations_from_manifest, id="scene-manifest"),
        pytest.param("events.tsv", _EVENTS, annotations_from_manifest, id="events-tsv"),
        pytest.param("lex.dict", _LEXICON, load_lexicon, id="lexicon"),
        pytest.param("speech_manifest.jsonl", None, load_speech_pool, id="speech-pool"),
        pytest.param("background_manifest.jsonl", None, load_background_pool, id="background-pool"),
        pytest.param("tx.tsv", _TRANSCRIPTS, cli._read_transcript_table, id="ingest-transcripts"),
        pytest.param("cap.tsv", _CAPTIONS, cli._read_caption_table, id="ingest-captions"),
    ]

    @pytest.fixture(scope="class")
    def pools(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tiny_pools")
        build_demo_pools(root, n_speakers=2, utterances_per_speaker=1, n_backgrounds=2)
        return root

    @pytest.fixture
    def valid_input(self, tmp_path, pools, name, valid):
        """The reader's valid bytes, with the pool tree's audio linked into
        tmp_path so a manifest written there finds its WAVs."""
        for sub in ("speech", "background"):
            (tmp_path / sub).symlink_to(pools / sub)
        return (pools / name).read_bytes() if valid is None else valid

    @pytest.mark.parametrize("name, valid, read", READERS)
    def test_valid_file_reads(self, tmp_path, name, valid_input, read):
        path = tmp_path / name
        path.write_bytes(valid_input)
        assert len(read(path)) in (2, 3)

    @pytest.mark.parametrize("name, valid, read", READERS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_reader_returns_or_names_path_and_line(self, tmp_path, name, valid_input, read, data):
        path = tmp_path / name
        path.write_bytes(data.draw(_one_byte_edit(valid_input)))
        try:
            read(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:[0-9]+: ", str(exc)), str(exc)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_vocab_corpus_tokenizes_or_exits_1_naming_path_and_line(self, tmp_path, capsys, data):
        path = tmp_path / "corpus.txt"
        path.write_bytes(data.draw(_one_byte_edit(_CORPUS)))
        rc = cli.main(["tokenize", "--vocab-corpus", str(path), 'Rain @{a man & <0,1> "hello"}'])
        _, err = capsys.readouterr()
        assert rc == 0 or (rc == 1 and re.match(rf"error: {re.escape(str(path))}:[0-9]+: ", err)), (rc, err)


def _read_prompt_file(path):
    return cli._parse_prompt_arg(argparse.Namespace(prompt=None, file=str(path)))


_PROMPT = ('Rain on a café roof.\n@{Man speaking & <1.25,3.50> <5,6.5> "Bonjour, \\"toi\\"\n'
           'à demain."}\n@{rain & <0.00,10.00>}\n').encode("utf-8")
_CONFIG = """\
# pools and priors
dataset_seed: 3
output_dir: out
speech_manifest: demo/speech_manifest.jsonl
background_manifest: demo/background_manifest.jsonl
priors:
  p_single_speaker: 0.5
  snr_range_db: [2.0, 10.0]
  utterance_count_pmf: {1: 0.5, 2: 0.5}
sampler: {T: 100, t1: 88, w_low: 3.0, w_high: 9.0, mode: ancestral, seed: 0}
""".encode("utf-8")


class TestOneByteEditsWholeFile:
    """The readers that take a file whole return a result or raise their
    documented error for any one-byte edit of a valid file: a ``--file``
    prompt raises ValueError naming ``path:line``, a YAML config raises
    ConfigError naming the path.  A checkpoint is stricter: every edit
    raises ValueError naming the path, and none loads."""

    READERS = [
        pytest.param(_PROMPT, _read_prompt_file, ValueError, "{path}:[0-9]+: ", id="prompt-file"),
        pytest.param(_CONFIG, load_config, ConfigError, "(cannot read config )?{path}: ", id="config"),
    ]

    def test_valid_files_read(self, tmp_path):
        (tmp_path / "p.txt").write_bytes(_PROMPT)
        assert len(_read_prompt_file(tmp_path / "p.txt").events) == 2
        (tmp_path / "c.yaml").write_bytes(_CONFIG)
        assert load_config(tmp_path / "c.yaml").priors.utterance_count_pmf == {1: 0.5, 2: 0.5}

    @pytest.mark.parametrize("valid, read, error, pattern", READERS)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_reader_returns_or_raises_its_error(self, tmp_path, valid, read, error, pattern, data):
        path = tmp_path / "input"
        path.write_bytes(data.draw(_one_byte_edit(valid)))
        try:
            read(path)
        except error as exc:
            assert re.match(pattern.format(path=re.escape(str(path))), str(exc)), str(exc)

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "toy.ckpt"
        save_checkpoint(ToyDenoiser(dim=1, T=10), path)
        return path.read_bytes()

    @staticmethod
    def _assert_refused(path, data):
        path.write_bytes(data)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
            load_checkpoint(path)

    def test_every_checkpoint_prefix_edit_is_refused(self, tmp_path, checkpoint):
        # the magic and the header, at every offset: every flip, and an
        # insertion or deletion, whose value cannot matter: a body one byte
        # off a whole number of float64s fails the byte count
        path, valid = tmp_path / "toy.ckpt", checkpoint
        path.write_bytes(valid)
        assert load_checkpoint(path).flat.tobytes() == valid[52:]
        for i in range(52):
            for mask in range(1, 256):
                self._assert_refused(path, valid[:i] + bytes([valid[i] ^ mask]) + valid[i + 1:])
            for byte in (0x00, 0x01, 0x80, 0xFF):
                self._assert_refused(path, valid[:i] + bytes([byte]) + valid[i:])
            self._assert_refused(path, valid[:i] + valid[i + 1:])

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_checkpoint_edit_is_refused(self, tmp_path, checkpoint, data):
        self._assert_refused(tmp_path / "toy.ckpt", data.draw(_one_byte_edit(checkpoint)))
