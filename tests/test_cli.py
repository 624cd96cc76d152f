import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from soundscene import cli
from soundscene.audio import SAMPLE_RATE, write_wav
from soundscene.cli import main
from soundscene.demo import build_demo_pools
from soundscene.diffusion import MAX_T
from soundscene.dsl import EventAnnotation, TimeSpan, parse, serialize, validate
from soundscene.manifest import read_jsonl
from soundscene.scene import derive_scene_seed
from soundscene.toytrain import ToyDenoiser, save_checkpoint

from fixtures import fail_writes_partway, write_checkpoint
from test_planner import GOOD_PROMPT, chat_reply


@pytest.fixture
def run_config(tmp_path, demo_pool_dir):
    """Config file with absolute pool paths and output under tmp_path."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        f"""\
dataset_seed: 7
output_dir: out
speech_manifest: {demo_pool_dir / 'speech_manifest.jsonl'}
background_manifest: {demo_pool_dir / 'background_manifest.jsonl'}
sampler:
  seed: 11
""",
        encoding="utf-8",
    )
    return cfg


def read_out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestParseFmt:
    def test_parse_dumps_structure(self, capsys):
        rc = main(["parse", 'Rain @{dog barking & <1.25,3.5> <7,8.2>} @{a man & <0.5,2> "Hi"}'])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "caption: Rain" in out
        assert "event 0: dog barking" in out
        assert "spans: 1.25-3.50, 7.00-8.20" in out
        assert "speech: 'Hi'" in out
        assert "speech: -" in out

    def test_parse_reports_validation_findings(self, capsys):
        rc = main(["parse", "x @{bang & <9.5,12.0>}"])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "finding:" in out

    def test_parse_syntax_error_exit_1_with_byte_offset(self, capsys):
        rc = main(["parse", "x @{broken & 1,2}"])
        out, err = read_out(capsys)
        assert rc == 1
        assert err.startswith("error:")
        assert "at byte" in err

    def test_fmt_canonicalizes(self, capsys):
        rc = main(["fmt", "Rain @{ dog barking  & <7,8.2> <1.25,3.5> }"])
        out, _ = read_out(capsys)
        assert rc == 0
        assert out.strip() == "Rain @{dog barking & <1.25,3.50> <7.00,8.20>}"

    def test_prompt_from_file(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("Rain @{thunder & <0,1>}\n")
        rc = main(["fmt", "--file", str(f)])
        out, _ = read_out(capsys)
        assert rc == 0
        assert out.strip() == "Rain @{thunder & <0.00,1.00>}"

    @pytest.mark.parametrize("command", ["parse", "fmt", "tokenize"])
    def test_byte_order_mark_is_not_part_of_the_prompt(self, tmp_path, capsys, command):
        text = "Rain falls @{dog barking & <1.0,2.0>}\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert main([command, "--file", str(plain)]) == 0
        expected, _ = read_out(capsys)
        assert main([command, "--file", str(bom)]) == 0
        out, _ = read_out(capsys)
        assert out == expected and "\ufeff" not in out

    def test_prompt_file_is_its_whole_text_by_the_line_rule(self, tmp_path, capsys):
        # lines end at "\n" alone with one "\r" before it dropped, so a lone
        # "\r" is data; quoted speech may span lines
        f = tmp_path / "p.txt"
        f.write_bytes(b'\xef\xbb\xbfRain\r falls @{a man & <0,1> "hello\r\nthere"}\r\n\n')
        assert main(["fmt", "--file", str(f)]) == 0
        out, _ = read_out(capsys)
        assert out == 'Rain\r falls @{a man & <0.00,1.00> "hello\nthere"}\n'

    @pytest.mark.parametrize("command", ["parse", "fmt", "tokenize"])
    def test_prompt_file_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, capsys,
                                                                     command):
        f = tmp_path / "p.txt"
        f.write_bytes(b"Rain falls\n@{caf\xe9 & <0,1>}\n")
        rc = main([command, "--file", str(f)])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err == f"error: {f}:2: not UTF-8: invalid continuation byte at byte 5\n"

    @pytest.mark.parametrize("command", ["parse", "fmt", "tokenize"])
    @pytest.mark.parametrize("raw, line, message, col, at", [
        pytest.param(b"\xef\xbb\xbf\r\n  Rain falls @{dog barking & <1.0,2.0}\r\n",
                     2, "expected '>'", 37, b"}", id="bom-crlf-blank-line"),
        pytest.param(b"\xef\xbb\xbfRain @{dog barking & <1.0,2.0}\n",
                     1, "expected '>'", 32, b"}", id="bom-counts-on-line-1"),
        pytest.param(b"\n\n  \nRain @{a & <2,1>}\n",
                     4, "span start 2.00 must be strictly below end 1.00", 11, b"<",
                     id="leading-blank-lines"),
        pytest.param(b'Rain @{a man & <0,1> "hello\r\nthere\n ok" } @{x & <1,2> <3,4}\n',
                     3, "expected '>'", 23, b"}", id="speech-spanning-lines"),
        pytest.param(b'Rain @{a & <0,1> "hi\nthere"\n\n',
                     2, "expected '}'", 6, b"", id="end-of-input"),
        pytest.param(b"Rain @{caf\xc3\xa9 & 1,2}\n", 1, "expected '<'", 15, b"1", id="multibyte"),
    ])
    def test_prompt_file_syntax_error_names_path_line_and_byte(self, tmp_path, capsys, command,
                                                               raw, line, message, col, at):
        # the offset counts within the line as stored: a BOM counts, and
        # the byte there is the one the message is about
        f = tmp_path / "pf.txt"
        f.write_bytes(raw)
        rc = main([command, "--file", str(f)])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err == f"error: {f}:{line}: {message} at byte {col}\n"
        assert raw.split(b"\n")[line - 1][col : col + 1] == at

    def test_inline_and_file_together_rejected(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("x @{a & <0,1>}")
        rc = main(["fmt", "inline @{a & <0,1>}", "--file", str(f)])
        _, err = read_out(capsys)
        assert rc == 1
        assert "not both" in err

    def test_no_prompt_given(self, capsys):
        rc = main(["parse"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "no prompt" in err


class TestTokenize:
    def test_speech_becomes_phoneme_run(self, capsys):
        rc = main(["tokenize", 'Rain @{a man speaking & <0.5,2> "hello"}'])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "<SPK> HH AH0 L OW1 </SPK>" in out

    def test_oov_falls_back_to_letters_by_default(self, capsys):
        rc = main(["tokenize", 'x @{a man & <0,1> "zyzzyva"}'])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "<SPK>" in out and "</SPK>" in out

    def test_oov_policy_error_fails(self, capsys):
        rc = main(["tokenize", "--oov-policy", "error", 'x @{a man & <0,1> "zyzzyva"}'])
        _, err = read_out(capsys)
        assert rc == 1
        assert "zyzzyva" in err

    def test_ids_output_is_integers(self, capsys):
        rc = main(["tokenize", "--ids", 'Rain @{a man & <0.5,2> "hello"}'])
        out, _ = read_out(capsys)
        assert rc == 0
        ids = out.split()
        assert ids and all(tok.lstrip("-").isdigit() for tok in ids)

    def test_byte_order_mark_is_not_part_of_the_vocab_corpus(self, tmp_path, capsys):
        corpus = "Thunder rolls @{dog barking & <0,1>}\nwind in the trees\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(corpus, encoding="utf-8")
        bom.write_text(corpus, encoding="utf-8-sig")
        prompt = 'Thunder @{a man speaking & <0.5,2> "hello"}'
        assert main(["tokenize", "--ids", "--vocab-corpus", str(plain), prompt]) == 0
        expected, _ = read_out(capsys)
        assert main(["tokenize", "--ids", "--vocab-corpus", str(bom), prompt]) == 0
        out, _ = read_out(capsys)
        assert out == expected

    def test_other_line_breaks_in_the_vocab_corpus_change_no_id(self, tmp_path, capsys):
        # each str.splitlines boundary besides "\n" and "\r": the corpus
        # once split at them, and the base tokenizer reads them as spaces
        breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        text = "".join(f"thunder rolls{b}wind in{b}{b}the trees {i}\n" for i, b in enumerate(breaks))
        mixed, split = tmp_path / "mixed.txt", tmp_path / "split.txt"
        mixed.write_text(text, encoding="utf-8")
        split.write_text("\n".join(text.splitlines()) + "\n", encoding="utf-8")
        prompt = 'Thunder in the trees @{wind & <0.5,2>}'
        assert main(["tokenize", "--ids", "--vocab-corpus", str(split), prompt]) == 0
        expected, _ = read_out(capsys)
        assert main(["tokenize", "--ids", "--vocab-corpus", str(mixed), prompt]) == 0
        out, _ = read_out(capsys)
        assert out == expected

    def test_byte_order_mark_is_not_part_of_the_first_headword(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.dict"
        lexicon.write_text("HELLO  HH AH0 L OW1\n", encoding="utf-8-sig")
        prompt = 'x @{a man & <0,1> "hello"}'
        rc = main(["tokenize", "--oov-policy", "error", "--lexicon", str(lexicon), prompt])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "<SPK> HH AH0 L OW1 </SPK>" in out

    def test_malformed_lexicon_exits_1_with_line(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.dict"
        lexicon.write_text("HELLO  HH AH0 L OW1\nBAD\n", encoding="utf-8")
        rc = main(["tokenize", "--lexicon", str(lexicon), 'x @{a man & <0,1> "hello"}'])
        out, err = read_out(capsys)
        assert rc == 1
        assert out == ""
        assert err == f"error: {lexicon}:2: entry 'BAD' has no pronunciation\n"


    def test_vocab_corpus_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        lines = [f"wind in the trees {i}" for i in range(1000)]
        lines[600] = "rain on a caf\xe9 roof"
        corpus.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        rc = main(["tokenize", "--vocab-corpus", str(corpus), "Rain @{wind & <0,1>}"])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err == f"error: {corpus}:601: not UTF-8: invalid continuation byte at byte 13\n"

    def test_lexicon_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, capsys):
        lexicon = tmp_path / "lex.dict"
        lexicon.write_bytes(b"HELLO  HH AH0 L OW1\nCAF\xc9  K AE0 F EY1\n")
        rc = main(["tokenize", "--lexicon", str(lexicon), 'x @{a man & <0,1> "hello"}'])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err == f"error: {lexicon}:2: not UTF-8: invalid continuation byte at byte 3\n"


def _unarrangeable_config(tmp_path, out_dir):
    """A dataset-seed-1 config writing to ``out_dir`` over a pool of 3
    speakers x 3 five-second utterances: monologues fit the 10 s clip, but
    no dialogue of 2+ utterances does, and scene 5 is the first dialogue
    drawn."""
    pools = tmp_path / "pools"
    pools.mkdir()
    rows = []
    for s in range(3):
        for u in range(3):
            write_wav(pools / f"s{s}u{u}.wav",
                      0.1 * np.sin(np.arange(5 * SAMPLE_RATE) * (0.05 + 0.01 * s)))
            rows.append({"path": f"s{s}u{u}.wav", "speaker_id": f"spk{s}", "transcript": "hello"})
    (pools / "speech.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    write_wav(pools / "bed.wav", 0.05 * np.random.default_rng(0).standard_normal(10 * SAMPLE_RATE))
    (pools / "bg.jsonl").write_text(json.dumps({"path": "bed.wav", "caption": "rain"}) + "\n")
    cfg = tmp_path / "unarrangeable.yaml"
    cfg.write_text(
        f"dataset_seed: 1\nspeech_manifest: {pools / 'speech.jsonl'}\n"
        f"background_manifest: {pools / 'bg.jsonl'}\noutput_dir: {out_dir}\n",
        encoding="utf-8",
    )
    return cfg


def _tree_bytes(root):
    """{path relative to root: bytes} for every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestSimulate:
    def test_writes_manifest_and_audio(self, run_config, tmp_path, capsys):
        rc = main(["simulate", "--config", str(run_config), "--count", "3"])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "wrote 3 scenes" in out
        records = read_jsonl(tmp_path / "out" / "scenes.jsonl")
        assert len(records) == 3
        for i, rec in enumerate(records):
            assert rec["clip_id"] == f"scene{i:05d}"
            assert (tmp_path / "out" / rec["audio"]).exists()
            assert rec["scenario"] in ("monologue", "dialogue")
            assert 2.0 <= rec["snr_db"] <= 10.0
            p = parse(rec["prompt"])
            assert serialize(p) == rec["prompt"]
            assert validate(p) == []
            assert p.caption == rec["caption"]
            assert len(rec["events"]) >= 1
            for ev in rec["events"]:
                assert 0.0 <= ev["start"] < ev["end"] <= 10.0
                assert ev["transcript"]

    def test_reruns_are_byte_identical(self, run_config, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out_dir in (out_a, out_b):
            rc = main(["simulate", "--config", str(run_config), "--count", "4",
                       "--output-dir", str(out_dir)])
            assert rc == 0
        assert (out_a / "scenes.jsonl").read_bytes() == (out_b / "scenes.jsonl").read_bytes()
        for i in range(4):
            wav = f"audio/scene{i:05d}.wav"
            assert (out_a / wav).read_bytes() == (out_b / wav).read_bytes()

    def test_worker_count_does_not_change_output(self, run_config, tmp_path):
        # 17 scenes at 2 workers go out in chunks of 2, the last chunk of 1
        out_1 = tmp_path / "w1"
        out_2 = tmp_path / "w2"
        rc = main(["simulate", "--config", str(run_config), "--count", "17",
                   "--output-dir", str(out_1), "--workers", "1"])
        assert rc == 0
        rc = main(["simulate", "--config", str(run_config), "--count", "17",
                   "--output-dir", str(out_2), "--workers", "2"])
        assert rc == 0
        assert (out_1 / "scenes.jsonl").read_bytes() == (out_2 / "scenes.jsonl").read_bytes()
        for i in range(17):
            wav = f"audio/scene{i:05d}.wav"
            assert (out_1 / wav).read_bytes() == (out_2 / wav).read_bytes()

    def test_reference_run_bytes_pinned(self, tmp_path):
        # the benchmark's simulate/reference run: 12 scenes of dataset seed 0
        # over demo pools of seed 0, hashed as sha256 over each file's name
        # and bytes, the manifest first and then the WAVs in name order
        speech, background = build_demo_pools(tmp_path / "pools", seed=0)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"dataset_seed: 0\noutput_dir: out\nspeech_manifest: {speech}\n"
                       f"background_manifest: {background}\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--count", "12", "--workers", "1"]) == 0
        out = tmp_path / "out"
        h = hashlib.sha256()
        for path in [out / "scenes.jsonl", *sorted((out / "audio").glob("*.wav"))]:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == "3c1760a0e6ee670bf36055be1cd8f5c7f6b72f92e56e924e0b4094b143b61530"

    def test_scene_record_key_order(self, run_config, tmp_path):
        rc = main(["simulate", "--config", str(run_config), "--count", "1"])
        assert rc == 0
        line = (tmp_path / "out" / "scenes.jsonl").read_text(encoding="utf-8").splitlines()[0]
        assert line.startswith('{"clip_id": "scene00000", "audio": "audio/scene00000.wav", ')
        rec = json.loads(line)
        assert list(rec) == [
            "clip_id", "audio", "caption", "prompt", "events", "scenario", "snr_db", "seed"
        ]
        assert rec["events"]
        assert all(list(ev) == ["label", "start", "end", "transcript"] for ev in rec["events"])

    def test_count_zero_writes_empty_manifest(self, run_config, tmp_path, capsys):
        rc = main(["simulate", "--config", str(run_config), "--count", "0"])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "wrote 0 scenes" in out
        assert (tmp_path / "out" / "scenes.jsonl").read_text() == ""

    def test_negative_count_rejected(self, run_config, capsys):
        rc = main(["simulate", "--config", str(run_config), "--count", "-1"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "--count" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_rejected(self, run_config, tmp_path, workers, capsys):
        rc = main(["simulate", "--config", str(run_config), "--count", "2",
                   "--workers", workers])
        _, err = read_out(capsys)
        assert rc == 1
        assert f"error: --workers must be >= 1, got {workers}" in err
        assert not (tmp_path / "out" / "scenes.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_rerun_leaves_no_stale_manifest(self, run_config, tmp_path, capsys, workers):
        # the rerun fails at scene00005, after writing scenes 0-4 into its
        # stage: the previous run stays whole, its manifest still true of
        # its audio/, and nothing else in the output directory is touched
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(run_config), "--count", "10"]) == 0
        (out / "audio" / "notes.txt").write_text("kept")
        (out / "planner_raw.txt").write_text("raw")
        before = _tree_bytes(out)
        cfg = _unarrangeable_config(tmp_path, out)
        rc = main(["simulate", "--config", str(cfg), "--count", "8", "--workers", str(workers)])
        _, err = read_out(capsys)
        assert rc == 1
        assert "scene00005" in err.splitlines()[-1]
        assert _tree_bytes(out) == before
        assert sorted(os.listdir(out)) == ["audio", "planner_raw.txt", "scenes.jsonl"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_smaller_rerun_replaces_audio_whole(self, run_config, tmp_path, workers):
        # scene i's seed does not depend on --count, so the 4-scene rerun
        # writes the 10-scene run's first 4 WAVs again, and only those
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(run_config), "--workers", str(workers), "--count"]
        assert main(argv + ["10"]) == 0
        ten = _tree_bytes(out)
        assert main(argv + ["4"]) == 0
        listed = [rec["audio"] for rec in read_jsonl(out / "scenes.jsonl")]
        assert listed == [f"audio/scene{i:05d}.wav" for i in range(4)]
        four = _tree_bytes(out)
        assert sorted(four) == sorted(listed + ["scenes.jsonl"])
        assert all(four[name] == ten[name] for name in listed)
        assert sorted(os.listdir(out)) == ["audio", "scenes.jsonl"]

    def test_config_byte_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_bytes(b"dataset_seed: 1\n# caf\xe9\n")
        rc = main(["simulate", "--config", str(cfg), "--count", "1"])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: cannot read config {cfg}: 'utf-8' codec can't decode byte 0xe9")

    def test_pools_required_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "bare.yaml"
        cfg.write_text("dataset_seed: 1\n")
        rc = main(["simulate", "--config", str(cfg), "--count", "1"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "speech_manifest" in err

    def test_relative_paths_resolve_against_config_dir(self, tmp_path, demo_pool_dir, capsys):
        os.symlink(demo_pool_dir, tmp_path / "pools")
        cfg = tmp_path / "rel.yaml"
        cfg.write_text(
            "dataset_seed: 7\n"
            "output_dir: relout\n"
            "speech_manifest: pools/speech_manifest.jsonl\n"
            "background_manifest: pools/background_manifest.jsonl\n",
            encoding="utf-8",
        )
        rc = main(["simulate", "--config", str(cfg), "--count", "1"])
        assert rc == 0
        assert (tmp_path / "relout" / "scenes.jsonl").exists()

    # the pools load once, in the parent, before anything is written, so a
    # bad pool WAV is named at any worker count
    @pytest.mark.parametrize("bad, workers", [
        pytest.param("missing", 1, id="missing"),
        pytest.param("not_wav", 1, id="not_wav"),
        pytest.param("missing", 2, id="missing-2-workers"),
    ])
    def test_unreadable_pool_wav_names_manifest_line(self, tmp_path, demo_pool_dir, capsys, bad,
                                                     workers):
        pools = tmp_path / "pools"
        pools.mkdir()
        if bad == "not_wav":
            (pools / "nope.wav").write_text("not a wave file\n")
        rows = (demo_pool_dir / "speech_manifest.jsonl").read_text(encoding="utf-8").splitlines()
        rows[2] = json.dumps({**json.loads(rows[2]), "path": "nope.wav"})
        for i, row in enumerate(rows):
            rec = json.loads(row)
            if rec["path"] != "nope.wav":
                rows[i] = json.dumps({**rec, "path": str(demo_pool_dir / rec["path"])})
        manifest = pools / "speech_manifest.jsonl"
        manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(
            f"speech_manifest: {manifest}\n"
            f"background_manifest: {demo_pool_dir / 'background_manifest.jsonl'}\n"
            f"output_dir: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        rc = main(["simulate", "--config", str(cfg), "--count", "4", "--workers", str(workers)])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.splitlines()[-1].startswith(
            f"error: {manifest}:3: cannot read WAV file {pools / 'nope.wav'}: "
        )
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("pool, fault", [
        ("speech", "nan_sample"), ("background", "silent_bed"), ("background", "block_opener"),
        ("speech", "silent_utterance"), ("speech", "overlong_utterance"), ("speech", "blank_transcript"),
    ])
    def test_unmixable_pool_fails_before_any_wav(self, tmp_path, demo_pool_dir, capsys,
                                                 pool, fault):
        pools = tmp_path / "pools"
        pools.mkdir()
        if fault == "nan_sample":
            audio = np.full(SAMPLE_RATE, 0.1, dtype=np.float32)
            audio[50] = np.nan
            wavfile.write(pools / "bad.wav", SAMPLE_RATE, audio)
        elif fault in ("silent_bed", "silent_utterance"):
            write_wav(pools / "bad.wav", np.zeros(SAMPLE_RATE))
        elif fault == "overlong_utterance":
            write_wav(pools / "bad.wav", np.full(11 * SAMPLE_RATE, 0.1))
        for name in ("speech", "background"):
            rows = [json.loads(r) for r in (demo_pool_dir / f"{name}_manifest.jsonl")
                    .read_text(encoding="utf-8").splitlines()]
            rows = [{**r, "path": str(demo_pool_dir / r["path"])} for r in rows]
            if name == pool and fault == "block_opener":
                rows[2] = {**rows[2], "caption": "rain @{ on tin"}
            elif name == pool and fault == "blank_transcript":
                rows[2] = {**rows[2], "transcript": "  "}
            elif name == pool:
                rows[2] = {**rows[2], "path": "bad.wav"}
            (pools / f"{name}.jsonl").write_text(
                "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(
            f"speech_manifest: {pools / 'speech.jsonl'}\n"
            f"background_manifest: {pools / 'background.jsonl'}\n"
            f"output_dir: {tmp_path / 'out'}\n",
            encoding="utf-8",
        )
        rc = main(["simulate", "--config", str(cfg), "--count", "3"])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.startswith(f"error: {pools / (pool + '.jsonl')}:3: ")
        assert not (tmp_path / "out").exists()


    def test_one_speaker_pool_refused_before_any_wav(self, tmp_path, demo_pool_dir, capsys):
        # dataset seed 1 draws five monologues before its first dialogue
        rows = [json.loads(r) for r in (demo_pool_dir / "speech_manifest.jsonl")
                .read_text(encoding="utf-8").splitlines()]
        manifest = tmp_path / "speech.jsonl"
        manifest.write_text("".join(
            json.dumps({**r, "path": str(demo_pool_dir / r["path"])}) + "\n"
            for r in rows if r["speaker_id"] == "spk00"), encoding="utf-8")
        base = (f"dataset_seed: 1\nspeech_manifest: {manifest}\n"
                f"background_manifest: {demo_pool_dir / 'background_manifest.jsonl'}\n")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(base + f"output_dir: {tmp_path / 'out'}\n", encoding="utf-8")
        rc = main(["simulate", "--config", str(cfg), "--count", "8"])
        _, err = read_out(capsys)
        assert rc == 1
        assert err == (f"error: {manifest}: one speaker cannot hold a dialogue, "
                       "and priors.p_single_speaker is 0.791\n")
        assert not (tmp_path / "out").exists()
        # monologues only: the same pool simulates
        cfg.write_text(base + f"output_dir: {tmp_path / 'mono'}\n"
                       "priors: {p_single_speaker: 1.0}\n", encoding="utf-8")
        assert main(["simulate", "--config", str(cfg), "--count", "8"]) == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unarrangeable_scene_named_with_its_seed(self, tmp_path, capsys, workers):
        cfg = _unarrangeable_config(tmp_path, tmp_path / "out")
        rc = main(["simulate", "--config", str(cfg), "--count", "20", "--workers", str(workers)])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.splitlines()[-1].startswith(
            f"error: scene00005 (seed {derive_scene_seed(1, 5)}): "
            "could not arrange a dialogue scene in 20 draws"
        )

    @pytest.mark.parametrize("write_fails", [True, False], ids=["write-then-compose", "compose"])
    def test_first_failure_in_scene_order_is_reported(self, run_config, tmp_path, capsys,
                                                      monkeypatch, write_fails):
        # the one-process path writes scene 2 on its helper thread while it
        # composes scene 3; scene 2's write error is the first failure in
        # scene order, so it wins over scene 3's compose error
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(run_config), "--count", "6"]) == 0
        before = _tree_bytes(out)
        real_write, real_compose = cli.write_wav, cli.compose_scene

        def write_wav(path, audio):
            if write_fails and Path(path).name == "scene00002.wav":
                raise OSError(f"{path}: disk full")
            real_write(path, audio)

        def compose_scene(*args, seed):
            if seed == derive_scene_seed(7, 3):
                raise ValueError("no room")
            return real_compose(*args, seed=seed)

        monkeypatch.setattr(cli, "write_wav", write_wav)
        monkeypatch.setattr(cli, "compose_scene", compose_scene)
        threads = threading.active_count()
        rc = main(["simulate", "--config", str(run_config), "--count", "6"])
        _, err = read_out(capsys)
        assert rc == 1
        if write_fails:
            staged_wav = r"\S*/\.audio\.\w+/new/scene00002\.wav"
            assert re.fullmatch(f"error: {staged_wav}: disk full\n", err)
        else:
            assert err == f"error: scene00003 (seed {derive_scene_seed(7, 3)}): no room\n"
        assert threading.active_count() == threads
        assert _tree_bytes(out) == before
        assert sorted(os.listdir(out)) == ["audio", "scenes.jsonl"]

    @pytest.mark.parametrize("count, pools", [(2, [2]), (1, [])])
    def test_worker_processes_capped_at_scene_count(self, run_config, tmp_path, monkeypatch,
                                                    count, pools):
        # fork starts all max_workers at the pool's first submit; a thread
        # pool stands in for the process pool, so the test forks nothing
        import concurrent.futures

        seen = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        # its threads run _init_sim_worker in this process: keep the pools out of it
        monkeypatch.setattr(cli, "_WORKER_STATE", ())
        argv = ["simulate", "--config", str(run_config), "--count", str(count)]
        assert main(argv + ["--workers", "4", "--output-dir", str(tmp_path / "w4")]) == 0
        assert seen == pools
        assert main(argv + ["--output-dir", str(tmp_path / "w1")]) == 0
        assert _tree_bytes(tmp_path / "w4") == _tree_bytes(tmp_path / "w1")

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_start_method_does_not_change_output(self, run_config, tmp_path, monkeypatch, method):
        # a fresh process (spawn, forkserver) gets the pools by pickle, a
        # forked one inherits them: the same scenes either way
        import concurrent.futures

        real = concurrent.futures.ProcessPoolExecutor

        def in_context(*args, **kwargs):
            return real(*args, mp_context=multiprocessing.get_context(method), **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_context)
        argv = ["simulate", "--config", str(run_config), "--count", "6", "--output-dir"]
        assert main(argv + [str(tmp_path / "w2"), "--workers", "2"]) == 0
        assert main(argv + [str(tmp_path / "w1")]) == 0
        assert _tree_bytes(tmp_path / "w2") == _tree_bytes(tmp_path / "w1")


class TestIngest:
    def test_join_and_prompt_output(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text(
            "clipA\tMan speaking\t0.5\t2.0\n"
            "clipA\tdog barking\t3.0\t4.5\n"
            "clipB\tWoman speaking\t1.0\t2.5\n"
        )
        (tmp_path / "tx.tsv").write_text(
            "clipA\t0\tHello there\nclipA\t1\t\nclipB\t0\tNice weather\n"
        )
        (tmp_path / "cap.tsv").write_text("clipA\tA dog barks over talk\n")
        out_path = tmp_path / "prompts.jsonl"
        rc = main([
            "ingest", "--events", str(tmp_path / "events.tsv"),
            "--transcripts", str(tmp_path / "tx.tsv"),
            "--captions", str(tmp_path / "cap.tsv"),
            "--output", str(out_path),
        ])
        out, err = read_out(capsys)
        assert rc == 0
        assert err == ""
        records = read_jsonl(out_path)
        assert [r["clip_id"] for r in records] == ["clipA", "clipB"]
        a = records[0]
        assert a["caption"] == "A dog barks over talk"
        assert a["events"][0]["transcript"] == "Hello there"
        # empty transcript row keeps the event but marks it non-speech
        assert a["events"][1]["transcript"] is None
        p = parse(a["prompt"])
        assert p.events[0].speech == "Hello there"
        assert p.events[1].speech is None
        # no captions row -> empty caption, prompt is event blocks only
        b = records[1]
        assert b["caption"] == ""
        assert b["prompt"].startswith("@{")

    def test_output_directory_in_the_way_is_kept(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text("c\tdog barking\t0.5\t2.0\n")
        (tmp_path / "tx.tsv").write_text("c\t0\t\n")
        out_path = tmp_path / "prompts.jsonl"
        out_path.mkdir()
        (out_path / "notes.txt").write_text("kept")
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"), "--output", str(out_path)])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["events.tsv", "prompts.jsonl", "tx.tsv"]
        assert [(f.name, f.read_text()) for f in out_path.iterdir()] == [("notes.txt", "kept")]

    def test_output_line_bytes(self, tmp_path):
        (tmp_path / "events.tsv").write_text("c\tMan speaking\t0.5\t2.0\nc\tdog barking\t3.0\t4.5\n")
        (tmp_path / "tx.tsv").write_text("c\t0\tHello there\nc\t1\t\n")
        (tmp_path / "cap.tsv").write_text("c\tCafé terrace\n", encoding="utf-8")
        out_path = tmp_path / "prompts.jsonl"
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"),
                   "--captions", str(tmp_path / "cap.tsv"), "--output", str(out_path)])
        assert rc == 0
        assert out_path.read_text(encoding="utf-8") == (
            '{"clip_id": "c", "caption": "Café terrace", "prompt": "Café terrace'
            ' @{Man speaking & <0.50,2.00> \\"Hello there\\"} @{dog barking & <3.00,4.50>}",'
            ' "events": [{"label": "Man speaking", "start": 0.5, "end": 2.0,'
            ' "transcript": "Hello there"}, {"label": "dog barking", "start": 3.0,'
            ' "end": 4.5, "transcript": null}]}\n'
        )

    def test_byte_order_mark_is_not_part_of_a_clip_id(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text("c\tthud\t0.5\t1.0\n", encoding="utf-8")
        (tmp_path / "tx.tsv").write_text("\ufeffc\t0\t\n", encoding="utf-8")
        out_path = tmp_path / "o.jsonl"
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"), "--output", str(out_path)])
        _, err = read_out(capsys)
        assert (rc, err) == (0, "")
        assert [len(r["events"]) for r in read_jsonl(out_path)] == [1]

    def test_event_without_transcript_row_skipped_with_warning(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text(
            "c\tthud\t0.5\t1.0\nc\tthud\t2.0\t3.0\n"
        )
        (tmp_path / "tx.tsv").write_text("c\t0\t\n")
        out_path = tmp_path / "o.jsonl"
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"), "--output", str(out_path)])
        _, err = read_out(capsys)
        assert rc == 0
        assert "no transcript row" in err and "event 1" in err
        records = read_jsonl(out_path)
        assert len(records[0]["events"]) == 1

    def test_transcript_for_unknown_event_skipped_with_warning(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text("c\tthud\t0.5\t1.0\n")
        (tmp_path / "tx.tsv").write_text("c\t0\t\nc\t5\tghost\nzzz\t0\tghost\n")
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"),
                   "--output", str(tmp_path / "o.jsonl")])
        _, err = read_out(capsys)
        assert rc == 0
        assert err.count("row skipped") == 2
        assert "'zzz'" in err

    def test_caption_for_unknown_clip_skipped_with_warning(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text("clipA\tthud\t0.5\t1.0\n")
        (tmp_path / "tx.tsv").write_text("clipA\t0\t\n")
        (tmp_path / "cap.tsv").write_text("zzz\tA ghost\nclipa\tA thud\n")
        out_path = tmp_path / "o.jsonl"
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"),
                   "--captions", str(tmp_path / "cap.tsv"), "--output", str(out_path)])
        _, err = read_out(capsys)
        assert rc == 0
        assert err == (
            "warning: caption row for unknown clip 'clipa'; row skipped\n"
            "warning: caption row for unknown clip 'zzz'; row skipped\n"
        )
        assert [r["caption"] for r in read_jsonl(out_path)] == [""]

    def test_missing_input_named_in_error(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text("c\tthud\t0.5\t1.0\n")
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "nope.tsv"),
                   "--output", str(tmp_path / "o.jsonl")])
        _, err = read_out(capsys)
        assert rc == 1
        assert "nope.tsv" in err

    def test_malformed_transcript_row_reports_line(self, tmp_path, capsys):
        (tmp_path / "events.tsv").write_text("c\tthud\t0.5\t1.0\n")
        (tmp_path / "tx.tsv").write_text("c\t0\tok\nc\tnot-an-int\tbad\n")
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"),
                   "--output", str(tmp_path / "o.jsonl")])
        _, err = read_out(capsys)
        assert rc == 1
        assert "tx.tsv:2" in err

    @pytest.mark.parametrize(
        "table, text, message",
        [
            ("events", "c\tthud\t0.5\n",
             r"events\.tsv:1: expected 4 tab-separated fields \(clip_id, label, start, end\), got 3"),
            ("transcripts", "c\t0\tok\n\nc\t1\n", r"tx\.tsv:3: expected 3 tab-separated fields"),
            ("captions", "c\tA\textra\n", r"cap\.tsv:1: expected 2 tab-separated fields"),
            ("captions", "c\tfirst\nc\tsecond\n", r"cap\.tsv:2: duplicate caption for clip 'c'"),
            ("captions", "c\tA thud @{x\n",
             r"cap\.tsv:1: caption contains the event-block opener '@\{'"),
            ("transcripts", "c\t1_0\tok\n",
             r"tx\.tsv:1: event index '1_0' is not a non-negative integer"),
        ],
        ids=["events-field-count", "transcripts-field-count", "captions-field-count",
             "captions-duplicate", "captions-block-opener", "transcripts-digit-separator"],
    )
    def test_table_reader_errors_name_line(self, tmp_path, capsys, table, text, message):
        tables = {
            "events": ("events.tsv", "c\tthud\t0.5\t1.0\n"),
            "transcripts": ("tx.tsv", "c\t0\t\n"),
            "captions": ("cap.tsv", "c\tA thud\n"),
        }
        args = ["ingest", "--output", str(tmp_path / "o.jsonl")]
        for name, (filename, default) in tables.items():
            (tmp_path / filename).write_text(text if name == table else default)
            args += [f"--{name}", str(tmp_path / filename)]
        rc = main(args)
        _, err = read_out(capsys)
        assert rc == 1
        assert re.search(message, err)
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("row, message", [
        ("c\tcats & dogs\t1\t2\n", "clip 'c': forbidden '&' in event 0 description: 'cats & dogs'"),
        ("c\tdog\t9\t11\n", "clip 'c': event 0 span 0: end 11.00 beyond clip 10.00"),
    ], ids=["forbidden-token", "end-past-clip"])
    def test_prompt_errors_name_the_clip(self, tmp_path, capsys, row, message):
        (tmp_path / "events.tsv").write_text(row)
        (tmp_path / "tx.tsv").write_text("c\t0\t\n")
        rc = main(["ingest", "--events", str(tmp_path / "events.tsv"),
                   "--transcripts", str(tmp_path / "tx.tsv"),
                   "--output", str(tmp_path / "o.jsonl")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err == f"error: {message}\n"
        assert not (tmp_path / "o.jsonl").exists()


class TestPlanCommand:
    @pytest.fixture
    def server(self, planner_server):
        return planner_server()

    @pytest.fixture
    def planner_config(self, tmp_path, server):
        cfg = tmp_path / "plan.yaml"
        cfg.write_text(
            "output_dir: out\n"
            "planner:\n"
            f"  url: {server.url}\n"
            "  model: plan-1\n",
            encoding="utf-8",
        )
        return cfg

    def test_prints_planned_prompt(self, planner_config, server, monkeypatch, capsys):
        monkeypatch.setenv("PLANNER_API_KEY", "tok")
        server.replies.append(chat_reply(GOOD_PROMPT))
        rc = main(["plan", "--config", str(planner_config),
                   "--caption", "Rain falls on a tin roof"])
        out, _ = read_out(capsys)
        assert rc == 0
        assert out.strip() == GOOD_PROMPT
        assert "Rain falls on a tin roof" in server.received[0]["json"]["messages"][0]["content"]

    def test_speech_flag_threads_through(self, planner_config, server, monkeypatch, capsys):
        monkeypatch.setenv("PLANNER_API_KEY", "tok")
        server.replies.append(chat_reply(GOOD_PROMPT))
        rc = main(["plan", "--config", str(planner_config), "--caption", "c",
                   "--speech", "Hold the door"])
        assert rc == 0
        assert "Hold the door" in server.received[0]["json"]["messages"][0]["content"]

    def test_missing_planner_section_is_config_error(self, tmp_path, server, monkeypatch,
                                                     capsys):
        monkeypatch.setenv("PLANNER_API_KEY", "tok")
        cfg = tmp_path / "noplanner.yaml"
        cfg.write_text("dataset_seed: 1\n")
        rc = main(["plan", "--config", str(cfg), "--caption", "c"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "planner" in err
        assert server.received == []

    def test_missing_token_fails_before_network(self, planner_config, server, monkeypatch,
                                                capsys):
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        rc = main(["plan", "--config", str(planner_config), "--caption", "c"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "PLANNER_API_KEY" in err
        assert server.received == []

    def test_double_parse_failure_saves_raw_replies(self, planner_config, server, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setenv("PLANNER_API_KEY", "tok")
        server.replies += [chat_reply("bad one"), chat_reply("bad two")]
        rc = main(["plan", "--config", str(planner_config), "--caption", "c"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "after repair retry" in err
        raw = (tmp_path / "out" / "planner_raw.txt").read_text()
        assert "bad one" in raw and "bad two" in raw


class TestSample:
    def test_default_run_logs_both_phases(self, run_config, tmp_path, capsys):
        rc = main(["sample", "--config", str(run_config)])
        assert rc == 0
        log = (tmp_path / "out" / "sample" / "steps.log").read_text().splitlines()
        assert log[0] == "step\tt\tphase\tcondition\tw"
        assert len(log) == 101
        rows = [line.split("\t") for line in log[1:]]
        # steps count up as t counts down from T
        assert rows[0][:3] == ["1", "100", "1"]
        assert rows[11][:3] == ["12", "89", "1"]
        assert rows[12][:3] == ["13", "88", "2"]
        assert rows[-1][:3] == ["100", "1", "2"]
        assert all(r[4] == "3" for r in rows[:12])
        assert all(r[4] == "9" for r in rows[12:])
        # coarse phase on the broad prior, full phase on the target
        assert {r[3] for r in rows[:12]} == {"gauss:mu=0,sigma2=1"}
        assert {r[3] for r in rows[12:]} == {"gauss:mu=2,sigma2=0.25"}
        z = np.load(tmp_path / "out" / "sample" / "latents.npy")
        assert z.shape == (2,)
        assert np.all(np.isfinite(z))

    def test_rerun_is_byte_identical(self, run_config, tmp_path):
        for out_dir in ("s1", "s2"):
            rc = main(["sample", "--config", str(run_config),
                       "--output-dir", str(tmp_path / out_dir)])
            assert rc == 0
        a, b = tmp_path / "s1" / "sample", tmp_path / "s2" / "sample"
        assert (a / "latents.npy").read_bytes() == (b / "latents.npy").read_bytes()
        assert (a / "steps.log").read_bytes() == (b / "steps.log").read_bytes()

    def test_rerun_replaces_a_symlinked_output(self, run_config, tmp_path):
        argv = ["sample", "--config", str(run_config), "--output-dir", str(tmp_path / "s")]
        assert main(argv) == 0
        latents = tmp_path / "s" / "sample" / "latents.npy"
        want = latents.read_bytes()
        outside = tmp_path / "outside.npy"
        outside.write_bytes(b"not written through")
        latents.unlink()
        latents.symlink_to(outside)
        assert main(argv) == 0
        assert outside.read_bytes() == b"not written through"
        assert not latents.is_symlink()
        assert latents.read_bytes() == want

    def test_directory_at_step_log_fails_after_the_latents(self, run_config, tmp_path, capsys):
        assert main(["sample", "--config", str(run_config),
                     "--output-dir", str(tmp_path / "clean")]) == 0
        sample_dir = tmp_path / "s" / "sample"
        (sample_dir / "steps.log").mkdir(parents=True)
        rc = main(["sample", "--config", str(run_config), "--output-dir", str(tmp_path / "s")])
        _, err = read_out(capsys)
        assert rc == 1
        assert "steps.log" in err
        assert (sample_dir / "steps.log").is_dir()
        want = (tmp_path / "clean" / "sample" / "latents.npy").read_bytes()
        assert (sample_dir / "latents.npy").read_bytes() == want

    @pytest.mark.parametrize("t1", [0, 88, 100])
    def test_step_log_bytes_match_per_step_formula(self, run_config, tmp_path, t1):
        rc = main(["sample", "--config", str(run_config), "--t1", str(t1), "--w-low", "2.5",
                   "--output-dir", str(tmp_path / "s")])
        assert rc == 0
        # the log as first written: one phase lookup and one format per step
        label = {1: "gauss:mu=0,sigma2=1", 2: "gauss:mu=2,sigma2=0.25"}
        lines = ["step\tt\tphase\tcondition\tw"]
        for t in range(100, 0, -1):
            phase, w = (1, 2.5) if t > t1 else (2, 9.0)
            lines.append(f"{100 + 1 - t}\t{t}\t{phase}\t{label[phase]}\t{w:g}")
        want = ("\n".join(lines) + "\n").encode("utf-8")
        assert (tmp_path / "s" / "sample" / "steps.log").read_bytes() == want

    def test_t1_equal_T_runs_single_phase(self, run_config, tmp_path):
        rc = main(["sample", "--config", str(run_config), "--t1", "100",
                   "--output-dir", str(tmp_path / "sp")])
        assert rc == 0
        rows = [line.split("\t") for line in
                (tmp_path / "sp" / "sample" / "steps.log").read_text().splitlines()[1:]]
        assert all(r[2] == "2" for r in rows)
        assert all(r[4] == "9" for r in rows)

    def test_t1_zero_keeps_first_phase_throughout(self, run_config, tmp_path):
        rc = main(["sample", "--config", str(run_config), "--t1", "0",
                   "--output-dir", str(tmp_path / "sp")])
        assert rc == 0
        rows = [line.split("\t") for line in
                (tmp_path / "sp" / "sample" / "steps.log").read_text().splitlines()[1:]]
        assert all(r[2] == "1" for r in rows)
        assert all(r[4] == "3" for r in rows)

    def test_oracle_with_high_guidance_lands_near_target(self, run_config, tmp_path):
        rc = main(["sample", "--config", str(run_config), "--mu", "2.0",
                   "--sigma2", "0.25", "--output-dir", str(tmp_path / "g")])
        assert rc == 0
        z = np.load(tmp_path / "g" / "sample" / "latents.npy")
        assert np.all(np.abs(z - 2.0) < 3.0)

    def test_deterministic_mode(self, run_config, tmp_path):
        rc = main(["sample", "--config", str(run_config), "--mode", "deterministic",
                   "--output-dir", str(tmp_path / "d")])
        assert rc == 0
        z = np.load(tmp_path / "d" / "sample" / "latents.npy")
        assert np.all(np.isfinite(z))

    def test_toy_checkpoint_denoiser(self, run_config, tmp_path):
        d = ToyDenoiser(dim=3, T=20)
        ckpt = tmp_path / "toy.ckpt"
        save_checkpoint(d, ckpt)
        rc = main(["sample", "--config", str(run_config),
                   "--denoiser", "toy_checkpoint", "--checkpoint", str(ckpt),
                   "--condition-id", "5", "--T", "20", "--t1", "6",
                   "--output-dir", str(tmp_path / "toy")])
        assert rc == 0
        log = (tmp_path / "toy" / "sample" / "steps.log").read_text().splitlines()
        rows = [line.split("\t") for line in log[1:]]
        assert len(rows) == 20
        # coarse phase runs on the text-level view of condition 5 (5 // 4 = 1)
        assert rows[0][3] == "text:1"
        assert rows[-1][3] == "full:5"
        z = np.load(tmp_path / "toy" / "sample" / "latents.npy")
        assert z.shape == (3,)

    def test_toy_checkpoint_T_mismatch_rejected(self, run_config, tmp_path, capsys):
        d = ToyDenoiser(dim=2, T=20)
        ckpt = tmp_path / "toy.ckpt"
        save_checkpoint(d, ckpt)
        rc = main(["sample", "--config", str(run_config),
                   "--denoiser", "toy_checkpoint", "--checkpoint", str(ckpt)])
        _, err = read_out(capsys)
        assert rc == 1
        assert "T=20" in err

    def test_checkpoint_without_toy_denoiser_rejected(self, run_config, tmp_path, capsys):
        ckpt = tmp_path / "toy.ckpt"
        save_checkpoint(ToyDenoiser(dim=2, T=100), ckpt)
        rc = main(["sample", "--config", str(run_config), "--checkpoint", str(ckpt),
                   "--condition-id", "5", "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.startswith("error:") and "--checkpoint needs --denoiser toy_checkpoint" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("denoiser, flag, needs", [
        ("gaussian_oracle", "--condition-id=99", "toy_checkpoint"),
        ("gaussian_oracle", "--condition-id=0", "toy_checkpoint"),
        ("toy_checkpoint", "--mu=2.0", "gaussian_oracle"),
        ("toy_checkpoint", "--sigma2=0.25", "gaussian_oracle"),
        ("toy_checkpoint", "--dim=2", "gaussian_oracle"),
    ])
    def test_flag_the_denoiser_ignores_is_refused(self, run_config, tmp_path, capsys,
                                                  denoiser, flag, needs):
        # even at its default value: the flag would do nothing
        ckpt = tmp_path / "toy.ckpt"
        save_checkpoint(ToyDenoiser(dim=2, T=100), ckpt)
        argv = ["sample", "--config", str(run_config), "--denoiser", denoiser, flag,
                "--output-dir", str(tmp_path / "x")]
        if denoiser == "toy_checkpoint":
            argv += ["--checkpoint", str(ckpt)]
        rc = main(argv)
        _, err = read_out(capsys)
        assert rc == 1
        assert err == f"error: {flag.split('=')[0]} needs --denoiser {needs}\n"
        assert not (tmp_path / "x").exists()

    def test_checkpoint_is_refused_before_other_toy_flags(self, run_config, tmp_path, capsys):
        rc = main(["sample", "--config", str(run_config), "--condition-id", "3",
                   "--checkpoint", str(tmp_path / "toy.ckpt"), "--mu", "1"])
        _, err = read_out(capsys)
        assert rc == 1
        assert err == "error: --checkpoint needs --denoiser toy_checkpoint\n"

    def test_non_finite_checkpoint_exits_1(self, run_config, tmp_path, capsys):
        flat = ToyDenoiser(dim=2, T=100).flat.copy()
        flat[-1] = np.nan
        ckpt = write_checkpoint(tmp_path / "toy.ckpt", 2, 100, flat)
        rc = main(["sample", "--config", str(run_config), "--denoiser", "toy_checkpoint",
                   "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.startswith(f"error: {ckpt}: non-finite parameter nan")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_latents_exit_1_before_writing(self, run_config, tmp_path, capsys,
                                                      monkeypatch, value):
        class Spoiled(cli.GaussianOracleDenoiser):
            """The oracle, with one conditional value spoiled at step 1."""

            def bind_pair(self, c, shape, t_max):
                pair = super().bind_pair(c, shape, t_max)

                def spoiled(z_t, t):
                    eps_c, eps_u = pair(z_t, t)
                    if t == 1:
                        eps_c = eps_c.copy()
                        eps_c[-1] = value
                    return eps_c, eps_u

                return spoiled

        monkeypatch.setattr(cli, "GaussianOracleDenoiser", Spoiled)
        rc = main(["sample", "--config", str(run_config), "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err == "error: phase 2 (steps 88..1) produced non-finite latents (1 of 2 values)\n"
        assert not (tmp_path / "x" / "sample").exists()

    def test_lying_checkpoint_header_exits_1(self, run_config, tmp_path, capsys):
        # ~200 bytes whose header claims a 4-billion-dimensional model
        ckpt = write_checkpoint(tmp_path / "lying.ckpt", 2**32 - 1, 100, np.zeros(20))
        rc = main(["sample", "--config", str(run_config), "--denoiser", "toy_checkpoint",
                   "--checkpoint", str(ckpt), "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.startswith(f"error: {ckpt}: truncated checkpoint: 160 parameter bytes")
        assert not (tmp_path / "x").exists()

    def test_toy_checkpoint_requires_checkpoint_path(self, run_config, capsys):
        rc = main(["sample", "--config", str(run_config), "--denoiser", "toy_checkpoint"])
        _, err = read_out(capsys)
        assert rc == 1
        assert "--checkpoint" in err

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            (["sample"], "sampler:\n  T: '100'\n", "sampler.T"),
            (["sample"], "sampler:\n  w_low: '3'\n", "sampler.w_low"),
            (["sample"], "dataset_seed: 42.9\n", "dataset_seed"),
            (["plan", "--caption", "c"],
             "planner:\n  url: https://planner.test/v1/chat\n  model: m\n  timeout: '30'\n",
             "planner.timeout"),
        ],
    )
    def test_malformed_config_value_exits_1(self, tmp_path, capsys, argv, text, key):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text, encoding="utf-8")
        rc = main([argv[0], "--config", str(cfg), *argv[1:]])
        _, err = read_out(capsys)
        assert rc == 1
        assert key in err

    @pytest.mark.parametrize("flag, value", [
        ("--mode", "ddim"), ("--w-low", "nan"), ("--w-high", "inf"),
    ])
    def test_bad_sampler_flag_exits_1(self, run_config, tmp_path, capsys, flag, value):
        rc = main(["sample", "--config", str(run_config), flag, value,
                   "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert flag[2:].replace("-", "_") in err and value in err
        assert not (tmp_path / "x").exists()

    def test_T_above_bound_exits_1(self, run_config, tmp_path, capsys):
        # refused by name before any schedule array is built, not killed for memory
        rc = main(["sample", "--config", str(run_config), "--T", str(MAX_T + 1),
                   "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err == f"error: T must be at most MAX_T = {MAX_T}, got {MAX_T + 1}\n"
        assert not (tmp_path / "x").exists()

    def test_schedule_setting_is_gone(self, run_config, tmp_path, capsys):
        # sample runs on the cosine schedule only: no flag and no config key picks another
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", str(run_config), "--schedule", "cosine"])
        assert exc.value.code == 2
        assert "--schedule" in read_out(capsys)[1]
        cfg = tmp_path / "old.yaml"
        cfg.write_text("sampler:\n  schedule: cosine\n", encoding="utf-8")
        rc = main(["sample", "--config", str(cfg), "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert "unknown keys ['sampler.schedule']" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, text", [
        ("--mu", "nan", "mu must be finite"),
        ("--mu", "-inf", "mu must be finite"),
        ("--sigma2", "inf", "sigma2 must be positive and finite"),
        ("--sigma2", "nan", "sigma2 must be positive and finite"),
        ("--dim", "0", "--dim must be >= 1, got 0"),
        ("--dim", "-3", "--dim must be >= 1, got -3"),
    ])
    def test_bad_oracle_target_exits_1(self, run_config, tmp_path, capsys, flag, value, text):
        rc = main(["sample", "--config", str(run_config), f"{flag}={value}",
                   "--output-dir", str(tmp_path / "x")])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.startswith("error:") and text in err
        assert not (tmp_path / "x").exists()

    def test_short_checkpoint_header_exits_1(self, run_config, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"TOYDNZR\x00\x01\x00")
        rc = main(["sample", "--config", str(run_config),
                   "--denoiser", "toy_checkpoint", "--checkpoint", str(ckpt)])
        _, err = read_out(capsys)
        assert rc == 1
        assert err.startswith("error:") and f"{ckpt}: truncated checkpoint header" in err


def _write_scored_pair(tmp_path):
    """A JSONL truth and a TSV prediction whose clip rows interleave, with a
    truth-only clip, a prediction-only clip, a prediction-only label and a
    label swap (car predicted as dog)."""
    truth = tmp_path / "truth.jsonl"
    pred = tmp_path / "pred.tsv"
    truth.write_text(
        '{"clip_id": "a", "events": [{"label": "dog", "start": 0.5, "end": 2.0, "transcript": null},'
        ' {"label": "Speech", "start": 3.0, "end": 5.5, "transcript": "hello there"},'
        ' {"label": "dog", "start": 6.0, "end": 7.25, "transcript": null}]}\n'
        '{"clip_id": "b", "events": [{"label": "Speech", "start": 1.0, "end": 4.0,'
        ' "transcript": "good night"}, {"label": "car", "start": 4.5, "end": 9.0}]}\n'
        '{"clip_id": "t-only", "events": [{"label": "car", "start": 2.0, "end": 3.0}]}\n'
    )
    pred.write_text(
        "a\tdog\t0.6\t2.1\n"
        "b\tSpeech\t1.15\t3.9\n"
        "a\tSpeech\t3.2\t5.5\n"
        "b\tdog\t4.5\t9.0\n"
        "a\tdog\t6.3\t7.25\n"
        "p-only\tcar\t1.0\t2.0\n"
        "a\tbird\t8.0\t9.0\n"
    )
    return truth, pred


# recorded with the object-per-event reader; the report stays byte-identical
SCORED_PAIR_REPORT = """\
Event-based scores (Eb)
  onset collar 0.20 s; offset collar max(0.20 s, 0.20 x truth length)
  micro: P 42.9  R 50.0  F1 46.2  (tp=3 fp=4 fn=3)
  macro F1: 46.7
  per class:
    Speech: P 100.0  R 100.0  F1 100.0  (tp=2 fp=0 fn=0)
    bird: P 0.0  R 0.0  F1 0.0  (tp=0 fp=1 fn=0)
    car: P 0.0  R 0.0  F1 0.0  (tp=0 fp=1 fn=2)
    dog: P 33.3  R 50.0  F1 40.0  (tp=1 fp=2 fn=1)
Clip-level macro F1 (At): 55.6
"""


class TestEvaluate:
    def test_truth_vs_truth_is_perfect(self, run_config, tmp_path, capsys):
        rc = main(["simulate", "--config", str(run_config), "--count", "3"])
        assert rc == 0
        manifest = tmp_path / "out" / "scenes.jsonl"
        rc = main(["evaluate", "--truth", str(manifest), "--pred", str(manifest)])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "F1 100.0" in out
        assert "Clip-level macro F1 (At): 100.0" in out

    @pytest.mark.parametrize("side", ["truth", "pred"])
    def test_manifest_byte_that_is_not_utf8_names_path_and_line(self, tmp_path, capsys, side):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        rows = [json.dumps({"clip_id": f"c{i}", "events": [{"label": "dog", "start": 1.0, "end": 2.0}]})
                for i in range(1000)]
        good.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rows[600] = rows[600].replace('"dog"', '"caf\xe9"')
        bad.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
        truth, pred = (bad, good) if side == "truth" else (good, bad)
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred)])
        out, err = read_out(capsys)
        assert rc == 1 and out == ""
        assert err == f"error: {bad}:601: not UTF-8: invalid continuation byte at byte 45\n"

    def test_partial_match_scores_66_7(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        pred = tmp_path / "pred.tsv"
        truth.write_text("c1\tdog\t1.0\t2.0\nc1\tdog\t4.0\t5.0\nc1\tcar\t6.0\t7.0\n")
        pred.write_text("c1\tdog\t1.1\t2.1\nc1\tdog\t8.0\t9.0\nc1\tcar\t6.05\t7.05\n")
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred)])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "F1 66.7" in out

    def test_collar_flags_change_the_score(self, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        pred = tmp_path / "pred.tsv"
        truth.write_text("c1\tdog\t1.0\t2.0\n")
        pred.write_text("c1\tdog\t1.5\t2.5\n")
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred)])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "F1 0.0" in out
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred),
                   "--onset-collar", "0.6", "--offset-collar-abs", "0.6"])
        out, _ = read_out(capsys)
        assert rc == 0
        assert "F1 100.0" in out

    @pytest.mark.parametrize("flag", ["--onset-collar", "--offset-collar-abs",
                                      "--offset-collar-rel"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_collar_rejected(self, tmp_path, capsys, flag, value):
        truth = tmp_path / "t.tsv"
        truth.write_text("c\tdog\t1.0\t2.0\n")
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(truth), flag, value])
        out, err = read_out(capsys)
        assert rc == 1
        assert flag[2:].replace("-", "_") in err
        assert "F1" not in out

    @pytest.mark.parametrize("seconds", ["0", "10000000"])
    def test_onset_collar_edge_holds_at_any_time(self, tmp_path, capsys, seconds):
        truth, pred = tmp_path / "t.tsv", tmp_path / "p.tsv"
        truth.write_text(f"c\tdog\t{seconds}.01\t{seconds}.51\n")
        pred.write_text(f"c\tdog\t{seconds}.21\t{seconds}.71\n")
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred)])
        out, err = read_out(capsys)
        assert (rc, err) == (0, "")
        assert "F1 100.0  (tp=1 fp=0 fn=0)" in out

    def test_collars_past_every_time_match_everything(self, tmp_path, capsys):
        truth, pred = tmp_path / "t.tsv", tmp_path / "p.tsv"
        truth.write_text("c\tdog\t0.00\t0.50\n")
        pred.write_text("c\tdog\t9999999999999.00\t9999999999999.99\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflowing collar product is no warning
            rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred), "--onset-collar",
                       "1e300", "--offset-collar-abs", "1e308", "--offset-collar-rel", "1e308"])
        out, err = read_out(capsys)
        assert (rc, err) == (0, "")
        assert "F1 100.0  (tp=1 fp=0 fn=0)" in out
        # collars at or past MAX_SECONDS print in g form, not as 300-digit decimals
        assert out.splitlines()[1] == (
            "  onset collar 1e+300 s; offset collar max(1e+308 s, 1e+308 x truth length)"
        )

    def test_report_file_written(self, tmp_path, capsys):
        truth = tmp_path / "t.tsv"
        truth.write_text("c\tdog\t1.0\t2.0\n")
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(truth),
                   "--report", str(report)])
        out, _ = read_out(capsys)
        assert rc == 0
        assert report.read_text().strip() == out.strip()

    def test_failed_report_write_keeps_previous_report(self, tmp_path, capsys, monkeypatch):
        truth, pred = _write_scored_pair(tmp_path)
        report = tmp_path / "report.txt"
        report.write_text("previous report\n")
        fail_writes_partway(monkeypatch)
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred), "--report", str(report)])
        _, err = read_out(capsys)
        assert rc == 1 and "No space left on device" in err
        assert report.read_bytes() == b"previous report\n"
        assert not [f for f in tmp_path.iterdir() if f.name.startswith(".")]

    def test_huge_integer_time_names_line(self, tmp_path, capsys):
        truth = tmp_path / "t.jsonl"
        truth.write_text('{"clip_id": "c", "events": [{"label": "dog", "start": %s, "end": 2}]}\n'
                         % ("9" * 400))
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(truth)])
        out, err = read_out(capsys)
        assert rc == 1
        assert err == (f"error: {truth}:1: malformed event record: "
                       "TimeSpan.start must be below 1e+13 s in magnitude\n")
        assert "F1" not in out

    def test_report_is_pinned_byte_for_byte(self, tmp_path, capsys):
        truth, pred = _write_scored_pair(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred), "--report", str(report)])
        out, _ = read_out(capsys)
        assert rc == 0
        assert out == SCORED_PAIR_REPORT + "\n"
        assert report.read_bytes() == (SCORED_PAIR_REPORT + "\n").encode()

    def test_reads_and_scores_without_event_objects(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an event object was built")

        monkeypatch.setattr(EventAnnotation, "__init__", refuse)
        monkeypatch.setattr(TimeSpan, "__init__", refuse)
        truth, pred = _write_scored_pair(tmp_path)
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred)])
        out, err = read_out(capsys)
        assert (rc, err) == (0, "")
        assert out == SCORED_PAIR_REPORT + "\n"

    def test_byte_order_mark_is_not_part_of_the_first_clip_id(self, tmp_path, capsys):
        truth, pred = tmp_path / "t.tsv", tmp_path / "p.tsv"
        truth.write_text("\ufeffc1\tdog\t1.0\t2.0\n", encoding="utf-8")
        pred.write_text("c1\tdog\t1.0\t2.0\n", encoding="utf-8")
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(pred)])
        out, err = read_out(capsys)
        assert (rc, err) == (0, "")
        assert "F1 100.0  (tp=1 fp=0 fn=0)" in out

    def test_missing_truth_file_names_path(self, tmp_path, capsys):
        pred = tmp_path / "p.tsv"
        pred.write_text("c\tdog\t1.0\t2.0\n")
        rc = main(["evaluate", "--truth", str(tmp_path / "ghost.tsv"), "--pred", str(pred)])
        _, err = read_out(capsys)
        assert rc == 1
        assert "ghost.tsv" in err

    def test_missing_pred_file_names_path(self, tmp_path, capsys):
        truth = tmp_path / "t.tsv"
        truth.write_text("c\tdog\t1.0\t2.0\n")
        rc = main(["evaluate", "--truth", str(truth), "--pred", str(tmp_path / "gone.tsv")])
        _, err = read_out(capsys)
        assert rc == 1
        assert "gone.tsv" in err


class TestParserSurface:
    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, _ = read_out(capsys)
        for name in ("parse", "fmt", "tokenize", "simulate", "ingest",
                     "plan", "sample", "evaluate"):
            assert name in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        out, _ = read_out(capsys)
        for flag in ("--config", "--count", "--output-dir", "--workers"):
            assert flag in out

    def test_sample_help_lists_override_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        out, _ = read_out(capsys)
        for flag in ("--denoiser", "--checkpoint", "--condition-id", "--mu",
                     "--sigma2", "--dim", "--T", "--t1",
                     "--w-low", "--w-high", "--mode", "--seed", "--output-dir"):
            assert flag in out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fmt", "x @{a & <0,1>}", "--frobnicate"])
        assert exc.value.code == 2
        _, err = read_out(capsys)
        assert "frobnicate" in err

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_no_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_successive_calls_do_not_leak_arguments(self, run_config, tmp_path, capsys):
        # main parses every call with one parser per process
        prompt = 'x @{a man & <0,1> "hello"}'
        assert main(["sample", "--config", str(run_config), "--T", "50", "--t1", "10",
                     "--w-low", "1", "--output-dir", str(tmp_path / "a")]) == 0
        read_out(capsys)
        assert main(["tokenize", "--ids", prompt]) == 0
        ids_out, _ = read_out(capsys)
        assert main(["sample", "--config", str(run_config),
                     "--output-dir", str(tmp_path / "b")]) == 0
        read_out(capsys)
        assert main(["tokenize", prompt]) == 0
        tokens_out, _ = read_out(capsys)
        assert all(tok.isdigit() for tok in ids_out.split())
        assert "<SPK>" in tokens_out
        # the second sample ran on the config alone, as a fresh parser would
        fresh = cli.build_parser().parse_args(
            ["sample", "--config", str(run_config), "--output-dir", str(tmp_path / "c")]
        )
        assert fresh.func(fresh) == 0
        b, c = tmp_path / "b" / "sample", tmp_path / "c" / "sample"
        assert (b / "latents.npy").read_bytes() == (c / "latents.npy").read_bytes()
        assert (b / "steps.log").read_bytes() == (c / "steps.log").read_bytes()
        assert len((b / "steps.log").read_text().splitlines()) == 101
        for argv in (["fmt", prompt], ["tokenize", prompt], ["sample", "--config", "x.yaml"]):
            assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal takes about a second to import and only resampling
        # needs it; scipy.io (WAV reading) and scipy.sparse (the matcher)
        # are likewise loaded on first use, and the planner's HTTP stack
        # (urllib.request, http.client) on its first request; PyYAML on the
        # first config read; the executors (concurrent.futures) when simulate
        # runs, and the process pool (concurrent.futures.process,
        # multiprocessing) only when it runs more than one worker
        import soundscene

        src = str(Path(soundscene.__file__).resolve().parents[1])
        lazy = ("scipy.signal", "scipy.io", "scipy.sparse", "requests", "urllib.request",
                "http.client", "yaml", "concurrent.futures", "concurrent.futures.process",
                "multiprocessing")
        code = f"import sys, soundscene.cli; print([m for m in {lazy!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
