"""The scripts under scripts/ run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from soundscene import cli
from soundscene.toytrain import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]


def _call(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def _run(*argv):
    proc = _call(*argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_script(name, *args):
    return _run(str(ROOT / "scripts" / name), *args)


@pytest.mark.parametrize(
    "name,args,message",
    [
        ("guidance_sweep.py", ("--n", "0"), "--n must be >= 1, got 0"),
        ("guidance_sweep.py", ("--n", "-5"), "--n must be >= 1, got -5"),
        ("guidance_sweep.py", ("--t1", "11", "--T", "10"), "t1 must be an integer in [0, T=10], got 11"),
        ("guidance_sweep.py", ("--T", "0"), "T must be an integer >= 1, got 0"),
        ("guidance_sweep.py", ("--sigma2", "0"), "sigma2 must be positive and finite, got 0.0"),
        ("guidance_sweep.py", ("--w-high", "-1"), "w_high must be finite and >= 0, got -1.0"),
        ("guidance_sweep.py", ("--seed", "-1"), "--seed must be >= 0, got -1"),
        ("run_curriculum.py", ("--steps", "0"), "stage 'stage1': steps, batch_size must be positive"),
        ("run_curriculum.py", ("--batch-size", "0"), "stage 'stage1': steps, batch_size must be positive"),
        ("run_curriculum.py", ("--lr", "0"), "lr positive and finite, got (300, 64, 0.0)"),
        ("run_curriculum.py", ("--dim", "0"), "--dim must be >= 1, got 0"),
        ("run_curriculum.py", ("--dataset-size", "0"), "--dataset-size must be >= 1, got 0"),
        ("run_curriculum.py", ("--T", "0"), "T must be an integer >= 1, got 0"),
        ("run_curriculum.py", ("--seed", "-1"), "--seed must be >= 0, got -1"),
        ("make_demo_pools.py", ("--speakers", "0"), "n_speakers must be >= 1, got 0"),
        ("make_demo_pools.py", ("--utterances-per-speaker", "-2"),
         "utterances_per_speaker must be >= 1, got -2"),
        ("make_demo_pools.py", ("--backgrounds", "0"), "n_backgrounds must be >= 1, got 0"),
        ("make_demo_pools.py", ("--seed", "-1"), "seed must be >= 0, got -1"),
    ],
    ids=repr,
)
def test_bad_arguments_are_usage_errors(name, args, message, tmp_path):
    # one argparse error line and exit 2, before any output: no traceback,
    # no table of nan rows, no file written under the working directory
    proc = _call(str(ROOT / "scripts" / name), *args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith(f"{name}: error: ") and message in last, last


def test_run_curriculum_saves_a_loadable_checkpoint(tmp_path):
    ckpt = tmp_path / "toy.ckpt"
    out = _run_script("run_curriculum.py", "--steps", "3", "--dataset-size", "32", "--T", "10",
                      "--checkpoint", str(ckpt))
    lines = out.splitlines()
    assert lines[0].split() == ["stage", "text", "text_timing", "full"]
    assert [line.split()[0] for line in lines[1:5]] == ["zero", "after", "after", "after"]
    assert lines[-1] == f"checkpoint: {ckpt}"
    loaded = load_checkpoint(ckpt)
    assert (loaded.dim, loaded.T) == (4, 10)


def test_guidance_sweep_prints_one_row_per_t1():
    out = _run_script("guidance_sweep.py", "--T", "10", "--n", "50", "--t1", "0", "5", "10")
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["0", "5", "10"]
    assert all(len(row) == 4 for row in rows)


def test_demo_pools_feed_simulate(tmp_path):
    # the Quickstart's first two commands
    out = _run_script("make_demo_pools.py", "--root", str(tmp_path / "demo"))
    assert out.splitlines()[-1] == f"run config:      {tmp_path / 'demo' / 'run.yaml'}"
    _run("-m", "soundscene.cli", "simulate", "--config", str(tmp_path / "demo" / "run.yaml"), "--count", "3")
    assert len((tmp_path / "demo" / "out" / "scenes.jsonl").read_text().splitlines()) == 3


def test_small_demo_pools_feed_simulate(tmp_path):
    # every size flag, then simulate in-process on the pools they sized
    out = _run_script("make_demo_pools.py", "--root", str(tmp_path), "--speakers", "2",
                      "--utterances-per-speaker", "4", "--backgrounds", "1")
    speech, background, config = (line.split(":", 1)[1].strip() for line in out.splitlines())
    assert len(Path(speech).read_text().splitlines()) == 2 * 4
    assert len(Path(background).read_text().splitlines()) == 1
    assert cli.main(["simulate", "--config", config, "--count", "5"]) == 0
    assert len((tmp_path / "out" / "scenes.jsonl").read_text().splitlines()) == 5
