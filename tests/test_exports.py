"""Each public name has one import path, its own module: every exported
name resolves in its module, and no two modules export one name."""

import importlib
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import soundscene

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(soundscene.__path__, prefix="soundscene.")
)
# the command line is an entry point, not part of the library surface
LIBRARY_MODULES = [name for name in MODULES if name != "soundscene.cli"]


def _unresolved(module) -> list[str]:
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def _module_exports() -> list[str]:
    return [n for name in LIBRARY_MODULES for n in importlib.import_module(name).__all__]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(name)
    assert _unresolved(module) == []


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_library_module_declares_all(name):
    assert isinstance(importlib.import_module(name).__all__, list)


def test_no_name_exported_by_two_modules():
    assert [n for n, count in Counter(_module_exports()).items() if count > 1] == []



# a fresh interpreter that cannot import numpy, scipy or PyYAML
_TEXT_LAYER_ALONE = """
import sys
from importlib.abc import MetaPathFinder


class Refuse(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy", "yaml"):
            raise ModuleNotFoundError(f"refused: {name}", name=name)


sys.meta_path.insert(0, Refuse())
import soundscene.manifest
from soundscene.dsl import parse, serialize
from soundscene.phonemes import build_vocab, load_default_lexicon, render_tokens, tokenize_prompt

prompt = parse('rain @{a man & <4,6> "hello"}')
lex = load_default_lexicon()
vocab = build_vocab(serialize(prompt), lex)
print(serialize(prompt))
print(render_tokens(tokenize_prompt(prompt, vocab, lex), vocab))
"""


def test_text_layer_runs_on_the_stdlib_alone():
    src = str(Path(soundscene.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _TEXT_LAYER_ALONE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        'rain @{a man & <4.00,6.00> "hello"}\n'
        "rain @{a man & <4.00,6.00> <SPK> HH AH0 L OW1 </SPK>}\n"
    )
