"""README.md's Python examples run as written, against demo pools built
the way its Quickstart builds them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_blocks_run_in_one_namespace(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert blocks
    # the Quickstart's first command, from the directory the examples run in
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_demo_pools.py"), "--root", "demo"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True, capture_output=True, timeout=120,
    )
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert namespace["z0"].shape == (2,)
    assert (tmp_path / "toy.ckpt").is_file()
