"""The benchmark in bench/ times the program by wrapping module attributes
by name (``cli.write_jsonl_atomic``, ``scene.mix_at_snr`` ...).  A renamed
or removed name would otherwise fail only in a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

from soundscene import cli
from soundscene.toytrain import ToyDenoiser

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


def test_every_trace_point_binds(workloads):
    missing = {}
    for name, cls in workloads.WORKLOADS.items():
        points = cls.trace_points(cls.__new__(cls))
        assert points, name
        missing[name] = [f"{owner.__name__}.{attr}" for owner, attr, _ in points
                         if not hasattr(owner, attr)]
    assert missing == {name: [] for name in workloads.WORKLOADS}


def test_entry_points_bind():
    # bench/workloads.py drives every command through cli.main and wraps a
    # loaded denoiser's predict
    assert callable(cli.main)
    assert callable(ToyDenoiser(dim=2, T=10).predict)
