import os

import pytest

from fixtures import LoopbackPlanner
from soundscene.demo import build_demo_pools
from soundscene.scene import load_background_pool, load_speech_pool


@pytest.fixture(scope="session")
def demo_pool_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("demo_pools")
    build_demo_pools(root, seed=0)
    return root


@pytest.fixture(scope="session")
def speech_pool(demo_pool_dir):
    return load_speech_pool(demo_pool_dir / "speech_manifest.jsonl")


@pytest.fixture(scope="session")
def background_pool(demo_pool_dir):
    return load_background_pool(demo_pool_dir / "background_manifest.jsonl")


@pytest.fixture
def planner_server(monkeypatch):
    """Start loopback planner servers: ``planner_server(*replies)`` returns a
    running LoopbackPlanner.  Proxy variables are cleared so the client
    connects to it directly; every server started is shut down after the test."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    servers = []

    def start(*replies):
        servers.append(LoopbackPlanner(replies))
        return servers[-1]

    yield start
    for server in servers:
        server.close()
