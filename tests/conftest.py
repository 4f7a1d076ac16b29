from concurrent.futures import Future

import hypothesis
import pytest

import series_oracle
from qrr.identities import engine

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("suite")


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the engine's process pool with a stand-in that runs each
    submitted call at once in this process; returns the ``max_workers`` of
    every pool constructed, in order."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Pool)
    return sizes


@pytest.fixture
def series_route(monkeypatch):
    """Every check of term lists on the series route: ``sum_sides`` of the
    oracle in ``series_oracle`` installed where ``framework`` and
    ``telescoping`` call it, each side summed on the list kernels."""
    series_oracle.install(monkeypatch)
