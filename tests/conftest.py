import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker counts of the pools `run_monte_carlo` opens, one entry per
    pool; each pool maps its blocks in this process."""
    from addcoal import experiment

    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    return opened
