"""Tests for the ordered process fan-out and its worker-count rule."""

import concurrent.futures

import pytest

from pcmaudit import GeneratorConfig, ValidationError, run_simulation
from pcmaudit import fanout
from pcmaudit.cli import main
from pcmaudit.fanout import ordered_map


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def fake_pool(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(fanout.os, "cpu_count", lambda: 3)
    return RecordingPool.sizes


def test_results_come_back_in_task_order(fake_pool):
    tasks = [(2, k) for k in range(6)]
    assert list(ordered_map(pow, tasks, workers=2)) == [1, 2, 4, 8, 16, 32]
    assert fake_pool == [2]


def test_workers_are_capped_at_the_cpu_count(fake_pool):
    assert list(ordered_map(pow, [(3, 1), (3, 2)], workers=64)) == [3, 9]
    assert fake_pool == [3]


def test_serial_runs_start_no_pool(fake_pool):
    assert list(ordered_map(pow, [(2, 3), (2, 4)], workers=1)) == [8, 16]
    assert list(ordered_map(pow, [(2, 5)], workers=8)) == [32]
    assert list(ordered_map(pow, [], workers=8)) == []
    assert fake_pool == []


@pytest.mark.parametrize("workers", [0, -3])
def test_rejects_workers_below_one(workers):
    with pytest.raises(ValidationError, match="workers"):
        list(ordered_map(pow, [(2, 1)], workers))


def test_simulation_caps_a_large_worker_count(fake_pool):
    config = GeneratorConfig(n=4, scale="discrete", seed=9)
    capped = run_simulation(config, 20_000, beta=0.1, factor=1.01, workers=1000)
    assert fake_pool == [3]
    assert capped == run_simulation(config, 20_000, beta=0.1, factor=1.01)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--scale", "discrete", "--seed", "1", "--iters", "10",
     "--preset", "fig2"],
    ["enumerate", "--preset", "fig3", "--stride", "3000000"],
    ["ri", "--n", "4", "--scale", "discrete", "--samples", "100", "--seed", "1"],
])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(argv, workers, capsys):
    assert main(argv + ["--workers", workers]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
