"""The benchmark's per-layer tracer must still find every hook it needs.

``benchmarks/tracing.py`` rebinds package functions by name. A renamed or
removed function should fail here, not only in a ``--trace 1`` benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import pcmaudit.simulate
from pcmaudit import GeneratorConfig, enumerate_n4_discrete, run_simulation

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_every_required_hook_resolves(tracing):
    # entering raises AttributeError when a required hook is gone
    with tracing.Tracer() as tracer:
        for absent in tracer.absent:
            assert absent.rsplit(".", 1)[1] in tracing.OPTIONAL
        assert hasattr(pcmaudit.simulate.simulate_chunk, "__wrapped__")
    assert not hasattr(pcmaudit.simulate.simulate_chunk, "__wrapped__")


def test_traced_batch_paths_report_their_layers(tracing):
    with tracing.Tracer() as tracer:
        run_simulation(GeneratorConfig(4, "discrete", 5), 2000, beta=0.1, factor=1.01)
        enumerate_n4_discrete(0.1, [1.01], stride=400_000)
        # most n = 6 matrices flag, so their audit solves each predicted entry first
        run_simulation(GeneratorConfig(6, "discrete", 5), 2000, beta=0.1, factor=1.01)
    metrics = tracer.layer_metrics()
    assert metrics["bulk.audit_flagged"] > 0
    assert metrics["simulate.min_example_s"] > 0
    # the min-example search reads its witness off the audit or, after a
    # predicted entry flagged, solves for it with chord steps: no squaring
    assert metrics["simulate.min_example_solves"] == 0
