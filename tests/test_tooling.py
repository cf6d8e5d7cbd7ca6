"""The benchmark's tracer (``perfbench/tracing.py``) wraps lsar functions by
name; a renamed or deleted entry point must fail here, not only in a traced
benchmark run."""

import importlib.util
import os

import lsar.recursion

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_entry_point():
    tracing = _load_tracing()
    original = lsar.recursion.approximate_sweep
    with tracing.Tracer() as tracer:
        assert lsar.recursion.approximate_sweep is not original
    assert tracer.missing == []
    assert lsar.recursion.approximate_sweep is original
