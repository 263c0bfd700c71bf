"""The benchmark's tracer (perfbench/tracing.py) times solver layers by
replacing module attributes of nladmm. Every attribute it names must
still exist, so a refactor that renames or inlines a traced layer fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from nladmm import inner, maxop, sphere

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_resolve():
    layers = _traced_layers()
    missing = [f"nladmm.{mod}.{attr}" for mod, attr, _ in layers
               if not callable(getattr(importlib.import_module(f"nladmm.{mod}"), attr, None))]
    assert layers and not missing


def test_fista_is_a_tombstone_while_the_tracer_wraps_it():
    """``fista`` is one retired name that raises, kept only because the
    tracer still wraps it under sphere and maxop. A change that drops those
    layers fails here until it deletes the name too."""
    layers = {(mod, attr) for mod, attr, _ in _traced_layers()}
    assert {("sphere", "fista"), ("maxop", "fista")} <= layers
    assert sphere.fista is maxop.fista is inner.fista
    with pytest.raises(NotImplementedError, match="fista is retired"):
        inner.fista()
