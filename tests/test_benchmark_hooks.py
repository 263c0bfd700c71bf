"""The benchmark's tracer (perfbench/tracing.py) times solver layers by
replacing module attributes of nladmm. Every attribute it names must
still exist, so a refactor that renames or inlines a traced layer fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

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
