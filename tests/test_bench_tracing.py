"""The traced benchmark binds functions by module and name; a refactor that
renames or moves one of them must fail here rather than silently drop it
from the traced run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"brickwork_ep.{module}"), attr, None)
        assert callable(fn), name
