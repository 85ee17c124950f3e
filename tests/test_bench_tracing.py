"""The traced benchmark binds functions by module and name; a refactor that
renames or moves one of them must fail here rather than silently drop it
from the traced run."""

import importlib
import importlib.util
from pathlib import Path

from brickwork_ep import (ParameterPoint, coherence_probe, critical_epsilon,
                          observable_series, reference_initial_state, superoperator_at)

from conftest import GAMMA_A, X_A

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


def _reference_calls(tmp_path):
    """traced function -> (args, kwargs) of one call on a reference input."""
    ep = ParameterPoint.easy_plane(X_A, GAMMA_A, critical_epsilon(X_A, GAMMA_A))
    below = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(below)
    record = observable_series(s, reference_initial_state(), coherence_probe(), 40)
    return {
        "spectrum.certify_ep": ((ep,), {}),
        "linalg.eig_general": ((s.matrix,), {}),
        "dynamics.observable_series": ((s, reference_initial_state(), coherence_probe(), 40), {}),
        "dynamics.classify_regime": ((below, record), {}),
        "cli.write_table": ((str(tmp_path / "t.csv"), "csv", {"k": 1}, ["a"], [(1.0,)]), {}),
    }


def test_counters_read_traced_results(tmp_path):
    # each counter's lambda is evaluated on a real result of its traced
    # function, so a deleted or renamed result field fails here
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    calls = _reference_calls(tmp_path)
    assert {fn for fn, _ in tracing.COUNTERS.values()} == set(calls)
    for counter, (name, add) in tracing.COUNTERS.items():
        module, attr = name.split(".")
        args, kwargs = calls[name]
        result = getattr(importlib.import_module(f"brickwork_ep.{module}"), attr)(*args, **kwargs)
        assert add(args, kwargs, result) >= 0, counter
