"""Span tracing of the package's public functions, bound from outside.

No source file is edited: for a traced run each function listed in
`TRACED` is replaced, in every ``brickwork_ep`` module that holds it, by a
wrapper that records a span (name, start, end, parent, call id) and the
counters of `COUNTERS`.  Spans stay in memory until the run ends.  Span
times are process CPU time, like the call times of ``run.py``.
"""

import functools
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

TRACED = (
    "gates.build_gate_set",
    "superop.build_superoperator",
    "superop.block_reduce",
    "superop.choi_min_eigenvalue",
    "superop.steady_state",
    "linalg.eig_general",
    "linalg.jordan_certificate",
    "linalg.match_spectra",
    "spectrum.critical_epsilon",
    "spectrum.analytic_spectrum",
    "spectrum.certify_ep",
    "dynamics.evolve",
    "dynamics.observable_series",
    "dynamics.classify_regime",
    "continuum.composite_trotter_check",
    "cli.main",
    "cli.write_table",
)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# counter name -> (traced function, amount the function's result adds)
COUNTERS = {
    "spectrum.certify_ep.certified": ("spectrum.certify_ep", lambda a, k, r: int(r.certified)),
    "linalg.eig_general.near_defective": ("linalg.eig_general",
                                          lambda a, k, r: int(r.near_defective)),
    "dynamics.observable_series.expansion_skipped": (
        "dynamics.observable_series", lambda a, k, r: int(r.expansion_deviation is None)),
    "dynamics.classify_regime.conclusive": ("dynamics.classify_regime",
                                            lambda a, k, r: int(r.regime is not None)),
    "cli.write_table.bytes": ("cli.write_table", _written_bytes),
}

# Span record fields.
NAME, START, END, PARENT, CALL, CHILD_S, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call_id = 0
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        counters = [(c, add) for c, (f, add) in COUNTERS.items() if f == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, time.process_time(), 0.0, parent, self.call_id, 0.0, False]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.process_time()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][CHILD_S] += span[END] - span[START]
            for counter, add in counters:
                self.counts[counter] += add(args, kwargs, result)
            return result

        return wrapper

    def calls(self) -> Counter:
        return Counter(span[NAME] for span in self.spans)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """F.calls, F.self_ms, F.p50_us and F.errors for every traced F, plus counters."""
        by_name: dict[str, list] = {name: [] for name in TRACED}
        for span in self.spans:
            by_name[span[NAME]].append(span)
        out = {}
        for name, spans in by_name.items():
            durations = [s[END] - s[START] for s in spans]
            out[f"{name}.calls"] = (len(spans), "count")
            out[f"{name}.self_ms"] = (sum(d - s[CHILD_S] for d, s in zip(durations, spans)) * 1e3,
                                      "ms")
            out[f"{name}.p50_us"] = (statistics.median(durations) * 1e6 if spans else 0.0, "us")
            out[f"{name}.errors"] = (sum(s[ERROR] for s in spans), "count")
        calls = self.calls()

        def ratio(counter, fn):
            return self.counts[counter] / calls[fn] if calls[fn] else 0.0

        out["spectrum.certify_ep.certified_ratio"] = (
            ratio("spectrum.certify_ep.certified", "spectrum.certify_ep"), "ratio")
        out["linalg.eig_general.near_defective"] = (
            self.counts["linalg.eig_general.near_defective"], "count")
        out["dynamics.observable_series.expansion_skipped"] = (
            self.counts["dynamics.observable_series.expansion_skipped"], "count")
        out["dynamics.classify_regime.conclusive_ratio"] = (
            ratio("dynamics.classify_regime.conclusive", "dynamics.classify_regime"), "ratio")
        out["cli.write_table.bytes"] = (self.counts["cli.write_table.bytes"], "bytes")
        return out


@contextmanager
def traced(tracer: Tracer):
    """Bind a wrapper of every `TRACED` function wherever the package holds it."""
    modules = [m for n, m in sys.modules.items()
               if n == "brickwork_ep" or n.startswith("brickwork_ep.")]
    patches = []
    for name in TRACED:
        module, attr = name.split(".")
        fn = getattr(sys.modules[f"brickwork_ep.{module}"], attr)
        wrapper = tracer.wrap(name, fn)
        for m in modules:
            patches += [(m, key, fn, wrapper) for key, value in vars(m).items() if value is fn]
    for m, key, _, wrapper in patches:
        setattr(m, key, wrapper)
    try:
        yield tracer
    finally:
        for m, key, fn, _ in patches:
            setattr(m, key, fn)


def import_times(src: str, env: dict) -> dict[str, float]:
    """Cumulative import time in ms of scipy.linalg and brickwork_ep, from a
    fresh ``-X importtime`` interpreter."""
    code = f"import sys; sys.path.insert(0, {src!r}); import brickwork_ep.cli"
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(3) in ("scipy.linalg", "brickwork_ep"):
            found[m.group(3)] = int(m.group(2)) / 1e3
    return found
