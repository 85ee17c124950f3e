#!/usr/bin/env python3
"""Smoke test of the benchmark at its smallest size.

    python3 bench/smoke.py

Runs every workload for one second untraced, and once traced, and asserts
that every metric the benchmark defines is printed by name with its unit
and appears, with the same unit, in the final JSON line.  Then runs the
benchmark in a directory that holds only ``BENCHMARK.json`` and the
benchmark's files, where it must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics the benchmark was defined with; failed_frac is
# printed but not gated, since it is 0 on a correct program.
DEFINED_END_TO_END = {"throughput_per_s", "call_p50_ms", "call_tail_ms", "failed_frac",
                      "setup_s", "peak_rss_mb"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit from the 'metric <name> = <value> <unit>' lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ")
            out[name] = rest.split()[1]
    return out


def check_run(workload: str, trace: int):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, set(got) ^ set(expected)
    printed = printed_metrics(proc.stdout)
    for name, unit in expected.items():
        assert printed.get(name) == unit, (name, printed.get(name), unit)
    assert printed.get("failed_frac") == "ratio"
    if not trace:
        assert DEFINED_END_TO_END <= set(printed), DEFINED_END_TO_END - set(printed)


def check_without_package():
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns(".tmp-*", "__pycache__"))
        proc = run("ep-surface", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"ok {workload} trace={trace}")
    check_without_package()
    print("ok without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
