"""Seeded inputs of the brickwork-ep benchmark workloads.

A workload is an endless sequence of cycles.  Cycle ``i`` of seed ``s`` is
drawn from ``numpy.random.default_rng([s, i])`` alone, so a run that does
more cycles sees the same first cycles, and a fixed prefix of cycles is a
fixed input.  Each cycle alternates the two variants a workload has, so
per-cycle throughput mixes them in a fixed ratio.

Why these workloads:

ep-surface
    Each call is one ``ep-scan`` over a 10x20 (gamma, x) grid at theta = 0;
    the grid ends are jittered inside the domain.  Calls alternate between
    the README's domain, gamma in [0.35, 1.57] and x in [0.05, 1.2], and a
    wide domain, gamma in [0.05, pi/2] and x in [0.05, 3].  The closed forms
    and ``linalg.jordan_certificate`` (``la.eig`` plus a sorted Schur) do
    most of the work; ``eig_general`` and ``dynamics`` are not used.  The
    wide half shows the ``critical_epsilon`` cancellation defect: at large
    x and small gamma the closed form loses up to 1e-6 of relative
    accuracy, so the discriminant residual exceeds its tolerance and the
    point comes back uncertified.  x stops at 3 because near x = 6 the
    critical epsilon underflows to 0 and ``ep_scan`` aborts the whole grid.
phase-sweeps
    theta is drawn from [0.05, 1.5], never 0, so no closed form applies.
    Each session runs one ``bifurcate`` sweep (an epsilon sweep
    ``0.05:0.95:50`` or an x sweep ``0.05:1.5:50``), one ``spectrum`` call
    at a point of that sweep, and the CPTP diagnostics at that point and at
    one easy-axis point.  The work is in assembly, dense eigensolves, the
    Choi check and ``cli.write_table``; a theta = 0 shortcut that slows the
    dense path shows here.
ep-probe
    A session at an EP point: epsilon0 in [0.2, 0.6], gamma in [0.4, 1.4]
    and x placed on the EP surface.  It runs ``spectrum`` at the EP, one
    ``evolve`` with delta = 0.01 whose ``--n-max`` alternates between 200
    and 2000, and one ``trotter`` call.  The per-step loops of
    ``dynamics.evolve`` and ``observable_series`` dominate.  At n_max = 2000
    |mu|^n underflows (near n = 1548 at |mu| = 0.632): the rescaled series
    becomes inf, or loses precision once <g[n]> is subnormal, and the
    regime tags read ``inconclusive``; those tags count as failed.

Run as a script, the module imports the package and generates the inputs
of the traced schedule; ``run.py`` times that in fresh interpreters as the
set-up cost.
"""

import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("ep-surface", "phase-sweeps", "ep-probe")

# Cycles in the fixed schedule of a traced run.  Each takes a few seconds.
TRACE_CYCLES = {"ep-surface": 4, "phase-sweeps": 16, "ep-probe": 4}
# Cycles at the head of an untraced run whose outputs are the run's checked
# set, about 8 s of calls.  Every run completes them whatever the host
# speed, so the checked outputs and their misses depend on the seed alone.
CHECKED_CYCLES = {"ep-surface": 24, "phase-sweeps": 96, "ep-probe": 24}

README_DOMAIN = ((0.35, 1.57), (0.05, 1.2))
WIDE_DOMAIN = ((0.05, np.pi / 2), (0.05, 3.0))
EPSILON_SWEEP = "0.05:0.95:50"
X_SWEEP = "0.05:1.5:50"
N_LIST = "100,200,400,800"
DELTA = 0.01


@dataclass(frozen=True)
class Call:
    """One call into the package.

    ``kind`` is "cli" (``args`` is the argv of ``cli.main``) or "cptp"
    (``args`` holds the parameter points of the CPTP diagnostics).  ``check``
    names the reference check that applies and ``outputs`` the number of
    outputs it checks, ``params`` holds the benchmark's own copy of the
    inputs the check needs, and ``work`` is the number of work units the
    call completes when it succeeds.
    """

    kind: str
    args: tuple
    check: str
    outputs: int
    work: int
    params: dict = field(default_factory=dict)

    @property
    def output(self) -> str | None:
        if self.kind != "cli":
            return None
        return self.args[self.args.index("--output") + 1]


def _num(v: float) -> str:
    return repr(float(v))


def _grid(rng, lo: float, hi: float, count: int) -> str:
    """start:stop:count with both ends jittered inward by up to a quarter span."""
    quarter = (hi - lo) / 4
    start = rng.uniform(lo, lo + quarter)
    stop = rng.uniform(hi - quarter, hi)
    return f"{_num(start)}:{_num(stop)}:{count}"


def ep_x(epsilon: float, gamma: float) -> float:
    """x on the EP surface: epsilon + 1/epsilon = 2 (cosh 2x - cos^2 g) / sin^2 g."""
    c = (epsilon + 1.0 / epsilon) * np.sin(gamma) ** 2 / 2.0 + np.cos(gamma) ** 2
    return float(np.arccosh(c) / 2.0)


def _ep_surface(rng) -> list[Call]:
    calls = []
    for label, ((g_lo, g_hi), (x_lo, x_hi)) in (("readme", README_DOMAIN),
                                                ("wide", WIDE_DOMAIN)):
        argv = ("ep-scan", "--gamma-grid", _grid(rng, g_lo, g_hi, 10),
                "--x-grid", _grid(rng, x_lo, x_hi, 20), "--output", f"ep_scan_{label}.csv")
        calls.append(Call("cli", argv, "ep-scan", 200, 200))
    return calls


def _phase_session(rng, sweep: str) -> list[Call]:
    gamma = rng.uniform(0.35, 1.5)
    theta = rng.uniform(0.05, 1.5)
    if sweep == "epsilon":
        fixed = {"x": rng.uniform(0.05, 1.5)}
        grid_text = EPSILON_SWEEP
        fixed_argv = ("--x", _num(fixed["x"]))
    else:
        fixed = {"epsilon": rng.uniform(0.05, 0.95)}
        grid_text = X_SWEEP
        fixed_argv = ("--epsilon", _num(fixed["epsilon"]))
    start, stop, count = grid_text.split(":")
    grid = np.linspace(float(start), float(stop), int(count))
    on_sweep = float(grid[rng.integers(len(grid))])
    x = fixed.get("x", on_sweep)
    epsilon = fixed.get("epsilon", on_sweep)
    common = ("--gamma", _num(gamma), "--theta", _num(theta))
    bifurcate = Call("cli", ("bifurcate", *common, *fixed_argv, "--sweep", sweep,
                             "--sweep-grid", grid_text, "--output", f"bifurcate_{sweep}.csv"),
                     "bifurcate", len(grid), len(grid),
                     {"gamma": gamma, "theta": theta, "sweep": sweep, "grid": grid, **fixed})
    spectrum = Call("cli", ("spectrum", *common, "--x", _num(x), "--epsilon", _num(epsilon),
                            "--output", "spectrum_theta.csv"),
                    "spectrum-dense", 1, 1,
                    {"gamma": gamma, "theta": theta, "x": x, "epsilon": epsilon})
    easy_plane = ("easy-plane", x, gamma, epsilon, theta)
    easy_axis = ("easy-axis", rng.uniform(0.1, 1.0) * rng.choice((-1.0, 1.0)),
                 rng.uniform(0.1, 3.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.5))
    cptp = Call("cptp", (easy_plane, easy_axis), "cptp", 2, 2)
    return [bifurcate, spectrum, cptp]


def _probe_session(rng, n_max: int) -> list[Call]:
    epsilon0 = rng.uniform(0.2, 0.6)
    gamma = rng.uniform(0.4, 1.4)
    x = ep_x(epsilon0, gamma)
    point = ("--gamma", _num(gamma), "--x", _num(x))
    return [
        Call("cli", ("spectrum", *point, "--epsilon", _num(epsilon0),
                     "--output", "spectrum_ep.csv"), "spectrum-analytic", 1, 0),
        Call("cli", ("evolve", *point, "--epsilon0", _num(epsilon0), "--delta", _num(DELTA),
                     "--n-max", str(n_max), "--output", f"evolve_{n_max}.csv"),
             "evolve", 3, 3 * (n_max + 1), {"n_max": n_max}),
        Call("cli", ("trotter", "--gamma", _num(gamma), "--n-list", N_LIST,
                     "--output", "trotter.csv"), "trotter", 1, 0),
    ]


def cycle(workload: str, seed: int, index: int) -> list[Call]:
    """The calls of cycle `index`: two sessions, one of each variant."""
    rng = np.random.default_rng([seed, index])
    if workload == "ep-surface":
        return _ep_surface(rng)
    if workload == "phase-sweeps":
        return _phase_session(rng, "epsilon") + _phase_session(rng, "x")
    if workload == "ep-probe":
        return _probe_session(rng, 200) + _probe_session(rng, 2000)
    raise ValueError(f"unknown workload {workload!r}")


def trace_schedule(workload: str, seed: int) -> list[list[Call]]:
    return [cycle(workload, seed, i) for i in range(TRACE_CYCLES[workload])]


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import brickwork_ep.cli  # noqa: F401  (the import is what set-up time measures)

    trace_schedule(sys.argv[1], int(sys.argv[2]))
