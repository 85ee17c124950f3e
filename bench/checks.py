"""Reference checks of the benchmark.

Every reference is computed here from the generated inputs, never from the
package: the EP strength from the cancellation-free form of the
discriminant zero, and the dense 16x16 step from the gate formulas.  A
check returns one `Outcome` per checked output.

A miss is either explained by a defect recorded in ``baseline.json`` (its
``cause`` names it) or unexplained.  Both count as failed; only an
unexplained miss makes the run incorrect.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

SPECTRUM_ATOL = 1e-9        # eigenvalue agreement, bifurcate and spectrum
EPSILON_RTOL = 1e-9         # critical epsilon against the stable form
# An accurate evaluation of epsilon_EP is good to ~1e-15.  Deviations
# between these two bounds are the cancellation in the closed form of
# `critical_epsilon`, which reaches ~1e-6 at gamma = 0.05, x = 3; a larger
# one is some other error.
CANCELLATION_RTOL = (1e-12, 1e-5)
# Analytic eigenvalues closer than this form one coalesced cluster.  At an
# EP a 2x2 Jordan pair is only determined to ~sqrt(machine epsilon), so the
# pair is compared by its mean, which is well conditioned.
CLUSTER_GAP = 1e-6

CANCELLATION = "critical_epsilon cancellation"
UNDERFLOW = "|mu|^n underflow"


@dataclass(frozen=True)
class Outcome:
    ok: bool
    what: str
    cause: str | None = None     # recorded defect that explains a miss


def parse_table(text: str):
    """Metadata, column names and rows of a CSV file written by the CLI."""
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, val = line[2:].split(" = ", 1)
            meta[key] = val
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def stable_critical_epsilon(x, gamma):
    """Small root of eps^2 - B eps + 1 = 0, B = 2 (cosh 2x - cos^2 g) / sin^2 g."""
    b = 2.0 * (np.cosh(2.0 * x) - np.cos(gamma) ** 2) / np.sin(gamma) ** 2
    return 2.0 / (b + np.sqrt(b * b - 4.0))


def dense_steps(x, gamma, epsilon, theta) -> np.ndarray:
    """(N, 16, 16) one-step maps for broadcast parameter arrays (complex x, gamma allowed).

    T = sum_m W_m kron conj(W_m) with W_m = U (K_m kron V), row-major vec.
    """
    x, gamma, epsilon, theta = np.broadcast_arrays(
        np.atleast_1d(np.asarray(x, dtype=complex)), np.asarray(gamma, dtype=complex),
        np.asarray(epsilon, dtype=float), np.asarray(theta, dtype=float))
    n = x.shape[0]
    lam, q = np.exp(x), np.exp(1j * gamma)
    den = q * lam - 1.0 / (q * lam)
    a, b = (q - 1.0 / q) / den, (lam - 1.0 / lam) / den
    U = np.zeros((n, 4, 4), dtype=complex)
    U[:, 0, 0] = U[:, 3, 3] = 1.0
    U[:, 1, 1] = U[:, 2, 2] = a
    U[:, 1, 2] = U[:, 2, 1] = b
    K = np.zeros((n, 2, 2, 2), dtype=complex)
    K[:, 0, 0, 1] = np.sqrt(1.0 - epsilon**2)
    K[:, 1, 0, 0] = 1.0
    K[:, 1, 1, 1] = epsilon
    V = np.zeros((n, 2, 2), dtype=complex)
    V[:, 0, 0], V[:, 1, 1] = np.exp(1j * theta), np.exp(-1j * theta)
    M = np.einsum("nmik,njl->nmijkl", K, V).reshape(n, 2, 4, 4)
    W = np.einsum("nab,nmbc->nmac", U, M)
    return np.einsum("nmik,nmjl->nijkl", W, W.conj()).reshape(n, 16, 16)


def spectrum_distances(found, reference) -> np.ndarray:
    """Per row, the largest distance between optimally matched eigenvalues;
    coalesced reference clusters are compared by the mean of the values
    matched to them.  Rows are spectra of equal length."""
    found = np.atleast_2d(np.asarray(found, dtype=complex))
    reference = np.atleast_2d(np.asarray(reference, dtype=complex))
    if found.shape != reference.shape:
        return np.full(len(reference), np.inf)
    matched = np.empty_like(reference)
    for k in range(len(reference)):
        rows, cols = linear_sum_assignment(np.abs(found[k, :, None] - reference[k, None, :]))
        matched[k, cols] = found[k, rows]
    near = (np.abs(reference[:, :, None] - reference[:, None, :]) < CLUSTER_GAP).astype(float)
    gaps = np.abs(np.einsum("nij,nj->ni", near, matched - reference)) / near.sum(axis=2)
    return gaps.max(axis=1)


def _complex_rows(rows, re_col: int, im_col: int) -> np.ndarray:
    return np.array([complex(float(r[re_col]), float(r[im_col])) for r in rows])


def check_ep_scan(call, text: str) -> list[Outcome]:
    _, _, rows = parse_table(text)
    if len(rows) != call.work:
        return [Outcome(False, f"ep-scan returned {len(rows)} of {call.work} points")] * call.work
    gamma = np.array([float(r[0]) for r in rows])
    x = np.array([float(r[1]) for r in rows])
    eps = np.array([float(r[2]) for r in rows])
    certified = np.array([r[5] == "true" for r in rows])
    ref = stable_critical_epsilon(x, gamma)
    rel = np.abs(eps - ref) / ref
    out = []
    for k in range(len(rows)):
        if rel[k] <= EPSILON_RTOL and certified[k]:
            out.append(Outcome(True, "ep point"))
            continue
        lo, hi = CANCELLATION_RTOL
        cause = CANCELLATION if lo < rel[k] < hi else None
        out.append(Outcome(False, f"ep point gamma={gamma[k]!r} x={x[k]!r}: "
                                  f"rel={rel[k]:.2e} certified={bool(certified[k])}", cause))
    return out


def check_bifurcate(call, text: str) -> list[Outcome]:
    p = call.params
    meta, _, rows = parse_table(text)
    grid = p["grid"]
    if meta.get("skipped") != "0" or len(rows) != 16 * len(grid):
        return [Outcome(False, f"bifurcate returned {len(rows)} rows, "
                               f"skipped={meta.get('skipped')}")] * len(grid)
    if p["sweep"] == "epsilon":
        steps = dense_steps(p["x"], p["gamma"], grid, p["theta"])
    else:
        steps = dense_steps(grid, p["gamma"], p["epsilon"], p["theta"])
    reference = np.linalg.eigvals(steps)
    found = _complex_rows(rows, 3, 4).reshape(len(grid), 16)
    return [Outcome(d <= SPECTRUM_ATOL, f"bifurcate {p['sweep']}={value!r}: {d:.2e}")
            for value, d in zip(grid, spectrum_distances(found, reference))]


def check_spectrum_dense(call, text: str) -> list[Outcome]:
    p = call.params
    _, _, rows = parse_table(text)
    reference = np.linalg.eigvals(dense_steps(p["x"], p["gamma"], p["epsilon"], p["theta"]))[0]
    numeric = [r for r in rows if r[4] == "numeric"]
    d = spectrum_distances(_complex_rows(numeric, 1, 2), reference)[0]
    return [Outcome(d <= SPECTRUM_ATOL, f"spectrum at theta={p['theta']!r}: {d:.2e}")]


def check_spectrum_analytic(call, text: str) -> list[Outcome]:
    """Numeric against analytic rows; see `spectrum_distances` for coalesced pairs."""
    _, _, rows = parse_table(text)
    numeric = [r for r in rows if r[4] == "numeric"]
    analytic = [r for r in rows if r[4] == "analytic"]
    d = spectrum_distances(_complex_rows(numeric, 1, 2), _complex_rows(analytic, 1, 2))[0]
    return [Outcome(d <= SPECTRUM_ATOL, f"spectrum at the EP: {d:.2e}")]


EXPECTED_REGIMES = {"minus": "below", "center": "at", "plus": "above"}


def check_evolve(call, text: str) -> list[Outcome]:
    meta, _, rows = parse_table(text)
    n_max = call.params["n_max"]
    out = []
    for series, expected in EXPECTED_REGIMES.items():
        got = meta.get(f"regime-{series}")
        series_rows = [r for r in rows if r[0] == series]
        if got == expected and len(series_rows) == n_max + 1:
            out.append(Outcome(True, "regime"))
            continue
        values = np.array([complex(float(r[2]), float(r[3])) for r in series_rows])
        rescaled = np.array([float(r[4]) for r in series_rows])
        # |g[n]| below the smallest normal double has lost precision, and
        # |mu|^n below it makes the rescaled series inf or nan.
        underflow = ((np.abs(values) < np.finfo(float).tiny).any()
                     or not np.isfinite(rescaled).all())
        cause = UNDERFLOW if underflow else None
        out.append(Outcome(False, f"evolve n_max={n_max} {series}: {got}, expected {expected}",
                           cause))
    return out


def check_trotter(call, text: str) -> list[Outcome]:
    meta, _, _ = parse_table(text)
    return [Outcome(meta.get("halving-ok") == "true",
                    f"trotter halving-ok = {meta.get('halving-ok')}")]


def check_cptp(call, results, tols) -> list[Outcome]:
    """Thresholds of the package's default tolerances, and the steady state
    as a density matrix fixed by the benchmark's own step."""
    out = []
    for spec, (trace_defect, choi_min, rho) in zip(call.args, results):
        kind, a, b, epsilon, theta = spec
        # easy-axis specs hold (log q, phase): x = i phase, gamma = -i log q
        x, gamma = (a, b) if kind == "easy-plane" else (1j * b, -1j * a)
        step = dense_steps(x, gamma, epsilon, theta)[0]
        v = rho.reshape(-1)
        ok = (trace_defect <= tols.trace_preservation
              and choi_min >= -tols.choi_floor
              and abs(np.trace(rho) - 1.0) <= 1e-10
              and np.linalg.eigvalsh(rho).min() >= -tols.choi_floor
              and np.abs(step @ v - v).max() <= 1e-9)
        out.append(Outcome(bool(ok), f"cptp {spec}: trace defect {trace_defect:.2e}, "
                                     f"choi min {choi_min:.2e}"))
    return out


TEXT_CHECKS = {
    "ep-scan": check_ep_scan,
    "bifurcate": check_bifurcate,
    "spectrum-dense": check_spectrum_dense,
    "spectrum-analytic": check_spectrum_analytic,
    "evolve": check_evolve,
    "trotter": check_trotter,
}
