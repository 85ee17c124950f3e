"""Centralized numerical tolerances.

Every threshold used by the package lives here so that sweeps, tests and
the CLI agree on one set of defaults and can override them in one place.
Stacked checks fail through `raise_first`, which `point_failures` turns into per-point records.
"""

import contextlib
import contextvars
from dataclasses import dataclass, fields, replace

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    # linear algebra
    eig_residual: float = 1e-10        # ||A v - mu v|| <= eig_residual * ||A||
    defect_overlap: float = 1e-6       # min |<w|v>| below which a pair counts as near-defective
    cluster_gap: float = 1e-8          # eigenvalue clustering scale for biorthogonal re-pairing

    # gate construction
    singular_gate: float = 1e-12       # |q^2 lam^2 - 1| or |q^2 - lam^2| below this is rejected
    kraus_completeness: float = 1e-13
    gate_unitarity: float = 1e-12
    local_unitarity: float = 1e-13

    # superoperator structure
    parity_commutator: float = 1e-12
    trace_preservation: float = 1e-12
    choi_floor: float = 1e-10          # Choi eigenvalues must exceed -choi_floor

    # analytic spectrum / EP manifold
    ep_gap: float = 1e-6               # |mu9 - mu10| below this counts as coalesced
    ep_discriminant: float = 1e-10     # |A| at a certified EP

    # dynamics
    near_ep_collar: float = 1e-5       # |eps - eps_EP| below which the expansion route is disabled
    tail_drift: float = 1e-4           # constant-tail criterion
    linear_fit_r2: float = 0.999       # linear-growth criterion

    # continuum checks
    halving_ratio_rtol: float = 0.30    # composite error ratio within 30% of 2


DEFAULT_TOLS = Tolerances()

_FIELD_NAMES = {f.name for f in fields(Tolerances)}


def override_tolerances(base: Tolerances, **overrides: float) -> Tolerances:
    """Return a copy of `base` with the given fields replaced; each value
    must be a finite number >= 0."""
    unknown = set(overrides) - _FIELD_NAMES
    if unknown:
        raise ValueError(f"unknown tolerance names: {sorted(unknown)}")
    bad = sorted(k for k, v in overrides.items() if not (np.isfinite(v) and v >= 0))
    if bad:
        raise ValueError(f"tolerance overrides must be finite and >= 0: "
                         f"{', '.join(f'{k}={overrides[k]}' for k in bad)}")
    return replace(base, **overrides)


_POINT_FAILURES = contextvars.ContextVar("point_failures", default=None)


@contextlib.contextmanager
def point_failures():
    """Scope in which stacked checks record failing points instead of raising,
    yielding {point index: error of its first failing check}.  Failed points
    run on through later checks, so floating-point errors are ignored inside."""
    token = _POINT_FAILURES.set({})
    try:
        with np.errstate(all="ignore"):
            yield _POINT_FAILURES.get()
    finally:
        _POINT_FAILURES.reset(token)


def raise_first(failed, error):
    """Raise error(i) for the first point i of a stacked check where `failed`
    holds; inside `point_failures`, record it for each such point instead."""
    recorded = _POINT_FAILURES.get()
    if recorded is not None:
        for i in np.flatnonzero(failed).tolist():
            recorded.setdefault(i, error(i))   # an earlier check's error stays
    elif np.count_nonzero(failed):
        raise error(int(np.argmax(failed)))
