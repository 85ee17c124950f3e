"""Stroboscopic evolution, observable time series, and classification of
the below/at/above-EP dynamical regimes.
"""

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .gates import (PROJ_UP, ParameterPoint, ParameterRegime, SIGMA_MINUS,
                    SIGMA_PLUS)
from .linalg import eig_general, kron, vectorize
from .spectrum import analytic_spectrum, critical_epsilon
from .superop import Superoperator, superoperator_at


_TINY = np.finfo(float).tiny   # smallest normal double


@dataclass(frozen=True)
class Observable:
    label: str
    matrix: np.ndarray   # 4x4


def coherence_probe() -> Observable:
    """Two-point coherence operator whose series involves only the odd-block
    square-root pair (and two vectors the reference initial state misses)."""
    return Observable(label="coherence-probe", matrix=kron(SIGMA_PLUS, PROJ_UP))


def coherence_probe_adjoint() -> Observable:
    """Adjoint probe; its series involves only the eps-rescaled pair and the
    conjugate pair of the odd block."""
    return Observable(label="coherence-probe-adjoint", matrix=kron(SIGMA_MINUS, PROJ_UP))


def identity_observable() -> Observable:
    return Observable(label="identity", matrix=np.eye(4, dtype=complex))


def reference_initial_state() -> np.ndarray:
    """|psi><psi| with psi = (1, 0, 1, 0)/sqrt(2): qubit 1 in |+>, qubit 2 up."""
    psi = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def _validate_state(rho: np.ndarray, tols: Tolerances):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError("initial state is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("initial state does not have unit trace")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -tols.choi_floor:
        raise ValueError("initial state is not positive semidefinite")
    return rho


def evolve(s: Superoperator, rho0: np.ndarray, n_max: int,
           tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """States rho[0..n_max] under repeated application of the step."""
    T = s.matrix
    out = np.empty((n_max + 1, 16), dtype=complex)
    out[0] = vectorize(_validate_state(rho0, tols))
    for n in range(n_max):
        out[n + 1] = T @ out[n]
    return out.reshape(n_max + 1, 4, 4)


def _power_series(left, T, right, n_max: int, dtype=complex) -> np.ndarray:
    """left . T^n . right for n = 0..n_max, in `dtype`: B = ceil(sqrt(n_max + 1))
    baby steps left . T^j and ceil((n_max + 1) / B) giant steps T^(kB) . right
    meet in one product, entry (k, j) the term n = kB + j: ~2 sqrt(n) small
    products, not n.  np.clongdouble steps round terms below the smallest
    normal double just once."""
    B = math.isqrt(n_max) + 1
    left, T, right = (np.asarray(a, dtype=dtype) for a in (left, T, right))
    baby, giant, TB = [left], [right], np.linalg.matrix_power(T, B)
    for _ in range(B - 1):
        baby.append(baby[-1] @ T)
    for _ in range(n_max // B):
        giant.append(TB @ giant[-1])
    return (np.array(giant) @ np.array(baby).T).ravel()[:n_max + 1]


def _closed_form_point(point: ParameterPoint) -> bool:
    return point.regime is ParameterRegime.EASY_PLANE and point.superintegrable


class EPRegime(enum.Enum):
    BELOW_EP = "below"
    AT_EP = "at"
    ABOVE_EP = "above"


def _discriminant_regime(point: ParameterPoint, tols: Tolerances) -> EPRegime | None:
    """Regime the easy-plane discriminant places the point in.

    AT_EP within `near_ep_collar` of the critical epsilon; None outside the
    theta = 0 easy plane and where the critical epsilon is undefined.
    """
    if not _closed_form_point(point):
        return None
    try:
        eps_ep = critical_epsilon(float(np.real(point.x)), float(np.real(point.gamma)))
    except ValueError:
        return None
    if abs(point.epsilon - eps_ep) < tols.near_ep_collar:
        return EPRegime.AT_EP
    return EPRegime.BELOW_EP if point.epsilon < eps_ep else EPRegime.ABOVE_EP


@dataclass(frozen=True)
class TrajectoryRecord:
    """Observable time series with its rescaled-amplitude diagnostic."""

    values: np.ndarray            # complex <g[n]>, n = 0..n_max
    rescaled: np.ndarray          # |mu|^{-n} |values[n]|, mu the dominant pair eigenvalue
    regime: EPRegime | None
    expansion_deviation: float | None   # direct vs biorthogonal expansion; None if disabled


def _default_rescale(point: ParameterPoint) -> complex:
    if _closed_form_point(point):
        mu = analytic_spectrum(point).mu
        return mu[8] if abs(mu[8]) >= abs(mu[9]) else mu[9]
    return 1.0 + 0.0j


def observable_series(s: Superoperator, rho0: np.ndarray, g: Observable, n_max: int,
                      tols: Tolerances = DEFAULT_TOLS) -> TrajectoryRecord:
    """Time series <g[n]> = Tr(g rho[n]) = vec(g^T) . T^n . vec(rho0), one
    `_power_series` of the step (`evolve` is the step-by-step route).  Away from
    any defective point it is recomputed through the biorthogonal expansion
    sum_j mu_j^n <w_j|rho0> Tr(g v_j) / <w_j|v_j> on diag(mu), and the maximal
    deviation relative to the series maximum is recorded; near an EP it is skipped.
    The rescaling by |mu|^n is taken in extended precision where a term or
    |mu|^n_max falls below the smallest normal double; a rescaled term past
    the largest double, as 1/|mu|^n of a non-decaying observable, reads inf."""
    rho_vec = vectorize(_validate_state(rho0, tols))
    g_vec = vectorize(g.matrix.T)
    terms = _power_series(g_vec, s.matrix, rho_vec, n_max)
    if np.abs(terms).min() < _TINY:   # terms lost digits to underflow
        terms = _power_series(g_vec, s.matrix, rho_vec, n_max, np.clongdouble)
    values = terms.astype(complex)

    expansion_deviation = None
    if (_discriminant_regime(s.point, tols) is not EPRegime.AT_EP   # no eigensolve at the EP
            and not (es := eig_general(s.matrix, tols)).near_defective):
        w_h = es.left.conj().T
        alpha = (w_h @ rho_vec) / np.einsum("ij,ji->i", w_h, es.right)
        series = _power_series(g_vec @ es.right, np.diag(es.eigenvalues), alpha, n_max)
        expansion_deviation = float(np.abs(series - values).max()
                                    / max(np.abs(values).max(), 1e-300))

    mu_abs = np.abs(_default_rescale(s.point))
    if terms.dtype == complex and mu_abs ** n_max >= _TINY:
        rescaled = np.abs(values) / mu_abs ** np.arange(n_max + 1)
    else:   # a running product: 1e-18 relative at n = 2000, and 20x faster than powl
        powers = np.cumprod(np.r_[1.0, np.full(n_max, mu_abs)].astype(np.longdouble))
        with np.errstate(over="ignore"):   # past the largest double a term reads inf
            rescaled = (np.abs(terms) / powers).astype(float)
    return TrajectoryRecord(values=values, rescaled=rescaled, regime=None,
                            expansion_deviation=expansion_deviation)


@dataclass(frozen=True)
class RegimeReport:
    regime: EPRegime | None     # None when the evidence is inconclusive
    tail_drift: float
    slope: float
    r_squared: float
    reason: str


def _tail_statistics(tail: np.ndarray, n0: int):
    """Drift, slope, R^2 and mean modulus of the tail n = n0, n0 + 1, ..."""
    mean = float(np.abs(tail).mean())
    mean = max(mean, 1e-300)
    drift = float((tail.max() - tail.min()) / mean)
    ns = np.arange(n0, n0 + len(tail), dtype=float)
    coeffs, res, *_ = np.linalg.lstsq(np.vstack([ns, np.ones_like(ns)]).T, tail, rcond=None)
    ss_tot = float(((tail - tail.mean()) ** 2).sum())
    r2 = 1.0 - float(res[0]) / ss_tot if len(res) and ss_tot > 0 else 0.0
    return drift, float(coeffs[0]), r2, mean


def _check_n_max(n_max: int):
    """The regime tags read the tail of a series of n = 0..n_max."""
    if n_max < 20:
        raise ValueError(f"need n_max >= 20 for the regime tags, got {n_max}")


def classify_regime(point: ParameterPoint, record: TrajectoryRecord,
                    tols: Tolerances = DEFAULT_TOLS) -> RegimeReport:
    """Classify the rescaled series as below / at / above the EP.

    Below: constant tail (relative drift under `tail_drift`).  At: the tail
    fits a positively sloped line with R^2 above `linear_fit_r2`.  Above:
    bounded and oscillatory, with no linear trend.  The data-based verdict
    is cross-checked against the sign of the easy-plane discriminant; a
    mismatch is reported as inconclusive rather than silently resolved, as
    is a tail past the largest double, on which no statistics are computed.
    """
    _check_n_max(len(record.values) - 1)
    n0 = len(record.rescaled) // 2
    tail = record.rescaled[n0:]
    if not np.isfinite(tail).all():
        return RegimeReport(regime=None, tail_drift=np.nan, slope=np.nan, r_squared=np.nan,
                            reason="rescaled tail is not finite")
    drift, slope, r2, mean = _tail_statistics(tail, n0)

    if drift < tols.tail_drift:
        data_regime = EPRegime.BELOW_EP
    elif r2 > tols.linear_fit_r2 and slope > 0:
        data_regime = EPRegime.AT_EP
    else:
        # bounded oscillation: any residual linear trend must stay well below
        # the oscillation amplitude (a growing series has fraction ~ 1)
        trend_fraction = abs(slope) * len(tail) / (mean * max(drift, 1e-300))
        data_regime = EPRegime.ABOVE_EP if (drift > tols.tail_drift and trend_fraction < 0.5) else None

    disc_regime = _discriminant_regime(point, tols)

    if data_regime is None:
        regime, reason = None, "tail statistics fit no regime"
    elif disc_regime is not None and disc_regime is not data_regime:
        regime, reason = None, (f"series looks {data_regime.value} but discriminant "
                                f"places the point {disc_regime.value}")
    else:
        regime, reason = data_regime, "ok"
    return RegimeReport(regime=regime, tail_drift=drift, slope=slope, r_squared=r2,
                        reason=reason)


@dataclass(frozen=True)
class SensitivityProbe:
    """Three rescaled series at epsilon0 and epsilon0 +- delta."""

    center: TrajectoryRecord
    plus: TrajectoryRecord
    minus: TrajectoryRecord


def sensitivity_probe(point: ParameterPoint, delta: float, n_max: int = 200,
                      observable: Observable | None = None,
                      rho0: np.ndarray | None = None,
                      tols: Tolerances = DEFAULT_TOLS) -> SensitivityProbe:
    """Run the same protocol at epsilon0 and the two shifted strengths.

    Each series is rescaled by its own dominant pair eigenvalue, so the
    at-EP series grows linearly while its neighbours saturate or cycle.
    """
    _check_n_max(n_max)
    eps0 = point.epsilon
    if not (delta >= 0.0 and 0.0 < eps0 - delta and eps0 + delta <= 1.0):
        raise ValueError(f"need delta >= 0 and epsilon0 +- delta in (0, 1]: {eps0} +- {delta}")
    g = coherence_probe() if observable is None else observable
    rho0 = reference_initial_state() if rho0 is None else rho0

    records = []
    for eps in (eps0, eps0 + delta, eps0 - delta):
        p = replace(point, epsilon=eps)
        rec = observable_series(superoperator_at(p, tols), rho0, g, n_max, tols=tols)
        records.append(replace(rec, regime=classify_regime(p, rec, tols).regime))
    return SensitivityProbe(center=records[0], plus=records[1], minus=records[2])
