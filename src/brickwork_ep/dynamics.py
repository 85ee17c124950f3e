"""Stroboscopic evolution, observable time series, the Jordan-block growth
law, and classification of the below/at/above-EP dynamical regimes.
"""

import enum
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la

from .config import DEFAULT_TOLS, Tolerances
from .gates import (PROJ_UP, ParameterPoint, ParameterRegime, SIGMA_MINUS,
                    SIGMA_PLUS)
from .linalg import devectorize, eig_general, kron, vectorize
from .spectrum import analytic_spectrum, critical_epsilon
from .superop import Superoperator, superoperator_at


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
    if la.eigvalsh((rho + rho.conj().T) / 2).min() < -tols.choi_floor:
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


def evolve_by_powers(s: Superoperator, rho0: np.ndarray, steps,
                     tols: Tolerances = DEFAULT_TOLS) -> list[np.ndarray]:
    """States at selected step counts via matrix powers (repeated squaring).

    An independent route used to cross-check `evolve`.
    """
    rho0 = _validate_state(rho0, tols)
    v = vectorize(rho0)
    return [devectorize(np.linalg.matrix_power(s.matrix, int(n)) @ v) for n in steps]


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
    rescaled: np.ndarray          # |mu_rescale|^{-n} |values[n]|
    regime: EPRegime | None
    expansion_deviation: float | None   # direct vs biorthogonal expansion; None if disabled


def _default_rescale(point: ParameterPoint) -> complex:
    if _closed_form_point(point):
        mu = analytic_spectrum(point).mu
        return mu[8] if abs(mu[8]) >= abs(mu[9]) else mu[9]
    return 1.0 + 0.0j


def observable_series(s: Superoperator, rho0: np.ndarray, g: Observable, n_max: int,
                      mu_rescale: complex | None = None,
                      tols: Tolerances = DEFAULT_TOLS) -> TrajectoryRecord:
    """Time series <g[n]> = Tr(g rho[n]) by direct evolution.

    Tr(g rho) = vec(g^T) . vec(rho) in the row-major convention, so the
    series is one contraction of the evolved vectors.  Away from any
    defective point it is recomputed through the biorthogonal
    eigendecomposition sum_j mu_j^n <w_j|rho0> Tr(g v_j) / <w_j|v_j> and the
    maximal deviation (relative to the series maximum) is recorded; on or
    near an EP the expansion is invalid and skipped.
    """
    vecs = evolve(s, rho0, n_max, tols).reshape(n_max + 1, 16)
    g_vec = vectorize(g.matrix.T)
    values = vecs @ g_vec

    ns = np.arange(n_max + 1)
    expansion_deviation = None
    es = eig_general(s.matrix, tols)
    if not es.near_defective and _discriminant_regime(s.point, tols) is not EPRegime.AT_EP:
        w_h = es.left.conj().T
        alpha = (w_h @ vecs[0]) / np.einsum("ij,ji->i", w_h, es.right)
        series = (es.eigenvalues[None, :] ** ns[:, None]) @ (alpha * (g_vec @ es.right))
        expansion_deviation = float(np.abs(series - values).max()
                                    / max(np.abs(values).max(), 1e-300))

    mur = _default_rescale(s.point) if mu_rescale is None else mu_rescale
    rescaled = np.abs(values) / np.abs(mur) ** ns
    return TrajectoryRecord(values=values, rescaled=rescaled, regime=None,
                            expansion_deviation=expansion_deviation)


def jordan_growth(mu0: complex, psi, n_max: int) -> np.ndarray:
    """|mu0|^{-n} || B^n psi || for the 2x2 Jordan block B = [[mu0, 1], [0, mu0]].

    B^n = [[mu0^n, n mu0^{n-1}], [0, mu0^n]], so for psi = (a, b) with b != 0
    the sequence grows asymptotically like n |b / mu0|.
    """
    if mu0 == 0:
        raise ValueError("Jordan growth is undefined for mu0 = 0")
    a, b = complex(psi[0]), complex(psi[1])
    ns = np.arange(n_max + 1)
    # |mu0|^{-n} * || (mu0^n a + n mu0^{n-1} b, mu0^n b) ||
    top = np.abs(a + ns * b / mu0)
    return np.sqrt(top**2 + abs(b) ** 2)


@dataclass(frozen=True)
class RegimeReport:
    regime: EPRegime | None     # None when the evidence is inconclusive
    tail_drift: float
    slope: float
    r_squared: float
    reason: str


def _tail_statistics(rescaled: np.ndarray):
    tail = rescaled[len(rescaled) // 2:]
    mean = float(np.abs(tail).mean())
    mean = max(mean, 1e-300)
    drift = float((tail.max() - tail.min()) / mean)
    ns = np.arange(len(rescaled) // 2, len(rescaled), dtype=float)
    coeffs, res, *_ = np.linalg.lstsq(np.vstack([ns, np.ones_like(ns)]).T, tail, rcond=None)
    ss_tot = float(((tail - tail.mean()) ** 2).sum())
    r2 = 1.0 - float(res[0]) / ss_tot if len(res) and ss_tot > 0 else 0.0
    return drift, float(coeffs[0]), r2, mean, tail


def classify_regime(point: ParameterPoint, record: TrajectoryRecord,
                    tols: Tolerances = DEFAULT_TOLS) -> RegimeReport:
    """Classify the rescaled series as below / at / above the EP.

    Below: constant tail (relative drift under `tail_drift`).  At: the tail
    fits a positively sloped line with R^2 above `linear_fit_r2`.  Above:
    bounded and oscillatory, with no linear trend.  The data-based verdict
    is cross-checked against the sign of the easy-plane discriminant; a
    mismatch is reported as inconclusive rather than silently resolved.
    """
    if len(record.values) < 21:
        raise ValueError("need n_max >= 20 samples for classification")
    drift, slope, r2, mean, tail = _tail_statistics(record.rescaled)

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
    eps0 = point.epsilon
    if not (0.0 < eps0 - delta and eps0 + delta <= 1.0):
        raise ValueError(f"epsilon0 +- delta leaves (0, 1]: {eps0} +- {delta}")
    g = coherence_probe() if observable is None else observable
    rho0 = reference_initial_state() if rho0 is None else rho0

    records = []
    for eps in (eps0, eps0 + delta, eps0 - delta):
        p = replace(point, epsilon=eps)
        rec = observable_series(superoperator_at(p, tols), rho0, g, n_max, tols=tols)
        records.append(replace(rec, regime=classify_regime(p, rec, tols).regime))
    return SensitivityProbe(center=records[0], plus=records[1], minus=records[2])
