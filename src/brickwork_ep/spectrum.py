"""Closed-form spectrum of the superintegrable (theta = 0) step, the
exceptional-point manifold in the easy-plane regime, and the sensing
coefficients of the two-point coherence probe.

Labeling convention: within each square-root pair the "-sqrt" root comes
first (mu9 before mu10, mu13 before mu14, mu7 before mu8); all numerics
compare spectra as sets, never by label.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, point_failures, raise_first
from .gates import (ParameterPoint, ParameterRegime, _checked_gate_stack, check_denominators,
                    check_parameters)
from .linalg import JordanCertificate, jordan_certificate
from .superop import (UnsupportedRegimeError, assemble, pair_block, pair_splitting_sqrt,
                      pair_sum_coeff)


def _f_pm(lam, q, eps, Q):
    """(f-, f+) = (lam (q^2 - 1)(eps - 1) -+ Q) / (2 (lam^2 - 1) q)."""
    core = lam * (q * q - 1.0) * (eps - 1.0)
    den = 2.0 * (lam * lam - 1.0) * q
    return (core - Q) / den, (core + Q) / den


@dataclass(frozen=True)
class AnalyticSpectrum:
    """All sixteen closed-form eigenvalues, indexed 1..16 in mu[0..15]."""

    mu: np.ndarray          # shape (16,), complex
    Q: complex              # square-root quantity; zero exactly on the EP manifold
    f: complex              # (q^2-1)(eps+1)
    point: ParameterPoint

    @property
    def even_block(self) -> np.ndarray:
        """mu1..mu8 (the even-parity block's eigenvalues)."""
        return self.mu[:8]

    @property
    def odd_block(self) -> np.ndarray:
        """mu9..mu16 (the odd-parity block's eigenvalues)."""
        return self.mu[8:]


def _closed_forms(x, gamma, eps, lam, q):
    """(mu, Q) of each point of a theta = 0 stack, from the (lam, q) of points
    that passed `check_denominators`: the sixteen closed-form eigenvalues
    (N, 16) and the splitting quantity Q.  Raises `FloatingPointError` where
    the closed forms overflow (from |x| ~ 178 on, through lam^4 in Q)."""
    eps = np.array(eps, copy=None, ndmin=1)
    with np.errstate(over="ignore", invalid="ignore"):   # reported by the finiteness check
        Q = pair_splitting_sqrt(lam, q, eps)
        fl = pair_sum_coeff(q, eps) * lam
        dm = lam * lam * q * q - 1.0
        dp = q * q - lam * lam

        mu = np.empty(Q.shape + (16,), dtype=complex)
        mu[:, 0] = 1.0
        mu[:, 1] = eps**2
        mu[:, 2:6] = eps[:, None]
        mu[:, 6] = (Q - fl) ** 2 / (4.0 * dp * dm)
        mu[:, 7] = (Q + fl) ** 2 / (4.0 * dp * dm)
        mu[:, 8] = (fl - Q) / (2.0 * dm)
        mu[:, 9] = (fl + Q) / (2.0 * dm)
        mu[:, 12] = (fl - Q) / (2.0 * dp)
        mu[:, 13] = (fl + Q) / (2.0 * dp)
        mu[:, 10:12] = eps[:, None] * mu[:, 8:10]
        mu[:, 14:16] = eps[:, None] * mu[:, 12:14]
    raise_first(~np.isfinite(mu).all(axis=1), lambda i: FloatingPointError(
        f"closed forms overflow at x = {x[i]}, gamma = {gamma[i]}"))
    return mu, Q


def analytic_spectrum(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> AnalyticSpectrum:
    """The sixteen closed-form eigenvalues of the theta = 0 step.

    mu1 = 1, mu2 = eps^2, mu3..mu6 = eps; the remaining ten come in
    square-root pairs built from Q, with mu11,12 = eps*mu9,10 and
    mu15,16 = eps*mu13,14 (`_closed_forms`, N = 1).
    """
    if not point.superintegrable:
        raise UnsupportedRegimeError("closed forms require theta = 0")
    x, gamma = np.atleast_1d(point.x, point.gamma)
    lam, q = np.exp(x), np.exp(1j * gamma)
    check_denominators(lam, q, tols)
    mu, Q = _closed_forms(x, gamma, point.epsilon, lam, q)
    return AnalyticSpectrum(mu=mu[0], Q=Q[0], f=pair_sum_coeff(point.q, point.epsilon),
                            point=point)


def ep_discriminant(x: float, gamma: float, epsilon: float) -> float:
    """Real easy-plane discriminant 2((eps-1)^2 cos 2g + 4 eps cosh 2x - (eps+1)^2).

    Negative below the exceptional point, zero on it, positive above; the
    splitting quantity satisfies Q^2 = lam^2 q^2 A.
    """
    return 2.0 * ((epsilon - 1.0) ** 2 * np.cos(2.0 * gamma)
                  + 4.0 * epsilon * np.cosh(2.0 * x)
                  - (epsilon + 1.0) ** 2)


def _square(v) -> np.ndarray:
    """v**2 by libm's pow, as numpy squares a scalar; its array square
    differs in the last bit for ~0.1% of inputs."""
    v = np.asarray(v, dtype=float)
    return np.reshape([w**2 for w in v.ravel()], v.shape)


def critical_epsilon(x, gamma):
    """Relaxation strength at which the spectrum develops a second-order EP.

    The discriminant's zero solves eps^2 - (2 + u) eps + 1 = 0 with
    u = 4 sinh^2 x / sin^2 gamma.  Its roots multiply to 1, so the small one
    is taken as 2 / (2 + u + sqrt(u (u + 4))), free of cancellation.  Even in
    x, with a cusp at x = 0 where the value is exactly 1.  Broadcasts, with
    one libm call per element of x and gamma, and gives the scalar result
    bit for bit; scalars give a float.
    """
    s2 = _square(np.sin(gamma))
    if np.any(s2 < 1e-24):
        raise ValueError("gamma must not be a multiple of pi")
    u = 4.0 * _square(np.sinh(x)) / s2
    eps = 2.0 / (2.0 + u + np.sqrt(u) * np.sqrt(u + 4.0))
    return float(eps) if np.ndim(eps) == 0 else eps


@dataclass(frozen=True)
class EPRecord:
    """A located exceptional point with its numerical certificate."""

    point: ParameterPoint          # epsilon set to the critical value
    mu0: complex                   # coalesced eigenvalue of the odd block
    certificate: JordanCertificate
    discriminant_residual: float   # |A| at the located point
    certified: bool                # analytic (A ~ 0) and numeric (defective pair) agree


@dataclass(frozen=True)
class EPScan:
    """The fields of `EPRecord` as columns, one row per point, with gamma,
    x and epsilon in place of the point."""

    gamma: np.ndarray
    x: np.ndarray
    epsilon: np.ndarray
    mu0: np.ndarray
    discriminant_residual: np.ndarray   # inf outside the easy plane
    certified: np.ndarray
    certificate: JordanCertificate      # fields over the rows


def _certify(x, gamma, eps, regime: ParameterRegime, tols: Tolerances) -> EPScan:
    """Dual certification of each point of a theta = 0 stack: discriminant
    zero and a defective pair block.  The checks run in the order one point
    meets them, each raising for its first failing point (`raise_first`)."""
    x, gamma, eps = (np.array(v, copy=None, ndmin=1) for v in (x, gamma, eps))
    lam, q = check_parameters(x, gamma, eps, 0.0)
    check_denominators(lam, q, tols)
    mu, _ = _closed_forms(x, gamma, eps, lam, q)
    T = assemble(*_checked_gate_stack(lam, q, eps, 0.0, tols, regime)[:3])
    cert = jordan_certificate(pair_block(T, tols), tols)   # parity, then pair-leak checks
    a_res = (np.abs(ep_discriminant(np.real(x), np.real(gamma), eps))
             if regime is ParameterRegime.EASY_PLANE else np.full(len(mu), np.inf))
    certified = (a_res <= tols.ep_discriminant) & (cert.gap <= tols.ep_gap) & cert.defective
    return EPScan(gamma=gamma, x=x, epsilon=eps, mu0=(mu[:, 8] + mu[:, 9]) / 2.0,
                  discriminant_residual=a_res, certified=certified, certificate=cert)


def certify_ep(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> EPRecord:
    """Dual certification of an EP candidate: row 0 of `_certify` on one point."""
    if not point.superintegrable:
        raise UnsupportedRegimeError("closed forms require theta = 0")
    scan = _certify(point.x, point.gamma, point.epsilon, point.regime, tols)
    cert = JordanCertificate(**{k: v[0].item() for k, v in vars(scan.certificate).items()})
    return EPRecord(point, scan.mu0[0].item(), cert, scan.discriminant_residual[0].item(),
                    scan.certified[0].item())


def ep_scan(gamma_grid, x_grid, tols: Tolerances = DEFAULT_TOLS) -> EPScan:
    """Locate and certify the EP surface over a (gamma, x) grid in the easy
    plane in one stacked pass: one `EPScan` row per grid point, sorted by
    (gamma, x).

    Nothing is skipped.  Grid columns at multiples of pi are rejected up
    front; any other failing point ends the scan with the error of a
    point-by-point scan.  The pass records each point's first failing check
    (`point_failures`); the first failing point in (gamma, x) order decides.
    So critical epsilon underflowing to 0 (|x| >~ 355) raises `ValueError`,
    closed forms overflowing (|x| >~ 178) `FloatingPointError`.
    """
    gamma_grid = np.sort(np.array(gamma_grid, dtype=float, ndmin=1))
    x_grid = np.sort(np.array(x_grid, dtype=float, ndmin=1))
    if np.any(np.abs(np.sin(gamma_grid)) < 1e-12):
        raise ValueError("gamma grid contains a multiple of pi")
    gamma, x = (g.ravel() for g in np.meshgrid(gamma_grid, x_grid, indexing="ij"))
    with point_failures() as failed:
        eps = critical_epsilon(x_grid[None, :], gamma_grid[:, None]).ravel()
        scan = _certify(x, gamma, eps, ParameterRegime.EASY_PLANE, tols)
        if failed:
            raise failed[min(failed)]
    return scan


# ---------------------------------------------------------------------------
# sensing coefficients of the coherence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SensingCoefficients:
    gamma9: complex
    gamma10: complex
    g_plus: complex
    g_minus: complex
    f_plus: complex
    f_minus: complex


def sensing_coefficients(point: ParameterPoint,
                         tols: Tolerances = DEFAULT_TOLS) -> SensingCoefficients:
    """Two-term expansion coefficients of the coherence probe started from
    the fixed superposition state (1, 0, 1, 0)/sqrt(2).

    gamma9 = g-/(2(4+g-)), gamma10 = g+/(2(4+g+)), with
    g+- = (lam(q^2-1)(eps-1) +- Q)^2 / ((lam^2-1)^2 q^2 eps) = 4 f+-^2 / eps.
    """
    Q = analytic_spectrum(point, tols).Q   # theta = 0 and denominator checks
    lam, q, eps = point.lam, point.q, point.epsilon
    if abs(lam * lam - 1.0) < 1e-12:
        raise ValueError("coefficients are singular at lambda = 1")
    f_minus, f_plus = _f_pm(lam, q, eps, Q)
    g_minus = 4.0 * f_minus**2 / eps
    g_plus = 4.0 * f_plus**2 / eps
    return SensingCoefficients(
        gamma9=g_minus / (2.0 * (4.0 + g_minus)),
        gamma10=g_plus / (2.0 * (4.0 + g_plus)),
        g_plus=g_plus, g_minus=g_minus,
        f_plus=f_plus, f_minus=f_minus,
    )
