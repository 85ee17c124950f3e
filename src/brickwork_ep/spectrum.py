"""Closed-form spectrum of the superintegrable (theta = 0) step, the
exceptional-point manifold in the easy-plane regime, closed-form
eigenvectors where they exist, and the sensing coefficients of the
two-point coherence probe.

Labeling convention: within each square-root pair the "-sqrt" root comes
first (mu9 before mu10, mu13 before mu14, mu7 before mu8); all numerics
compare spectra as sets, never by label.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .gates import ParameterPoint, ParameterRegime, check_denominators
from .linalg import JordanCertificate, jordan_certificate
from .superop import (UnsupportedRegimeError, pair_splitting_sqrt,
                      pair_sum_coeff, superoperator_at)


def _closed_form_inputs(point: ParameterPoint, tols: Tolerances):
    """(lam, q, eps, Q) of a theta = 0 point whose denominators do not vanish."""
    if not point.superintegrable:
        raise UnsupportedRegimeError("closed forms require theta = 0")
    lam, q, eps = point.lam, point.q, point.epsilon
    check_denominators(lam, q, tols)
    return lam, q, eps, pair_splitting_sqrt(lam, q, eps)


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
    A: float | None         # real easy-plane discriminant, None outside easy plane
    point: ParameterPoint

    @property
    def even_block(self) -> np.ndarray:
        """mu1..mu8 (the even-parity block's eigenvalues)."""
        return self.mu[:8]

    @property
    def odd_block(self) -> np.ndarray:
        """mu9..mu16 (the odd-parity block's eigenvalues)."""
        return self.mu[8:]


def analytic_spectrum(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> AnalyticSpectrum:
    """The sixteen closed-form eigenvalues of the theta = 0 step.

    mu1 = 1, mu2 = eps^2, mu3..mu6 = eps; the remaining ten come in
    square-root pairs built from Q, with mu11,12 = eps*mu9,10 and
    mu15,16 = eps*mu13,14.
    """
    lam, q, eps, Q = _closed_form_inputs(point, tols)
    f = pair_sum_coeff(q, eps)
    dm = lam * lam * q * q - 1.0
    dp = q * q - lam * lam

    mu = np.empty(16, dtype=complex)
    mu[0] = 1.0
    mu[1] = eps**2
    mu[2:6] = eps
    mu[6] = (Q - f * lam) ** 2 / (4.0 * dp * dm)
    mu[7] = (Q + f * lam) ** 2 / (4.0 * dp * dm)
    mu[8] = (f * lam - Q) / (2.0 * dm)
    mu[9] = (f * lam + Q) / (2.0 * dm)
    mu[10] = eps * mu[8]
    mu[11] = eps * mu[9]
    mu[12] = (f * lam - Q) / (2.0 * dp)
    mu[13] = (f * lam + Q) / (2.0 * dp)
    mu[14] = eps * mu[12]
    mu[15] = eps * mu[13]

    A = None
    if point.regime is ParameterRegime.EASY_PLANE:
        A = ep_discriminant(float(np.real(point.x)), float(np.real(point.gamma)), eps)
    return AnalyticSpectrum(mu=mu, Q=Q, f=f, A=A, point=point)


def ep_discriminant(x: float, gamma: float, epsilon: float) -> float:
    """Real easy-plane discriminant 2((eps-1)^2 cos 2g + 4 eps cosh 2x - (eps+1)^2).

    Negative below the exceptional point, zero on it, positive above; the
    splitting quantity satisfies Q^2 = lam^2 q^2 A.
    """
    return 2.0 * ((epsilon - 1.0) ** 2 * np.cos(2.0 * gamma)
                  + 4.0 * epsilon * np.cosh(2.0 * x)
                  - (epsilon + 1.0) ** 2)


def critical_epsilon(x: float, gamma: float) -> float:
    """Relaxation strength at which the spectrum develops a second-order EP.

    The discriminant's zero solves eps^2 - (2 + u) eps + 1 = 0 with
    u = 4 sinh^2 x / sin^2 gamma.  Its roots multiply to 1, so the small one
    is taken as 2 / (2 + u + sqrt(u (u + 4))), free of cancellation.  Even in
    x, with a cusp at x = 0 where the value is exactly 1.
    """
    s2 = np.sin(gamma) ** 2
    if s2 < 1e-24:
        raise ValueError("gamma must not be a multiple of pi")
    u = 4.0 * np.sinh(x) ** 2 / s2
    return float(2.0 / (2.0 + u + np.sqrt(u) * np.sqrt(u + 4.0)))


@dataclass(frozen=True)
class EPRecord:
    """A located exceptional point with its numerical certificate."""

    point: ParameterPoint          # epsilon set to the critical value
    mu0: complex                   # coalesced eigenvalue of the odd block
    sector: str                    # always "odd": the pair lives in tau_minus
    certificate: JordanCertificate
    discriminant_residual: float   # |A| at the located point
    certified: bool                # analytic (A ~ 0) and numeric (defective pair) agree


def certify_ep(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> EPRecord:
    """Dual certification of an EP candidate: discriminant zero and a
    defective odd-block pair."""
    spec = analytic_spectrum(point, tols)
    mu0 = (spec.mu[8] + spec.mu[9]) / 2.0
    s = superoperator_at(point, tols)
    cert = jordan_certificate(s.tau_minus, mu0, tols)
    a_res = abs(spec.A) if spec.A is not None else np.inf
    certified = bool(a_res <= tols.ep_discriminant
                     and cert.gap <= tols.ep_gap
                     and cert.defective)
    return EPRecord(point=point, mu0=mu0, sector="odd", certificate=cert,
                    discriminant_residual=float(a_res), certified=certified)


def ep_scan(gamma_grid, x_grid, tols: Tolerances = DEFAULT_TOLS) -> list[EPRecord]:
    """Locate the EP surface over a (gamma, x) grid in the easy plane.

    One record per grid point whose critical epsilon lies in (0, 1];
    output is sorted by (gamma, x).  Grid columns at multiples of pi are
    rejected up front.
    """
    gamma_grid = np.atleast_1d(np.asarray(gamma_grid, dtype=float))
    x_grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if np.any(np.abs(np.sin(gamma_grid)) < 1e-12):
        raise ValueError("gamma grid contains a multiple of pi")
    records = []
    for gamma in sorted(gamma_grid):
        for x in sorted(x_grid):
            eps = critical_epsilon(x, gamma)
            records.append(certify_ep(ParameterPoint.easy_plane(x, gamma, eps), tols))
    return records


# ---------------------------------------------------------------------------
# closed-form eigenvectors (theta = 0)
# ---------------------------------------------------------------------------

def _e(i: int) -> np.ndarray:
    """1-based unit vector in the 16-dim vectorized space."""
    v = np.zeros(16, dtype=complex)
    v[i - 1] = 1.0
    return v


@dataclass(frozen=True)
class ClosedFormVectors:
    """Right eigenvectors with printed closed forms, keyed by 1-based label.

    The eps-eigenspace is four-fold degenerate; the two independent gauge
    directions inside it are set to zero, which makes the labels 3/4 and
    5/6 return the same representative vector.  `coalesced` flags that the
    9/10 pair has merged (on the EP manifold) and a single eigenvector plus
    a Jordan chain replaces the pair.
    """

    vectors: dict[int, np.ndarray]
    coalesced: bool


def closed_form_right_vectors(point: ParameterPoint,
                              tols: Tolerances = DEFAULT_TOLS) -> ClosedFormVectors:
    """Eigenvectors of the theta = 0 step for labels {1..6, 9, 10, 13, 14}."""
    lam, q, eps, Q = _closed_form_inputs(point, tols)
    F = (1.0 - q * q) * (eps - 1.0) * lam / (q * (lam * lam - 1.0))
    f_minus, f_plus = _f_pm(lam, q, eps, Q)

    vecs: dict[int, np.ndarray] = {}
    vecs[1] = _e(1)
    vecs[2] = _e(1) - _e(6) - _e(11) + _e(16)
    base = (1.0 + eps) * _e(1) - eps * _e(6) - _e(11)
    vecs[3] = vecs[4] = base + F * _e(10)
    vecs[5] = vecs[6] = base - F * _e(7)

    coalesced = abs(Q / (lam * lam * q * q - 1.0)) < tols.ep_gap
    vecs[9] = _e(5) + (f_minus / eps) * _e(9)
    vecs[10] = vecs[9] if coalesced else _e(5) + (f_plus / eps) * _e(9)

    vecs[13] = _e(2) - (f_minus / eps) * _e(3)
    vecs[14] = vecs[13] if coalesced else _e(2) - (f_plus / eps) * _e(3)
    return ClosedFormVectors(vectors=vecs, coalesced=coalesced)


def closed_form_left_vectors(point: ParameterPoint,
                             tols: Tolerances = DEFAULT_TOLS) -> dict[int, np.ndarray]:
    """Left (row) eigenvectors for labels {9, 10, 15, 16}, bilinear pairing.

    w15 and w16 are fully closed-form.  w9 and w10 have closed components on
    the coherence pair they pair with; their two remaining components are
    completed numerically from the left eigenproblem restricted to the
    4-dimensional invariant subspace that feeds the pair.  Normalization:
    bilinear contraction with the matching right vector equals one.
    """
    lam, q, eps, Q = _closed_form_inputs(point, tols)
    if abs(Q / (lam * lam * q * q - 1.0)) < tols.ep_gap:
        raise UnsupportedRegimeError("biorthogonal left vectors do not exist at the EP")
    f_minus, f_plus = _f_pm(lam, q, eps, Q)

    out: dict[int, np.ndarray] = {}
    pref = q * (lam * lam - 1.0) / Q
    out[15] = pref * (_e(14) - f_minus * _e(15))
    out[16] = -pref * (_e(14) - f_plus * _e(15))

    # w9/w10 live on vectorized indices {5, 9, 14, 15} (1-based); solve the
    # two unknown components from the restricted left eigenproblem.
    s = superoperator_at(point, tols)
    sub = [4, 8, 13, 14]   # 0-based
    M = s.matrix[np.ix_(sub, sub)]
    mu = analytic_spectrum(point, tols).mu
    for label, fpm in ((9, f_minus), (10, f_plus)):
        known = np.array([1.0, fpm, 0.0, 0.0], dtype=complex)
        A = M.T - mu[label - 1] * np.eye(4)
        sol, *_ = np.linalg.lstsq(A[:, 2:], -A @ known, rcond=None)
        w = np.zeros(16, dtype=complex)
        w[sub] = [1.0, fpm, sol[0], sol[1]]
        out[label] = w / (1.0 + fpm * fpm / eps)
    return out


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
    lam, q, eps, Q = _closed_form_inputs(point, tols)
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
