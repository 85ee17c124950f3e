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

from .config import DEFAULT_TOLS, Tolerances, point_failures, raise_first
from .gates import (ParameterPoint, ParameterRegime, _checked_gate_stack, check_denominators,
                    check_parameters)
from .linalg import JordanCertificate, jordan_certificate
from .superop import (COMPLETION_INDICES, PAIR_INDICES, UnsupportedRegimeError, assemble,
                      completion_blocks, pair_block, pair_splitting_sqrt, pair_sum_coeff,
                      superoperator_at)


def _f_pm(lam, q, eps, Q):
    """(f-, f+) = (lam (q^2 - 1)(eps - 1) -+ Q) / (2 (lam^2 - 1) q)."""
    core = lam * (q * q - 1.0) * (eps - 1.0)
    den = 2.0 * (lam * lam - 1.0) * q
    return (core - Q) / den, (core + Q) / den


def _coalesced(lam, q, Q, tols: Tolerances) -> bool:
    """mu9 and mu10 count as one eigenvalue: |mu10 - mu9| = |Q / (lam^2 q^2 - 1)| < ep_gap."""
    return bool(abs(Q / (lam * lam * q * q - 1.0)) < tols.ep_gap)


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


def _closed_forms(x, gamma, eps, tols: Tolerances):
    """(mu, Q) of each point of a theta = 0 stack: the sixteen closed-form
    eigenvalues (N, 16) and the splitting quantity Q.  Raises
    `SingularGateError`, or `FloatingPointError` where the closed forms
    overflow (from |x| ~ 178 on, through lam^4 in Q)."""
    x, gamma, eps = (np.array(v, copy=None, ndmin=1) for v in (x, gamma, eps))
    lam, q = np.exp(x), np.exp(1j * gamma)
    check_denominators(lam, q, tols)
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
    mu, Q = _closed_forms(point.x, point.gamma, point.epsilon, tols)
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
    mu, _ = _closed_forms(x, gamma, eps, tols)
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
# closed-form eigenvectors (theta = 0)
# ---------------------------------------------------------------------------

def _on(indices, values) -> np.ndarray:
    """Vector with `values` at the 0-based `indices` and zeros elsewhere."""
    v = np.zeros(16, dtype=complex)
    v[list(indices)] = values
    return v


def _e(i: int) -> np.ndarray:
    """1-based unit vector in the 16-dim vectorized space."""
    return _on([i - 1], 1.0)


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
    Q = analytic_spectrum(point, tols).Q   # theta = 0 and denominator checks
    lam, q, eps = point.lam, point.q, point.epsilon
    F = (1.0 - q * q) * (eps - 1.0) * lam / (q * (lam * lam - 1.0))
    f_minus, f_plus = _f_pm(lam, q, eps, Q)

    vecs: dict[int, np.ndarray] = {}
    vecs[1] = _e(1)
    vecs[2] = _e(1) - _e(6) - _e(11) + _e(16)
    base = (1.0 + eps) * _e(1) - eps * _e(6) - _e(11)
    vecs[3] = vecs[4] = base + F * _e(10)
    vecs[5] = vecs[6] = base - F * _e(7)

    coalesced = _coalesced(lam, q, Q, tols)
    vecs[9] = _on(PAIR_INDICES, (1.0, f_minus / eps))
    vecs[10] = vecs[9] if coalesced else _on(PAIR_INDICES, (1.0, f_plus / eps))

    vecs[13] = _e(2) - (f_minus / eps) * _e(3)
    vecs[14] = vecs[13] if coalesced else _e(2) - (f_plus / eps) * _e(3)
    return ClosedFormVectors(vectors=vecs, coalesced=coalesced)


def closed_form_left_vectors(point: ParameterPoint,
                             tols: Tolerances = DEFAULT_TOLS) -> dict[int, np.ndarray]:
    """Left (row) eigenvectors for labels {9, 10, 15, 16}, bilinear pairing.

    w15 and w16 are fully closed-form.  w9 and w10 are w = (1, f-+) on the
    pair block, completed on the completion block by one 2x2 solve,
    w C (mu - D)^{-1} (see `superop.completion_blocks`).  Normalization:
    bilinear contraction with the matching right vector equals one.
    """
    spec = analytic_spectrum(point, tols)   # theta = 0 and denominator checks
    lam, q, eps, Q = point.lam, point.q, point.epsilon, spec.Q
    if _coalesced(lam, q, Q, tols):
        raise UnsupportedRegimeError("biorthogonal left vectors do not exist at the EP")
    f_minus, f_plus = _f_pm(lam, q, eps, Q)

    out: dict[int, np.ndarray] = {}
    pref = q * (lam * lam - 1.0) / Q
    out[15] = pref * _on(COMPLETION_INDICES, (1.0, -f_minus))
    out[16] = -pref * _on(COMPLETION_INDICES, (1.0, -f_plus))

    C, D = completion_blocks(superoperator_at(point, tols).matrix, tols)
    for label, fpm in ((9, f_minus), (10, f_plus)):
        pair = np.array([1.0, fpm])
        rest = np.linalg.solve(spec.mu[label - 1] * np.eye(2) - D.T, C.T @ pair)
        w = _on(PAIR_INDICES + COMPLETION_INDICES, (*pair, *rest))
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
