"""Closed-form eigenvectors of the theta = 0 step, used only by the tests as
printed formulas to check the numerical map against.

Labels are 1-based, as in `brickwork_ep.spectrum`.  The left vectors of the
pair mu9/mu10 reach from the pair block on vec indices {4, 8} into the
block {13, 14}, whose rows read only columns 13 and 14.
"""

from dataclasses import dataclass

import numpy as np

from brickwork_ep import analytic_spectrum, superoperator_at
from brickwork_ep.config import DEFAULT_TOLS, Tolerances
from brickwork_ep.gates import ParameterPoint
from brickwork_ep.spectrum import _f_pm
from brickwork_ep.superop import UnsupportedRegimeError, _block, _check_zero

from assembly_oracle import PAIR_INDICES, indicator

COMPLETION_INDICES = (13, 14)


def completion_blocks(matrix: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """(C, D) = (T[pair, completion], T[completion, completion]).

    A left eigenvector w of the pair block extends to one of the map as
    (w, w C (mu - D)^{-1}).  Raises SymmetryViolationError if the rows of
    both pairs read other columns or the completion rows read the pair's.
    """
    both = indicator(PAIR_INDICES + COMPLETION_INDICES)
    into_pair = np.outer(indicator(COMPLETION_INDICES), indicator(PAIR_INDICES))
    zero = np.outer(both, ~both) | into_pair
    _check_zero(matrix, tols, zero, "leak out of the completion block")
    return (matrix[_block(PAIR_INDICES, COMPLETION_INDICES)],
            matrix[_block(COMPLETION_INDICES, COMPLETION_INDICES)])


def _coalesced(lam, q, Q, tols: Tolerances) -> bool:
    """mu9 and mu10 count as one eigenvalue: |mu10 - mu9| = |Q / (lam^2 q^2 - 1)| < ep_gap."""
    return bool(abs(Q / (lam * lam * q * q - 1.0)) < tols.ep_gap)


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
    w C (mu - D)^{-1} (see `completion_blocks`).  Normalization: bilinear
    contraction with the matching right vector equals one.
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
