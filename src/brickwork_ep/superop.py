"""Assembly of the 16x16 one-step superoperator, its parity block
structure, CPTP diagnostics, and the factored characteristic polynomials
of the 8x8 parity blocks in the integrable theta = 0 case.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances, raise_first
from .gates import GateSet, ParameterPoint, SIGMA_ZZ, build_gate_set
from .linalg import devectorize, eig_general, match_spectra, vectorize


class SymmetryViolationError(RuntimeError):
    """The superoperator does not commute with the parity projectors."""


class UnsupportedRegimeError(ValueError):
    """Closed-form results are only available for theta = 0, easy plane."""


# Parity of the vectorized basis element |i><j| is the sign of
# (sigma_z x sigma_z)_{ii} (sigma_z x sigma_z)_{jj}; the even/odd index lists
# below are fixed by the diagonal of kron(SIGMA_ZZ, SIGMA_ZZ).
_PARITY_DIAG = np.diag(np.kron(SIGMA_ZZ, SIGMA_ZZ)).real
EVEN_INDICES = tuple(int(i) for i in np.flatnonzero(_PARITY_DIAG > 0))
ODD_INDICES = tuple(int(i) for i in np.flatnonzero(_PARITY_DIAG < 0))


@dataclass(frozen=True)
class Superoperator:
    """One full brickwork step acting on vectorized 4x4 operators."""

    matrix: np.ndarray           # 16x16
    point: ParameterPoint
    gates: GateSet
    tau_plus: np.ndarray         # 8x8 even-parity block
    tau_minus: np.ndarray        # 8x8 odd-parity block
    cptp_guaranteed: bool        # coupling gate passed the unitarity check


def _block(rows, cols):
    """Index of the (rows, cols) sub-block of a matrix or of each of a stack."""
    return (...,) + np.ix_(rows, cols)


def _indicator(indices) -> np.ndarray:
    """Which of the 16 vec indices are in `indices`."""
    return np.isin(np.arange(16), indices)


_PARITY_CHECK = (np.not_equal.outer(_PARITY_DIAG > 0, _PARITY_DIAG > 0), "parity commutator")


def _check_zero(matrix: np.ndarray, tols: Tolerances, *checks):
    """Raise SymmetryViolationError if the entries of a mask, which the
    structure forces to zero, are not; each matrix at its own scale.  The
    (mask, what) `checks` run in order on one |matrix|."""
    a = np.abs(matrix)
    bound = tols.parity_commutator * np.maximum(1.0, a.max(axis=(-2, -1)))
    for zero, what in checks:
        leak = (a * zero).max(axis=(-2, -1))
        raise_first(leak > bound,
                    lambda i: SymmetryViolationError(f"{what} {np.ravel(leak)[i]:.3e} exceeds "
                                                     f"tolerance {tols.parity_commutator:.1e}"))


def block_reduce(matrix: np.ndarray, tols: Tolerances = DEFAULT_TOLS):
    """Split a parity-symmetric 16x16 map, or each of a stack, into its two
    8x8 blocks (tau_plus, tau_minus).

    Raises SymmetryViolationError if the map does not commute with the
    parity projectors (e.g. a local gate not commuting with sigma_z).  The
    commutator's entries are the cross-parity entries up to sign, so those
    are checked directly.
    """
    _check_zero(matrix, tols, _PARITY_CHECK)
    return matrix[_block(EVEN_INDICES, EVEN_INDICES)], matrix[_block(ODD_INDICES, ODD_INDICES)]


# The pair mu9/mu10 is the spectrum of the map on vec indices {4, 8}: for
# every regime and theta no other row reads those columns.
PAIR_INDICES = (4, 8)
_INTO_PAIR = np.outer(~_indicator(PAIR_INDICES), _indicator(PAIR_INDICES))


def pair_block(matrix: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """The invariant 2x2 block T[pair, pair], of a map or of each of a stack.
    Raises SymmetryViolationError if the map breaks parity (`block_reduce`'s
    check) or, after that, if another row reads the pair's columns."""
    _check_zero(matrix, tols, _PARITY_CHECK, (_INTO_PAIR, "leak into the pair block"))
    return matrix[_block(PAIR_INDICES, PAIR_INDICES)]


def assemble(U: np.ndarray, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The vectorized step T = sum_m W_m x W_m^* with W_m = U (K_m x V), from
    U (..., 4, 4), the Kraus pair K (..., 2, 2, 2) and V (..., 2, 2): a stack
    of N steps gives (N, 16, 16).  The sum over m is one matmul of the
    flattened W_m, whose (ij, kl) entries are then reordered to (ik, jl)."""
    n = U.shape[:-2]
    KV = np.einsum("...mij,...kl->...mikjl", K, V).reshape(K.shape[:-2] + (4, 4))
    W = (U[..., None, :, :] @ KV).reshape(n + (2, 16))
    T = W.swapaxes(-1, -2) @ W.conj()
    return T.reshape(n + (4, 4, 4, 4)).swapaxes(-3, -2).reshape(n + (16, 16))


def build_superoperator(g: GateSet, tols: Tolerances = DEFAULT_TOLS) -> Superoperator:
    """Assemble the step of one gate set and block-split it."""
    T = assemble(g.U, np.stack((g.K1, g.K2)), g.V)
    tau_plus, tau_minus = block_reduce(T, tols)
    return Superoperator(
        matrix=T, point=g.point, gates=g,
        tau_plus=tau_plus, tau_minus=tau_minus,
        cptp_guaranteed=g.unitary,
    )


def superoperator_at(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> Superoperator:
    """Convenience: gates plus superoperator in one call."""
    return build_superoperator(build_gate_set(point, tols), tols)


def trace_preservation_defect(matrix: np.ndarray) -> float:
    """How far the trace functional is from being a left fixed point of the map."""
    tr = vectorize(np.eye(4))
    return float(np.abs(matrix.T @ tr - tr).max())


def choi_matrix(matrix: np.ndarray) -> np.ndarray:
    """Choi matrix sum_ij |i><j| x E(|i><j|) of the 4-dim channel E.

    E(|i><j|)[k, l] = matrix[4k + l, 4i + j], so J is a transpose of the
    map's entries.
    """
    return matrix.reshape(4, 4, 4, 4).transpose(2, 0, 3, 1).reshape(16, 16)


def choi_min_eigenvalue(matrix: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitized Choi matrix (>= 0 for a CP map)."""
    J = choi_matrix(matrix)
    return float(np.linalg.eigvalsh((J + J.conj().T) / 2).min())


def steady_state(s: Superoperator, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Density matrix fixed by the step: the unit-eigenvalue right eigenvector."""
    es = eig_general(s.matrix, tols)
    j = int(np.argmin(np.abs(es.eigenvalues - 1.0)))
    if abs(es.eigenvalues[j] - 1.0) > 1e-8:
        raise RuntimeError(f"no eigenvalue close to 1: nearest is {es.eigenvalues[j]}")
    rho = devectorize(es.right[:, j])
    rho = rho / np.trace(rho)
    herm_defect = np.abs(rho - rho.conj().T).max()
    if herm_defect > 1e-9:
        raise RuntimeError(f"steady state Hermiticity defect {herm_defect:.2e}")
    return (rho + rho.conj().T) / 2


# ---------------------------------------------------------------------------
# closed-form characteristic data of the parity blocks (theta = 0)
# ---------------------------------------------------------------------------

def pair_sum_coeff(q: complex, epsilon: float) -> complex:
    """(q^2 - 1)(eps + 1); times lambda over a block denominator it is the
    sum of each square-root eigenvalue pair."""
    return (q * q - 1.0) * (epsilon + 1.0)


def pair_splitting_sqrt(lam: complex, q: complex, epsilon: float) -> complex:
    """Principal square root controlling every pairwise eigenvalue splitting.

    The radicand factors as lam^2 q^2 A with A the real easy-plane
    discriminant, so this vanishes exactly on the EP manifold.
    """
    radicand = (lam**2 * (epsilon - 1.0) ** 2 * (q**4 + 1.0)
                + 2.0 * q**2 * (2.0 * lam**4 * epsilon
                                - lam**2 * (epsilon + 1.0) ** 2
                                + 2.0 * epsilon))
    return np.sqrt(np.asarray(radicand, dtype=complex))


def even_quad_linear_coeff(lam: complex, q: complex, epsilon: float) -> complex:
    """Linear coefficient xi of the even-block quadratic mu^2 + xi mu + eps^2."""
    num = (lam**2 * q**4 * (epsilon**2 + 1.0)
           + 2.0 * q**2 * (lam**4 * epsilon - lam**2 * (epsilon + 1.0) ** 2 + epsilon)
           + lam**2 * (epsilon**2 + 1.0))
    return num / ((lam**2 - q**2) * (lam**2 * q**2 - 1.0))


def odd_sector_quadratics(lam: complex, q: complex, epsilon: float):
    """The four monic quadratics whose roots are the odd-block eigenvalues.

    Each is the characteristic polynomial of one 2x2 sub-block; the second
    and fourth are the first and third with mu -> mu/eps rescaled, so their
    roots are eps times the others'.  Returned as (1, c1, c0) coefficient
    triples.
    """
    f = pair_sum_coeff(q, epsilon)
    dp = q * q - lam * lam
    dm = lam * lam * q * q - 1.0
    P1 = (1.0, f * lam / (lam * lam - q * q), epsilon * dm / dp)
    P2 = (1.0, epsilon * f * lam / (lam * lam - q * q), epsilon**3 * dm / dp)
    P3 = (1.0, f * lam / (1.0 - lam * lam * q * q), epsilon * dp / dm)
    P4 = (1.0, epsilon * f * lam / (1.0 - lam * lam * q * q), epsilon**3 * dp / dm)
    return P1, P2, P3, P4


@dataclass(frozen=True)
class CharFactorReport:
    """Factored characteristic polynomial of one parity block, checked
    against that block's numerical eigenvalues."""

    sector: str
    factors: tuple[tuple[complex, ...], ...]   # monic coefficient tuples, highest power first
    eigenvalues: np.ndarray                    # numerical eigenvalues of the block
    assignments: tuple[int, ...]               # factor index annihilating each eigenvalue
    max_residual: float                        # max over eigenvalues of min_k |P_k(mu)|
    rescale_defect: float                      # root rescaling relation (odd sector), else 0.0


def factored_char_poly(tau: np.ndarray, point: ParameterPoint, sector: str,
                       tols: Tolerances = DEFAULT_TOLS) -> CharFactorReport:
    """Verify the closed-form factorization of one 8x8 parity block.

    Even sector: (mu-1)(mu-eps^2)(mu-eps)^2 * (mu-eps)^2 (mu^2 + xi mu + eps^2).
    Odd sector: the four quadratics of `odd_sector_quadratics`, with the
    rescaling relation roots(P2) = eps * roots(P1), roots(P4) = eps * roots(P3).
    """
    if not point.superintegrable:
        raise UnsupportedRegimeError("closed-form factorization requires theta = 0")
    lam, q, eps = point.lam, point.q, point.epsilon
    if sector == "even":
        xi = even_quad_linear_coeff(lam, q, eps)
        factors = ((1.0, -1.0), (1.0, -eps**2), (1.0, -eps), (1.0, -eps),
                   (1.0, -eps), (1.0, -eps), (1.0, xi, eps**2))
        capacity = [1, 1, 1, 1, 1, 1, 2]
        rescale_defect = 0.0
    elif sector == "odd":
        P1, P2, P3, P4 = odd_sector_quadratics(lam, q, eps)
        factors = (P1, P2, P3, P4)
        capacity = [2, 2, 2, 2]
        rescale_defect = max(match_spectra(np.roots(P2), eps * np.roots(P1)).max_distance,
                             match_spectra(np.roots(P4), eps * np.roots(P3)).max_distance)
    else:
        raise ValueError(f"sector must be 'even' or 'odd', got {sector!r}")

    evals = np.linalg.eigvals(np.asarray(tau, dtype=complex))
    remaining = list(capacity)
    assignments = []
    max_residual = 0.0
    for mu in evals:
        vals = [abs(np.polyval(f, mu)) if remaining[k] > 0 else np.inf
                for k, f in enumerate(factors)]
        k = int(np.argmin(vals))
        remaining[k] -= 1
        assignments.append(k)
        max_residual = max(max_residual, float(vals[k]))
    return CharFactorReport(
        sector=sector,
        factors=factors,
        eigenvalues=evals,
        assignments=tuple(assignments),
        max_residual=max_residual,
        rescale_defect=float(rescale_defect),
    )
