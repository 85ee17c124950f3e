"""Discrete-to-continuous bridge: the XXZ interaction that the two-qubit
gate approaches at small coupling, the exact spectral embedding of the
relaxation channel into a Lindblad semigroup, and the composite Trotter
limit of the full brickwork step toward a boundary-driven master equation.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .config import DEFAULT_TOLS, Tolerances
from .gates import I2, I4, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_ZZ, gate_stack, relaxation_kraus
from .linalg import kron
from .superop import assemble, block_reduce


@dataclass(frozen=True)
class XXZSpec:
    """Two-qubit XXZ interaction h12 = J (xx + yy + Delta (zz - 1))."""

    J: float
    Delta: float
    h12: np.ndarray


def build_xxz(gamma: float) -> XXZSpec:
    if abs(np.sin(gamma)) < 1e-12:
        raise ValueError("gamma must not be a multiple of pi")
    J = 1.0 / (2.0 * np.sin(gamma))
    Delta = float(np.cos(gamma))
    h12 = J * (kron(SIGMA_X, SIGMA_X) + kron(SIGMA_Y, SIGMA_Y) + Delta * (SIGMA_ZZ - I4))
    return XXZSpec(J=J, Delta=Delta, h12=h12)


def dissipator_matrix(L: np.ndarray) -> np.ndarray:
    """Vectorized dissipator of 2 L rho L^dag - {L^dag L, rho} (row-major)."""
    L = np.asarray(L, dtype=complex)
    LdL = L.conj().T @ L
    eye = np.eye(L.shape[0], dtype=complex)
    return 2.0 * kron(L, L.conj()) - kron(LdL, eye) - kron(eye, LdL.T)


@dataclass(frozen=True)
class LindbladSpec:
    """Boundary-driven generator -i[h, .] + Gamma D_L with L = sigma+ on qubit 1.

    The Hamiltonian normalization pairs with per-step coupling
    lambda - 1 = 2 sin(gamma) t/n, i.e. h = 2 sin(gamma) h12.
    """

    Gamma: float
    jump: np.ndarray          # 4x4, sigma+ on qubit 1
    hamiltonian: np.ndarray   # 4x4
    generator: np.ndarray     # 16x16 vectorized form


def build_lindblad(gamma: float, Gamma: float) -> LindbladSpec:
    xxz = build_xxz(gamma)
    h = 2.0 * np.sin(gamma) * xxz.h12
    L = kron(SIGMA_PLUS, I2)
    gen = -1j * (kron(h, I4) - kron(I4, h.T)) + Gamma * dissipator_matrix(L)
    return LindbladSpec(Gamma=Gamma, jump=L, hamiltonian=h, generator=gen)


@dataclass(frozen=True)
class SpectralMapReport:
    epsilon: float
    kraus_power_eigs: tuple[float, ...]    # {1, eps^{2n}, eps^n, eps^n}
    semigroup_eigs: tuple[float, ...]      # {1, e^{-2 Gamma t}, e^{-Gamma t}, e^{-Gamma t}}
    max_eig_diff: float
    channel_diff: float                    # || K^n - exp(Gamma t D) || entrywise


def kraus_lindblad_spectral_map(Gamma: float, t: float, n: int) -> SpectralMapReport:
    """Exact embedding of n relaxation steps into the Lindblad semigroup.

    With eps = e^{-Gamma t / n} the n-step channel spectrum {1, eps^{2n},
    eps^n, eps^n} equals the semigroup spectrum {1, e^{-2 Gamma t},
    e^{-Gamma t}, e^{-Gamma t}} identically, and the single-qubit channels
    themselves coincide (same eigenoperators, same eigenvalues).
    """
    if Gamma * t < 0 or n < 1:
        raise ValueError("need Gamma*t >= 0 and n >= 1")
    eps = float(np.exp(-Gamma * t / n))
    kraus_eigs = (1.0, eps ** (2 * n), eps**n, eps**n)
    semi_eigs = (1.0, float(np.exp(-2 * Gamma * t)), float(np.exp(-Gamma * t)),
                 float(np.exp(-Gamma * t)))
    max_eig_diff = max(abs(a - b) for a, b in zip(kraus_eigs, semi_eigs))

    K1, K2 = relaxation_kraus(eps)
    K = kron(K1, K1.conj()) + kron(K2, K2.conj())
    Kn = np.linalg.matrix_power(K, n)
    semigroup = la.expm(Gamma * t * dissipator_matrix(SIGMA_PLUS))
    channel_diff = float(np.abs(Kn - semigroup).max())
    return SpectralMapReport(epsilon=eps, kraus_power_eigs=kraus_eigs,
                             semigroup_eigs=semi_eigs, max_eig_diff=max_eig_diff,
                             channel_diff=channel_diff)


@dataclass(frozen=True)
class TrotterReport:
    rows: tuple[tuple[int, float, float], ...]   # (n, unitary-only error, composite error)
    ratios: tuple[float, ...]                    # composite error ratio between consecutive n
    halving_ok: bool


def trotter_lambda(gamma: float, t: float, n: int) -> float:
    """Spectral parameter of one of n steps over time t, 1 + 2 sin(gamma) t/n."""
    return 1.0 + 2.0 * np.sin(gamma) * t / n


def composite_trotter_check(gamma: float, Gamma: float, t: float, n_list,
                            tols: Tolerances = DEFAULT_TOLS) -> TrotterReport:
    """n brickwork steps against the dense exponential of the generator.

    Per step: lambda_n = 1 + 2 sin(gamma) t/n and eps_n = e^{-Gamma t/n}.
    The error is the Frobenius norm of the difference of the two 16x16
    propagators; it decays as O(1/n), so doubling n halves it.  The
    unitary-only column repeats the check at Gamma = 0.  Raises ValueError
    if gamma, Gamma or t is not finite or lambda_n <= 0 at the smallest n,
    and FloatingPointError if a propagator or an error is not finite.
    """
    if not np.isfinite([gamma, Gamma, t]).all():
        raise ValueError(f"need finite gamma, Gamma and t, got {gamma}, {Gamma}, {t}")
    ns = sorted(int(n) for n in n_list)
    lam_n = trotter_lambda(gamma, t, ns[0])
    if not lam_n > 0:
        raise ValueError(f"need lambda_n = 1 + 2 sin(gamma) t/n > 0 for every n, got {lam_n} "
                         f"at n = {ns[0]}")
    with np.errstate(all="ignore"):   # a non-finite result is reported below
        ref, ref_unitary = (la.expm(t * build_lindblad(gamma, G).generator)
                            for G in (Gamma, 0.0))
        # stacked as a per-point loop meets the steps: the first failing one decides
        eps = np.ravel([(np.exp(-Gamma * t / n) if Gamma * t != 0 else 1.0, 1.0) for n in ns])
        x = np.repeat([np.log(trotter_lambda(gamma, t, n)) for n in ns], 2)
        T = assemble(*gate_stack(x, gamma, eps, 0.0, tols)[:3])
        block_reduce(T, tols)   # the parity check of every step
        rows = [(n, float(np.linalg.norm(np.linalg.matrix_power(step_u, n) - ref_unitary)),
                 float(np.linalg.norm(np.linalg.matrix_power(step, n) - ref)))
                for n, step, step_u in zip(ns, T[0::2], T[1::2])]
    for n, *errors in rows:
        if not np.isfinite(errors).all():
            raise FloatingPointError(f"a Trotter propagator or its error is not finite at n = {n}")

    pairs = [(e1 / e2, n2 / n1) for (n1, _, e1), (n2, _, e2) in zip(rows, rows[1:]) if e2 != 0.0]
    ratios = tuple(r for r, _ in pairs)
    halving_ok = all(abs(r - e) <= tols.halving_ratio_rtol * e for r, e in pairs)
    return TrotterReport(rows=tuple(rows), ratios=ratios, halving_ok=halving_ok)
