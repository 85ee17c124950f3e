"""Circuit primitives: the two-qubit coupling gate, the single-qubit
relaxation channel, and the local phase gate.

Basis conventions: |up> = (1, 0), |down> = (0, 1); two-qubit states are
ordered |q1 q2> with qubit 1 the dissipated one.  sigma+ raises,
sigma+ |down> = |up>, so the relaxation channel has fixed point
|up><up|.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
PROJ_UP = np.array([[1, 0], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# parity operator conserved by every layer
SIGMA_ZZ = np.kron(SIGMA_Z, SIGMA_Z)


class SingularGateError(ValueError):
    """Gate parameters sit on (or too close to) a vanishing denominator."""


class ParameterRegime(enum.Enum):
    EASY_PLANE = "easy-plane"   # |q| = 1, lambda real
    EASY_AXIS = "easy-axis"     # q real, |lambda| = 1
    GENERAL = "general"


@dataclass(frozen=True)
class ParameterPoint:
    """Coordinates (x = log lambda, gamma with q = e^{i gamma}, epsilon, theta).

    x and gamma are stored as complex scalars; in the easy-plane regime both
    are real, in the easy-axis regime both are purely imaginary (up to a real
    part of pi in gamma for negative q).
    """

    x: complex
    gamma: complex
    epsilon: float
    theta: float = 0.0
    regime: ParameterRegime = ParameterRegime.EASY_PLANE

    def __post_init__(self):
        vals = [self.x, self.gamma, self.epsilon, self.theta]
        if not all(np.isfinite([np.real(v) for v in vals] + [np.imag(v) for v in vals])):
            raise ValueError("non-finite parameter")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        with np.errstate(all="ignore"):
            lam, q = self.lam, self.q
            if not np.isfinite([lam, 1 / lam, q, 1 / q]).all():
                raise ValueError("lambda = e^x, q = e^(i gamma) and their inverses must be finite")
        if self.regime is ParameterRegime.EASY_PLANE:
            if abs(np.imag(self.x)) > 1e-12 or abs(np.imag(self.gamma)) > 1e-12:
                raise ValueError("easy-plane regime requires real x and gamma")
        elif self.regime is ParameterRegime.EASY_AXIS:
            if abs(np.imag(q)) > 1e-12 * abs(q) or abs(abs(lam) - 1.0) > 1e-12:
                raise ValueError("easy-axis regime requires real q and |lambda| = 1")

    @property
    def lam(self) -> complex:
        return np.exp(self.x)

    @property
    def q(self) -> complex:
        return np.exp(1j * self.gamma)

    @property
    def superintegrable(self) -> bool:
        """theta = 0: the case with closed-form spectrum and EP manifold."""
        return abs(self.theta) < 1e-14

    @classmethod
    def easy_plane(cls, x: float, gamma: float, epsilon: float, theta: float = 0.0):
        return cls(x=float(x), gamma=float(gamma), epsilon=epsilon, theta=theta,
                   regime=ParameterRegime.EASY_PLANE)

    @classmethod
    def easy_axis(cls, log_q: float, phase: float, epsilon: float, theta: float = 0.0):
        """q = e^{log_q} real, lambda = e^{i phase} on the unit circle."""
        return cls(x=1j * float(phase), gamma=-1j * float(log_q), epsilon=epsilon,
                   theta=theta, regime=ParameterRegime.EASY_AXIS)

    @classmethod
    def general(cls, x: complex, gamma: complex, epsilon: float, theta: float = 0.0):
        return cls(x=complex(x), gamma=complex(gamma), epsilon=epsilon, theta=theta,
                   regime=ParameterRegime.GENERAL)


@dataclass(frozen=True)
class GateSet:
    """One full brickwork step's ingredients."""

    U: np.ndarray
    K1: np.ndarray
    K2: np.ndarray
    V: np.ndarray
    a: complex
    b: complex
    point: ParameterPoint
    unitary: bool   # U passed the unitarity check (guaranteed CPTP step)


def check_denominators(lam: complex, q: complex, tols: Tolerances):
    """Reject parameters where q^2 lam^2 = 1 or q^2 = lam^2: those denominators
    appear in the gate and throughout the parity-block spectra."""
    if abs(q * q * lam * lam - 1.0) < tols.singular_gate or abs(q * q - lam * lam) < tols.singular_gate:
        raise SingularGateError(
            f"singular gate parameters: |q^2 lam^2 - 1| = {abs(q*q*lam*lam-1.0):.2e}, "
            f"|q^2 - lam^2| = {abs(q*q-lam*lam):.2e}"
        )


def coupling_gate(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS):
    """The 4x4 two-qubit gate with unit corners and a symmetric centre block.

    a = (q - 1/q) / (q lam - 1/(q lam)),  b = (lam - 1/lam) / (q lam - 1/(q lam)).
    Singular parameters are rejected by `check_denominators`.
    """
    lam, q = point.lam, point.q
    check_denominators(lam, q, tols)
    den = q * lam - 1.0 / (q * lam)
    a = (q - 1.0 / q) / den
    b = (lam - 1.0 / lam) / den
    U = np.array([
        [1, 0, 0, 0],
        [0, a, b, 0],
        [0, b, a, 0],
        [0, 0, 0, 1],
    ], dtype=complex)
    return U, a, b


def relaxation_kraus(epsilon: float):
    """Kraus pair of the single-qubit relaxation channel toward |up><up|."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    K1 = np.sqrt(1.0 - epsilon**2) * SIGMA_PLUS
    K2 = np.array([[1.0, 0.0], [0.0, epsilon]], dtype=complex)
    return K1, K2


def apply_relaxation(epsilon: float, rho: np.ndarray) -> np.ndarray:
    """One application of the relaxation channel to a 2x2 operator."""
    K1, K2 = relaxation_kraus(epsilon)
    return K1 @ rho @ K1.conj().T + K2 @ rho @ K2.conj().T


def relaxation_channel_spectrum(epsilon: float):
    """Eigenoperators of the relaxation channel with their eigenvalues.

    Returns [(label, operator, eigenvalue)] for the four eigenpairs
    {P_up: 1, sigma_z: eps^2, sigma+: eps, sigma-: eps}; each pair is
    verified by direct Kraus application before being returned.
    """
    pairs = [
        ("proj_up", PROJ_UP, 1.0),
        ("sigma_z", SIGMA_Z, epsilon**2),
        ("sigma_plus", SIGMA_PLUS, epsilon),
        ("sigma_minus", SIGMA_MINUS, epsilon),
    ]
    for label, op, val in pairs:
        defect = np.abs(apply_relaxation(epsilon, op) - val * op).max()
        if defect > 1e-13:
            raise AssertionError(f"channel eigenpair {label} failed verification: {defect:.2e}")
    return pairs


def relaxation_steps(epsilon: float) -> float:
    """Typical number of steps to relax toward the channel fixed point, -2/log(eps)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"relaxation time diverges or is undefined at epsilon = {epsilon}")
    return -2.0 / np.log(epsilon)


def local_phase_gate(theta: float) -> np.ndarray:
    """diag(e^{i theta}, e^{-i theta}); the identity at theta = 0."""
    return np.diag([np.exp(1j * theta), np.exp(-1j * theta)])


def build_gate_set(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> GateSet:
    """Construct and validate all gates of one brickwork step."""
    U, a, b = coupling_gate(point, tols)
    K1, K2 = relaxation_kraus(point.epsilon)
    V = local_phase_gate(point.theta)

    completeness = np.abs(K1.conj().T @ K1 + K2.conj().T @ K2 - I2).max()
    if completeness > tols.kraus_completeness:
        raise AssertionError(f"Kraus completeness defect {completeness:.2e}")
    if np.abs(V.conj().T @ V - I2).max() > tols.local_unitarity:
        raise AssertionError("local phase gate failed unitarity")

    unitarity_defect = np.abs(U.conj().T @ U - I4).max()
    unitary = bool(unitarity_defect <= tols.gate_unitarity)
    if point.regime is not ParameterRegime.GENERAL and not unitary:
        raise AssertionError(
            f"gate unitarity defect {unitarity_defect:.2e} in regime {point.regime.value}"
        )
    return GateSet(U=U, K1=K1, K2=K2, V=V, a=a, b=b, point=point, unitary=unitary)
