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

from .config import DEFAULT_TOLS, Tolerances, raise_first

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


# |q lam - 1/(q lam)| (about e^709.09 for |q| = 1) below which the plain gate
# entries' complex divisions, with intermediates up to sqrt(2) times it, stay finite
_EDGE = np.finfo(float).max / 2.0


class SingularGateError(ValueError):
    """Gate parameters sit on (or too close to) a vanishing denominator."""


def check_parameters(x, gamma, epsilon, theta):
    """Checks of a point, or of each point of a stack (arrays over one axis):
    x, gamma, epsilon and theta finite, epsilon in (0, 1], and lambda = e^x,
    q = e^(i gamma) and their inverses finite.  Returns (lambda, q)."""
    x, gamma, epsilon, theta = (np.array(v, copy=None, ndmin=1) for v in (x, gamma, epsilon, theta))
    raise_first(~(np.isfinite(x) & np.isfinite(gamma) & np.isfinite(epsilon) & np.isfinite(theta)),
                lambda i: ValueError("non-finite parameter"))
    raise_first(~((0.0 < epsilon) & (epsilon <= 1.0)),
                lambda i: ValueError(f"epsilon must lie in (0, 1], got {epsilon[i]}"))
    with np.errstate(all="ignore"):
        lam, q = np.exp(x), np.exp(1j * gamma)
        finite = np.isfinite(lam) & np.isfinite(1 / lam) & np.isfinite(q) & np.isfinite(1 / q)
    raise_first(~finite, lambda i: ValueError(
        "lambda = e^x, q = e^(i gamma) and their inverses must be finite"))
    return lam, q


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
        lam, q = check_parameters(self.x, self.gamma, self.epsilon, self.theta)
        if self.regime is ParameterRegime.EASY_PLANE:
            if abs(np.imag(self.x)) > 1e-12 or abs(np.imag(self.gamma)) > 1e-12:
                raise ValueError("easy-plane regime requires real x and gamma")
        elif self.regime is ParameterRegime.EASY_AXIS:
            if abs(np.imag(q[0])) > 1e-12 * abs(q[0]) or abs(abs(lam[0]) - 1.0) > 1e-12:
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
    point: ParameterPoint
    unitary: bool   # U passed the unitarity check (guaranteed CPTP step)


def check_denominators(lam, q, tols: Tolerances):
    """Reject points where q^2 lam^2 = 1 or q^2 = lam^2: those denominators
    appear in the gate and throughout the parity-block spectra.  Where
    |lam| > 1 both are tested through r = 1/lam, as |q^2 lam^2 - 1| =
    |lam|^2 |q^2 - r^2| and |q^2 - lam^2| = |lam|^2 |q^2 r^2 - 1|, so that
    lam^2 is never formed."""
    lam, q = np.array(lam, copy=None, ndmin=1), np.array(q, copy=None, ndmin=1)
    big = np.abs(lam) > 1.0
    r = np.where(big, 1.0 / lam, lam)
    scale = np.where(big, np.abs(r) ** 2, 1.0)   # 1/|lam|^2, or 1
    near = np.minimum(np.abs(q * q * r * r - 1.0), np.abs(q * q - r * r))   # times scale
    raise_first(near < tols.singular_gate * scale, lambda i: SingularGateError(
        f"singular gate parameters: min(|q^2 lam^2 - 1|, |q^2 - lam^2|) = "
        f"{near[i] / scale[i]:.2e}"))


def relaxation_kraus(epsilon) -> np.ndarray:
    """Kraus pair (K1, K2) of the single-qubit relaxation channel toward
    |up><up|, as one array (2, ..., 2, 2) over the shape of epsilon."""
    eps = np.asarray(epsilon, dtype=float)
    raise_first(~((0.0 < eps) & (eps <= 1.0)),
                lambda i: ValueError(f"epsilon must lie in (0, 1], got {eps.flat[i]}"))
    K = np.zeros((2,) + eps.shape + (2, 2), dtype=complex)
    K[0, ..., 0, 1] = np.sqrt(1.0 - eps**2)
    K[1, ..., 0, 0] = 1.0
    K[1, ..., 1, 1] = eps
    return K


def local_phase_gate(theta) -> np.ndarray:
    """diag(e^{i theta}, e^{-i theta}); a stack (..., 2, 2) for an array of theta."""
    theta = np.asarray(theta)
    V = np.zeros(theta.shape + (2, 2), dtype=complex)
    V[..., 0, 0] = np.exp(1j * theta)
    V[..., 1, 1] = np.exp(-1j * theta)
    return V


def _unitarity_defect(m: np.ndarray, eye: np.ndarray) -> np.ndarray:
    return np.abs(m.conj().swapaxes(-1, -2) @ m - eye).max(axis=(-2, -1))


def gate_stack(x, gamma, epsilon, theta, tols: Tolerances = DEFAULT_TOLS,
               regime: ParameterRegime = ParameterRegime.EASY_PLANE):
    """Gates of one brickwork step, or of each step of a stack (arrays over
    one axis of N points): the coupling gates U (N, 4, 4), the Kraus pairs
    K (N, 2, 2, 2), the phase gates V (N, 2, 2) and whether each U passed
    the unitarity check, which outside the general regime it must.

    U has unit corners and the centre block [[a, b], [b, a]], with
    a = (q - 1/q) / (q lam - 1/(q lam)) and b = (lam - 1/lam) / (q lam - 1/(q lam)).
    """
    lam, q = check_parameters(x, gamma, epsilon, theta)
    check_denominators(lam, q, tols)
    return _checked_gate_stack(lam, q, epsilon, theta, tols, regime)


def _checked_gate_stack(lam, q, epsilon, theta, tols: Tolerances, regime: ParameterRegime):
    """`gate_stack` from the (lam, q) of points that passed `check_parameters`
    and `check_denominators`.  Rows whose denominator passes `_EDGE` are
    formed through t = 1/lam or lam, whichever is small, and p = q or 1/q:
    a = t (p - 1/p) / d and b = (1 - t^2) / d with d = p - t^2/p; the others
    keep the plain form."""
    with np.errstate(over="ignore", invalid="ignore"):   # edge rows are replaced below
        den = q * lam - 1.0 / (q * lam)
        a, b = (q - 1.0 / q) / den, (lam - 1.0 / lam) / den
    edge = np.abs(den) > _EDGE
    if edge.any():
        lam, q = np.broadcast_arrays(lam, q)
        big = np.abs(lam[edge]) > 1.0
        t = np.where(big, 1.0 / lam[edge], lam[edge])
        p = np.where(big, q[edge], 1.0 / q[edge])
        d = p - t * t / p
        a[edge], b[edge] = t * (p - 1.0 / p) / d, (1.0 - t * t) / d
    U = np.zeros(den.shape + (4, 4), dtype=complex)
    U[:, 0, 0] = U[:, 3, 3] = 1.0
    U[:, 1, 1] = U[:, 2, 2] = a
    U[:, 1, 2] = U[:, 2, 1] = b
    K = relaxation_kraus(np.array(epsilon, copy=None, ndmin=1)).swapaxes(0, 1)
    V = local_phase_gate(np.array(theta, copy=None, ndmin=1))

    completeness = np.abs(np.einsum("nmji,nmjk->nik", K.conj(), K) - I2).max(axis=(1, 2))
    raise_first(completeness > tols.kraus_completeness,
                lambda i: ArithmeticError(f"Kraus completeness defect {completeness[i]:.2e}"))
    raise_first(_unitarity_defect(V, I2) > tols.local_unitarity,
                lambda i: ArithmeticError("local phase gate failed unitarity"))
    defect = _unitarity_defect(U, I4)
    unitary = defect <= tols.gate_unitarity
    if regime is not ParameterRegime.GENERAL:
        raise_first(~unitary, lambda i: ArithmeticError(
            f"gate unitarity defect {defect[i]:.2e} in regime {regime.value}"))
    return U, K, V, unitary


def build_gate_set(point: ParameterPoint, tols: Tolerances = DEFAULT_TOLS) -> GateSet:
    """All gates of one brickwork step: `gate_stack`, N = 1, on a checked point."""
    lam, q = np.atleast_1d(point.lam), np.atleast_1d(point.q)
    check_denominators(lam, q, tols)
    U, K, V, unitary = _checked_gate_stack(lam, q, point.epsilon, point.theta, tols, point.regime)
    return GateSet(U=U[0], K1=K[0, 0], K2=K[0, 1], V=V[0], point=point,
                   unitary=bool(unitary[0]))
