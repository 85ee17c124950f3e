"""Dense complex linear algebra for the 16-dimensional operator space.

Vectorization convention is row-major stacking, vec(X)[d*i + j] = X[i, j],
so that vec(A X B) = (A kron B^T) vec(X) and a Kraus conjugation
X -> M X M^dag becomes the matrix M kron M^*.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .config import DEFAULT_TOLS, Tolerances


class EigenDecompositionError(RuntimeError):
    """The dense eigensolver failed to converge."""


def _as_complex(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product with complex dtype, (a kron b)[i*rb+k, j*cb+l] = a[i,j] b[k,l]."""
    return np.kron(_as_complex(a), _as_complex(b))


def vectorize(rho) -> np.ndarray:
    """Row-major stacking of a square matrix into a d^2 vector."""
    rho = _as_complex(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    return rho.reshape(-1)


def devectorize(v) -> np.ndarray:
    """Inverse of `vectorize`."""
    v = _as_complex(v).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape(d, d)


@dataclass(frozen=True)
class EigenSystem:
    """Full non-Hermitian eigendecomposition with biorthogonal pairing.

    `left[:, j]` is normalized so that the row functional left[:, j].conj().T
    satisfies  w_j A = mu_j w_j.  `pair_condition[j] = 1/|<w_j|v_j>|` for
    unit-norm vectors; it diverges at a defective (Jordan) point.
    """

    dim: int
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    pair_condition: np.ndarray
    min_overlap: float
    near_defective: bool
    residual: float


def _cluster_indices(w: np.ndarray, gap: float) -> list[list[int]]:
    order = np.lexsort((w.imag, w.real))
    groups: list[list[int]] = []
    for i in order:
        if groups and abs(w[i] - w[groups[-1][-1]]) < gap:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    return groups


def eig_general(a, tols: Tolerances = DEFAULT_TOLS) -> EigenSystem:
    """Eigenvalues plus right/left eigenvectors of a general complex matrix.

    Within numerically degenerate but diagonalizable clusters, the left
    vectors are re-mixed so that <w_j|v_k> = delta_jk across the cluster.
    If that cannot be done (the cluster is defective) the system is flagged
    `near_defective` instead of failing.
    """
    a = _as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    try:
        w, vl, vr = la.eig(a, left=True, right=True)
    except la.LinAlgError as exc:  # pragma: no cover - hard to trigger on dense input
        raise EigenDecompositionError(str(exc)) from exc

    vr = vr / np.linalg.norm(vr, axis=0)
    vl = vl / np.linalg.norm(vl, axis=0)

    anorm = np.linalg.norm(a, 2)
    scale = max(1.0, anorm)
    for group in _cluster_indices(w, tols.cluster_gap * scale):
        if len(group) < 2:
            continue
        G = vl[:, group].conj().T @ vr[:, group]
        if np.linalg.svd(G, compute_uv=False)[-1] > tols.defect_overlap:
            # diagonalizable cluster: re-mix left vectors to biorthogonality
            vl[:, group] = vl[:, group] @ np.linalg.inv(G).conj().T
            vl[:, group] /= np.linalg.norm(vl[:, group], axis=0)

    overlaps = np.abs(np.sum(vl.conj() * vr, axis=0))
    with np.errstate(divide="ignore"):
        kappa = np.where(overlaps > 0, 1.0 / overlaps, np.inf)
    min_overlap = float(overlaps.min())

    res_r = np.linalg.norm(a @ vr - vr * w, axis=0).max()
    res_l = np.linalg.norm(vl.conj().T @ a - w[:, None] * vl.conj().T, axis=1).max()
    residual = float(max(res_r, res_l))
    if residual > tols.eig_residual * max(anorm, 1e-300):
        raise EigenDecompositionError(
            f"eigen residual {residual:.3e} exceeds {tols.eig_residual:.1e} * ||A||"
        )

    return EigenSystem(
        dim=n,
        eigenvalues=w,
        right=vr,
        left=vl,
        pair_condition=kappa,
        min_overlap=min_overlap,
        near_defective=bool(min_overlap < tols.defect_overlap),
        residual=residual,
    )


@dataclass(frozen=True)
class SpectraMatch:
    pairing: tuple[tuple[int, int], ...]   # (index into first list, index into second)
    max_distance: float


def match_spectra(numeric, analytic) -> SpectraMatch:
    """Greedy nearest-neighbour bijection between two equally long spectra.

    Repeatedly pairs the globally closest remaining (numeric, analytic)
    couple; eigenvalue ordering from a solver is never meaningful, so all
    spectral comparisons in the package go through this.
    """
    xs = np.asarray(numeric, dtype=complex).reshape(-1)
    ys = np.asarray(analytic, dtype=complex).reshape(-1)
    if xs.size != ys.size:
        raise ValueError(f"spectra lengths differ: {xs.size} vs {ys.size}")
    dist = np.abs(xs[:, None] - ys[None, :])
    n = xs.size
    free_x = np.ones(n, dtype=bool)
    free_y = np.ones(n, dtype=bool)
    pairs = []
    dmax = 0.0
    for _ in range(n):
        masked = np.where(free_x[:, None] & free_y[None, :], dist, np.inf)
        i, j = np.unravel_index(np.argmin(masked), masked.shape)
        pairs.append((int(i), int(j)))
        dmax = max(dmax, float(dist[i, j]))
        free_x[i] = False
        free_y[j] = False
    return SpectraMatch(pairing=tuple(pairs), max_distance=dmax)


@dataclass(frozen=True)
class JordanCertificate:
    """Numerical evidence that a nearly degenerate pair forms a 2x2 Jordan block."""

    gap: float              # |mu_1 - mu_2| of the two eigenvalues closest to mu0
    min_overlap: float      # smaller unit-norm |<w|v>| of the pair
    coupling: float         # off-diagonal magnitude of the 2x2 Schur restriction
    nilpotent_ratio: float  # ||N^2|| / ||N||^2 for the traceless part of that restriction
    defective: bool


def jordan_certificate(a, mu0: complex, tols: Tolerances = DEFAULT_TOLS) -> JordanCertificate:
    """Certify the 2x2 Jordan structure of the eigenvalue pair nearest `mu0`."""
    a = _as_complex(a)
    w, vl, vr = la.eig(a, left=True, right=True)
    dists = np.abs(w - mu0)
    order = np.argsort(dists)
    p0, p1 = order[0], order[1]
    gap = float(abs(w[p0] - w[p1]))
    overlaps = []
    for j in (p0, p1):
        wj = vl[:, j] / np.linalg.norm(vl[:, j])
        vj = vr[:, j] / np.linalg.norm(vr[:, j])
        overlaps.append(abs(np.vdot(wj, vj)))
    min_overlap = float(min(overlaps))

    # isolate the two-dimensional invariant subspace and inspect its nilpotent part
    if len(w) > 2:
        radius = 0.5 * (dists[order[1]] + dists[order[2]])
    else:
        radius = dists[order[1]] + 1.0
    tt, _, sdim = la.schur(a, output="complex", sort=lambda m: abs(m - mu0) < radius)
    if sdim != 2:
        raise EigenDecompositionError(
            f"expected an isolated pair near {mu0}, found invariant subspace of dim {sdim}"
        )
    block = tt[:2, :2]
    nil = block - (np.trace(block) / 2) * np.eye(2)
    nn = np.linalg.norm(nil)
    nilpotent_ratio = float(np.linalg.norm(nil @ nil) / nn**2) if nn > 0 else 0.0
    return JordanCertificate(
        gap=gap,
        min_overlap=min_overlap,
        coupling=float(abs(block[0, 1])),
        nilpotent_ratio=nilpotent_ratio,
        defective=bool(min_overlap < tols.defect_overlap),
    )
