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
    max_distance: float   # largest distance between paired eigenvalues


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
    dmax = 0.0
    for _ in range(xs.size):
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        dmax = max(dmax, float(dist[i, j]))
        dist[i, :] = dist[:, j] = np.inf   # each eigenvalue is paired once
    return SpectraMatch(max_distance=dmax)


@dataclass(frozen=True)
class JordanCertificate:
    """Numerical evidence that a 2x2 block is a Jordan block; for a stack of
    blocks each field is an array over the stack."""

    gap: float              # |mu_1 - mu_2| of the block's two eigenvalues
    min_overlap: float      # smaller unit-norm |<w|v>| of the pair
    nilpotent_ratio: float  # ||N^2|| / ||N||^2 for the traceless part N of the block
    defective: bool


def _longer(p, r):
    """Per block, the longer of the 2-vectors p and r (p on a tie), with its norm."""
    np_, nr = (np.sqrt(abs(u[0]) ** 2 + abs(u[1]) ** 2) for u in (p, r))
    keep = np_ >= nr
    return np.where(keep, p[0], r[0]), np.where(keep, p[1], r[1]), np.where(keep, np_, nr)


def jordan_certificate(block, tols: Tolerances = DEFAULT_TOLS) -> JordanCertificate:
    """Certify the Jordan structure of an invariant 2x2 block [[a, b], [c, d]],
    or of each block of a (..., 2, 2) stack.

    With s = sqrt((a - d)^2 + 4bc) the eigenvalues are (a + d -+ s)/2, the
    right eigenvectors (b, mu - a) or, if longer, (mu - d, c), and the left
    (row) eigenvectors (c, mu - a) or (mu - d, b).  The traceless part N
    satisfies N^2 = (s^2/4) I.  A multiple of the identity (N = 0) is not
    defective: every vector is an eigenvector.  One block gives Python
    scalars.
    """
    block = _as_complex(block)
    a, b, c, d = block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1]
    nn2 = abs(a - d) ** 2 / 2 + abs(b) ** 2 + abs(c) ** 2   # ||N||^2
    s = np.sqrt((a - d) ** 2 + 4.0 * b * c)
    overlaps = []
    with np.errstate(invalid="ignore", divide="ignore"):   # 0/0 where N = 0, replaced below
        for mu in ((a + d - s) / 2, (a + d + s) / 2):
            v0, v1, nv = _longer((b, mu - a), (mu - d, c))
            w0, w1, nw = _longer((c, mu - a), (mu - d, b))
            overlaps.append(abs(w0 * v0 + w1 * v1) / (nw * nv))
        ratio = np.sqrt(2.0) * abs(s) ** 2 / 4 / nn2
    identity = nn2 == 0
    min_overlap = np.where(identity, 1.0, np.minimum(*overlaps))
    cert = JordanCertificate(gap=abs(s), min_overlap=min_overlap,
                             nilpotent_ratio=np.where(identity, 0.0, ratio),
                             defective=min_overlap < tols.defect_overlap)
    if block.ndim > 2:
        return cert
    return JordanCertificate(**{k: v.item() for k, v in vars(cert).items()})
