"""Test oracles for the assembled step: the 5-index einsum that `assemble`
replaced, and the invariant pair block cut out of an assembled map with its
structural-zero checks.  `spectrum._certify` reads the same block off the
gates, so these pin what it reads.
"""

import numpy as np

from brickwork_ep.config import DEFAULT_TOLS, Tolerances
from brickwork_ep.superop import _CROSS_PARITY, _block, _check_zero


def assemble_by_einsum(U, K, V):
    """T = sum_m W_m x W_m^* as the 5-index einsum `assemble` replaced."""
    KV = np.einsum("...mij,...kl->...mikjl", K, V).reshape(K.shape[:-2] + (4, 4))
    W = U[..., None, :, :] @ KV
    return np.einsum("...mij,...mkl->...ikjl", W, W.conj()).reshape(U.shape[:-2] + (16, 16))


def indicator(indices) -> np.ndarray:
    """Which of the 16 vec indices are in `indices`."""
    return np.isin(np.arange(16), indices)


# The pair mu9/mu10 is the spectrum of the map on vec indices {4, 8}: for
# every regime and theta no other row reads those columns.
PAIR_INDICES = (4, 8)
INTO_PAIR = np.outer(~indicator(PAIR_INDICES), indicator(PAIR_INDICES))


def pair_block(matrix: np.ndarray, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """The invariant 2x2 block T[pair, pair], of a map or of each of a stack.
    Raises SymmetryViolationError if the map breaks parity (`block_reduce`'s
    check) or, after that, if another row reads the pair's columns."""
    _check_zero(matrix, tols, _CROSS_PARITY, "parity commutator")
    _check_zero(matrix, tols, INTO_PAIR, "leak into the pair block")
    return matrix[_block(PAIR_INDICES, PAIR_INDICES)]


def gate_pair_block(U, K, V) -> np.ndarray:
    """P(eps, theta) = [[a e^{-2i theta}, eps b], [b e^{-2i theta}, eps a]]
    from the coupling gate's centre block [[a, b], [b, a]], eps = K2[1, 1]
    and e^{-i theta} = V[1, 1] = conj(V[0, 0]); a stack as `assemble` takes."""
    P = U[..., 1:3, 1:3].copy()
    P[..., 0] *= (V[..., 1, 1] * V[..., 0, 0].conj())[..., None]
    P[..., 1] *= K[..., 1, 1, 1, None]
    return P
