import numpy as np
import pytest
import scipy.linalg as la

from brickwork_ep import (ParameterPoint, analytic_spectrum, build_gate_set,
                          devectorize, eig_general, jordan_certificate, kron,
                          match_spectra, superoperator_at, vectorize)
from brickwork_ep.gates import SIGMA_Z

from conftest import GAMMA_A, X_A, exact_ep_x, random_density


def test_kron_identities():
    I2 = np.eye(2)
    assert np.array_equal(kron(I2, I2), np.eye(4))
    assert np.array_equal(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]).astype(complex))


def test_kron_against_index_oracle(rng):
    # vectorized complex multiplication may differ from the scalar product in
    # the last ulp, hence the machine-level tolerance
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = kron(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert abs(out[i * 2 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-15


def test_kron_associative(rng):
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-14


def test_vectorize_unit_and_roundtrip(rng):
    e1 = np.zeros((4, 4))
    e1[0, 0] = 1.0
    v = vectorize(e1)
    assert v[0] == 1.0 and np.count_nonzero(v) == 1
    rho = random_density(rng)
    assert np.array_equal(devectorize(vectorize(rho)), rho)


def test_vectorize_kraus_identity(rng):
    # vec(A rho B) = (A kron B^T) vec(rho) under row-major stacking
    g = build_gate_set(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.7))
    rho = random_density(rng)
    lhs = vectorize(g.U @ rho @ g.U.conj().T)
    rhs = kron(g.U, g.U.conj()) @ vectorize(rho)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_vectorize_linear_and_norm_preserving(rng):
    a, b = random_density(rng), random_density(rng)
    assert np.allclose(vectorize(2 * a - 3j * b), 2 * vectorize(a) - 3j * vectorize(b), atol=0)
    assert abs(np.linalg.norm(vectorize(a)) - np.linalg.norm(a, "fro")) < 1e-15


def test_vectorize_shape_errors():
    with pytest.raises(ValueError):
        vectorize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        devectorize(np.zeros(15))


def test_eig_diagonal():
    eps = 0.3
    es = eig_general(np.diag([1.0, eps**2, eps, eps]).astype(complex))
    assert match_spectra(es.eigenvalues, [1.0, eps**2, eps, eps]).max_distance < 1e-14
    assert not es.near_defective


def test_eig_jordan_block_flagged():
    mu0 = 0.5
    es = eig_general(np.array([[mu0, 1.0], [0.0, mu0]], dtype=complex))
    assert es.near_defective
    assert es.pair_condition.max() > 1e6


def test_eig_hermitian(rng):
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    es = eig_general(h)
    assert np.abs(es.eigenvalues.imag).max() < 1e-10
    assert np.abs(es.pair_condition - 1.0).max() < 1e-8


def test_eig_trace_sum(rng):
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    es = eig_general(a)
    assert abs(es.eigenvalues.sum() - np.trace(a)) < 1e-9 * np.linalg.norm(a, 2)


def test_eig_against_closed_forms():
    # 16x16 step away from the EP: eigenvalues match the closed forms
    lam_fig4 = np.exp(exact_ep_x(0.4, GAMMA_A))
    point = ParameterPoint.easy_plane(np.log(lam_fig4), GAMMA_A, 0.7)
    s = superoperator_at(point)
    es = eig_general(s.matrix)
    spec = analytic_spectrum(point)
    assert match_spectra(es.eigenvalues, spec.mu).max_distance < 1e-9


def test_eig_rejects_non_square():
    with pytest.raises(ValueError):
        eig_general(np.zeros((3, 4)))


def test_match_spectra_basic(rng):
    xs = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert match_spectra(xs, xs).max_distance == 0.0
    perm = rng.permutation(8)
    assert match_spectra(xs, xs[perm]).max_distance == 0.0
    with pytest.raises(ValueError):
        match_spectra(xs, xs[:4])


def test_match_spectra_dual_route():
    # odd-block eigensolver vs closed forms, displaced from the EP by 0.05
    eps = 0.40012921026029413 + 0.05
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, eps)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    numeric = np.linalg.eigvals(s.tau_minus)
    assert match_spectra(numeric, spec.odd_block).max_distance < 1e-9


def test_jordan_certificate_jordan_block():
    cert = jordan_certificate(np.array([[0.5, 1.0], [0.0, 0.5]]))
    assert cert.defective
    assert cert.gap == 0.0 and cert.min_overlap == 0.0 and cert.nilpotent_ratio == 0.0


def test_jordan_certificate_diagonalizable_blocks():
    cert = jordan_certificate(np.diag([0.3, 0.7]))
    assert not cert.defective
    assert abs(cert.gap - 0.4) < 1e-15 and abs(cert.min_overlap - 1.0) < 1e-15
    assert not jordan_certificate(0.4 * np.eye(2)).defective


def test_jordan_certificate_against_eigensolver(rng):
    block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cert = jordan_certificate(block)
    w, vl, vr = la.eig(block, left=True, right=True)
    vl, vr = vl / np.linalg.norm(vl, axis=0), vr / np.linalg.norm(vr, axis=0)
    overlap = np.abs(np.sum(vl.conj() * vr, axis=0)).min()
    nil = block - np.trace(block) / 2 * np.eye(2)
    assert abs(cert.gap - abs(w[0] - w[1])) < 1e-12
    assert abs(cert.min_overlap - overlap) < 1e-12
    assert abs(cert.nilpotent_ratio
               - np.linalg.norm(nil @ nil) / np.linalg.norm(nil) ** 2) < 1e-12
