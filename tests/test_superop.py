import numpy as np
import pytest

from brickwork_ep import (ParameterPoint, SymmetryViolationError,
                          UnsupportedRegimeError, analytic_spectrum, apply_step, assemble,
                          block_reduce, build_gate_set, choi_min_eigenvalue, gate_stack,
                          devectorize, embed_blocks, factored_char_poly,
                          match_spectra, parity_projectors, steady_state,
                          superoperator_at, trace_preservation_defect, vectorize)
from brickwork_ep.superop import (COMPLETION_INDICES, EVEN_INDICES, ODD_INDICES,
                                  PAIR_INDICES, completion_blocks, pair_block)

from conftest import GAMMA_A, X_A, exact_ep_x, random_density, random_easy_plane_point

# frozen 40-digit value of the even-block quadratic's linear coefficient at
# x = 0.3293, gamma = pi/4, eps = 0.4 (imaginary part vanishes identically)
XI_REF = -0.8002214487962991629421

FIG4_X = float(exact_ep_x(0.4, GAMMA_A))


def test_identity_limits():
    s = superoperator_at(ParameterPoint.easy_plane(0.0, 0.9, 1.0))
    assert np.abs(s.matrix - np.eye(16)).max() < 1e-15


def test_unitary_channel_moduli():
    s = superoperator_at(ParameterPoint.easy_plane(0.6, 0.9, 1.0))
    w = np.linalg.eigvals(s.matrix)
    assert np.abs(np.abs(w) - 1.0).max() < 1e-12


def test_superoperator_matches_direct_application(rng):
    point = ParameterPoint.easy_plane(FIG4_X, GAMMA_A, 0.4)
    g = build_gate_set(point)
    s = superoperator_at(point)
    for _ in range(200):
        rho = random_density(rng)
        direct = apply_step(g, rho)
        assert np.abs(devectorize(s.matrix @ vectorize(rho)) - direct).max() < 1e-12


def test_superoperator_matches_direct_with_theta(rng):
    point = ParameterPoint.easy_plane(0.41, 0.9, 0.37, theta=0.6)
    g = build_gate_set(point)
    s = superoperator_at(point)
    for _ in range(20):
        rho = random_density(rng)
        direct = apply_step(g, rho)
        assert np.abs(devectorize(s.matrix @ vectorize(rho)) - direct).max() < 1e-12


def test_assembled_stack_matches_direct_application(rng):
    x, gamma = rng.uniform(-1.0, 1.0, 8), rng.uniform(0.2, 2.9, 8)
    eps, theta = rng.uniform(0.05, 1.0, 8), rng.uniform(-1.0, 1.0, 8)
    T = assemble(*gate_stack(x, gamma, eps, theta)[:3])
    assert T.shape == (8, 16, 16)
    for n in range(8):
        g = build_gate_set(ParameterPoint.easy_plane(x[n], gamma[n], eps[n], theta[n]))
        rho = random_density(rng)
        assert np.abs(T[n] @ vectorize(rho) - vectorize(apply_step(g, rho))).max() < 1e-14


def test_zero_checks_scale_each_matrix_of_a_stack(rng):
    # a leak of 1e-8 fails against its own matrix's scale (~1) even when
    # another matrix of the stack is 1e6 times larger
    T = np.stack([superoperator_at(random_easy_plane_point(rng)).matrix for _ in range(3)])
    T[0] *= 1e6
    block_reduce(T)
    pair_block(T)
    broken = T.copy()
    broken[2, EVEN_INDICES[0], ODD_INDICES[0]] = 1e-8
    with pytest.raises(SymmetryViolationError):
        block_reduce(broken)
    broken = T.copy()
    broken[2, 0, PAIR_INDICES[1]] = 1e-8
    with pytest.raises(SymmetryViolationError):
        pair_block(broken)


def test_parity_projectors_algebra():
    qp, qm = parity_projectors()
    assert np.array_equal(qp + qm, np.eye(16))
    assert np.abs(qp @ qp - qp).max() == 0.0
    assert np.abs(qp @ qm).max() == 0.0
    assert np.linalg.matrix_rank(qp) == 8
    assert np.linalg.matrix_rank(qm) == 8


def test_no_cross_parity_leakage():
    s = superoperator_at(ParameterPoint.easy_plane(FIG4_X, GAMMA_A, 0.4))
    qp, qm = parity_projectors()
    assert np.abs(qp @ s.matrix @ qm).max() < 1e-12
    assert np.abs(qm @ s.matrix @ qp).max() < 1e-12


def test_block_spectra_union(rng):
    point = random_easy_plane_point(rng)
    s = superoperator_at(point)
    union = np.concatenate([np.linalg.eigvals(s.tau_plus), np.linalg.eigvals(s.tau_minus)])
    full = np.linalg.eigvals(s.matrix)
    assert match_spectra(full, union).max_distance < 1e-10


def test_block_roundtrip(rng):
    point = random_easy_plane_point(rng)
    s = superoperator_at(point)
    assert np.array_equal(embed_blocks(s.tau_plus, s.tau_minus), s.matrix)


def test_block_reduce_rejects_broken_symmetry(rng):
    s = superoperator_at(random_easy_plane_point(rng))
    broken = s.matrix.copy()
    broken[EVEN_INDICES[0], ODD_INDICES[0]] = 0.1
    with pytest.raises(SymmetryViolationError):
        block_reduce(broken)


def test_pair_block_rejects_leaks(rng):
    s = superoperator_at(random_easy_plane_point(rng))
    pair_block(s.matrix)
    completion_blocks(s.matrix)
    broken = s.matrix.copy()
    broken[0, PAIR_INDICES[1]] = 0.1
    with pytest.raises(SymmetryViolationError):
        pair_block(broken)
    broken = s.matrix.copy()
    broken[COMPLETION_INDICES[0], 0] = 0.1
    with pytest.raises(SymmetryViolationError):
        completion_blocks(broken)


def test_char_poly_even_block():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.4)
    s = superoperator_at(point)
    rep = factored_char_poly(s.tau_plus, point, "even")
    assert rep.max_residual < 1e-9
    xi = rep.factors[-1][1]
    assert abs(xi - XI_REF) < 1e-14
    # every factor is consumed to its multiplicity: 8 roots in total
    assert len(rep.assignments) == 8


def test_char_poly_odd_block_and_rescaling(rng):
    point = random_easy_plane_point(rng)
    s = superoperator_at(point)
    rep = factored_char_poly(s.tau_minus, point, "odd")
    assert rep.max_residual < 1e-9
    assert rep.rescale_defect < 1e-12
    assert sorted(rep.assignments) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_char_poly_rejects_theta():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.4, theta=0.3)
    s = superoperator_at(point)
    with pytest.raises(UnsupportedRegimeError):
        factored_char_poly(s.tau_plus, point, "even")


def test_trace_preservation(rng):
    for _ in range(10):
        s = superoperator_at(random_easy_plane_point(rng))
        assert trace_preservation_defect(s.matrix) < 1e-12


def test_choi_positive(rng):
    for _ in range(10):
        s = superoperator_at(random_easy_plane_point(rng))
        assert choi_min_eigenvalue(s.matrix) > -1e-10


def test_spectral_radius_one(rng):
    for _ in range(10):
        s = superoperator_at(random_easy_plane_point(rng))
        w = np.linalg.eigvals(s.matrix)
        assert abs(np.abs(w).max() - 1.0) < 1e-10


def test_steady_state_is_density_matrix(rng):
    s = superoperator_at(random_easy_plane_point(rng))
    rho = steady_state(s)
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert np.abs(devectorize(s.matrix @ vectorize(rho)) - rho).max() < 1e-10


def test_analytic_spectrum_union_property(rng):
    # spectrum(T) = spectrum(tau+) U spectrum(tau-) with the closed forms
    point = random_easy_plane_point(rng)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    assert match_spectra(np.linalg.eigvals(s.tau_plus), spec.even_block).max_distance < 1e-9
    assert match_spectra(np.linalg.eigvals(s.tau_minus), spec.odd_block).max_distance < 1e-9


def test_easy_axis_superoperator_is_cptp():
    # no closed forms in this regime, but the step is still a valid channel
    point = ParameterPoint.easy_axis(log_q=0.35, phase=0.8, epsilon=0.5)
    s = superoperator_at(point)
    assert s.cptp_guaranteed
    assert trace_preservation_defect(s.matrix) < 1e-12
    assert choi_min_eigenvalue(s.matrix) > -1e-10
    assert abs(np.abs(np.linalg.eigvals(s.matrix)).max() - 1.0) < 1e-10


def test_theta_superoperator_is_cptp():
    point = ParameterPoint.easy_plane(0.41, 0.9, 0.37, theta=0.6)
    s = superoperator_at(point)
    assert trace_preservation_defect(s.matrix) < 1e-12
    assert choi_min_eigenvalue(s.matrix) > -1e-10
    # the local phase gate still commutes with the parity structure
    union = np.concatenate([np.linalg.eigvals(s.tau_plus), np.linalg.eigvals(s.tau_minus)])
    assert match_spectra(np.linalg.eigvals(s.matrix), union).max_distance < 1e-10
