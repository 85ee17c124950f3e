import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickwork_ep import (GateSet, ParameterPoint, ParameterRegime, SymmetryViolationError,
                          UnsupportedRegimeError, analytic_spectrum, assemble,
                          block_reduce, build_gate_set, choi_min_eigenvalue, gate_stack,
                          devectorize, factored_char_poly, kron,
                          match_spectra, steady_state,
                          superoperator_at, trace_preservation_defect, vectorize)
from brickwork_ep.config import point_failures
from brickwork_ep.gates import SIGMA_ZZ
from brickwork_ep.superop import _CROSS_PARITY, EVEN_INDICES, ODD_INDICES

from assembly_oracle import (INTO_PAIR, PAIR_INDICES, assemble_by_einsum, gate_pair_block,
                             pair_block)
from closed_form_vectors import COMPLETION_INDICES, completion_blocks
from conftest import GAMMA_A, X_A, exact_ep_x, random_density, random_easy_plane_point


def apply_step(g: GateSet, rho: np.ndarray) -> np.ndarray:
    """Direct one-step action U (sum_j (K_j x V) rho (K_j x V)^dag) U^dag,
    independent of the vectorized route."""
    out = np.zeros((4, 4), dtype=complex)
    for K in (g.K1, g.K2):
        M = kron(K, g.V)
        out += M @ rho @ M.conj().T
    return g.U @ out @ g.U.conj().T


def parity_projectors():
    """The complementary projectors (1/2)(I16 +/- sigma_zz x sigma_zz): the
    oracle for the index split `block_reduce` reads directly."""
    P = np.kron(SIGMA_ZZ, SIGMA_ZZ)
    I16 = np.eye(16, dtype=complex)
    return (I16 + P) / 2, (I16 - P) / 2


def embed_blocks(tau_plus: np.ndarray, tau_minus: np.ndarray) -> np.ndarray:
    """Lift the two parity blocks back into the 16-dimensional space."""
    T = np.zeros((16, 16), dtype=complex)
    T[np.ix_(EVEN_INDICES, EVEN_INDICES)] = tau_plus
    T[np.ix_(ODD_INDICES, ODD_INDICES)] = tau_minus
    return T


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


@st.composite
def gate_inputs(draw):
    """(U, K, V) of one gate set, unbatched as `build_superoperator` passes
    it (size None), or of a stack of `size` points, in any regime."""
    regime = draw(st.sampled_from(ParameterRegime))
    size = draw(st.sampled_from([None, 1, 2, 5, 16]))

    def floats(lo, hi):
        n = size or 1
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    eps = floats(0.05, 1.0)
    theta = np.zeros(size or 1) if draw(st.booleans()) else floats(-3.0, 3.0)
    if regime is ParameterRegime.EASY_PLANE:
        x, gamma = floats(-1.5, 1.5), floats(0.05, 3.09)
    elif regime is ParameterRegime.EASY_AXIS:   # lambda = e^{i phase}, q = e^{log q}
        x, gamma = 1j * floats(0.1, 3.0), -1j * floats(0.1, 1.0) * draw(st.sampled_from([-1, 1]))
    else:   # Re x >= 0.1 > Im gamma > 0 keeps q lam and q / lam off the unit circle
        x, gamma = floats(0.1, 1.0) + 1j * floats(-3.0, 3.0), floats(-3.0, 3.0) + 0.05j
    U, K, V = gate_stack(x, gamma, eps, theta, regime=regime)[:3]
    return (U[0], K[0], V[0]) if size is None else (U, K, V)


@settings(max_examples=150, deadline=None)
@given(gate_inputs())
def test_assemble_is_bit_identical_to_the_einsum(gates):
    # as uint64 views, so signed zeros and NaN payloads count
    T = assemble(*gates)
    assert T.shape == gates[0].shape[:-2] + (16, 16)
    assert np.array_equal(T.view(np.uint64), assemble_by_einsum(*gates).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(gate_inputs())
def test_pair_block_is_four_gate_entries(gates):
    # what ep-scan reads off the gates is the assembled map's invariant block:
    # bit for bit at theta = 0 (V = I), to rounding elsewhere; the entries
    # the structure forces to zero are exactly 0, so no runtime check is needed.
    # Adding 0 sets the sign of zero entries (b = -0 at lambda = 1) aside.
    T = assemble(*gates)
    assert not T[..., INTO_PAIR | _CROSS_PARITY].any()
    P, expected = pair_block(T) + 0.0, gate_pair_block(*gates) + 0.0
    at_zero = np.all(gates[2] == np.eye(2), axis=(-2, -1))
    assert np.array_equal(P[at_zero].view(np.uint64), expected[at_zero].view(np.uint64))
    scale = np.abs(P).max(axis=(-2, -1))
    assert np.all(np.abs(P - expected).max(axis=(-2, -1)) <= 1e-15 * scale)


def test_merged_zero_checks_keep_each_rows_first_error(rng):
    # row 0 leaks only into the pair block, row 2 breaks parity only, row 3
    # does both, so parity is its first failing check; row 1 is intact
    T = np.stack([superoperator_at(random_easy_plane_point(rng)).matrix for _ in range(4)])
    T[0, ODD_INDICES[0], PAIR_INDICES[0]] = 1e-3
    T[2, EVEN_INDICES[0], ODD_INDICES[0]] = 2e-3
    T[3, ODD_INDICES[0], PAIR_INDICES[1]] = 1e-3
    T[3, EVEN_INDICES[1], ODD_INDICES[0]] = 3e-3
    assert ODD_INDICES[0] not in PAIR_INDICES
    with point_failures() as failed:
        pair_block(T)
    assert sorted(failed) == [0, 2, 3]
    assert all(type(exc) is SymmetryViolationError for exc in failed.values())
    assert str(failed[0]) == "leak into the pair block 1.000e-03 exceeds tolerance 1.0e-12"
    assert str(failed[2]) == "parity commutator 2.000e-03 exceeds tolerance 1.0e-12"
    assert str(failed[3]) == "parity commutator 3.000e-03 exceeds tolerance 1.0e-12"
    # outside the scope the parity check runs first, so row 2 raises before row 0
    with pytest.raises(SymmetryViolationError, match="^parity commutator 2.000e-03 "):
        pair_block(T)
    with pytest.raises(SymmetryViolationError, match="^leak into the pair block 1.000e-03 "):
        pair_block(T[:2])


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
