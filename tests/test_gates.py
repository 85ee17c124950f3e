import numpy as np
import pytest

from brickwork_ep import (ParameterPoint, ParameterRegime, SingularGateError,
                          build_gate_set, local_phase_gate, relaxation_kraus)
from brickwork_ep.config import DEFAULT_TOLS, override_tolerances, point_failures
from brickwork_ep.gates import (I2, I4, PROJ_UP, SIGMA_MINUS, SIGMA_PLUS, SIGMA_Z, SIGMA_ZZ,
                                check_denominators, check_parameters)

from conftest import GAMMA_A, X_A, random_density

# frozen 40-digit evaluations of the gate entries at q = e^{i pi/4}, lam = e^{0.3293}
A_REF = 0.861107715632161924864 + 0.2737389573494228135512j
B_REF = 0.1297968639191879450197 - 0.4083053507177617648776j


def coupling_gate(point):
    """The coupling gate U with its entries a = U[1, 1] and b = U[1, 2]."""
    U = build_gate_set(point).U
    return U, U[1, 1], U[1, 2]


def apply_relaxation(epsilon, rho):
    """One application of the relaxation channel to a 2x2 operator."""
    return sum(K @ rho @ K.conj().T for K in relaxation_kraus(epsilon))


def test_identity_at_unit_lambda():
    point = ParameterPoint.easy_plane(0.0, 0.9, 0.5)
    U, a, b = coupling_gate(point)
    assert a == 1.0 and b == 0.0
    assert np.array_equal(U, I4)


def test_gate_entries_frozen_oracle():
    U, a, b = coupling_gate(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.4))
    assert abs(a - A_REF) < 1e-15
    assert abs(b - B_REF) < 1e-15
    assert U[1, 1] == a and U[1, 2] == b and U[0, 0] == 1.0 and U[3, 3] == 1.0


def test_gate_unitary_easy_plane():
    U, _, _ = coupling_gate(ParameterPoint.easy_plane(np.log(1.39016), GAMMA_A, 0.4))
    assert np.abs(U.conj().T @ U - I4).max() < 1e-12


def test_gate_unitary_easy_axis():
    point = ParameterPoint.easy_axis(log_q=0.35, phase=0.8, epsilon=0.5)
    assert point.regime is ParameterRegime.EASY_AXIS
    g = build_gate_set(point)
    assert np.abs(g.U.conj().T @ g.U - I4).max() < 1e-12
    assert g.unitary


def test_general_regime_flagged_nonunitary():
    point = ParameterPoint.general(0.3 + 0.2j, 0.9 + 0.1j, 0.5)
    g = build_gate_set(point)
    assert not g.unitary


def test_singular_gate_rejected():
    with pytest.raises(SingularGateError):
        coupling_gate(ParameterPoint.easy_plane(0.0, 1e-14, 0.5))


def test_kraus_limits():
    K1, K2 = relaxation_kraus(1.0)
    assert np.abs(K1).max() == 0.0
    assert np.array_equal(K2, I2)
    K1, K2 = relaxation_kraus(0.4)
    assert abs(K1[0, 1] - np.sqrt(0.84)) < 1e-15
    assert np.count_nonzero(K1) == 1
    assert np.array_equal(K2, np.diag([1.0, 0.4]).astype(complex))


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.7, 0.999, 1.0])
def test_kraus_completeness(eps):
    K1, K2 = relaxation_kraus(eps)
    assert np.abs(K1.conj().T @ K1 + K2.conj().T @ K2 - I2).max() < 1e-13


def test_channel_spectrum_values():
    # eigenpairs {P_up: 1, sigma_z: eps^2, sigma+: eps, sigma-: eps}
    for eps, vals in ((0.5, [1.0, 0.25, 0.5, 0.5]), (1.0, [1.0, 1.0, 1.0, 1.0])):
        assert vals == [1.0, eps**2, eps, eps]
        for op, val in zip((PROJ_UP, SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS), vals):
            assert np.abs(apply_relaxation(eps, op) - val * op).max() <= 1e-13


def test_channel_eigenoperator_direct():
    out = apply_relaxation(0.4, SIGMA_Z)
    assert np.abs(out - 0.16 * SIGMA_Z).max() < 1e-15


def test_local_phase_gate():
    assert np.array_equal(local_phase_gate(0.0), I2)
    assert np.abs(local_phase_gate(np.pi / 2) - np.diag([1j, -1j])).max() < 1e-15
    V = local_phase_gate(0.3)
    assert np.abs(V.conj().T @ V - I2).max() < 1e-15


def test_channel_trace_preserving(rng):
    rho = random_density(rng, dim=2)
    assert abs(np.trace(apply_relaxation(0.37, rho)) - np.trace(rho)) < 1e-13


def test_channel_fixed_point():
    assert np.array_equal(apply_relaxation(0.37, PROJ_UP), PROJ_UP)


def test_channel_iterates_decay(rng):
    eps, n = 0.6, 9
    rho = random_density(rng, dim=2)
    out = rho
    for _ in range(n):
        out = apply_relaxation(eps, out)
    # coherence decays exactly as eps^n, excited population as eps^{2n}
    assert abs(out[0, 1] - eps**n * rho[0, 1]) < 1e-14
    assert abs(out[1, 1] - eps ** (2 * n) * rho[1, 1]) < 1e-14
    for _ in range(400):
        out = apply_relaxation(eps, out)
    assert np.abs(out - PROJ_UP).max() < 1e-14


def test_parity_symmetry(rng):
    # the gate commutes with the parity operator; the relaxation channel
    # commutes with conjugation by sigma_z (its Kraus operators individually
    # only anticommute or commute, but the channel is parity covariant)
    g = build_gate_set(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.4))
    assert np.abs(g.U @ SIGMA_ZZ - SIGMA_ZZ @ g.U).max() < 1e-13
    rho = random_density(rng, dim=2)
    lhs = apply_relaxation(0.4, SIGMA_Z @ rho @ SIGMA_Z)
    rhs = SIGMA_Z @ apply_relaxation(0.4, rho) @ SIGMA_Z
    assert np.abs(lhs - rhs).max() < 1e-13


def test_parameter_point_validation():
    with pytest.raises(ValueError):
        ParameterPoint.easy_plane(0.1, 0.5, 0.0)
    with pytest.raises(ValueError):
        ParameterPoint.easy_plane(0.1, 0.5, 1.2)
    with pytest.raises(ValueError):
        ParameterPoint(x=0.1 + 0.2j, gamma=0.5, epsilon=0.5,
                       regime=ParameterRegime.EASY_PLANE)


def test_point_failures_records_each_points_first_failing_check():
    # point 2 fails the epsilon check before its lambda overflows; point 4
    # (q^2 = lam^2 = 1) only the denominator check
    x = [0.3, np.nan, 800.0, 0.2, 0.0]
    gamma = [0.7, 0.7, 0.7, 0.7, 1e-14]
    epsilon = [0.5, 0.5, 1.5, 0.5, 0.5]
    with point_failures() as failed:
        check_denominators(*check_parameters(x, gamma, epsilon, 0.0), DEFAULT_TOLS)
    assert sorted(failed) == [1, 2, 4]
    assert str(failed[1]) == "non-finite parameter"
    assert str(failed[2]) == "epsilon must lie in (0, 1], got 1.5"
    assert type(failed[4]) is SingularGateError
    # outside the scope the first failing point raises
    with pytest.raises(ValueError, match="non-finite"):
        check_parameters(x, gamma, epsilon, 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0, -1e-300])
def test_override_tolerances_rejects_non_finite_and_negative(value):
    # a nan ep_gap used to make every comparison false, so no EP certified
    with pytest.raises(ValueError, match="must be finite and >= 0: ep_gap="):
        override_tolerances(DEFAULT_TOLS, ep_gap=value)
    assert override_tolerances(DEFAULT_TOLS, ep_gap=0.0).ep_gap == 0.0
