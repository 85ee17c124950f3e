import warnings

import numpy as np
import pytest
import scipy.linalg as la

from brickwork_ep import (ParameterPoint, build_gate_set, build_lindblad, build_xxz,
                          composite_trotter_check, dissipator_matrix,
                          kraus_lindblad_spectral_map, superoperator_at)
from brickwork_ep.continuum import trotter_lambda
from brickwork_ep.gates import I4, SIGMA_PLUS, SIGMA_ZZ
from brickwork_ep.linalg import kron

from conftest import random_density


def test_xxz_spec_values():
    spec = build_xxz(np.pi / 4)
    # the gate's first-order terms: a = 1 + i delta cot(gamma), b = -i delta / sin(gamma)
    assert abs(-spec.h12[1, 1] - 1.0) < 1e-15
    assert abs(spec.h12[1, 2] - np.sqrt(2.0)) < 1e-15
    assert abs(spec.J - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(spec.Delta - np.cos(np.pi / 4)) < 1e-15
    assert np.abs(spec.h12 - spec.h12.conj().T).max() < 1e-13
    assert np.abs(spec.h12 @ SIGMA_ZZ - SIGMA_ZZ @ spec.h12).max() < 1e-13
    with pytest.raises(ValueError):
        build_xxz(0.0)


def test_xxz_limit_quadratic():
    # U(lambda = e^delta) = 1 - i delta h12 + O(delta^2): halving delta quarters the residual
    h12 = build_xxz(np.pi / 4).h12

    def residual(delta):
        U = build_gate_set(ParameterPoint.easy_plane(delta, np.pi / 4, 1.0)).U
        return np.linalg.norm(U - (I4 - 1j * delta * h12))

    rows = [residual(d) for d in (0.02, 0.01, 0.005)]
    for r1, r2 in zip(rows, rows[1:]):
        assert abs(r1 / r2 - 4.0) < 1.0
    # delta = 0 is exact
    assert residual(0.0) == 0.0


def test_dissipator_trace_free(rng):
    D = dissipator_matrix(SIGMA_PLUS)
    rho = random_density(rng, dim=2)
    out = (D @ rho.reshape(-1)).reshape(2, 2)
    assert abs(np.trace(out)) < 1e-13


def test_spectral_map_exact():
    rep = kraus_lindblad_spectral_map(1.0, 1.0, 10)
    assert abs(rep.epsilon - np.exp(-0.1)) < 1e-15
    expected = (1.0, np.exp(-2.0), np.exp(-1.0), np.exp(-1.0))
    for a, b in zip(rep.kraus_power_eigs, expected):
        assert abs(a - b) < 1e-14
    assert rep.max_eig_diff < 1e-14
    assert rep.channel_diff < 1e-10


def test_spectral_map_single_step_and_zero_time():
    rep = kraus_lindblad_spectral_map(0.7, 1.3, 1)
    assert rep.channel_diff < 1e-10
    rep0 = kraus_lindblad_spectral_map(1.0, 0.0, 5)
    assert rep0.epsilon == 1.0
    assert rep0.max_eig_diff == 0.0
    assert rep0.channel_diff < 1e-14


def test_lindbladian_spectrum_stability():
    spec = build_lindblad(np.pi / 4, 0.8)
    w = np.linalg.eigvals(spec.generator)
    assert np.abs(w).min() < 1e-10           # steady state
    assert w.real.max() < 1e-10              # no growing modes


def test_composite_trotter_halving():
    report = composite_trotter_check(np.pi / 4, 0.5, 1.0, [100, 200, 400])
    assert report.halving_ok
    for ratio in report.ratios:
        assert abs(ratio - 2.0) < 0.6


def test_composite_trotter_gamma_zero():
    report = composite_trotter_check(np.pi / 4, 0.0, 0.8, [50, 100])
    for _, unitary_err, composite_err in report.rows:
        assert abs(unitary_err - composite_err) < 1e-12


def test_composite_trotter_zero_time():
    report = composite_trotter_check(np.pi / 4, 0.5, 0.0, [10, 20])
    for _, unitary_err, composite_err in report.rows:
        assert unitary_err < 1e-12 and composite_err < 1e-12


def _trotter_rows_by_point(gamma, Gamma, t, n_list):
    """The rows of `composite_trotter_check` computed point by point, one
    `superoperator_at` per step: the reference for the stacked steps."""
    spec = build_lindblad(gamma, Gamma)
    unitary_gen = -1j * (kron(spec.hamiltonian, I4) - kron(I4, spec.hamiltonian.T))
    ref, ref_unitary = la.expm(t * spec.generator), la.expm(t * unitary_gen)
    rows = []
    for n in sorted(int(n) for n in n_list):
        x = np.log(trotter_lambda(gamma, t, n))
        eps_n = float(np.exp(-Gamma * t / n)) if Gamma * t != 0 else 1.0
        step = superoperator_at(ParameterPoint.easy_plane(x, gamma, eps_n)).matrix
        step_u = superoperator_at(ParameterPoint.easy_plane(x, gamma, 1.0)).matrix
        rows.append((n, float(np.linalg.norm(np.linalg.matrix_power(step_u, n) - ref_unitary)),
                     float(np.linalg.norm(np.linalg.matrix_power(step, n) - ref))))
    return tuple(rows)


@pytest.mark.parametrize("gamma, Gamma, t, n_list", [
    (np.pi / 4, 1.0, 1.0, [100, 200, 400]),
    (np.pi / 4, 1.0, 1.0, [50]),
    (np.pi / 4, 1.0, 1.0, [100, 100]),
    (0.7, 2.3, 1.0, [400, 100, 800, 200]),
    (2.9, 0.5, 0.8, [3, 7]),
    (-1.1, 0.0, 1.3, [20, 40]),
    (1.2, 0.5, 0.0, [10, 20]),
])
def test_stacked_trotter_steps_match_point_by_point(gamma, Gamma, t, n_list):
    report = composite_trotter_check(gamma, Gamma, t, n_list)
    assert report.rows == _trotter_rows_by_point(gamma, Gamma, t, n_list)


def test_trotter_first_failing_step_decides_error():
    # eps_n = e^(-Gamma t/n) underflows to 0 for the smallest n first
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\], got 0\.0$"):
        composite_trotter_check(np.pi / 4, 1e3, 1.0, [1, 2])


def test_trotter_rejects_nonpositive_lambda_without_warning():
    # lambda_n = 1 + 2 sin(gamma) t/n <= 0 used to reach log() of a negative number
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^need lambda_n = 1 \+ 2 sin\(gamma\) t/n > 0 "
                                             r"for every n, got -0\.41\d* at n = 100$"):
            composite_trotter_check(np.pi / 4, -1.0, -100.0, [100])


def test_trotter_non_finite_propagator_raises():
    # the t = 2e300 reference exponential is not finite; no nan row is returned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="not finite at n = 100$"):
            composite_trotter_check(np.pi / 4, 0.0, 2e300, [100, 200])
