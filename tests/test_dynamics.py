import numpy as np
import pytest

from brickwork_ep import (EPRegime, Observable, ParameterPoint, analytic_spectrum,
                          classify_regime, coherence_probe,
                          coherence_probe_adjoint, evolve, evolve_by_powers,
                          identity_observable, jordan_growth, observable_series,
                          reference_initial_state, sensing_coefficients,
                          sensitivity_probe, superoperator_at)

from conftest import GAMMA_A, X_A, exact_ep_x, random_density

X_STAR = float(exact_ep_x(0.4, GAMMA_A))   # exact EP at eps = 0.4 for gamma = pi/4


def test_identity_map_evolution(rng):
    s = superoperator_at(ParameterPoint.easy_plane(0.0, 0.9, 1.0))
    rho0 = random_density(rng)
    states = evolve(s, rho0, 10)
    for st in states:
        assert np.abs(st - rho0).max() < 1e-14


def test_evolution_preserves_trace_and_hermiticity():
    s = superoperator_at(ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.4))
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = 1.0
    states = evolve(s, rho0, 300)
    for st in states:
        assert abs(np.trace(st) - 1.0) < 1e-11
        assert np.abs(st - st.conj().T).max() < 1e-11


def test_evolution_strategies_agree(rng):
    s = superoperator_at(ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.37))
    rho0 = random_density(rng)
    states = evolve(s, rho0, 1000)
    for n, by_power in zip([10, 200, 1000], evolve_by_powers(s, rho0, [10, 200, 1000])):
        assert np.abs(states[n] - by_power).max() < 1e-9


def test_invalid_initial_state():
    s = superoperator_at(ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.4))
    with pytest.raises(ValueError):
        evolve(s, np.eye(4, dtype=complex), 5)         # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        evolve(s, bad, 5)                              # not PSD


def test_identity_observable_series(rng):
    s = superoperator_at(ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.37))
    rec = observable_series(s, random_density(rng), identity_observable(), 50, mu_rescale=1.0)
    assert np.abs(rec.values - 1.0).max() < 1e-11


def test_two_term_series_identity():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(point)
    rec = observable_series(s, reference_initial_state(), coherence_probe(), 200)
    spec = analytic_spectrum(point)
    c = sensing_coefficients(point)
    ns = np.arange(201)
    closed = spec.mu[8] ** ns * c.gamma9 + spec.mu[9] ** ns * c.gamma10
    assert np.abs(rec.values - closed).max() < 1e-9 * np.abs(closed).max()
    assert rec.expansion_deviation is not None and rec.expansion_deviation < 1e-9


def test_adjoint_probe_sector(rng):
    # the adjoint probe projects only onto the eps-rescaled and conjugate pairs
    import scipy.linalg as la
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    g9 = coherence_probe_adjoint().matrix
    rho0 = reference_initial_state().reshape(-1)
    w, vl, vr = la.eig(s.matrix, left=True)
    inside = spec.mu[10:14]
    for k in range(16):
        wk = vl[:, k].conj()
        alpha = (wk @ rho0) / (wk @ vr[:, k])
        gamma_k = alpha * np.trace(g9 @ vr[:, k].reshape(4, 4))
        if np.abs(w[k] - inside).min() > 1e-8:
            assert abs(gamma_k) < 1e-10


def test_probe_misses_conjugate_left_vectors():
    # gamma15 = gamma16 = 0 for the reference initial state
    import scipy.linalg as la
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    g3 = coherence_probe().matrix
    rho0 = reference_initial_state().reshape(-1)
    w, vl, vr = la.eig(s.matrix, left=True)
    for mu_target in (spec.mu[14], spec.mu[15]):
        k = int(np.argmin(np.abs(w - mu_target)))
        wk = vl[:, k].conj()
        alpha = (wk @ rho0) / (wk @ vr[:, k])
        gamma_k = alpha * np.trace(g3 @ vr[:, k].reshape(4, 4))
        assert abs(gamma_k) < 1e-10


def test_jordan_growth_eigenvector_constant():
    vals = jordan_growth(0.7 + 0.1j, (1.0, 0.0), 50)
    assert np.abs(vals - 1.0).max() < 1e-14


def test_jordan_growth_closed_form_and_matrix_oracle():
    mu0 = 0.5
    vals = jordan_growth(mu0, (0.0, 1.0), 60)
    ns = np.arange(61)
    assert np.abs(vals - np.sqrt(1.0 + 4.0 * ns**2)).max() < 1e-12
    B = np.array([[mu0, 1.0], [0.0, mu0]], dtype=complex)
    psi = np.array([0.3 - 0.2j, 1.1 + 0.4j])
    direct = jordan_growth(mu0, psi, 40)
    acc = psi.copy()
    for n in range(41):
        assert abs(direct[n] - np.linalg.norm(acc) / abs(mu0) ** n) < 1e-9
        acc = B @ acc


def test_jordan_growth_asymptote():
    mu0, psi = 0.8, (2.0, 0.5)
    vals = jordan_growth(mu0, psi, 400)
    assert abs(vals[400] / vals[200] - 2.0) < 0.02
    assert abs(vals[400] / (400 * abs(psi[1] / mu0)) - 1.0) < 0.02
    with pytest.raises(ValueError):
        jordan_growth(0.0, psi, 10)


def _probe_record(eps, x=X_STAR, n_max=200):
    point = ParameterPoint.easy_plane(x, GAMMA_A, eps)
    s = superoperator_at(point)
    rec = observable_series(s, reference_initial_state(), coherence_probe(), n_max)
    return point, rec


def test_regime_below():
    point, rec = _probe_record(0.32)
    report = classify_regime(point, rec)
    assert report.regime is EPRegime.BELOW_EP
    assert report.tail_drift < 1e-4


def test_regime_at_ep():
    point, rec = _probe_record(0.40)
    report = classify_regime(point, rec)
    assert report.regime is EPRegime.AT_EP
    assert report.r_squared > 0.999 and report.slope > 0
    assert rec.expansion_deviation is None   # expansion disabled at the EP


def test_regime_above():
    point, rec = _probe_record(0.48)
    report = classify_regime(point, rec)
    assert report.regime is EPRegime.ABOVE_EP
    assert report.tail_drift > 1e-3


def test_at_ep_linearity_quality():
    _, rec = _probe_record(0.40)
    tail = rec.rescaled[50:]
    ns = np.arange(50, 201, dtype=float)
    coeffs = np.polyfit(ns, tail, 1)
    fit = np.polyval(coeffs, ns)
    assert np.abs(tail - fit).max() < 1e-3 * (fit.max() - fit.min())


def test_regime_inconclusive_on_mismatch():
    # below-EP data presented at an above-EP parameter point is not classified
    point_above = ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.48)
    _, rec = _probe_record(0.32)
    report = classify_regime(point_above, rec)
    assert report.regime is None
    assert "discriminant" in report.reason


def test_sensitivity_probe_zero_delta():
    point = ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.32)
    probe = sensitivity_probe(point, 0.0, n_max=60)
    assert np.array_equal(probe.center.values, probe.plus.values)
    assert np.array_equal(probe.center.values, probe.minus.values)


def test_sensitivity_probe_at_ep():
    point = ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.40)
    probe = sensitivity_probe(point, 0.01)
    assert probe.center.regime is EPRegime.AT_EP
    assert probe.plus.regime is EPRegime.ABOVE_EP
    assert probe.minus.regime is EPRegime.BELOW_EP


def test_sensitivity_probe_below_ep():
    point = ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.32)
    probe = sensitivity_probe(point, 0.01)
    for rec in (probe.center, probe.plus, probe.minus):
        assert rec.regime is EPRegime.BELOW_EP
    tails = [rec.rescaled[-50:].mean() for rec in (probe.minus, probe.center, probe.plus)]
    assert len({round(t, 6) for t in tails}) == 3   # distinct saturation levels


def test_sensitivity_probe_range_check():
    point = ParameterPoint.easy_plane(X_STAR, GAMMA_A, 0.995)
    with pytest.raises(ValueError):
        sensitivity_probe(point, 0.01)


def test_expansion_matches_series_for_dense_observable(rng):
    s = superoperator_at(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32))
    g = Observable("dense", rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rec = observable_series(s, random_density(rng), g, 200)
    assert rec.expansion_deviation is not None and rec.expansion_deviation < 1e-8
