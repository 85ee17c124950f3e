"""Property tests of the map's invariants over the domain the benchmark
exercises: both regimes, theta in [0, 1.5]."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickwork_ep import (DEFAULT_TOLS, Observable, ParameterPoint, ParameterRegime,
                          analytic_spectrum, block_reduce, certify_ep, choi_min_eigenvalue,
                          critical_epsilon, ep_discriminant, ep_scan, evolve, match_spectra,
                          observable_series, pair_block, superoperator_at,
                          trace_preservation_defect)

thetas = st.floats(0.0, 1.5)
easy_plane = st.builds(ParameterPoint.easy_plane, x=st.floats(0.05, 1.5),
                       gamma=st.floats(0.35, 1.5), epsilon=st.floats(0.05, 0.95),
                       theta=thetas)
easy_axis = st.builds(ParameterPoint.easy_axis,
                      log_q=st.one_of(st.floats(0.1, 1.0), st.floats(-1.0, -0.1)),
                      phase=st.floats(0.1, 3.0), epsilon=st.floats(0.05, 1.0),
                      theta=thetas)
points = st.one_of(easy_plane, easy_axis)


@settings(max_examples=60, deadline=None)
@given(points)
def test_spectrum_is_union_of_block_spectra(point):
    matrix = superoperator_at(point).matrix
    tau_plus, tau_minus = block_reduce(matrix)
    union = np.concatenate([np.linalg.eigvals(tau_plus), np.linalg.eigvals(tau_minus)])
    assert match_spectra(np.linalg.eigvals(matrix), union).max_distance < 1e-10


@settings(max_examples=60, deadline=None)
@given(points)
def test_pair_block_holds_mu9_mu10(point):
    matrix = superoperator_at(point).matrix
    pair = np.linalg.eigvals(pair_block(matrix))
    full = np.linalg.eigvals(matrix)
    assert all(np.abs(full - mu).min() < 1e-10 for mu in pair)
    if point.superintegrable and point.regime is ParameterRegime.EASY_PLANE:
        assert match_spectra(pair, analytic_spectrum(point).mu[8:10]).max_distance < 1e-10


@settings(max_examples=60, deadline=None)
@given(points)
def test_map_is_cptp(point):
    matrix = superoperator_at(point).matrix
    assert choi_min_eigenvalue(matrix) >= -DEFAULT_TOLS.choi_floor
    assert trace_preservation_defect(matrix) <= DEFAULT_TOLS.trace_preservation


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-8.0, 8.0), gamma=st.floats(0.01, np.pi - 0.01),
       epsilon=st.floats(1e-12, 1.0))
def test_discriminant_sign_against_critical_epsilon(x, gamma, epsilon):
    disc = ep_discriminant(x, gamma, epsilon)
    # below its terms' rounding floor the discriminant's sign is noise
    assume(abs(disc) > 1e-13 * max(1.0, 8.0 * epsilon * np.cosh(2.0 * x)))
    assert (disc < 0) == (epsilon < critical_epsilon(x, gamma))


@settings(max_examples=60, deadline=None)
@given(points, st.integers(0, 2**32 - 1))
def test_series_is_trace_against_evolved_states(point, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = a @ a.conj().T / np.trace(a @ a.conj().T)
    s = superoperator_at(point)
    rec = observable_series(s, rho0, Observable("dense", g), 30, mu_rescale=1.0)
    direct = np.array([np.trace(g @ st) for st in evolve(s, rho0, 30)])
    assert np.abs(rec.values - direct).max() <= 1e-12 * np.abs(direct).max()


@settings(max_examples=25, deadline=None)
@given(gammas=st.lists(st.floats(0.05, np.pi - 0.05), min_size=1, max_size=3),
       xs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=4),
       cusp=st.floats(1e-9, 1e-3))
def test_ep_scan_rows_match_certify_ep(gammas, xs, cusp):
    # the stacked scan and the one-point certification agree row by row,
    # at gamma = pi/2 and across the cusp of the surface at x = 0
    scan = ep_scan(gammas + [np.pi / 2], xs + [-cusp, 0.0, cusp])
    for i in range(len(scan.x)):
        x, gamma = float(scan.x[i]), float(scan.gamma[i])
        assert scan.epsilon[i] == critical_epsilon(x, gamma)
        rec = certify_ep(ParameterPoint.easy_plane(x, gamma, scan.epsilon[i]))
        assert scan.certified[i] == rec.certified
        assert abs(scan.mu0[i] - rec.mu0) <= 1e-15
        assert abs(scan.discriminant_residual[i] - rec.discriminant_residual) <= 1e-15
        for field in ("gap", "min_overlap", "nilpotent_ratio"):
            assert abs(getattr(scan.certificate, field)[i]
                       - getattr(rec.certificate, field)) <= 1e-15, field
        assert scan.certificate.defective[i] == rec.certificate.defective
