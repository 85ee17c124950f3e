"""Property tests of the map's invariants over the domain the benchmark
exercises: both regimes, theta in [0, 1.5]."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickwork_ep import (DEFAULT_TOLS, Observable, ParameterPoint, ParameterRegime,
                          analytic_spectrum, block_reduce, certify_ep, choi_min_eigenvalue,
                          critical_epsilon, eig_general, ep_discriminant, ep_scan, evolve,
                          match_spectra, observable_series, pair_block, superoperator_at,
                          trace_preservation_defect, vectorize)
from brickwork_ep.dynamics import _power_series

from conftest import exact_ep_x

thetas = st.floats(0.0, 1.5)
easy_plane = st.builds(ParameterPoint.easy_plane, x=st.floats(0.05, 1.5),
                       gamma=st.floats(0.35, 1.5), epsilon=st.floats(0.05, 0.95),
                       theta=thetas)
easy_axis = st.builds(ParameterPoint.easy_axis,
                      log_q=st.one_of(st.floats(0.1, 1.0), st.floats(-1.0, -0.1)),
                      phase=st.floats(0.1, 3.0), epsilon=st.floats(0.05, 1.0),
                      theta=thetas)
points = st.one_of(easy_plane, easy_axis)
# exact EPs: x on the discriminant zero of (epsilon, gamma)
ep_points = st.builds(lambda eps, gamma: ParameterPoint.easy_plane(exact_ep_x(eps, gamma),
                                                                   gamma, eps),
                      st.floats(0.1, 0.9), st.floats(0.35, 1.5))
# series lengths at the kernel's block edges, n_max + 1 = B^2 + {0, 1, 2}
# with B = ceil(sqrt(n_max + 1)), and anywhere up to 2500
n_maxes = st.one_of(st.sampled_from([0, 1, 2, 3, 4]),
                    st.integers(2, 50).flatmap(lambda b: st.sampled_from([b * b - 1, b * b,
                                                                          b * b + 1])),
                    st.integers(0, 2500))


def _random_state_and_observable(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a @ a.conj().T / np.trace(a @ a.conj().T), g


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


@settings(max_examples=80, deadline=None)
@given(st.one_of(points, ep_points), n_maxes, st.integers(0, 2**32 - 1))
def test_series_is_trace_against_evolved_states(point, n_max, seed):
    # the baby-step/giant-step series against the trace of the step-by-step
    # states, every n of the series checked.  Each of the n_max products of
    # `evolve` rounds once, so past ~100 steps of a slowly decaying map the
    # bound is that rounding floor: at epsilon = 1 and n = 2500 `evolve` is
    # 1.2e-13 of the maximum off an extended-precision evolution, the
    # series 1.3e-16
    rho0, g = _random_state_and_observable(seed)
    s = superoperator_at(point)
    rec = observable_series(s, rho0, Observable("dense", g), n_max)
    direct = np.einsum("ij,nji->n", g, evolve(s, rho0, n_max))
    assert rec.values.shape == (n_max + 1,)
    tol = max(1e-13, 4 * n_max * np.finfo(float).eps)
    assert np.abs(rec.values - direct).max() <= tol * np.abs(direct).max()


@settings(max_examples=60, deadline=None)
@given(points, n_maxes, st.integers(0, 2**32 - 1))
def test_power_series_diagonal_route_matches_power_table(point, n_max, seed):
    # the biorthogonal cross-check of `observable_series` through the kernel
    # on diag(mu), against the table of powers mu_j^n it replaced, evaluated
    # in extended precision: in double precision the table itself is up to
    # 7e-13 of the maximum off at |mu| = 1 and n = 2500
    rho0, g = _random_state_and_observable(seed)
    es = eig_general(superoperator_at(point).matrix)
    assume(not es.near_defective)   # where `observable_series` skips the check
    w_h = es.left.conj().T
    alpha = (w_h @ vectorize(rho0)) / np.einsum("ij,ji->i", w_h, es.right)
    coeffs = vectorize(g.T) @ es.right
    ns = np.arange(n_max + 1)
    mu = es.eigenvalues.astype(np.clongdouble)
    table = (mu[None, :] ** ns[:, None]) @ (alpha * coeffs).astype(np.clongdouble)
    series = _power_series(coeffs, np.diag(es.eigenvalues), alpha, n_max)
    assert np.abs(series - table).max() <= 1e-12 * np.abs(table).max()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_power_series_keeps_subnormal_digits(seed):
    # a series of positive terms (no cancellation) decaying as 0.65^n falls
    # below the smallest normal double near n = 1640; in extended precision
    # each term must still be its exact value rounded once, not a sum of
    # products that each lost digits to underflow
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.0, 1.0, (16, 16))
    T *= 0.65 / np.abs(np.linalg.eigvals(T)).max()
    left, right = rng.uniform(0.5, 1.0, 16), rng.uniform(0.5, 1.0, 16)
    T_ext, v, ref = T.astype(np.longdouble), right.astype(np.longdouble), []
    for _ in range(2001):
        ref.append(left.astype(np.longdouble) @ v)
        v = T_ext @ v
    ref = np.array(ref).astype(float)
    assert (ref < np.finfo(float).tiny).sum() > 30
    series = _power_series(left, T, right, 2000, np.clongdouble).astype(complex)
    assert (np.abs(series - ref) <= 2 * 2.0**-1074 + 4e-16 * ref).all()


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
