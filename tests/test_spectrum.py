import numpy as np
import pytest

from brickwork_ep import (ParameterPoint, UnsupportedRegimeError,
                          analytic_spectrum, certify_ep, critical_epsilon,
                          ep_discriminant, ep_scan, match_spectra,
                          sensing_coefficients, superoperator_at, vectorize)
from brickwork_ep import spectrum
from brickwork_ep.dynamics import coherence_probe, reference_initial_state

from closed_form_vectors import closed_form_left_vectors, closed_form_right_vectors
from conftest import GAMMA_A, X_A, exact_ep_x, random_easy_plane_point

EPS_EP_A = 0.40012921026029413   # critical epsilon at (x, gamma) = (0.3293, pi/4)


def test_plain_eigenvalues_exact():
    spec = analytic_spectrum(ParameterPoint.easy_plane(0.7, 1.1, 0.3))
    assert spec.mu[0] == 1.0
    assert spec.mu[1] == 0.3**2
    assert np.array_equal(spec.mu[2:6], np.full(4, 0.3, dtype=complex))


def test_rescaled_pairs_exact(rng):
    spec = analytic_spectrum(random_easy_plane_point(rng))
    eps = spec.point.epsilon
    assert spec.mu[10] == eps * spec.mu[8] and spec.mu[11] == eps * spec.mu[9]
    assert spec.mu[14] == eps * spec.mu[12] and spec.mu[15] == eps * spec.mu[13]


def test_pair_products(rng):
    # mu7 = mu9 mu13 and mu8 = mu10 mu14 under the minus-first labeling
    spec = analytic_spectrum(random_easy_plane_point(rng))
    assert abs(spec.mu[6] - spec.mu[8] * spec.mu[12]) < 1e-12
    assert abs(spec.mu[7] - spec.mu[9] * spec.mu[13]) < 1e-12


def test_splitting_sqrt_vanishes_at_ep():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, EPS_EP_A)
    spec = analytic_spectrum(point)
    assert abs(spec.Q) < 1e-7
    assert abs(spec.mu[8] - spec.mu[9]) < 1e-7
    lam, q = point.lam, point.q
    mu0 = spec.f * lam / (2 * (lam**2 * q**2 - 1))
    assert abs(spec.mu[8] - mu0) < 1e-7


def test_analytic_vs_numeric(rng):
    for _ in range(25):
        point = random_easy_plane_point(rng)
        s = superoperator_at(point)
        spec = analytic_spectrum(point)
        assert match_spectra(np.linalg.eigvals(s.matrix), spec.mu).max_distance < 1e-9


def test_theta_rejected():
    with pytest.raises(UnsupportedRegimeError):
        analytic_spectrum(ParameterPoint.easy_plane(0.3, 0.9, 0.5, theta=0.2))


def test_discriminant_values():
    for gamma in (0.3, 1.0, 2.2):
        assert ep_discriminant(0.0, gamma, 1.0) == 0.0
    assert abs(ep_discriminant(X_A, GAMMA_A, 0.4)) < 1e-3
    assert ep_discriminant(X_A, GAMMA_A, 0.32) < 0
    assert ep_discriminant(X_A, GAMMA_A, 0.48) > 0


def test_discriminant_sign_matches_moduli():
    # above: equal moduli; below: distinct moduli
    above = analytic_spectrum(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.48)).mu
    below = analytic_spectrum(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)).mu
    assert abs(abs(above[8]) - abs(above[9])) < 1e-12
    assert abs(abs(below[8]) - abs(below[9])) > 1e-3


def test_critical_epsilon_reference_points():
    assert abs(critical_epsilon(0.3293, np.pi / 4) - 0.4) < 5e-3
    assert abs(critical_epsilon(0.3466, np.pi / 2) - 0.5) < 5e-3
    assert abs(critical_epsilon(0.3013, np.pi / 9) - 0.2) < 5e-3


def test_critical_epsilon_zeroes_discriminant(rng):
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0)
        gamma = rng.uniform(0.1, np.pi - 0.1)
        eps = critical_epsilon(x, gamma)
        assert abs(ep_discriminant(x, gamma, eps)) < 1e-10


def test_critical_epsilon_even_and_cusp():
    for x in (0.1, 0.5, 1.3):
        assert critical_epsilon(x, GAMMA_A) == critical_epsilon(-x, GAMMA_A)
    assert critical_epsilon(0.0, 1.1) == 1.0
    # continuous from both sides of the cusp
    left = critical_epsilon(-1e-8, 1.1)
    right = critical_epsilon(1e-8, 1.1)
    assert abs(left - 1.0) < 1e-6 and abs(right - 1.0) < 1e-6
    assert left == right


# 50-digit references for the small root of eps^2 - (2 + u) eps + 1 = 0,
# u = 4 sinh^2 x / sin^2 gamma
def test_critical_epsilon_no_underflow_at_large_x():
    # the difference-of-large-terms form returned 0.0 here
    assert abs(critical_epsilon(6.0, 0.02) / 2.4573874527327050198e-9 - 1.0) < 1e-13


def test_critical_epsilon_accurate_at_small_gamma():
    # the difference-of-large-terms form was off by 1.6e-3 relative here
    assert abs(critical_epsilon(3.0, 0.01) / 2.4910021666604672434e-7 - 1.0) < 1e-13


def test_critical_epsilon_rejects_gamma_multiple_of_pi():
    with pytest.raises(ValueError):
        critical_epsilon(0.3, 0.0)
    with pytest.raises(ValueError):
        critical_epsilon(0.3, np.pi)


def test_ep_scan_finds_reference_point():
    scan = ep_scan([GAMMA_A], [X_A])
    assert len(scan.x) == 1
    assert abs(scan.epsilon[0] - 0.4) < 5e-3
    assert scan.certified[0]
    assert scan.certificate.gap[0] < 1e-6
    assert scan.certificate.min_overlap[0] < 1e-6


def test_ep_scan_sorted_and_certified(rng):
    gammas = np.linspace(0.4, 2.4, 5)
    xs = np.linspace(0.15, 1.0, 10)
    scan = ep_scan(gammas, xs)
    assert len(scan.x) == 50
    keys = list(zip(scan.gamma, scan.x))
    assert keys == sorted(keys)
    assert scan.certified.all()
    assert (scan.certificate.gap <= 1e-6).all()
    assert (scan.certificate.min_overlap < 1e-6).all()
    assert (scan.certificate.nilpotent_ratio < 1e-8).all()


def test_ep_scan_certifies_gamma_half_pi():
    # mu9,10 and mu13,14 coincide at gamma = pi/2; the pair block still isolates mu9,10
    scan = ep_scan([np.pi / 2], [0.2, 0.4, 0.6, 1.0])
    assert len(scan.x) == 4 and scan.certified.all()


def test_ep_scan_rejects_bad_gamma():
    with pytest.raises(ValueError):
        ep_scan([0.0, GAMMA_A], [0.3])


def first_point_error(gammas, xs):
    """The error of a point-by-point scan: `certify_ep` at each grid point in
    (gamma, x) order, the first failure deciding."""
    with np.errstate(all="ignore"):
        for gamma in sorted(gammas):
            for x in sorted(xs):
                try:
                    certify_ep(ParameterPoint.easy_plane(x, gamma, critical_epsilon(x, gamma)))
                except (ValueError, ArithmeticError, AssertionError, RuntimeError) as exc:
                    return exc
    return None


@pytest.mark.parametrize("xs, error", [
    # x = 200 overflows the closed forms; from x = 400 the critical epsilon underflows to 0
    (np.linspace(200, 400, 3), FloatingPointError),
    (np.linspace(400, 500, 2), ValueError),
    # past |x| ~ 709 lambda overflows and the pair blocks of failed points are not finite
    (np.linspace(200, 800, 2), FloatingPointError),
    (np.linspace(400, 800, 2), ValueError),
])
def test_ep_scan_error_is_first_failing_point_in_one_pass(count_calls, xs, error):
    gammas = np.linspace(0.5, 1.0, 2)
    expected = first_point_error(gammas, xs)
    calls = count_calls(spectrum, "_certify")
    with pytest.raises(error) as info:
        ep_scan(gammas, xs)
    assert type(info.value) is type(expected) and str(info.value) == str(expected)
    assert len(calls) == 1


def test_point_failures_scope_ends_with_a_failed_scan():
    errstate = np.geterr()
    with pytest.raises(ValueError):
        ep_scan([0.5, 1.0], [400.0, 500.0])
    assert np.geterr() == errstate
    with pytest.raises(ValueError):
        ParameterPoint.easy_plane(0.3, 0.7, 1.5)


def test_closed_form_right_vectors_are_eigenvectors():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    cf = closed_form_right_vectors(point)
    assert not cf.coalesced
    for label, v in cf.vectors.items():
        mu = spec.mu[label - 1]
        res = np.linalg.norm(s.matrix @ v - mu * v) / np.linalg.norm(v)
        assert res < 1e-10, f"label {label}: residual {res:.2e}"


def test_pair_difference_structure():
    # v10 - v9 is supported on the single vectorized index 9 (1-based)
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    spec = analytic_spectrum(point)
    cf = closed_form_right_vectors(point)
    diff = cf.vectors[10] - cf.vectors[9]
    lam, q, eps = point.lam, point.q, point.epsilon
    expected = spec.Q / ((lam**2 - 1) * q * eps)
    assert abs(diff[8] - expected) < 1e-14
    diff[8] = 0.0
    assert np.abs(diff).max() == 0.0


def test_right_vectors_coalesce_at_ep():
    cf = closed_form_right_vectors(ParameterPoint.easy_plane(X_A, GAMMA_A, EPS_EP_A))
    assert cf.coalesced
    assert np.array_equal(cf.vectors[9], cf.vectors[10])


def test_closed_form_left_vectors():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    lv = closed_form_left_vectors(point)
    for label, w in lv.items():
        mu = spec.mu[label - 1]
        res = np.linalg.norm(w @ s.matrix - mu * w) / np.linalg.norm(w)
        assert res < 1e-10, f"label {label}: residual {res:.2e}"
    cf = closed_form_right_vectors(point)
    # bilinear biorthogonality of the sensing pair after the closed-form scaling
    for j in (9, 10):
        for k in (9, 10):
            val = lv[j] @ cf.vectors[k]
            assert abs(val - (1.0 if j == k else 0.0)) < 1e-12


def test_left_vectors_rejected_at_ep():
    with pytest.raises(UnsupportedRegimeError):
        closed_form_left_vectors(ParameterPoint.easy_plane(X_A, GAMMA_A, EPS_EP_A))


def test_sensing_identities():
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    c = sensing_coefficients(point)
    assert abs(c.g_minus - 4 * c.f_minus**2 / point.epsilon) < 1e-12
    assert abs(c.g_plus - 4 * c.f_plus**2 / point.epsilon) < 1e-12
    # n = 0 sum rule against the probe expectation in the reference state
    rho0 = reference_initial_state()
    g3 = coherence_probe().matrix
    assert abs((c.gamma9 + c.gamma10) - np.trace(g3 @ rho0)) < 1e-12


def test_sensing_symmetric_at_ep():
    # with the splitting root at zero the two branch amplitudes coincide; the
    # common value sits exactly on the pole g = -4, where the individual
    # expansion weights diverge (the expansion itself is invalid on the EP)
    c = sensing_coefficients(ParameterPoint.easy_plane(X_A, GAMMA_A, EPS_EP_A))
    assert abs(c.g_plus - c.g_minus) < 1e-6
    assert abs(c.f_plus - c.f_minus) < 1e-7
    assert abs((c.g_plus + c.g_minus) / 2 + 4.0) < 1e-6


def test_sensing_rejects_unit_lambda():
    with pytest.raises(ValueError):
        sensing_coefficients(ParameterPoint.easy_plane(0.0, GAMMA_A, 0.32))


def test_sensing_against_biorthogonal_projection():
    # closed forms vs numerical left/right projections
    point = ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32)
    s = superoperator_at(point)
    spec = analytic_spectrum(point)
    c = sensing_coefficients(point)
    rho0 = vectorize(reference_initial_state())
    g3 = coherence_probe().matrix

    import scipy.linalg as la
    w, vl, vr = la.eig(s.matrix, left=True)
    got = {}
    for j, mu_target in ((9, spec.mu[8]), (10, spec.mu[9])):
        k = int(np.argmin(np.abs(w - mu_target)))
        wk = vl[:, k].conj()
        alpha = (wk @ rho0) / (wk @ vr[:, k])
        got[j] = alpha * np.trace(g3 @ vr[:, k].reshape(4, 4))
    assert abs(got[9] - c.gamma9) < 1e-9
    assert abs(got[10] - c.gamma10) < 1e-9


def test_splitting_exponent_half():
    ds = np.array([1e-6, 1e-5, 1e-4, 1e-3])
    eps_ep = critical_epsilon(X_A, GAMMA_A)
    gaps = []
    for d in ds:
        mu = analytic_spectrum(ParameterPoint.easy_plane(X_A, GAMMA_A, eps_ep + d)).mu
        gaps.append(abs(mu[8] - mu[9]))
    slope = np.polyfit(np.log(ds), np.log(gaps), 1)[0]
    assert abs(slope - 0.5) < 0.05


def test_certify_ep_at_fig4_parameters():
    x_star = exact_ep_x(0.4, GAMMA_A)
    rec = certify_ep(ParameterPoint.easy_plane(x_star, GAMMA_A, 0.4))
    assert rec.certified
    assert rec.certificate.gap <= 1e-6
    assert rec.certificate.min_overlap < 1e-6


def test_closed_form_left_vectors_evaluate_the_closed_forms_once(count_calls):
    calls = count_calls(spectrum, "pair_splitting_sqrt")
    closed_form_left_vectors(ParameterPoint.easy_plane(X_A, GAMMA_A, 0.32))
    assert len(calls) == 1
