"""Property tests of the map's invariants over the domain the benchmark
exercises: both regimes, theta in [0, 1.5]."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brickwork_ep import (DEFAULT_TOLS, ParameterPoint, block_reduce,
                          choi_min_eigenvalue, critical_epsilon, ep_discriminant,
                          match_spectra, superoperator_at,
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
