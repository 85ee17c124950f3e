"""Exceptional points of a dissipative two-qubit brickwork circuit.

The package builds the one-step superoperator of a two-qubit circuit that
alternates an integrable coupling gate with single-qubit relaxation, splits
it into parity blocks, evaluates the closed-form spectrum of the
superintegrable case, locates the exceptional-point manifold, and simulates
the linear-in-time observable signature at the EP.
"""

__version__ = "0.1.0"

from .config import DEFAULT_TOLS, Tolerances, override_tolerances
from .continuum import (LindbladSpec, SpectralMapReport, TrotterReport, XXZSpec,
                        build_lindblad, build_xxz, composite_trotter_check,
                        dissipator_matrix, kraus_lindblad_spectral_map,
                        xxz_limit_check)
from .dynamics import (EPRegime, Observable, RegimeReport, SensitivityProbe,
                       TrajectoryRecord, classify_regime, coherence_probe,
                       coherence_probe_adjoint, evolve, evolve_by_powers,
                       identity_observable, jordan_growth, observable_series,
                       reference_initial_state, sensitivity_probe)
from .gates import (GateSet, ParameterPoint, ParameterRegime, SingularGateError,
                    build_gate_set, coupling_gate, gate_stack, local_phase_gate,
                    relaxation_channel_spectrum, relaxation_kraus, relaxation_steps)
from .linalg import (EigenDecompositionError, EigenSystem, JordanCertificate,
                     SpectraMatch, devectorize, eig_general, jordan_certificate,
                     kron, match_spectra, vectorize)
from .spectrum import (AnalyticSpectrum, ClosedFormVectors, EPRecord, EPScan,
                       SensingCoefficients, analytic_spectrum, certify_ep,
                       closed_form_left_vectors, closed_form_right_vectors,
                       critical_epsilon, ep_discriminant, ep_scan,
                       sensing_coefficients)
from .superop import (CharFactorReport, EVEN_INDICES, ODD_INDICES, Superoperator,
                      SymmetryViolationError, UnsupportedRegimeError, apply_step,
                      assemble, block_reduce, build_superoperator, choi_matrix,
                      choi_min_eigenvalue, embed_blocks, factored_char_poly,
                      pair_block, parity_projectors, steady_state, superoperator_at,
                      trace_preservation_defect)
