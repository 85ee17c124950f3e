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
                        dissipator_matrix, kraus_lindblad_spectral_map)
from .dynamics import (EPRegime, Observable, RegimeReport, SensitivityProbe,
                       TrajectoryRecord, classify_regime, coherence_probe,
                       coherence_probe_adjoint, evolve, identity_observable,
                       observable_series, reference_initial_state, sensitivity_probe)
from .gates import (GateSet, ParameterPoint, ParameterRegime, SingularGateError,
                    build_gate_set, gate_stack, local_phase_gate, relaxation_kraus)
from .linalg import (EigenDecompositionError, EigenSystem, JordanCertificate,
                     SpectraMatch, devectorize, eig_general, jordan_certificate,
                     kron, match_spectra, vectorize)
from .spectrum import (AnalyticSpectrum, EPRecord, EPScan, SensingCoefficients,
                       analytic_spectrum, certify_ep, critical_epsilon, ep_discriminant,
                       ep_scan, sensing_coefficients)
from .superop import (CharFactorReport, EVEN_INDICES, ODD_INDICES, Superoperator,
                      SymmetryViolationError, UnsupportedRegimeError, assemble,
                      block_reduce, build_superoperator, choi_matrix, choi_min_eigenvalue,
                      factored_char_poly, steady_state, superoperator_at,
                      trace_preservation_defect)
