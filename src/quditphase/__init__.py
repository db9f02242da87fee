"""Geometric, dynamical and fractional topological phases of qudits.

Single qudits are density matrices parametrized by a purity vector over the
SU(d) generator basis; two-qudit pure states are coefficient matrices with a
gauge-fixed singular value decomposition. Local unitary paths are authored in
Cartan/coset factorized form and the phase engine integrates total, dynamical
and geometric phases along them, detecting the fractional cyclic values
2 pi (n_A/d_A + n_B/d_B). The engine has one kernel, for pairs: a single
qudit runs as its purified pair, alpha = sqrt(rho) with qudit B held at the
identity.
"""

from .sud import (GeneratorBasis, CartanAngles, VelocityDecomposition,
                  make_generators, cartan_exponential, velocity_vector,
                  decompose_velocity, rotate_by_cartan, project_special_unitary,
                  project_special_unitary_path, random_special_unitary)
from .states import (QuditDensity, DiagonalProfile, CoefficientMatrix,
                     SchmidtForm, EntanglementReport, density_from_purity,
                     purity_decompose, purify, qutrit_theta_bound, qutrit_profile,
                     schmidt_decompose, reduced_densities, entanglement_report,
                     apply_local, two_qubit_schmidt, two_qutrit_schmidt,
                     two_qutrit_equal_marginals, qubit_qutrit_embedded,
                     qubit_qutrit_full, max_entangled, qudit_schmidt_diagonal,
                     random_state)
from .paths import (CartanLinear, CartanHold, BlochLoop, GeneratorConst,
                    LocalEvolution, TimeGrid, PairEvolution, CartanTrajectory,
                    identity_evolution, cartan_trajectory, solid_angle,
                    lattice_condition_check)
from .phases import (GridTooCoarseError, PhaseTrace, CyclicEvent, CycleScan,
                     FractionalLattice, unwrap_phases,
                     run_trace, single_qudit_trace, detect_cycles,
                     fractional_lattice, circular_distance)
from . import closed_form
from .closed_form import master_phase_formula
from .scenarios import (ConfigError, NoOracleError, ScenarioConfig,
                        BuiltScenario, TraceRecord, RunOutput, VerifyReport,
                        figure_preset, available_presets, run_scenario,
                        verify_scenario)

__version__ = "0.1.0"
