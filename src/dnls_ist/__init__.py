"""Inverse scattering transform for the nonlocal PT-symmetric AL lattice."""

from .errors import (BlowupDetected, ConfigError, DegenerateEigenvalues,
                     DomainError, Inadmissible, IstError, NearBranchPoint,
                     SingularPoint, SingularProduct, SingularSolution,
                     SingularTransfer)
from .spectral import (Case, CaseConfig, Region, SpectralPoint,
                       classify, gamma, lam_squared, make_case,
                       point_from_zeta, zeta_bar)
from .lattice import (PotentialWindow, ThetaProduct, al_rhs, background_field,
                      partner, theta_products)
from .ist import (EigenSet, NormingData, Quartet, RealPair,
                  ReconstructionGrid, build_system,
                  case2_feasibility_scan, eigenvalues_case1, eigenvalues_case2,
                  eigenvalues_case3, eigenvalues_case4, empty_eigenset,
                  make_evaluator, norming_case1, norming_case4, reconstruct,
                  reconstruct_grid, reconstruct_with_derivative,
                  singularity_scan, soliton_closed_form_case4,
                  theta_minus_inf_constraint, theta_minus_inf_from_system,
                  trace_formula, trace_product, unit_norming)
from .scattering import (Coefficients, ColumnKind, EigenfunctionColumn,
                         ScatteringReport, SymmetryReport, continuum_samples,
                         jost, scattering_coefficients, scattering_report)
from .verify import (ResidualReport, Trajectory, compare, equation_residual,
                     equation_residuals, equation_residuals_exact, simulate)

__version__ = "0.1.0"
