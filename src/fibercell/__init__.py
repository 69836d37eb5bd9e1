"""fibercell: spectra of a high-contrast fiber/matrix cell.

Finite-element spectra of the contrast problem on the square cell with one
circular fiber, the semi-analytic spectrum of its one-dimensional limit
through the nonlocal dispersion relation, and the convergence diagnostics
tying the two together.
"""

__version__ = "0.1.0"

from .geometry import CellGeometry, GeometryError, vertical_eigenvalues
from .mesh import (FIBER, MATRIX, MeshQualityError, MidpointRule, QualityReport,
                   TriMesh, generate_mesh, mesh_quality, read_mesh,
                   structured_mesh, write_mesh)
from .assembly import (CellOperators, assemble_1d, assemble_dirichlet_disk,
                       assemble_mode_pencil)
from .eigensolve import (EigenPair, NotSPDError, SPDFactor, dense_eigen_oracle,
                         factorize_spd, inertia_count, smallest_eigenpairs)
from .limit import (DispersionParams, LimitRoot, bessel_j0, bessel_j0_zero,
                    bessel_j0_zeros, bessel_j1, delta, disk_radial_eigendata,
                    limit_eigenvalues, mean_u0_closed, mean_u0_series,
                    mu0_lower_bound, u0_eval, write_roots_csv, write_roots_json)
from .spectrum import (ConvergenceReport, MergedEigenvalue, ModeSpectrum,
                       ReportRow, convergence_sweep, discrete_disk_mu1,
                       discrete_mode_merge, eigenvector_error, kron_3d_oracle,
                       merged_spectrum, mode_spectrum)
from .config import ConfigError, RunConfig, parse_config, validate_config
