"""Numerical laboratory for comparison of polynomial norms on sphere subsets.

Computes best L^2 comparison constants for polynomials restricted to subsets
of S^1 and S^2, the geometric quantities that govern them (local relative
density, harmonic measure of the set seen from the shell |x| = 1 - 1/L,
doubling / A_infinity / RH_infinity weight diagnostics), and sup-norm
analogues, with a reproducible sweep driver.
"""

from .basis import BasisSpec, basis_dim, basis_eval, basis_matrix, normalized_assoc_legendre
from .concentration import (
    ConcentrationReport,
    PnormReport,
    gram_matrix,
    lambda_min,
    lp_ratio,
    sup_norm_ratio,
    sup_norm_ratios,
    uncertainty_check,
    worst_case_lp,
)
from .errors import (
    ConfigError,
    DegenerateMeasureError,
    EmptyIntersectionError,
    NetConstructionError,
    ResolutionError,
    ResourceLimitError,
    WindowError,
)
from .functionals import (
    DensityReport,
    HarmonicReport,
    WeightReport,
    ainfty_check,
    covering_net,
    density_profile,
    doubling_constant,
    harmonic_infimum,
    harmonic_measure,
    regularize_set,
    relative_density,
    rhinfty_check,
)
from .geometry import (
    candidate_centers,
    cap_measure,
    fibonacci_lattice,
    geodesic_distance,
    north_pole,
    random_points,
    random_rotation,
    south_pole,
)
from .measures import (
    BandWeight,
    Lebesgue,
    PowerDistanceWeight,
    ProductWeight,
    cap_mass,
    regularized_measure,
    rotate_measure,
    set_measure,
    weight_values,
)
from .quadrature import QuadratureRule, Sampling, build_quadrature, cap_quadrature
from .sets import (
    Arcs,
    Band,
    CapNetFamily,
    CapUnion,
    Complement,
    EmptySet,
    FixedFamily,
    FullSphere,
    RandomCapsFamily,
    cap_set,
    indicator,
    membership,
    random_cap_union,
    realize_family,
    rotate,
)
from .special import (
    KernelSpec,
    PeakPolynomial,
    SzegoApprox,
    dim_harmonic,
    dim_pi,
    jacobi_eval,
    kernel_spec,
    peak_polynomial,
    reproducing_kernel,
    sphere_lambda,
    sphere_measure,
    szego_envelope,
    szego_estimate,
)

__version__ = "0.1.0"
