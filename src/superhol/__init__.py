"""Exact holonomy and Berger-superalgebra certificates over superdomain charts."""

from .scalars import GAUSSIAN, RATIONAL, GaussianRational, parse_scalar, scalar_str
from .superfunc import ChartSignature, Superfunction, parse_superfunction, sf_to_str
from .superlin import (
    StructureTensor,
    SubSuperalgebra,
    SuperDim,
    SuperMatrix,
    classical_superalgebra,
    generate_subalgebra,
    stabilizer_algebra,
    superbracket,
    supertrace,
)
from .geometry import (
    Chart,
    ConnectionData,
    MetricData,
    check_first_bianchi,
    check_second_bianchi,
    covariant_derivatives,
    curvature,
    levi_civita,
    pure_gauge_connection,
    ricci,
    torsion,
    validate_metric,
)
from .holonomy import (
    HolonomyResult,
    SectionData,
    check_parallel,
    classify_geometry,
    conjugated_generators,
    decomposability_certificate,
    flatness_certificate,
    infinitesimal_holonomy,
    invariant_vectors,
    numeric_parallel_transport,
    reconstruct_parallel_section,
    test_invariant_subspace,
)
from .berger import (
    CurvatureElement,
    berger_check,
    cartan_prolongation,
    curvature_derivative_space,
    curvature_space,
    pi_adjoint_test,
    spencer_rank_identity,
)

__version__ = "0.1.0"
