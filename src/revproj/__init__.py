"""Plane projections of surfaces of revolution with quadratic squared profile.

The admissible family f(u)^2 = c u^2 + d u + k (c > 0, k > 0, d^2 - 4ck < 0)
admits a closed-form map to the plane that preserves infinitesimal length
along meridians and parallels and sends meridians to straight lines; this
package constructs the map, certifies every identity behind it numerically,
decides existence for arbitrary profiles, and exports graticules, meshes and
sample tables.
"""

from .errors import (
    CollinearityViolation,
    DegenerateLine,
    DomainExceeded,
    EmptyDomain,
    InfeasibleArcLength,
    IoFailure,
    NoPreimage,
    RejectedProfile,
    RevprojError,
    SingularitySplit,
)
from .export import (
    GraticuleSpec,
    MeshSpec,
    export_graticule_svg,
    export_mesh_obj,
    sample_table_csv,
)
from .profile import (
    DomainInterval,
    GeneralProfile,
    QuadraticProfile,
    SurfacePoint,
    admissible_interval,
    eval_g,
    make_quadratic_profile,
    profile_jet,
    reference_interval,
)
from .projection import (
    Branch,
    PlanePoint,
    ProjectionParams,
    invert,
    jacobian,
    make_projection_params,
    meridian_turning,
    plane_map,
    plane_map_derivatives,
    project,
    t_period,
)
from .verifier import (
    BUILTIN_PROFILES,
    ExistenceVerdict,
    ResidualReport,
    check_local_isometry,
    check_meridian_straightness,
    check_structural_identities,
    curvature_report,
    existence_classifier,
    ode_oracle_a,
    verify_report,
)
from .cli import cli_dispatch
