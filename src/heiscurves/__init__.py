"""Left-invariant geometry of the Heisenberg group and its metric family:
tensor tables, Frenet data along unit-speed curves, bitension-field
verification and the explicit non-geodesic biharmonic helices."""

__version__ = "0.1.0"  # before the submodules, which write it into their outputs

from .analysis import (
    BitensionReport,
    ClassificationResult,
    SystemCheck,
    SystemReport,
    VerdictSeries,
    bitension_report,
    check_helix_system,
    check_system_33,
    classify_curve,
    cone_membership,
    legendre_pairing,
    residuals_to_csv,
    tension1,
    tension2_direct,
    tension2_frame,
    verdict_series,
)
from .curves import (
    CurveSamples,
    CurveSpec,
    FrenetSeries,
    covariant_derivative_along,
    frenet_apparatus,
    frenet_to_json,
    import_samples,
    left_translate_curve,
    left_translate_samples,
    read_samples_csv,
    sample_curve,
    write_frenet_json,
    write_samples_csv,
)
from .errors import (
    DegeneratePlane,
    DomainError,
    DomainExit,
    GeodesicFrameUndefined,
    HeiscurvesError,
    InadmissibleAlpha,
    IntegrationFailure,
    MalformedSampleFile,
    NonFiniteVelocity,
    NonMonotone,
    NonMonotoneAlpha,
    NonUnitSpeed,
    NonUnitVector,
    TooFewSamples,
    UnsupportedManifold,
)
from .factory import (
    ADMISSIBLE_BOUNDARY,
    admissible_cos,
    HelixParams,
    SurfacePatch,
    b3zero_curve,
    biharmonic_helix,
    cylinder_patch,
    dump_curve_params,
    geodesic_ivp,
    helicoid_patch,
    helix_family_curve,
    helix_invariants,
    load_curve_params,
    membership_residual,
    one_param_subgroup,
    solve_branch_A,
    surface_eval,
    tangent_driven_curve,
)
from .manifold import (
    HEISENBERG,
    ManifoldParams,
    left_translate,
    left_translate_velocity,
    metric_at,
    ricci_component,
    riemann_component,
    sectional,
)
from .numerics import DEFAULT_CONFIG, NumericsConfig
