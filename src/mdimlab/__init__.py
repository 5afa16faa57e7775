"""Exact-arithmetic toolkit for separation growth in piecewise-affine
interval maps: staircase model construction, separated-set counting,
horseshoe detection and certification, and local map surgery."""

from .errors import (
    ContractError,
    DomainError,
    GridPrecisionError,
    MdimError,
    ResourceError,
    SerializationError,
    VerificationError,
)
from .fbeta import (
    FBetaLevel,
    FBetaModel,
    FBetaPlan,
    build_fbeta,
    dump_model,
    dump_plan,
    level_views,
    load_model,
    load_plan,
    plan_sequences,
    predicted_count,
    verify_model,
)
from .horseshoe import (
    Certificate2D,
    Horseshoe1DReport,
    Horseshoe2DModel,
    Lap,
    build_model_2d,
    certificate_to_csv,
    detect_1d,
    dump_model_2d,
    full_lap_view,
    load_model_2d,
    monotone_laps,
    separated_bound_2d,
    slab_view,
    verify_conditions,
)
from .pwa import (
    PwaMap,
    compose,
    constant_map,
    dump_pwa,
    eval_map,
    eval_sorted,
    fixed_points,
    identity_map,
    iterate,
    load_pwa,
    sup_distance,
    tent_map,
)
from .rational import (
    floor_pow,
    format_interval,
    format_rational,
    iroot,
    parse_interval,
    parse_rational,
)
from .reporting import CheckResult, VerificationSummary
from .separation import (
    CountRecord,
    MarkovBranch,
    MarkovView,
    ScaleRate,
    SeparationReport,
    count_cylinders,
    count_separated_exhaustive,
    count_separated_greedy,
    dn_distance,
    dump_views,
    load_views,
    mdim_profile,
    orbit,
    report_to_csv,
    report_to_json,
    verify_cylinder_separation,
)
from .surgery import (
    SurgeryPlan,
    conjugate_into_interval,
    dump_surgery_plan,
    implant,
    load_surgery_plan,
    transport_markov_view,
    transported_views,
)

__version__ = "0.1.0"
