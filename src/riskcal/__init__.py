"""riskcal: coherent monetary utilities on finite filtered probability spaces.

Exact-rational outcome spaces, Choquet/distortion and scenario-set
utilities, conditional evaluation with time-consistency audits, and the
commonotone lift construction that pins the two notions against each other.
"""

from .conditional import (
    ConditionalUtility,
    TimeConsistencyReport,
    blockwise_eval,
    conditional_commonotone_additivity_check,
    conditional_eval,
    conditional_eval_with_flags,
    cone_decompose,
    core_bound,
    crafted_ladder,
    default_probes,
    recompose,
    tc_gap,
    two_period_eval,
)
from .io import (
    SchemaError,
    load_space_file,
    load_utility_file,
    packaged_data_path,
    parse_space,
    parse_utility,
)
from .lift import (
    AdditivityProbeReport,
    CommonotonePair,
    GeometryPoint,
    LiftDiagnostics,
    additivity_probe,
    find_b,
    geometry_xyl,
    lift_pair,
)
from .space import (
    ConditionalMassResult,
    EventSet,
    Filtration,
    IndependenceResult,
    OutcomeSpace,
    Partition,
    RandomVariable,
    ResolutionUnavailableError,
    UniformGrid,
    ValidationReport,
    build_uniform_grid,
    conditional_expectation,
    conditional_resolution,
    independence_check,
    product_space,
    set_with_conditional_mass,
    validate,
)
from .utility import (
    CoherentUtility,
    DistortionFunction,
    ScenarioSet,
    choquet_eval,
    core_extreme_points,
    core_vertex,
    is_commonotone_pair,
    product_example_eval,
    relevance_check,
    scenario_min_eval,
)

__version__ = "0.1.0"
