"""Arbitrage analysis, numeraire portfolios and hedging for finite markets
under convex trading constraints."""

from .errors import (
    InfeasibleError,
    InvalidParameterError,
    Na1LabError,
    NumericError,
    PreconditionError,
    SchemaError,
)
from .arbitrage import (
    ArbitrageCertificate,
    Esmm,
    Na1Certificate,
    check_na1,
    construct_esmm,
    find_classical_arbitrage,
    max_expected_gain,
    relative_arbitrage,
)
from .market import (
    ConstraintSet,
    Cone,
    DiscreteMarket,
    SubspaceBasis,
    admissible_polyhedron,
    generated_cone,
    preset_constraints,
    recession_cone,
    span_and_projection,
    support,
    wealth,
)
from .portfolio import (
    Deflator,
    OptimalPortfolio,
    UtilitySpec,
    deflator_from_numeraire,
    expected_utility,
    expected_utility_gradient,
    maximize_utility,
    numeraire_portfolio,
    relative_log_optimality_gap,
    verify_deflator,
    verify_numeraire,
)
from .hedging import (
    Claim,
    PiecewiseLinearLoss,
    ValuationReport,
    indifference_price,
    real_world_price,
    shortfall_hedge,
    superhedge,
)
from .factor import (
    DiscretizationNote,
    FactorDistribution,
    FactorModel,
    PositivityReport,
    admissibility_halfspaces,
    alpha_recursion,
    arbitrage_ray,
    discretize,
    example_3_7_ratio,
    example_3_8_condition,
    from_standard_form,
    largest_two_dim_supports,
    max_arbitrage_strategy,
    na1_factor,
    na1_triangular,
    two_dim_admissibility,
    two_dim_model,
    validate_positivity,
)

from .io import (
    dumps_canonical,
    load_document,
    parse_factor_model,
    parse_market,
    parse_tree,
)
from .tree import (
    BackwardInductionResult,
    DeflatorProcess,
    PolicyProcess,
    ScenarioTree,
    TreeHedge,
    TreeNa1Report,
    TreeNode,
    backward_induction,
    default_wealth_grid,
    global_na1,
    iid_tree,
    node_market,
    numeraire_process,
    superhedge_tree,
    verify_deflator_process,
)

#: Every class and function imported above, so the list cannot drift from them.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and getattr(value, "__module__", "").startswith(__name__)]

__version__ = "0.1.0"
