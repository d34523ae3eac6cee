"""Weighted-inequality criteria for supremal and Hardy-type operators,
with a brute-force best-constant oracle."""

from .extreal import INF
from .weights import (
    Exponents,
    FuncWeight,
    PiecewisePowerWeight,
    PowerWeight,
    TabulatedWeight,
    Weight,
    cumulative,
    parse_weight,
    running_sup,
)
from .gridfn import Grid, make_log_grid, region_values, sample_monotone
from .operators import OperatorKernel, OperatorKind
from .criteria import (
    CriterionResult,
    CritCtx,
    InequalitySpec,
    TheoremInapplicable,
    crit_tub,
    evaluate_criterion,
)
from .oracle import (
    EquivalenceReport,
    OracleBudget,
    OracleResult,
    best_constant_lower,
    equivalence_report,
)

__version__ = "0.1.0"
