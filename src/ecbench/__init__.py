"""ecbench: configuration-space benchmark harness.

Builds well-defined evaluation-condition spaces, samples them under five
experiment designs, measures evaluated objects under equivalent
configurations, and reports statistically comparable paired verdicts, with a
Monte Carlo oracle for methodology coverage analysis.
"""

__version__ = "0.1.0"

from .space import (  # noqa: F401
    ConfigSpace,
    Configuration,
    Factor,
    MesPoint,
    ObjectConfig,
    apply_to_object,
    build_space,
)
from .design import (  # noqa: F401
    FactorSplit,
    PlanEntry,
    RctAssignment,
    SamplePlan,
    factorial_2k,
    full_factorial,
    rct_assign,
    spec_point,
    stratified_sample,
)
from .model import SyntheticModel, synth_time  # noqa: F401
from .runner import ExecutorSpec, Measurement, ResultSet, execute_plan, measure  # noqa: F401
from .stats import (  # noqa: F401
    Interval,
    Sample,
    confidence_interval,
    summary,
    t_quantile,
)
from .compare import (  # noqa: F401
    ComparisonReport,
    Verdict,
    asymmetry_report,
    compare_objects,
    paired_differences,
    ratio_diagnostics,
    spec_composite,
    verdict_of,
)
from .oracle import (  # noqa: F401
    CoverageResult,
    Methodology,
    PopulationTruth,
    best_level_report,
    coverage_experiment,
    methodology_comparison,
    population_mean,
)
