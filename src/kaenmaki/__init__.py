"""Equilibrium measures on planar self-affine sets with diagonal and
anti-diagonal parts: coding, thermodynamic quantities, dimension reports,
and Monte Carlo verification."""

from .coding import Word, check_mixing, transition_matrix
from .dimension import (
    DimensionReport,
    ProjectedDim,
    ProjectedMode,
    check_projection_ssc,
    dimension_report,
    ly_dimension,
    projected_dimension,
)
from .errors import KaenmakiError
from .ifs import (
    AffineMap2D,
    IfsSpec,
    MapKind,
    SeparationReport,
    TransversalityReport,
    check_strong_separation,
    check_transversality,
    make_spec,
    parse_ifs,
)
from .sampling import (
    Projection,
    SampleSet,
    box_count,
    estimate_local_dimension,
    estimate_projected_dim,
    render_attractor,
    sample_symbolic,
    strip_measure_oracle,
    strip_reverse_oracle,
    write_csv,
)
from .thermo import (
    KaenmakiMeasure,
    MarkovGibbs,
    PotentialIndex,
    ThermoSummary,
    affinity_dimension,
    affinity_dimension_detail,
    entropy,
    gibbs_markov,
    kaenmaki_measure,
    level_log_measures,
    level_log_ratio_extremes,
    log_quasi_bernoulli_ratio,
    lyapunov_exponents,
    pressure,
    quasi_bernoulli_ratio,
    submultiplicativity_check,
    thermo_summary,
)

__version__ = "0.1.0"
