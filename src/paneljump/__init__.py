"""Jump (threshold) effect estimation and simultaneous max-type tests for
heterogeneous nonparametric panel regressions."""

from .bandwidth import BandwidthPolicy, pilot_bandwidth, plugin_bandwidth, pooled_bandwidth
from .dgp import (
    AccuracyTable,
    DgpConfig,
    GammaScheme,
    McConfig,
    RateTable,
    gen_dgp,
    gen_ma_inf,
    inject_jumps,
    run_size_power,
    run_threshold_accuracy,
)
from .errors import (
    AllUnitsSkipped,
    DataError,
    DegenerateEverywhere,
    DuplicateKey,
    EmptyUnit,
    EmptyWindow,
    GridSpacingWarning,
    InsufficientSupport,
    InvalidAlpha,
    IoFailure,
    MissingColumn,
    NonFiniteValue,
    NotPositiveSemidefinite,
    NumericalError,
    PanelJumpError,
    SingleUnit,
    TooFewObservations,
    ZeroVariance,
)
from .estimator import UnitJumpFit, estimate_jump, smooth_residuals
from .inference import (
    TestConfig,
    TestResult,
    ThresholdSearchResult,
    critical_value,
    search_thresholds,
    simulate_max_gaussian,
    stat_existence,
    stat_homogeneity,
    test_existence,
    test_homogeneity,
)
from .io import (
    PanelSchema,
    read_panel_csv,
    read_threshold_csv,
    render_report,
    write_report,
)
from .kernels import KernelSpec, eval_kernel, kernel_moments, local_weights
from .panel import PanelData, PanelUnit
from .variance import (
    SigmaC,
    VarianceEstimate,
    default_truncation,
    sigma_c_matrix,
    sigma_e_sq_known,
    sigma_e_sq_truncated,
    v_sq,
    v_tilde_sq,
)

__version__ = "0.1.0"
