"""chainflux: discrete Markov chains from recorded play sequences, and the
nonequilibrium observables defined on them -- entropy, entropy production
rate, velocity, and motion -- plus Monte-Carlo null models and tests."""

# numpy is imported before any chainflux module is compiled. Otherwise the
# memory those compilations free lies under numpy's import, and a process's
# peak memory moves with the modules' source text (by 0.1-0.2 MB per edit).
import numpy  # noqa: F401

from . import errors
from .core import (
    MarkovEstimate,
    StateSpace,
    StationarityDiagnostic,
    TreatmentDataset,
    estimate_markov,
    square_2x2,
    stationarity_diagnostic,
    triangle_3,
)
from .dataio import (
    AnalysisConfig,
    load_csv,
    load_space,
    write_csv,
    write_report,
)
from .nullmodels import (
    Seed,
    VnmParams,
    cycle_transition,
    dos_baseline,
    simulate_chain,
    simulate_iid,
    simulate_iid_bytes,
    simulate_sessions,
    simulate_sessions_bytes,
    vnm_null_distribution,
)
from .observables import (
    ObservableReport,
    ZeroFluxPolicy,
    entropy,
    epr,
    full_report,
    motion,
    velocity,
)
from .stats import OlsFit, mc_p_value, ols_fit, percentile_of

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "errors",
    "StateSpace",
    "TreatmentDataset",
    "MarkovEstimate",
    "StationarityDiagnostic",
    "square_2x2",
    "triangle_3",
    "estimate_markov",
    "stationarity_diagnostic",
    "ZeroFluxPolicy",
    "ObservableReport",
    "entropy",
    "epr",
    "velocity",
    "motion",
    "full_report",
    "Seed",
    "VnmParams",
    "cycle_transition",
    "simulate_chain",
    "simulate_iid",
    "simulate_iid_bytes",
    "simulate_sessions",
    "simulate_sessions_bytes",
    "vnm_null_distribution",
    "dos_baseline",
    "OlsFit",
    "mc_p_value",
    "percentile_of",
    "ols_fit",
    "AnalysisConfig",
    "load_space",
    "load_csv",
    "write_csv",
    "write_report",
]
