"""Synchronization of heterogeneous input-feedforward-passive agents over
weighted digraphs: passivity indices, weak-coupling certificates, delay-aware
network simulation, and prebuilt traffic/platoon/counterexample scenarios.
"""

from .errors import (
    BadDimensions,
    BOutOfRange,
    CertificateFailed,
    DimensionMismatch,
    EmptyTrajectory,
    IfpSyncError,
    MuTauViolation,
    NegativeWeight,
    NotCertifiable,
    NotSquare,
    NotStronglyConnected,
    PoleOnAxis,
    SelfLoop,
    ZeroPolynomial,
)
from .graphnet import (
    ConnectivityReport,
    Digraph,
    PerronWeights,
    build_digraph,
    connectivity,
    degrees,
    laplacian,
    perron_weights,
)
from .passivity import (
    IfpCertificate,
    IfpShift,
    Polynomial,
    PrlReport,
    RationalTF,
    eval_freq,
    ifp_index,
    ifp_indices,
    ifp_shift,
    ifp_shift_identity_check,
    prl_conditions,
    routh_hurwitz,
)
from .certify import (
    CaccGainSet,
    PlatoonGainVerdict,
    WeakCouplingVerdict,
    all_to_all_bound,
    check_platoon_gains,
    check_weak_coupling,
    check_weak_coupling_pinned,
    diffusive_power_identity,
    dissipation_margin,
)
from .netsim import (
    AgentModel,
    DelayedIntegrator,
    LtiSiso,
    Plain,
    Reference,
    SimConfig,
    SimResult,
    SyncMetrics,
    TimeFn,
    Vehicle3rd,
    simulate,
    simulate_batch,
    sync_metrics,
)
from .scenarios import (
    AllToAllRun,
    HarmonicRun,
    PlatoonCertificate,
    PlatoonRun,
    PlatoonSpec,
    TrafficCertificate,
    TrafficRun,
    TrafficSpec,
    all_to_all_counterexample,
    build_platoon,
    build_traffic,
    harmonic_counterexample,
    run_platoon,
    run_platoon_transformed,
    run_scenarios,
    run_traffic,
    scenario_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "IfpSyncError", "NotSquare", "NegativeWeight", "SelfLoop",
    "NotStronglyConnected", "ZeroPolynomial", "PoleOnAxis", "NotCertifiable",
    "BOutOfRange", "DimensionMismatch", "BadDimensions", "CertificateFailed",
    "MuTauViolation", "EmptyTrajectory",
    # graphs
    "Digraph", "ConnectivityReport", "PerronWeights", "build_digraph",
    "connectivity", "degrees", "laplacian", "perron_weights",
    # passivity
    "Polynomial", "RationalTF", "IfpCertificate", "PrlReport", "IfpShift",
    "eval_freq", "routh_hurwitz", "ifp_index", "ifp_indices", "prl_conditions", "ifp_shift",
    "ifp_shift_identity_check",
    # certificates
    "WeakCouplingVerdict", "check_weak_coupling", "check_weak_coupling_pinned",
    "CaccGainSet", "PlatoonGainVerdict", "check_platoon_gains",
    "all_to_all_bound", "diffusive_power_identity", "dissipation_margin",
    # simulation
    "AgentModel", "LtiSiso", "DelayedIntegrator", "Vehicle3rd", "Plain",
    "Reference", "SimConfig", "SimResult", "SyncMetrics", "TimeFn", "simulate",
    "simulate_batch", "sync_metrics",
    # scenarios
    "TrafficSpec", "TrafficCertificate", "TrafficRun", "build_traffic",
    "run_traffic", "PlatoonSpec", "PlatoonCertificate", "PlatoonRun",
    "build_platoon", "run_platoon", "run_platoon_transformed", "HarmonicRun",
    "harmonic_counterexample", "AllToAllRun", "all_to_all_counterexample",
    "scenario_from_dict", "run_scenarios",
]
