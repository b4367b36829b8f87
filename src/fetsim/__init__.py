"""fetsim: simulation and verification workbench for the FET
(Follow the Emerging Trend) self-stabilizing bit-dissemination protocol.
"""

__version__ = "0.1.0"

from .domains import DomainLabel, YellowLabel, audit_partition, classify
from .duel import (
    DuelProbs,
    advantage,
    exact_duel,
    hoeffding_duel_bound,
    underdog_lower_bound,
)
from .dynamics import (
    AnalysisConstants,
    FlipProbs,
    expected_next_fraction,
    fixed_point_f,
    flip_probs,
    speed,
)
from .errors import DomainError, FetsimError, PlantingError, StructuralError, UsageError
from .markov import Kernel, absorption_times, build_kernel, simulate_exact_check
from .protocol import (
    Population,
    SimConfig,
    Trajectory,
    run_trials,
    step_agent_level,
    step_aggregate,
)

__all__ = [
    "AnalysisConstants",
    "DomainError",
    "DomainLabel",
    "DuelProbs",
    "FetsimError",
    "FlipProbs",
    "Kernel",
    "PlantingError",
    "Population",
    "SimConfig",
    "StructuralError",
    "Trajectory",
    "UsageError",
    "YellowLabel",
    "absorption_times",
    "advantage",
    "audit_partition",
    "build_kernel",
    "classify",
    "exact_duel",
    "expected_next_fraction",
    "fixed_point_f",
    "flip_probs",
    "hoeffding_duel_bound",
    "run_trials",
    "simulate_exact_check",
    "speed",
    "step_agent_level",
    "step_aggregate",
    "underdog_lower_bound",
]
