"""fetsim: simulation and verification workbench for the FET
(Follow the Emerging Trend) self-stabilizing bit-dissemination protocol.
"""

__version__ = "0.1.0"

from .domains import DomainLabel, YellowLabel, audit_partition, classify
from .duel import (
    DuelProbs,
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
from .protocol import SimConfig, run_trials, step_aggregate

__all__ = [
    "AnalysisConstants",
    "DomainError",
    "DomainLabel",
    "DuelProbs",
    "FetsimError",
    "FlipProbs",
    "PlantingError",
    "SimConfig",
    "StructuralError",
    "UsageError",
    "YellowLabel",
    "audit_partition",
    "classify",
    "exact_duel",
    "expected_next_fraction",
    "fixed_point_f",
    "flip_probs",
    "hoeffding_duel_bound",
    "run_trials",
    "speed",
    "step_aggregate",
    "underdog_lower_bound",
]
