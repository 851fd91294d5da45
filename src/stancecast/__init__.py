"""Topic- and stance-aware information cascade simulation.

Directed-graph diffusion where influence depends on profile similarity and
stance agreement, spreads along edges and between sampled non-adjacent
nodes, and every run is deterministic given (graph, params, seeds, stream).
"""

from .dynamics import (
    ADJACENT,
    NONADJACENT,
    PersistenceEntry,
    SimState,
    StanceChange,
    apply_att,
    transition,
    update_persistence,
)
from .engine import RoundSummary, SimTrace, run_simulation
from .graph import (
    KNOWN_STANCES,
    STANCE_NEUTRAL,
    STANCE_OPPOSE,
    STANCE_SUPPORT,
    STANCE_UNKNOWN,
    STANCE_VALUES,
    SocialGraph,
    build_graph,
    is_stance,
)
from .ic import IcParams, IcTrace, mean_final_active, run_ic
from .influence import influence_probability, stance_factor, topic_similarity
from .params import SimParams
from .rng import Rng

__version__ = "0.1.0"

__all__ = [
    "ADJACENT", "NONADJACENT", "PersistenceEntry", "SimState", "StanceChange",
    "apply_att", "transition", "update_persistence",
    "RoundSummary", "SimTrace", "run_simulation",
    "KNOWN_STANCES", "STANCE_NEUTRAL", "STANCE_OPPOSE", "STANCE_SUPPORT",
    "STANCE_UNKNOWN", "STANCE_VALUES", "SocialGraph", "build_graph", "is_stance",
    "IcParams", "IcTrace", "mean_final_active", "run_ic",
    "influence_probability", "stance_factor", "topic_similarity",
    "SimParams", "Rng",
    "__version__",
]
