"""Games on distributed Petri net unfoldings.

A library and command-line tool that checks ATL goals for a coalition of
users against an environment: it builds the turn-based asynchronous game
structure of a distributed elementary net system, adds weak fairness
constraints, synthesises memoryless winning strategies, and translates
between plays on the unfolding and computations on the game structure.
"""

from .errors import BoundExceeded, EngineDisagreement, InputError, PreconditionError
from .formulas import (
    PathFormula,
    check_fragment,
    format_formula,
    parse_formula,
    path_satisfies,
    state_props,
)
from .game import (
    FairnessConstraint,
    GameStructure,
    LassoComputation,
    build_fairness,
    build_game,
    computation_to_play,
    lasso_is_fair,
    play_to_computations,
    stutter_remove,
)
from .nets import (
    Marking,
    NetSystem,
    ReachabilityGraph,
    check_contact_free,
    enabled_set,
    fire,
    format_net,
    parse_net,
    reachability_graph,
    structural_relation,
    validate_net,
)
from .randnet import random_net
from .solver import (
    GameProfile,
    Verdict,
    check_net,
    model_check,
    synthesize,
    synthesize_enumerate,
    synthesize_fixpoint,
    verify_profile,
)
from .unfold import (
    BranchingProcess,
    NetStrategy,
    Play,
    consistent_with,
    cut_order,
    cut_step,
    is_maximal_refinement,
    is_run,
    relation_query,
    unfold_prefix,
    validate_play,
)

__all__ = [
    "BoundExceeded", "EngineDisagreement", "InputError", "PreconditionError",
    "PathFormula", "check_fragment", "format_formula", "parse_formula",
    "path_satisfies", "state_props",
    "FairnessConstraint", "GameStructure", "LassoComputation",
    "build_fairness", "build_game", "computation_to_play", "lasso_is_fair",
    "play_to_computations", "stutter_remove",
    "Marking", "NetSystem", "ReachabilityGraph", "check_contact_free",
    "enabled_set", "fire", "format_net", "parse_net", "reachability_graph",
    "structural_relation", "validate_net",
    "random_net",
    "GameProfile", "Verdict", "check_net", "model_check",
    "synthesize", "synthesize_enumerate", "synthesize_fixpoint",
    "verify_profile",
    "BranchingProcess", "NetStrategy", "Play", "consistent_with", "cut_order",
    "cut_step", "is_maximal_refinement", "is_run", "relation_query",
    "unfold_prefix", "validate_play",
]

__version__ = "0.1.0"
