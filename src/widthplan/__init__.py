"""Width-based classical planning toolkit: novelty-pruned breadth-first
searches, rule-based policies and sketches over state features, a serialized
subgoal-driven solver, and brute-force verification oracles."""

from .features import FeatureSet, boolean_projection, parse_features
from .grounding import ground
from .novelty import NoveltyTable, TupleSet, all_tuples_up_to, parse_tuple_set
from .pddl import parse_domain, parse_problem
from .search import Outcome, SearchResult, bfs_optimal, iw, iw_k, iw_phi, iw_t
from .siw import run_policy, siw_r
from .sketches import Sketch, build_policy_graph, parse_sketch, relation, sieve
from .strips import (
    GroundAction,
    GroundAtom,
    GroundProblem,
    State,
    applicable_actions,
    apply,
    atoms_of,
    is_goal,
    replay,
    state_from_atoms,
)

__all__ = [
    "FeatureSet", "boolean_projection", "parse_features",
    "ground", "NoveltyTable", "TupleSet", "all_tuples_up_to", "parse_tuple_set",
    "parse_domain", "parse_problem",
    "Outcome", "SearchResult", "bfs_optimal", "iw", "iw_k", "iw_phi", "iw_t",
    "run_policy", "siw_r",
    "Sketch", "build_policy_graph", "parse_sketch", "relation", "sieve",
    "GroundAction", "GroundAtom", "GroundProblem", "State",
    "applicable_actions", "apply", "atoms_of", "is_goal", "replay",
    "state_from_atoms",
]
