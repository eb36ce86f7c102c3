"""Rule-set analysis: syntactic termination/boundedness criteria (weak
acyclicity, guardedness, linearity), decision procedures for the linear
fragment, the structural-measure machinery of Section 5 with budgeted
empirical classifiers, and the verdict → strategy planner that routes
the serving tier."""

from .classes import (
    SIZE,
    TERM_COUNT,
    TREEWIDTH,
    ChaseProfile,
    StructuralMeasure,
    certify_fes,
    is_recurringly_bounded_prefix,
    is_uniformly_bounded,
    profile_chase,
    recurring_bound_estimate,
    uniform_bound,
)
from .linearity import is_linear, is_linear_rule, linear_chase_terminates
from .planner import (
    STRATEGY_NAMES,
    Planner,
    Strategy,
    Verdict,
    default_planner,
    plan,
    ruleset_fingerprint,
)
from .guardedness import (
    guard_atom,
    is_frontier_guarded,
    is_frontier_guarded_rule,
    is_guarded,
    is_guarded_rule,
)
from .sticky import is_sticky, sticky_marking
from .rule_dependencies import (
    atoms_may_unify,
    is_rule_acyclic,
    rule_dependency_edges,
    rule_depends_on,
    rule_strata,
)
from .positions import Position, positions_of_ruleset, variable_positions
from .weak_acyclicity import DependencyGraph, dependency_graph, is_weakly_acyclic

__all__ = [
    "SIZE",
    "STRATEGY_NAMES",
    "TERM_COUNT",
    "TREEWIDTH",
    "ChaseProfile",
    "DependencyGraph",
    "Planner",
    "Position",
    "Strategy",
    "StructuralMeasure",
    "Verdict",
    "atoms_may_unify",
    "certify_fes",
    "default_planner",
    "dependency_graph",
    "guard_atom",
    "is_frontier_guarded",
    "is_frontier_guarded_rule",
    "is_guarded",
    "is_guarded_rule",
    "is_linear",
    "is_linear_rule",
    "is_recurringly_bounded_prefix",
    "is_uniformly_bounded",
    "is_rule_acyclic",
    "is_sticky",
    "is_weakly_acyclic",
    "linear_chase_terminates",
    "plan",
    "positions_of_ruleset",
    "rule_dependency_edges",
    "rule_depends_on",
    "rule_strata",
    "ruleset_fingerprint",
    "sticky_marking",
    "profile_chase",
    "recurring_bound_estimate",
    "uniform_bound",
    "variable_positions",
]
