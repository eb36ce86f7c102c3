"""Conjunctive queries and CQ-entailment decision procedures
(Propositions 1/9, Theorems 1–2)."""

from .certain import active_domain, certain_answers, certain_answers_over
from .cq import ConjunctiveQuery, boolean_cq
from .decomposed import DecomposedQuery, holds_via_decomposition
from .entailment import (
    EntailmentVerdict,
    chase_entails_prefix,
    decide_entailment,
    entails_via_terminating_chase,
)
from .modelfinder import ModelSearchResult, find_countermodel, find_finite_model
from .plans import (
    CompiledQueryPlan,
    QueryPlanCache,
    default_plan_cache,
    query_shape,
)
from .rewriting import (
    RewriteResult,
    decide_by_rewriting,
    rewritable_fragment,
    rewrite_ucq,
)
from .ucq import UnionQuery

__all__ = [
    "ConjunctiveQuery",
    "DecomposedQuery",
    "active_domain",
    "certain_answers",
    "certain_answers_over",
    "holds_via_decomposition",
    "EntailmentVerdict",
    "ModelSearchResult",
    "boolean_cq",
    "chase_entails_prefix",
    "decide_entailment",
    "entails_via_terminating_chase",
    "UnionQuery",
    "find_countermodel",
    "find_finite_model",
    "CompiledQueryPlan",
    "QueryPlanCache",
    "RewriteResult",
    "decide_by_rewriting",
    "default_plan_cache",
    "query_shape",
    "rewritable_fragment",
    "rewrite_ucq",
]
