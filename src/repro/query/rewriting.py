"""Piece-wise backward UCQ rewriting for the linear/guarded fragments.

The Theorem-1 race decides entailment *forward*: chase the facts and
test the query against the growing aggregation.  For first-order
rewritable rulesets the complementary move (Leclère et al.,
arXiv:1810.02132) runs *backward*: rewrite the query through the rules
into a union of conjunctive queries that is evaluated directly against
the base facts, with no chase at all.

The rewriting step is the classic *piece unification*: pick a subset
``S`` of the query's atoms (a "piece"), unify it with head atoms of a
rule (renamed apart), and — when the most general unifier is *valid* —
replace ``S`` by the rule's body.  Validity protects the existential
variables, which the chase would instantiate with fresh nulls:

* an existential variable's unification class may contain no constant
  (a null never equals a named constant),
* no second distinct existential variable (two rule applications make
  two distinct nulls),
* no universal (body) variable of the rule (a frontier term is shared
  with the body, a null is not), and
* no query variable that also occurs *outside* the piece (the null is
  private to the head; a query variable escaping the piece would leak
  it) — this is the "piece" in piece unification.

Soundness of the fixpoint: every generated disjunct ``Q'`` satisfies
``Q' ∪ rules ⊨ Q`` (one backward rule application is one forward chase
step), so a disjunct mapping into the facts certifies ``K ⊨ Q``.
Completeness holds when the fixpoint is reached: for linear rulesets
the piece-rewriting saturation is finite (a finite unification set),
and subsumption pruning — dropping any disjunct that a kept, more
general disjunct maps into — preserves it, because the more general
disjunct generates rewritings that subsume those of the pruned one.
Guarded rulesets are *not* first-order rewritable in general, so the
rewriting is budgeted: exceeding ``max_disjuncts``/``max_depth``/
``max_work`` returns ``complete=False`` and callers fall back to the
Theorem-1 race.  An incomplete rewriting is never used to answer "no".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..analysis.guardedness import is_guarded
from ..analysis.linearity import is_linear
from ..logic.atoms import Atom
from ..logic.atomset import AtomSet
from ..logic.homomorphism import find_homomorphism
from ..logic.kb import KnowledgeBase
from ..logic.rules import ExistentialRule, RuleSet
from ..logic.substitution import Substitution
from ..logic.terms import Term, Variable
from .cq import ConjunctiveQuery
from .entailment import EntailmentVerdict

__all__ = [
    "RewriteResult",
    "query_shape",
    "rewritable_fragment",
    "rewrite_ucq",
    "decide_by_rewriting",
]

#: Default cap on kept disjuncts before the rewriting gives up.
DEFAULT_MAX_DISJUNCTS = 64

#: Default cap on backward-rewriting depth.
DEFAULT_MAX_DEPTH = 16

#: Default cap on piece-unifier trials across the whole saturation.
DEFAULT_MAX_WORK = 20000


def rewritable_fragment(rules: RuleSet) -> Optional[str]:
    """The fragment that makes *rules* a rewriting candidate, or None.

    ``"linear"`` rulesets are finite unification sets (the saturation
    terminates and the answer is exact).  ``"guarded"`` rulesets are
    decidable but not first-order rewritable in general — the rewriting
    is still *sound*, so it is attempted under budgets with a race
    fallback.  Everything else returns None.
    """
    if is_linear(rules):
        return "linear"
    if is_guarded(rules):
        return "guarded"
    return None


@dataclass(frozen=True)
class RewriteResult:
    """The outcome of a budgeted piece-rewriting saturation.

    ``complete`` is True iff the fixpoint was reached within budget; only
    then is a miss of every disjunct a sound "no".  ``generated`` counts
    raw piece-unifier outputs, ``pruned`` the candidates dropped by
    dedup/subsumption, ``depth`` the deepest rewriting step applied.
    """

    disjuncts: Tuple[ConjunctiveQuery, ...]
    complete: bool
    generated: int = 0
    pruned: int = 0
    depth: int = 0

    def evaluate(self, facts: AtomSet) -> Optional[bool]:
        """Evaluate against base facts: True on any disjunct hit, False
        only when the saturation was complete, None otherwise."""
        if any(disjunct.holds_in(facts) for disjunct in self.disjuncts):
            return True
        return False if self.complete else None


# ---------------------------------------------------------------------------
# piece unification
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over terms; constants are kept as class roots so a
    merge of two distinct constants fails immediately."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Dict[Term, Term] = {}

    def find(self, term: Term) -> Term:
        root = term
        while self.parent.get(root, root) is not root:
            root = self.parent[root]
        while self.parent.get(term, term) is not term:
            self.parent[term], term = root, self.parent[term]
        return root

    def union(self, left: Term, right: Term) -> bool:
        root_l, root_r = self.find(left), self.find(right)
        if root_l == root_r:
            return True
        l_var = isinstance(root_l, Variable)
        r_var = isinstance(root_r, Variable)
        if not l_var and not r_var:
            return False  # two distinct constants
        if not l_var:
            self.parent[root_r] = root_l
        else:
            self.parent[root_l] = root_r
        return True


def _unify_piece(
    pairs: Sequence[Tuple[Atom, Atom]],
    rule: ExistentialRule,
    outside_vars: frozenset,
) -> Optional[Substitution]:
    """The most general unifier of a candidate piece, or None.

    *pairs* maps query atoms to head atoms of the renamed-apart *rule*;
    *outside_vars* are the query variables occurring outside the piece.
    Returns None when the MGU does not exist or violates the existential
    validity conditions (see the module docstring).
    """
    uf = _UnionFind()
    terms: set = set()
    for query_atom, head_atom in pairs:
        for query_arg, head_arg in zip(query_atom.args, head_atom.args):
            if not uf.union(query_arg, head_arg):
                return None
            terms.add(query_arg)
            terms.add(head_arg)

    groups: Dict[Term, set] = {}
    for term in terms:
        groups.setdefault(uf.find(term), set()).add(term)

    existential = rule.existential
    universal = rule.universal
    mapping: Dict[Variable, Term] = {}
    for members in groups.values():
        constants = [m for m in members if not isinstance(m, Variable)]
        exis_members = [m for m in members if m in existential]
        if exis_members:
            if constants:
                return None  # a null never equals a constant
            if len(exis_members) > 1:
                return None  # two applications make two distinct nulls
            if any(m in universal for m in members):
                return None  # a null is not shared with the body
            if any(
                m not in existential and m in outside_vars for m in members
            ):
                return None  # the piece must own every unified query var
        if constants:
            representative: Term = constants[0]
        else:
            non_existential = sorted(
                (m for m in members if m not in existential),
                key=lambda v: v.name,
            )
            pool = non_existential or sorted(members, key=lambda v: v.name)
            representative = pool[0]
        for member in members:
            if isinstance(member, Variable) and member != representative:
                mapping[member] = representative
    return Substitution(mapping)


def _piece_rewrites(
    atoms: AtomSet,
    rule: ExistentialRule,
    work: List[int],
    max_work: int,
) -> Iterator[Optional[AtomSet]]:
    """Yield every one-step backward rewriting of *atoms* through *rule*.

    Yields a final ``None`` sentinel if the work budget ran out before
    the piece space was exhausted (the caller must flag incompleteness).
    """
    by_predicate: Dict[object, List[Atom]] = {}
    for head_atom in rule.head.sorted_atoms():
        by_predicate.setdefault(head_atom.predicate, []).append(head_atom)
    eligible = [a for a in atoms.sorted_atoms() if a.predicate in by_predicate]
    if not eligible:
        return
    all_atoms = atoms.atoms()
    for mask in range(1, 1 << len(eligible)):
        piece = [eligible[i] for i in range(len(eligible)) if mask >> i & 1]
        outside = all_atoms - set(piece)
        outside_vars = frozenset(
            term
            for outside_atom in outside
            for term in outside_atom.args
            if isinstance(term, Variable)
        )
        for assignment in product(*(by_predicate[a.predicate] for a in piece)):
            work[0] += 1
            if work[0] > max_work:
                yield None
                return
            unifier = _unify_piece(
                list(zip(piece, assignment)), rule, outside_vars
            )
            if unifier is None:
                continue
            rewritten = unifier.apply(rule.body)
            rewritten.update(unifier.apply_atom(a) for a in outside)
            yield rewritten


def query_shape(atoms: AtomSet) -> str:
    """The canonical shape of a Boolean CQ: the rewriting's dedup key
    and the plan-cache key part (:mod:`.plans`).

    Variables are renamed by first occurrence over the sorted atom
    order, constants keep their names, and the rendered atoms are sorted
    before joining.  Equal shapes imply the queries are identical up to
    variable renaming (the string determines the atoms up to that
    renaming), which is exactly the equivalence under which a Boolean
    plan may be shared.  The converse fails: alpha-variants that sort
    differently get different shapes.  That only costs a cache miss, or
    rewriting budget (logical duplicates the key misses are still
    removed by the subsumption check).
    """
    names: Dict[Variable, str] = {}
    parts = []
    for at in atoms.sorted_atoms():
        rendered = []
        for term in at.args:
            if isinstance(term, Variable):
                if term not in names:
                    names[term] = f"V{len(names)}"
                rendered.append(names[term])
            else:
                rendered.append(f"c:{term.name}")
        parts.append(f"{at.predicate.name}({','.join(rendered)})")
    return ";".join(sorted(parts))


def _fresh_variant(
    rule: ExistentialRule, atoms: AtomSet, counter: List[int]
) -> ExistentialRule:
    """Rename *rule* apart from the disjunct under rewriting."""
    taken = {v.name for v in atoms.variables()}
    rule_vars = rule.body.variables() | rule.head.variables()
    while True:
        counter[0] += 1
        suffix = f"__r{counter[0]}"
        if all(f"{v.name}{suffix}" not in taken for v in rule_vars):
            return rule.rename_apart(suffix)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def rewrite_ucq(
    rules: RuleSet,
    query: ConjunctiveQuery,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_work: int = DEFAULT_MAX_WORK,
) -> RewriteResult:
    """Saturate *query* under backward piece-rewriting through *rules*.

    Breadth-first over rewriting depth, with subsumption pruning: a
    candidate some kept disjunct maps into is redundant (any fact base
    satisfying the candidate already satisfies the kept disjunct), and a
    candidate that maps into kept disjuncts retires them.  The returned
    disjuncts always include a most-general representative of the
    original query, so ``evaluate`` is sound even when incomplete.
    """
    start = AtomSet(query.atoms)
    kept: Dict[str, AtomSet] = {query_shape(start): start}
    queue: deque = deque([(query_shape(start), 0)])
    work = [0]
    counter = [0]
    generated = 0
    pruned = 0
    depth_seen = 0
    complete = True

    def try_insert(candidate: AtomSet, depth: int) -> Optional[str]:
        nonlocal pruned, complete
        key = query_shape(candidate)
        if key in kept:
            pruned += 1
            return None
        for existing in kept.values():
            if find_homomorphism(existing, candidate) is not None:
                pruned += 1
                return None
        if depth > max_depth or len(kept) >= max_disjuncts:
            complete = False
            return None
        for existing_key in [
            k
            for k, existing in kept.items()
            if find_homomorphism(candidate, existing) is not None
        ]:
            del kept[existing_key]
            pruned += 1
        kept[key] = candidate
        return key

    while queue:
        key, depth = queue.popleft()
        atoms = kept.get(key)
        if atoms is None:
            continue  # retired by a more general later disjunct
        for rule in rules:
            variant = _fresh_variant(rule, atoms, counter)
            for candidate in _piece_rewrites(atoms, variant, work, max_work):
                if candidate is None:
                    complete = False
                    break
                generated += 1
                inserted = try_insert(candidate, depth + 1)
                if inserted is not None:
                    depth_seen = max(depth_seen, depth + 1)
                    queue.append((inserted, depth + 1))
            if work[0] > max_work:
                complete = False
                break
        if work[0] > max_work:
            break

    disjuncts = tuple(
        ConjunctiveQuery(atoms, name=query.name)
        for _, atoms in sorted(kept.items())
    )
    return RewriteResult(
        disjuncts=disjuncts,
        complete=complete,
        generated=generated,
        pruned=pruned,
        depth=depth_seen,
    )


def decide_by_rewriting(
    kb: KnowledgeBase,
    query: ConjunctiveQuery,
    max_disjuncts: int = DEFAULT_MAX_DISJUNCTS,
    max_depth: int = DEFAULT_MAX_DEPTH,
    max_work: int = DEFAULT_MAX_WORK,
) -> Optional[EntailmentVerdict]:
    """Decide ``K ⊨ Q`` purely by rewriting, or None when not possible.

    Returns a verdict only when the ruleset is in a rewritable fragment
    AND either some disjunct hits the base facts (sound regardless of
    completeness) or the saturation completed (sound "no").  A None
    return means the caller must fall back to the Theorem-1 race.
    """
    fragment = rewritable_fragment(kb.rules)
    if fragment is None:
        return None
    result = rewrite_ucq(
        kb.rules,
        query,
        max_disjuncts=max_disjuncts,
        max_depth=max_depth,
        max_work=max_work,
    )
    answer = result.evaluate(kb.facts)
    if answer is None:
        return None
    method = "ucq-rewrite-hit" if answer else "ucq-rewrite-miss"
    return EntailmentVerdict(answer, method, 0)
