"""Chase-termination decision for the linear fragment.

A rule is *linear* when its body is a single atom.  For linear rulesets
the all-instance termination problem of the (oblivious) chase is
decidable — Leclère, Mugnier, Thomazo and Ulliana (arXiv:1810.02132)
give a single approach covering the whole linear fragment.  This module
implements the decision through two classical reductions:

1. **Critical instance** (Marnette).  The oblivious chase of a ruleset
   terminates on *every* instance iff it terminates on the critical
   instance ``crit(R)``: all atoms built from the constants of the rules
   plus one fresh constant ``*``.

2. **Shape abstraction.**  For a linear rule, whether a body atom
   matches depends only on the atom's *shape*: its predicate plus, per
   position, either the concrete constant or the equality class of the
   null sitting there.  Head atoms produced by a trigger likewise have
   shapes determined by the body shape alone (frontier positions copy
   the parent's entries, existential positions get fresh classes — one
   per existential variable).  The abstraction is exact for linear
   rules: the shape-transition graph is a bisimulation of the chase of
   the critical instance.

On the finite shape graph, divergence is the existence of a *refreshed
cycle*: a cycle in the product graph of ``(shape, null class)`` states
whose edges either carry the tracked null through a trigger (flow) or
replace it by a null the trigger freshly invents (handoff), with at
least one handoff edge.  Walking such a cycle forever manufactures a
new null per lap — each lap's trigger differs from the last precisely
because the tracked null in its body atom is younger — so the chase
builds infinitely many distinct atoms.  Conversely a chase that
diverges yields (via König's lemma on the creation forest) an infinite
derivation path on which fresh nulls enter infinitely often, and the
finite product graph must close such a path into a refreshed cycle.
A pure flow cycle (no handoff) is harmless: it shuffles a fixed set of
nulls through finitely many atoms.

Oblivious termination implies termination of every variant on every
instance, so ``True`` here certifies the strongest possible verdict;
``False`` certifies oblivious divergence (the restricted or core chase
may still terminate — the planner treats it as "not uniformly
terminating"); ``None`` means not linear, or the shape budget was
exhausted.
"""

from __future__ import annotations

from typing import Optional

from ..logic.atoms import Atom, Predicate
from ..logic.rules import ExistentialRule, RuleSet
from ..logic.terms import Variable

__all__ = [
    "is_linear_rule",
    "is_linear",
    "linear_chase_terminates",
]

#: Default budget on distinct shapes explored before giving up with None.
DEFAULT_SHAPE_BUDGET = 4096

#: The fresh constant of the critical instance (Marnette's ``*``).
_STAR = "*"


def is_linear_rule(rule: ExistentialRule) -> bool:
    """Whether *rule* is linear: a single-atom body."""
    return len(rule.body) == 1


def is_linear(rules: RuleSet) -> bool:
    """Whether every rule of *rules* is linear (vacuously true when
    empty)."""
    return all(is_linear_rule(rule) for rule in rules)


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------
#
# A shape is ``(predicate, entries)`` where each entry is
# ``("c", constant_name)`` or ``("n", k)`` with null classes ``k``
# numbered by first occurrence left-to-right (so shapes are canonical).


def _normalize(entries) -> tuple:
    """Renumber null entries by first occurrence; constants unchanged."""
    seen: dict = {}
    out = []
    for entry in entries:
        if entry[0] == "c":
            out.append(entry)
        else:
            if entry not in seen:
                seen[entry] = len(seen)
            out.append(("n", seen[entry]))
    return tuple(out)


def _match(body: Atom, shape: tuple) -> Optional[dict]:
    """Unify the single body atom of a linear rule against *shape*.

    Returns the binding ``{variable: entry}`` or None.  Constants in the
    body must match the shape's constant entries exactly; a repeated
    body variable forces equal entries (same constant, or same null
    class)."""
    predicate, entries = shape
    if body.predicate != predicate:
        return None
    binding: dict = {}
    for arg, entry in zip(body.args, entries):
        if isinstance(arg, Variable):
            bound = binding.get(arg)
            if bound is None:
                binding[arg] = entry
            elif bound != entry:
                return None
        else:
            if entry != ("c", arg.name):
                return None
    return binding


def _head_shapes(rule: ExistentialRule, binding: dict):
    """The shapes a trigger with *binding* produces, one per head atom,
    each paired with its flow information.

    Yields ``(shape, flow, fresh)`` where ``flow`` maps parent null
    classes to the produced shape's classes (the null survived into the
    head atom) and ``fresh`` is the set of produced classes invented by
    the trigger (existential positions)."""
    for head_atom in rule.head.sorted_atoms():
        raw = []
        for arg in head_atom.args:
            if isinstance(arg, Variable):
                bound = binding.get(arg)
                if bound is not None:
                    raw.append(bound)
                else:
                    # Existential variable: one fresh null per variable
                    # per trigger.  The marker only needs to be distinct
                    # from parent entries and per-variable unique.
                    raw.append(("x", arg.name))
            else:
                raw.append(("c", arg.name))
        entries = _normalize(raw)
        flow: dict = {}
        fresh: set = set()
        for raw_entry, entry in zip(raw, entries):
            if raw_entry[0] == "n":
                flow[raw_entry[1]] = entry[1]
            elif raw_entry[0] == "x":
                fresh.add(entry[1])
        yield (head_atom.predicate, entries), flow, fresh


def _initial_shapes(rules: RuleSet):
    """Shapes of the critical instance, restricted to predicates that
    occur in some rule body (atoms over head-only predicates trigger
    nothing and cannot seed divergence)."""
    constants = sorted({c.name for rule in rules for c in rule.constants()})
    constants.append(_STAR)
    body_predicates: set[Predicate] = set()
    for rule in rules:
        for atom in rule.body:
            body_predicates.add(atom.predicate)
    shapes = []
    for predicate in sorted(body_predicates, key=lambda p: (p.name, p.arity)):
        tuples = [()]
        for _ in range(predicate.arity):
            tuples = [prefix + (("c", name),) for prefix in tuples for name in constants]
        shapes.extend((predicate, entries) for entries in tuples)
    return shapes


def linear_chase_terminates(
    rules: RuleSet, max_shapes: int = DEFAULT_SHAPE_BUDGET
) -> Optional[bool]:
    """Decide all-instance oblivious-chase termination for linear rules.

    Returns ``True`` (every chase variant terminates on every instance),
    ``False`` (the oblivious chase diverges on the critical instance,
    hence on some instance), or ``None`` (ruleset not linear, or more
    than *max_shapes* shapes reachable — undecided within budget).
    """
    if not is_linear(rules):
        return None
    if not len(rules):
        return True

    linear = [(rule, next(iter(rule.body))) for rule in rules]

    # -- explore the reachable shape graph -------------------------------
    frontier = list(_initial_shapes(rules))
    seen = set(frontier)
    if len(seen) > max_shapes:
        return None
    #: per-transition record: (src_shape, dst_shape, flow, fresh)
    transitions = []
    while frontier:
        shape = frontier.pop()
        for rule, body_atom in linear:
            binding = _match(body_atom, shape)
            if binding is None:
                continue
            for produced, flow, fresh in _head_shapes(rule, binding):
                transitions.append((shape, produced, flow, fresh))
                if produced not in seen:
                    seen.add(produced)
                    if len(seen) > max_shapes:
                        return None
                    frontier.append(produced)

    # -- product graph: (shape, null class) states -----------------------
    # flow edge    (s, c) -> (s', c')  when class c survives into c'
    # handoff edge (s, c) -> (s', c'') when the trigger invents c''
    # Divergence iff some cycle uses >= 1 handoff edge; detect it by
    # computing SCCs of the product graph and checking each handoff edge
    # for endpoints in the same SCC (self-loops included).
    edges: dict = {}
    handoffs = []
    for src, dst, flow, fresh in transitions:
        src_classes = {entry[1] for entry in src[1] if entry[0] == "n"}
        for cls in src_classes:
            node = (src, cls)
            flowed = flow.get(cls)
            if flowed is not None:
                edges.setdefault(node, []).append((dst, flowed))
            for invented in fresh:
                target = (dst, invented)
                edges.setdefault(node, []).append(target)
                handoffs.append((node, target))
    if not handoffs:
        return True

    component = _tarjan_scc(edges)
    for source, target in handoffs:
        if component.get(source) is not None and component[source] == component.get(
            target
        ):
            return False
    return True


def _tarjan_scc(edges: dict) -> dict:
    """Iterative Tarjan: map each node to its SCC id.  Nodes that only
    appear as edge targets are included."""
    nodes = set(edges)
    for targets in edges.values():
        nodes.update(targets)
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    component: dict = {}
    counter = [0]
    comp_counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = comp_counter[0]
                comp_counter[0] += 1
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp
                    if member == node:
                        break
    return component
