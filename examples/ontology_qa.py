"""Ontology-mediated query answering over a guarded ontology.

Run with::

    python examples/ontology_qa.py

The practical setting the paper's introduction motivates: a guarded
ontology whose chase never terminates, queried through the decidability
machinery anyway.  The pipeline:

1. syntactic analysis certifies the ontology guarded (hence bts: every
   restricted chase sequence is treewidth-bounded and CQ entailment is
   decidable — Definition 6 / Proposition 2);
2. the measured restricted-chase treewidth profile confirms the bound
   empirically;
3. Boolean queries are decided by the Theorem-1 race;
4. certain answers are computed for a free-variable query.
"""

from repro.analysis import (
    TREEWIDTH,
    certify_fes,
    is_guarded,
    is_sticky,
    is_weakly_acyclic,
    profile_chase,
)
from repro.chase.engine import ChaseVariant
from repro.kbs.ontology import academia_kb
from repro.logic.terms import Variable
from repro.query import ConjunctiveQuery, boolean_cq, certain_answers, decide_entailment
from repro.util import Table, banner


def main() -> None:
    kb = academia_kb()
    print(banner("The academia ontology (guarded existential rules)"))
    print(kb)

    print(banner("1. Syntactic analysis"))
    print("guarded:          ", is_guarded(kb.rules), " => bts => decidable CQs")
    print("weakly acyclic:   ", is_weakly_acyclic(kb.rules))
    print("sticky:           ", is_sticky(kb.rules))
    print(
        "fes certificate:  ",
        certify_fes(kb, max_steps=60) or "none (mentor chains never close)",
    )

    print(banner("2. Chase treewidth profile (bts, empirically)"))
    profile = profile_chase(
        kb, variant=ChaseVariant.RESTRICTED, measure=TREEWIDTH, max_steps=25
    )
    print(
        f"restricted chase, {profile.applications} applications: "
        f"treewidth per step max = {profile.uniform} (bounded, as guardedness promises)"
    )

    print(banner("3. Boolean queries through the decision race"))
    queries = [
        ("someone mentors a course teacher",
         "mentor(X, Y), teaches(X, C)", True),
        ("kleene has a supervisor with a department",
         "supervises(X, kleene), memberOf(X, D)", True),
        ("some phd supervises a professor",
         "phd(X), supervises(X, Y), prof(Y)", False),
    ]
    table = Table(["query", "expected", "verdict", "method"])
    for label, text, expected in queries:
        verdict = decide_entailment(kb, boolean_cq(text), chase_budget=40)
        table.add_row(label, expected, verdict.entailed, verdict.method)
    table.print()

    print(banner("4. Certain answers"))
    X = Variable("X")
    query = ConjunctiveQuery(
        "teaches(X, C), memberOf(X, D)",
        answer_variables=[X],
        name="teaching-staff-with-dept",
    )
    verdicts = certain_answers(kb, query, chase_budget=40)
    certain = sorted(k[0].name for k, v in verdicts.items() if v)
    print("teachers with a department (certain):", ", ".join(certain))


if __name__ == "__main__":
    main()
