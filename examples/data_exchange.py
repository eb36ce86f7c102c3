"""Data exchange with the chase: the classical application of TGDs.

Run with::

    python examples/data_exchange.py

The chase was born in data exchange (Fagin, Kolaitis, Miller & Popa —
reference [10] of the paper): source data is translated to a target
schema by chasing the source instance with schema-mapping rules, and the
*core* of the result is the preferred (smallest) target instance.  This
example builds a small HR-to-directory mapping and contrasts the chase
variants:

* the semi-oblivious chase materializes one null per (rule, frontier)
  — fast, but leaves redundant nulls;
* the core chase produces the minimal target instance;
* certain answers over the target are computed against the chase result.
"""

from repro import (
    ChaseVariant,
    ConjunctiveQuery,
    KnowledgeBase,
    Variable,
    core_chase,
    parse_atoms,
    parse_rules,
    run_chase,
)
from repro.analysis import certify_fes, is_weakly_acyclic
from repro.chase import parse_egds, standard_chase
from repro.query import certain_answers_over
from repro.util import Table, banner


def main() -> None:
    # Source: employees with departments; some employees also have a
    # recorded desk phone.
    source = parse_atoms(
        """
        works(ann, sales), works(bob, sales), works(cao, lab),
        phone(ann, p42)
        """
    )
    # Mapping to the target schema: every employee gets a directory entry
    # with *some* contact handle; sales staff are listed in the sales
    # roster; phones, when known, are the contact handle.
    mapping = parse_rules(
        """
        [Entry]   works(E, D)  -> dir(E, H), contact(E, H)
        [Roster]  works(E, sales) -> roster(E)
        [Known]   phone(E, P)  -> dir(E, P), contact(E, P)
        """
    )
    kb = KnowledgeBase(source, mapping, name="hr-to-directory")

    print(banner("Schema mapping (weakly acyclic => terminating)"))
    print(kb)
    print("weakly acyclic:", is_weakly_acyclic(kb.rules))
    print("core chase terminates after", certify_fes(kb), "applications")

    print(banner("Variant comparison on the target instance"))
    table = Table(["variant", "applications", "target atoms", "nulls"])
    for variant in (ChaseVariant.SEMI_OBLIVIOUS, ChaseVariant.RESTRICTED, ChaseVariant.CORE):
        result = run_chase(kb, variant=variant, max_steps=200)
        assert result.terminated
        table.add_row(
            variant,
            result.applications,
            len(result.final_instance),
            len(result.final_instance.variables()),
        )
    table.print()
    print(
        "the core chase folds the invented contact handle of 'ann' onto\n"
        "her known phone p42 — the smallest universal target instance."
    )

    print(banner("Certain answers over the target"))
    target = core_chase(kb, max_steps=200).final_instance
    E = Variable("E")
    query = ConjunctiveQuery(
        "roster(E), dir(E, H)", answer_variables=[E], name="rostered-with-entry"
    )
    answers = sorted(str(answer[0]) for answer in query.answers(target))
    print("rostered employees with a directory entry:", ", ".join(answers))

    # A certain answer must not depend on nulls: 'contact of cao' exists
    # but is a labeled null, so cao has no *certain* contact handle.
    H = Variable("H")
    contact_query = ConjunctiveQuery(
        "contact(cao, H)", answer_variables=[H], name="cao-contact"
    )
    certain = list(certain_answers_over(contact_query, target))
    print("certain contact handles for cao:", certain or "none (null-valued only)")

    print(banner("Adding a key constraint (EGD): the standard chase"))
    # Directory handles are a key: at most one per employee.  The TGD
    # invents a handle, the phone rule supplies the real one, and the
    # EGD merges them — the classical TGD+EGD chase of data exchange.
    egds = parse_egds("[Key] dir(E, H1), dir(E, H2) -> H1 = H2")
    exchanged = standard_chase(source, mapping, egds)
    print(exchanged)
    print("nulls left for ann:", [
        str(at) for at in exchanged.instance.sorted_atoms()
        if "ann" in str(at)
    ])

    # A violating source fails the chase: no solution exists.
    conflicting = source.union(parse_atoms("phone(ann, p43), dir(ann, p43), dir(ann, p42)"))
    failed = standard_chase(conflicting, mapping, egds)
    print("conflicting source fails the chase:", failed.failed)


if __name__ == "__main__":
    main()
