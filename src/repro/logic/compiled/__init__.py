"""The compiled chase kernel: interned terms, columnar relations, and
join-plan evaluation (ISSUE 7).

An object-level search evaluates rule bodies and endomorphism checks by
backtracking over :class:`~repro.logic.atoms.Atom` graphs — every inner
step hashes composite objects (terms, atoms, index keys) and sorts
candidate pools of full atoms.  This package removes the object layer
from the hot loop:

* :mod:`~repro.logic.compiled.interner` — a process-global, bidirectional
  symbol table mapping predicates and terms to small ints (and back, so
  every result decompiles to the existing ``Atom``/``Term`` objects);
* :mod:`~repro.logic.compiled.relations` — columnar per-predicate
  relations storing atoms as flat int tuples with per-(position, value)
  postings, attached lazily to an :class:`~repro.logic.atomset.AtomSet`
  and maintained incrementally through its mutations;
* :mod:`~repro.logic.compiled.plans` — the compiled join evaluator: the
  most-constrained-first backtracking search of
  :func:`repro.logic.homomorphism.homomorphisms`, run over int tuples
  with an explicit frame stack and per-(position, value) pools.

The kernel is the engine: every homomorphism search, injective
(isomorphism) searches included, and the chase's trigger maintenance
run on it.  One path stays on the object level: the naive reference
inside :func:`repro.logic.indexing.no_index` (``--no-index``), which
the differential suite compares the kernel against.  See
docs/PERFORMANCE.md ("Compiled kernel").
"""

from .interner import SymbolTable, symbol_table
from .plans import compiled_assignments, compiled_homomorphisms
from .relations import CompiledView, compiled_view

__all__ = [
    "SymbolTable",
    "symbol_table",
    "CompiledView",
    "compiled_view",
    "compiled_homomorphisms",
    "compiled_assignments",
]
