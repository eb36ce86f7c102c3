"""The bidirectional symbol table of the compiled kernel.

Predicates and terms are interned to dense small ints; the table keeps
the reverse arrays so every compiled result decodes back to the original
:class:`~repro.logic.atoms.Predicate` / :class:`~repro.logic.terms.Term`
objects.  Codes are keyed *by value* (terms hash by kind and name,
predicates by name and arity), which gives the two properties the rest
of the kernel leans on:

* **Kind-distinguished codes.**  ``Variable("a")`` and ``Constant("a")``
  are distinct dictionary keys, so a null and a constant sharing a name
  — legal, and easy to produce by merging KBs — never collide on a
  code (the interning edge-case tests pin this down).
* **Round-trip stability.**  Re-parsing the same text, merging KBs, or
  reloading a chase snapshot (:mod:`repro.service.snapshots` serializes
  atoms as text) interns every symbol back to the code it already has;
  derived compiled state survives save/load without translation.

The table is process-global (like the switch in
:mod:`repro.logic.indexing` and the observer in :mod:`repro.obs`): codes
are only ever compared against codes from the same process, and the
engine's derived structures are rebuilt rather than shipped across
process boundaries.  Assignment of new codes takes a lock (mirroring the
variable-rank counter in :mod:`repro.logic.terms`); lookups are plain
dict reads.
"""

from __future__ import annotations

import threading
from typing import Iterable

from ..atoms import Atom, Predicate
from ..terms import Term, Variable

__all__ = ["SymbolTable", "symbol_table", "reset_symbol_table"]


class SymbolTable:
    """Bidirectional ``Predicate``/``Term`` ↔ int maps.

    ``is_variable_code`` and ``term_sort_keys`` are dense lists indexed
    by term code — the evaluator's per-argument kind test and the
    candidate-order key (``(is_variable, name)``, the exact per-term
    component of :meth:`repro.logic.atoms.Atom.sort_key`) without
    touching a ``Term`` object.
    """

    __slots__ = (
        "_lock",
        "_term_codes",
        "_terms",
        "is_variable_code",
        "term_sort_keys",
        "_pred_codes",
        "_preds",
        "generation",
    )

    #: Distinguishes tables across :func:`reset_symbol_table` calls so
    #: per-atom encoding caches from a retired table are never trusted.
    _generations = 0

    def __init__(self) -> None:
        SymbolTable._generations += 1
        self.generation = SymbolTable._generations
        self._lock = threading.Lock()
        self._term_codes: dict[Term, int] = {}
        self._terms: list[Term] = []
        self.is_variable_code: list[bool] = []
        self.term_sort_keys: list[tuple[bool, str]] = []
        self._pred_codes: dict[Predicate, int] = {}
        self._preds: list[Predicate] = []

    # ------------------------------------------------------------------
    # terms
    # ------------------------------------------------------------------

    def encode_term(self, term: Term) -> int:
        """The code of *term*, assigning a fresh one on first sight."""
        code = self._term_codes.get(term)
        if code is not None:
            return code
        with self._lock:
            code = self._term_codes.get(term)
            if code is None:
                code = len(self._terms)
                self._terms.append(term)
                is_var = isinstance(term, Variable)
                self.is_variable_code.append(is_var)
                self.term_sort_keys.append((is_var, term.name))
                self._term_codes[term] = code
        return code

    def decode_term(self, code: int) -> Term:
        """The term object *code* was assigned to."""
        return self._terms[code]

    def encode_terms(self, terms: Iterable[Term]) -> tuple[int, ...]:
        encode = self.encode_term
        return tuple(encode(t) for t in terms)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------

    def encode_predicate(self, predicate: Predicate) -> int:
        code = self._pred_codes.get(predicate)
        if code is not None:
            return code
        with self._lock:
            code = self._pred_codes.get(predicate)
            if code is None:
                code = len(self._preds)
                self._preds.append(predicate)
                self._pred_codes[predicate] = code
        return code

    def decode_predicate(self, code: int) -> Predicate:
        return self._preds[code]

    # ------------------------------------------------------------------
    # atoms
    # ------------------------------------------------------------------

    def encode_atom(self, at: Atom) -> tuple[int, int, tuple[int, ...]]:
        """``(generation, predicate code, argument codes)`` for *at*,
        cached on the (immutable) atom — re-encoding the same atom
        object is one slot read.  The leading table generation lets an
        atom that outlives a :func:`reset_symbol_table` re-encode
        cleanly; hot-path callers index past it."""
        enc = at._enc
        if enc is None or enc[0] != self.generation:
            enc = (
                self.generation,
                self.encode_predicate(at.predicate),
                self.encode_terms(at.args),
            )
            object.__setattr__(at, "_enc", enc)
        return enc

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        return (
            f"SymbolTable({len(self._terms)} terms, "
            f"{len(self._preds)} predicates)"
        )


#: The process-global table every compiled structure encodes against.
_TABLE = SymbolTable()


def symbol_table() -> SymbolTable:
    """The process-global symbol table."""
    return _TABLE


def reset_symbol_table() -> SymbolTable:
    """Install a fresh table (tests only: cached ``Atom._enc`` encodings
    in *live* atoms are not invalidated, so callers must not mix atoms
    encoded against the old table into compiled searches afterwards).
    """
    global _TABLE
    _TABLE = SymbolTable()
    return _TABLE
