"""The process-wide switch between the engine and the naive reference.

With the switch on (the default) the evaluation layers under the chase
run accelerated:

* :func:`repro.logic.homomorphism.homomorphisms` evaluates every
  search, injective ones included, on the compiled kernel
  (:mod:`repro.logic.compiled` — interned terms, columnar relations,
  join plans);
* a :class:`repro.chase.engine.ChaseEngine` maintains its live-trigger
  pool with a :class:`~repro.chase.compiled_index.CompiledTriggerIndex`
  and, for the core variant, computes per-step retractions with the
  incremental :class:`~repro.logic.coremaint.CoreMaintainer`.

Differential testing needs the *naive* path to stay reachable: inside
the :func:`no_index` scope every layer runs the reference code instead
(term-containment candidate pools, from-scratch trigger enumeration,
from-scratch core retraction).  ``ChaseEngine(use_index=False)`` and the
CLI's ``--no-index`` run under it.  The switch is process-global (like
:mod:`repro.obs.observer`'s ``current``) because the homomorphism search
is a free function with no object to hang configuration on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["atom_index_enabled", "no_index"]

#: Off only inside :func:`no_index`.
_atom_index: bool = True


def atom_index_enabled() -> bool:
    """True iff searches and chase runs may use the accelerated layers
    (the compiled kernel, the trigger index, core maintenance)."""
    return _atom_index


@contextmanager
def no_index() -> Iterator[None]:
    """Scope in which every layer runs the naive reference path."""
    global _atom_index
    previous = _atom_index
    _atom_index = False
    try:
        yield
    finally:
        _atom_index = previous
