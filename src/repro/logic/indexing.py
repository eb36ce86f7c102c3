"""Process-wide switches for the indexed evaluation layer.

Four accelerations sit under the chase (ISSUEs 2 and 3):

* the positional atom index consulted by the homomorphism search for
  candidate selection (:mod:`repro.logic.homomorphism`);
* the incremental trigger index of the chase engine
  (:mod:`repro.chase.trigger_index` — controlled by the engine's own
  ``use_index`` flag, which also scopes the switches here);
* the incremental core maintainer (:mod:`repro.logic.coremaint` — the
  engine consults :func:`core_maintenance_enabled` when a core-variant
  run starts; the CLI's ``--no-core-maint`` flips only this switch);
* the compiled kernel (:mod:`repro.logic.compiled`, ISSUE 7 — interned
  terms, columnar relations, compiled join plans; the homomorphism
  search routes through it when *both* this switch and the atom index
  are on, since the compiled evaluator replicates the *indexed* pools;
  the CLI's ``--no-compiled`` and the :func:`no_compiled` scope disable
  just this layer, leaving the object-level indexed path as the
  differential oracle).

All are semantics-preserving accelerations of the same search, but
differential testing needs the *naive* path to stay reachable: the CLI's
``--no-index`` and :meth:`repro.chase.engine.ChaseEngine` run the legacy
code when asked, via the :func:`no_index` scope below.  The switches are
process-global (like :mod:`repro.obs.observer`'s ``current``) because the
homomorphism search is a free function with no object to hang
configuration on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = [
    "atom_index_enabled",
    "core_maintenance_enabled",
    "compiled_enabled",
    "set_atom_index",
    "set_core_maintenance",
    "set_compiled",
    "configured",
    "no_index",
    "no_compiled",
]

#: Positional-index candidate selection in ``homomorphisms()``.
_atom_index: bool = True

#: Incremental core maintenance in core-variant chase runs.
_core_maint: bool = True

#: Compiled kernel (interned terms + columnar join plans) in
#: ``homomorphisms()`` and the chase's trigger index.
_compiled: bool = True


def atom_index_enabled() -> bool:
    """True iff the homomorphism search may consult the positional index."""
    return _atom_index


def set_atom_index(enabled: bool) -> bool:
    """Set the positional-index switch; returns the previous value."""
    global _atom_index
    previous = _atom_index
    _atom_index = bool(enabled)
    return previous


def core_maintenance_enabled() -> bool:
    """True iff core-variant chase runs may use the incremental
    :class:`repro.logic.coremaint.CoreMaintainer`."""
    return _core_maint


def set_core_maintenance(enabled: bool) -> bool:
    """Set the core-maintenance switch; returns the previous value."""
    global _core_maint
    previous = _core_maint
    _core_maint = bool(enabled)
    return previous


def compiled_enabled() -> bool:
    """True iff searches may run on the compiled kernel.

    The compiled evaluator replicates the *indexed* candidate pools, so
    callers must also check :func:`atom_index_enabled` before routing —
    under :func:`no_index` the naive pools (different witnesses) are the
    reference semantics and the kernel must stay out of the way.
    """
    return _compiled


def set_compiled(enabled: bool) -> bool:
    """Set the compiled-kernel switch; returns the previous value."""
    global _compiled
    previous = _compiled
    _compiled = bool(enabled)
    return previous


@contextmanager
def configured(
    atom_index: Optional[bool] = None,
    core_maint: Optional[bool] = None,
    compiled: Optional[bool] = None,
) -> Iterator[None]:
    """Temporarily override the switches (None leaves one untouched)."""
    previous_index = set_atom_index(atom_index) if atom_index is not None else None
    previous_maint = (
        set_core_maintenance(core_maint) if core_maint is not None else None
    )
    previous_compiled = set_compiled(compiled) if compiled is not None else None
    try:
        yield
    finally:
        if previous_index is not None:
            set_atom_index(previous_index)
        if previous_maint is not None:
            set_core_maintenance(previous_maint)
        if previous_compiled is not None:
            set_compiled(previous_compiled)


@contextmanager
def no_index() -> Iterator[None]:
    """Scope in which every layer runs the naive (pre-index) path —
    the compiled kernel included, since it compiles the indexed pools."""
    with configured(atom_index=False, core_maint=False, compiled=False):
        yield


@contextmanager
def no_compiled() -> Iterator[None]:
    """Scope in which only the compiled kernel is off: the object-level
    *indexed* engine (the differential oracle for the kernel) runs."""
    with configured(compiled=False):
        yield
