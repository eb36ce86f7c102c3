"""Aggregations of derivations: natural (Section 3) and robust (Section 8).

The *natural aggregation* ``D* = ⋃_i F_i`` is always universal but may
fail to be a model for non-monotonic derivations (Proposition 1; the
steepening staircase makes the failure quantitative: ``D*`` regrows the
grids the core chase kept pruning).  The *robust aggregation* ``D⊛``
(Definitions 14–16) fixes this by combining the *collapsed* versions of
the instances, with a renaming discipline that forces variables to
stabilize (Proposition 10): it yields a model that is finitely universal
(Proposition 11) and inherits recurring treewidth bounds
(Proposition 12).

Implementation notes
--------------------
:class:`RobustSequence` replays a recorded derivation and maintains, per
step ``i`` (following Definition 15 and Figure 5/6 of the paper):

* ``G_i`` — the robustly renamed instance, isomorphic to ``F_i``;
* ``ρ_i`` — the isomorphism ``F_i → G_i``;
* ``τ_i = ρ_{σ'_i} ∘ σ'_i`` — the homomorphism ``A'_i → G_i`` that in
  particular maps ``G_{i-1}`` into ``G_i``.

On a *finite* prefix ending at step ``S`` the increasing union
``⋃_{i≤S} τ^S_i(G_i)`` collapses to ``G_S`` itself (every earlier image
is carried into ``G_S``), so the informative object is the *stable part*:
the atoms of ``G_S`` all of whose terms have not been renamed for a
chosen number of trailing steps.  Proposition 10 guarantees each variable
is renamed only finitely often, so the stable part converges to ``D⊛``
as the prefix grows; the staircase experiment watches exactly this
convergence (the stable part materializes the infinite column ``Ĩ^h``).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..logic.atomset import AtomSet
from ..logic.substitution import Substitution
from ..logic.terms import Constant, Term, Variable
from ..obs import observer as _observer_state
from ..obs.observer import Observer
from .derivation import Derivation

__all__ = ["RobustSequence", "robust_aggregation", "default_variable_key"]

VariableKey = Callable[[Variable], tuple]


def default_variable_key(var: Variable) -> tuple:
    """The default total order ``<_X``: global creation rank."""
    return (var.rank, var.name)


class RobustSequence:
    """The robust sequence ``(G_i)`` associated with a derivation
    (Definition 15), with stabilization tracking (Proposition 10).

    Parameters
    ----------
    derivation:
        A recorded derivation.
    variable_key:
        The order ``<_X`` as a sort key on variables.  Section 8's
        staircase walkthrough needs a custom order; experiments pass one
        built from coordinates (:mod:`repro.util.orders`).
    observer:
        Telemetry sink for per-step ``robust_step`` events (renaming
        churn, stable-term counts); defaults to the process-global
        observer (:mod:`repro.obs`).
    """

    def __init__(
        self,
        derivation: Derivation,
        variable_key: Optional[VariableKey] = None,
        observer: Optional[Observer] = None,
    ):
        self.derivation = derivation
        self._key = variable_key or default_variable_key
        self._observer = (
            observer if observer is not None else _observer_state.current
        )
        self.instances: list[AtomSet] = []  # G_i
        self.rho: list[Substitution] = []  # ρ_i : F_i → G_i (isomorphism)
        self.tau: list[Substitution] = []  # τ_i : A'_i → G_i (τ_0 : F → G_0)
        # stable_since[t] = first step index from which term t has existed
        # in every G_j unchanged (constants are stable from their first
        # appearance; the dict only tracks terms currently in G_S).
        self.stable_since: dict[Term, int] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction (Definition 15)
    # ------------------------------------------------------------------

    def _robust_renaming(
        self, retraction: Substitution, pre_instance: AtomSet
    ) -> Substitution:
        """``ρ_σ`` (Definition 14): map each variable ``X`` of the image
        of *retraction* to the ``<_X``-smallest variable of the fiber
        ``σ⁻¹(X)`` within the variables of *pre_instance*."""
        fibers: dict[Term, list[Variable]] = {}
        for var in pre_instance.variables():
            image = retraction.apply_term(var)
            fibers.setdefault(image, []).append(var)
        renaming: dict[Variable, Term] = {}
        for image, fiber in fibers.items():
            if not isinstance(image, Variable):
                continue  # constants are never renamed
            smallest = min(fiber, key=self._key)
            if smallest != image:
                renaming[image] = smallest
        return Substitution(renaming)

    def _build(self) -> None:
        steps = self.derivation.steps
        # --- step 0: G_0 = ρ_{σ_0}(F_0)
        first = steps[0]
        renaming0 = self._robust_renaming(first.simplification, first.pre_instance)
        tau0 = renaming0.compose(first.simplification)
        g0 = renaming0.apply(first.instance)
        rho0 = tau0.restrict(first.instance.variables())
        self.instances.append(g0)
        self.rho.append(rho0)
        self.tau.append(tau0)
        for term in g0.terms():
            self.stable_since[term] = 0
        if self._observer is not None:
            self._observer.emit(
                "robust_step",
                step=0,
                renamed=len(renaming0.drop_trivial()),
                atoms=len(g0),
                stable_terms=len(self.stable_since),
            )

        for index in range(1, len(steps)):
            step = steps[index]
            rho_prev = self.rho[index - 1]
            f_prev = steps[index - 1].instance
            # A'_i = ρ_{i-1}(A_i); fresh variables are untouched.
            a_primed = rho_prev.apply(step.pre_instance)
            # σ'_i = ρ_{i-1} ∘ σ_i ∘ ρ_{i-1}⁻¹, built pointwise on vars(A'_i).
            rho_prev_inverse = rho_prev.inverse_on(f_prev.variables())
            sigma_primed_map: dict[Variable, Term] = {}
            for var in a_primed.variables():
                origin = rho_prev_inverse.apply_term(var)
                sigma_primed_map[var] = rho_prev.apply_term(
                    step.simplification.apply_term(origin)
                )
            sigma_primed = Substitution(sigma_primed_map).drop_trivial()
            f_primed = sigma_primed.apply(a_primed)
            # ρ_{σ'_i} and the new G_i, ρ_i, τ_i.
            renaming = self._robust_renaming(sigma_primed, a_primed)
            g_i = renaming.apply(f_primed)
            tau_i = renaming.compose(sigma_primed)
            rho_i = tau_i.compose(rho_prev).restrict(step.instance.variables())
            self.instances.append(g_i)
            self.rho.append(rho_i)
            self.tau.append(tau_i)
            # stability bookkeeping
            new_stable: dict[Term, int] = {}
            for term in g_i.terms():
                if (
                    term in self.stable_since
                    and tau_i.apply_term(term) == term
                ):
                    new_stable[term] = self.stable_since[term]
                else:
                    new_stable[term] = index
            # constants are stable from the start
            for term in list(new_stable):
                if isinstance(term, Constant):
                    new_stable[term] = min(new_stable[term], 0)
            self.stable_since = new_stable
            if self._observer is not None:
                self._observer.emit(
                    "robust_step",
                    step=index,
                    renamed=len(renaming.drop_trivial()),
                    atoms=len(g_i),
                    stable_terms=sum(
                        1
                        for since in new_stable.values()
                        if since < index
                    ),
                )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def last(self) -> AtomSet:
        """``G_S`` for the last recorded step."""
        return self.instances[-1]

    def tau_between(self, start: int, end: int) -> Substitution:
        """``τ^end_start = τ_end ∘ ... ∘ τ_{start+1}`` — the homomorphism
        from ``G_start`` to ``G_end`` (Proposition 10's composites)."""
        if not 0 <= start <= end < len(self.instances):
            raise IndexError(f"tau_between({start}, {end}) out of range")
        composed = Substitution.identity()
        for index in range(start + 1, end + 1):
            composed = self.tau[index].compose(composed)
        return composed

    # ------------------------------------------------------------------
    # aggregation (Definition 16, finite-prefix reading)
    # ------------------------------------------------------------------

    def aggregate(self) -> AtomSet:
        """The finite-prefix robust aggregation ``⋃_{i≤S} τ^S_i(G_i)``.

        Because every ``τ_j`` maps ``G_{j-1}`` into ``G_j``, this union
        equals ``G_S``; it is returned as a copy.  Use
        :meth:`stable_part` for the portion already guaranteed to belong
        to the limit ``D⊛``.
        """
        return self.last.copy()

    def stable_part(self, patience: int = 1) -> AtomSet:
        """The atoms of ``G_S`` all of whose terms have been stable for at
        least *patience* trailing steps.

        A term is stable since step ``j`` when it has been present and
        fixed by every ``τ_i`` with ``i > j``.  By Proposition 10 every
        variable of the limit ``D⊛`` becomes permanently stable, so for a
        convergent derivation the stable part is a monotonically growing
        under-approximation of ``D⊛``.
        """
        cutoff = len(self.instances) - 1 - patience
        stable_terms = {
            term for term, since in self.stable_since.items() if since <= cutoff
        }
        return AtomSet(
            at
            for at in self.last
            if all(t in stable_terms for t in at.term_set())
        )

    def stabilization_report(self) -> dict[str, int]:
        """Summary counts for experiment logs."""
        last_index = len(self.instances) - 1
        horizon = max(last_index, 1)
        stable_half = sum(
            1 for since in self.stable_since.values() if since <= horizon // 2
        )
        return {
            "steps": last_index,
            "terms_in_G_S": len(self.last.terms()),
            "atoms_in_G_S": len(self.last),
            "terms_stable_half_run": stable_half,
            "atoms_stable_part": len(self.stable_part()),
        }


def robust_aggregation(
    derivation: Derivation,
    variable_key: Optional[VariableKey] = None,
    patience: int = 1,
) -> AtomSet:
    """The stable part of the robust aggregation of a recorded derivation
    prefix — the executable counterpart of ``D⊛`` (Definition 16)."""
    return RobustSequence(derivation, variable_key=variable_key).stable_part(
        patience=patience
    )
