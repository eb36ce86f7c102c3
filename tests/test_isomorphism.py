"""Tests for repro.logic.isomorphism."""

from contextlib import nullcontext

import pytest

from repro.logic import indexing
from repro.logic.isomorphism import (
    automorphisms,
    canonical_form,
    find_isomorphism,
    invariant_fingerprint,
    isomorphic,
)
from repro.logic.parser import parse_atoms
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable


class TestIsomorphism:
    def test_renamed_copies_are_isomorphic(self):
        left = parse_atoms("e(X, Y), e(Y, Z)")
        right = parse_atoms("e(U, V), e(V, W)")
        assert isomorphic(left, right)

    def test_shape_difference_detected(self):
        path = parse_atoms("e(X, Y), e(Y, Z)")
        fork = parse_atoms("e(U, V), e(U, W)")
        assert not isomorphic(path, fork)

    def test_constants_are_rigid(self):
        left = parse_atoms("p(a, X)")
        right = parse_atoms("p(b, Y)")
        assert not isomorphic(left, right)
        assert isomorphic(left, parse_atoms("p(a, Z)"))

    def test_extra_atom_breaks_isomorphism(self):
        left = parse_atoms("e(X, Y)")
        right = parse_atoms("e(U, V), e(V, U)")
        assert not isomorphic(left, right)

    def test_isomorphism_witness_is_invertible_hom(self):
        left = parse_atoms("e(X, Y), e(Y, X), q(X)")
        right = parse_atoms("e(U, V), e(V, U), q(V)")
        iso = find_isomorphism(left, right)
        assert iso is not None
        assert iso.apply(left) == right

    def test_self_isomorphic(self):
        atoms = parse_atoms("e(X, Y), e(Y, Z), e(Z, X)")
        assert isomorphic(atoms, atoms)


@pytest.mark.parametrize("naive", [False, True], ids=["compiled", "naive"])
class TestConstantsAreTakenImages:
    """Every homomorphism fixes the source's constants, so an injective
    search may not send a variable onto one of them."""

    def test_cycle_through_a_constant_is_not_two_loops(self, naive):
        left = parse_atoms("e(X, c), e(c, X)")
        right = parse_atoms("e(c, c), e(Y, Y)")
        with indexing.no_index() if naive else nullcontext():
            assert not isomorphic(left, right)
            assert not isomorphic(right, left)

    def test_null_maps_to_the_null(self, naive):
        left = parse_atoms("p(X), p(c)")
        right = parse_atoms("p(c), p(Y)")
        with indexing.no_index() if naive else nullcontext():
            iso = find_isomorphism(left, right)
        assert iso == Substitution({Variable("X"): Variable("Y")})
        assert iso.apply(left) == right

    def test_automorphisms_fix_the_constant_alone(self, naive):
        atoms = parse_atoms("p(X), p(c)")
        with indexing.no_index() if naive else nullcontext():
            autos = list(automorphisms(atoms))
        assert autos == [Substitution({Variable("X"): Variable("X")})]
        assert autos[0].apply(atoms) == atoms


class TestAutomorphisms:
    def test_cycle_has_rotations(self):
        cycle = parse_atoms("e(X, Y), e(Y, Z), e(Z, X)")
        autos = list(automorphisms(cycle))
        assert len(autos) == 3  # the three rotations

    def test_rigid_structure_has_identity_only(self):
        rigid = parse_atoms("e(X, Y), q(X)")
        autos = list(automorphisms(rigid))
        assert len(autos) == 1


class TestFingerprintAndCanonical:
    def test_fingerprint_invariant(self):
        left = parse_atoms("e(X, Y), e(Y, Z)")
        right = parse_atoms("e(U, V), e(V, W)")
        assert invariant_fingerprint(left) == invariant_fingerprint(right)

    def test_fingerprint_separates_shapes(self):
        path = parse_atoms("e(X, Y), e(Y, Z)")
        fork = parse_atoms("e(U, V), e(U, W)")
        assert invariant_fingerprint(path) != invariant_fingerprint(fork)

    def test_canonical_form_equal_iff_isomorphic(self):
        left = parse_atoms("e(X, Y), e(Y, Z), q(Z)")
        right = parse_atoms("e(A, B), e(B, C), q(C)")
        other = parse_atoms("e(A, B), e(B, C), q(A)")
        assert canonical_form(left) == canonical_form(right)
        assert canonical_form(left) != canonical_form(other)

    def test_canonical_form_of_ground_atoms(self):
        atoms = parse_atoms("p(a, b)")
        assert canonical_form(atoms) == canonical_form(parse_atoms("p(a, b)"))
        assert canonical_form(atoms) != canonical_form(parse_atoms("p(b, a)"))

    def test_canonical_form_hashable(self):
        hash(canonical_form(parse_atoms("e(X, Y)")))
