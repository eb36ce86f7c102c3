"""Tests for repro.logic.homomorphism."""

from contextlib import nullcontext

import pytest

from repro.logic import indexing
from repro.logic.homomorphism import (
    count_homomorphisms,
    find_homomorphism,
    homomorphically_equivalent,
    homomorphisms,
    maps_into,
)
from repro.logic.parser import parse_atoms
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestBasicSearch:
    def test_variable_to_constant(self):
        hom = find_homomorphism(parse_atoms("p(X)"), parse_atoms("p(a)"))
        assert hom is not None
        assert hom[X] == a

    def test_no_homomorphism_on_predicate_mismatch(self):
        assert find_homomorphism(parse_atoms("p(X)"), parse_atoms("q(a)")) is None

    def test_constants_must_match(self):
        assert find_homomorphism(parse_atoms("p(a)"), parse_atoms("p(b)")) is None
        assert find_homomorphism(parse_atoms("p(a)"), parse_atoms("p(a)")) is not None

    def test_join_variable_consistency(self):
        source = parse_atoms("e(X, Y), e(Y, Z)")
        target = parse_atoms("e(a, b), e(b, c)")
        hom = find_homomorphism(source, target)
        assert hom is not None
        assert (hom[X], hom[Y], hom[Z]) == (a, b, c)

    def test_repeated_variable_needs_loop(self):
        source = parse_atoms("e(X, X)")
        assert find_homomorphism(source, parse_atoms("e(a, b)")) is None
        assert find_homomorphism(source, parse_atoms("e(a, a)")) is not None

    def test_three_path_does_not_map_into_two_cycle_with_constants(self):
        source = parse_atoms("h(a, X), h(X, Y), h(Y, a)")
        target = parse_atoms("h(a, Z), h(Z, a)")
        assert find_homomorphism(source, target) is None

    def test_path_folds_into_loop(self):
        source = parse_atoms("e(X, Y), e(Y, Z)")
        target = parse_atoms("e(W, W)")
        hom = find_homomorphism(source, target)
        assert hom is not None
        assert hom[X] == hom[Y] == hom[Z]

    def test_empty_source_maps_trivially(self):
        assert find_homomorphism([], parse_atoms("p(a)")) is not None

    def test_deterministic_witness(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a), p(b), p(c)")
        first = find_homomorphism(source, target)
        second = find_homomorphism(source, target)
        assert first == second


class TestEnumeration:
    def test_count_all(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a), p(b), p(c)")
        assert count_homomorphisms(source, target) == 3

    def test_count_joins(self):
        source = parse_atoms("e(X, Y)")
        target = parse_atoms("e(a, b), e(b, c), e(c, a)")
        assert count_homomorphisms(source, target) == 3

    def test_all_homs_have_full_domain(self):
        source = parse_atoms("e(X, Y), q(Y)")
        target = parse_atoms("e(a, b), q(b)")
        for hom in homomorphisms(source, target):
            assert hom.domain() == {X, Y}


class TestKnobs:
    def test_partial_pins_variables(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a), p(b)")
        hom = find_homomorphism(source, target, partial=Substitution({X: b}))
        assert hom is not None and hom[X] == b

    def test_partial_can_make_unsatisfiable(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a)")
        assert (
            find_homomorphism(source, target, partial=Substitution({X: b})) is None
        )

    def test_forbidden_images(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a), p(b)")
        hom = find_homomorphism(source, target, forbidden_images=[a])
        assert hom is not None and hom[X] == b

    def test_forbidden_images_can_block_everything(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a)")
        assert find_homomorphism(source, target, forbidden_images=[a]) is None

    def test_forbidden_applies_to_partial_too(self):
        source = parse_atoms("p(X)")
        target = parse_atoms("p(a)")
        assert (
            find_homomorphism(
                source, target, partial=Substitution({X: a}), forbidden_images=[a]
            )
            is None
        )

    @pytest.mark.parametrize("naive", [False, True], ids=["compiled", "naive"])
    def test_partial_bindings_outside_the_source_are_dropped(self, naive):
        """A binding of *partial* for a variable the source does not
        mention is not re-attached to the witnesses, on either path."""
        source = parse_atoms("e(X, Y)")
        target = parse_atoms("e(a, b), e(b, c)")
        partial = Substitution({Variable("Q"): Constant("z")})
        with indexing.no_index() if naive else nullcontext():
            found = set(homomorphisms(source, target, partial=partial))
        assert found == {Substitution({X: a, Y: b}), Substitution({X: b, Y: c})}

    def test_injective_search(self):
        source = parse_atoms("p(X), p(Y)")
        target_one = parse_atoms("p(a)")
        target_two = parse_atoms("p(a), p(b)")
        assert find_homomorphism(source, target_one, injective=True) is None
        assert find_homomorphism(source, target_two, injective=True) is not None


class TestSemanticHelpers:
    def test_maps_into(self):
        assert maps_into(parse_atoms("e(X, Y)"), parse_atoms("e(a, a)"))
        assert not maps_into(parse_atoms("e(X, X)"), parse_atoms("e(a, b)"))

    def test_hom_equivalence_of_path_and_fold(self):
        path = parse_atoms("e(X, Y), e(Y, Z)")
        edge = parse_atoms("e(U, V), e(V, W)")
        assert homomorphically_equivalent(path, edge)

    def test_hom_equivalence_fails_on_direction(self):
        loop = parse_atoms("e(X, X)")
        edge = parse_atoms("e(U, V)")
        # edge maps into loop, but loop does not map into edge
        assert maps_into(edge, loop)
        assert not maps_into(loop, edge)
        assert not homomorphically_equivalent(edge, loop)

    def test_witness_is_a_homomorphism(self):
        source = parse_atoms("e(X, Y), e(Y, Z), q(Z)")
        target = parse_atoms("e(a, b), e(b, c), q(c), e(c, a)")
        hom = find_homomorphism(source, target)
        assert hom is not None
        assert hom.is_homomorphism(source, target)
