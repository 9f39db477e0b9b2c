"""Exhaustive property tests for the sign-vector algebra.

Everything here runs over all of {+,-,0}^n for small n, so a pass is a
proof of the identity on those lengths, not a sample.
"""

import itertools

import pytest

from omtop.errors import DimensionError, DomainError
from omtop.signvec import GroundSet, Sign, SignVector
from oracles import all_sign_vectors


def vecs(n):
    return list(all_sign_vectors(n))


class TestParsing:
    def test_roundtrip(self):
        for x in vecs(3):
            assert SignVector.from_string(str(x)) == x

    def test_known_strings(self):
        x = SignVector.from_string("+0-0")
        assert x.sign(0) is Sign.PLUS
        assert x.sign(1) is Sign.ZERO
        assert x.sign(2) is Sign.MINUS
        assert len(x) == 4

    def test_bad_character(self):
        with pytest.raises(ValueError):
            SignVector.from_string("+x-")

    def test_from_signs_roundtrip(self):
        for x in vecs(3):
            assert SignVector.from_signs(x.signs) == x

    def test_count(self):
        assert len(vecs(0)) == 1
        assert len(vecs(3)) == 27
        assert len(set(vecs(3))) == 27


class TestCompose:
    def test_known_value(self):
        x = SignVector.from_string("+0-0")
        y = SignVector.from_string("-++0")
        assert str(x.compose(y)) == "++-0"

    def test_associative(self):
        for x, y, z in itertools.product(vecs(2), repeat=3):
            assert x.compose(y).compose(z) == x.compose(y.compose(z))

    def test_idempotent_absorbing(self):
        for x, y in itertools.product(vecs(3), repeat=2):
            assert x.compose(x) == x
            # composing extends the support monotonically
            assert x.below(x.compose(y))

    def test_zero_is_identity(self):
        z = SignVector.zero(3)
        for x in vecs(3):
            assert z.compose(x) == x
            assert x.compose(z) == x

    def test_commutes_iff_no_separation(self):
        for x, y in itertools.product(vecs(3), repeat=2):
            commutes = x.compose(y) == y.compose(x)
            assert commutes == (not x.separation(y))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            SignVector.zero(2).compose(SignVector.zero(3))


class TestSeparation:
    def test_known_value(self):
        x = SignVector.from_string("+0-0")
        y = SignVector.from_string("-++0")
        assert x.separation(y) == {0, 2}

    def test_symmetric(self):
        for x, y in itertools.product(vecs(3), repeat=2):
            assert x.separation(y) == y.separation(x)

    def test_self_and_opposite(self):
        for x in vecs(3):
            assert x.separation(x) == frozenset()
            assert x.separation(-x) == x.support()


class TestOrder:
    def test_reflexive_antisymmetric_transitive(self):
        vs = vecs(2)
        for x in vs:
            assert x.below(x)
        for x, y in itertools.product(vs, repeat=2):
            if x.below(y) and y.below(x):
                assert x == y
        for x, y, z in itertools.product(vs, repeat=3):
            if x.below(y) and y.below(z):
                assert x.below(z)

    def test_below_means_agreement_on_support(self):
        for x, y in itertools.product(vecs(3), repeat=2):
            expected = all(
                x.sign(i) is y.sign(i) for i in x.support()
            )
            assert x.below(y) == expected

    def test_zero_is_bottom(self):
        z = SignVector.zero(3)
        for x in vecs(3):
            assert z.below(x)

    def test_meet_is_greatest_lower_bound(self):
        vs = vecs(2)
        for x, y in itertools.product(vs, repeat=2):
            m = x.meet(y)
            assert m.below(x) and m.below(y)
            for w in vs:
                if w.below(x) and w.below(y):
                    assert w.below(m)


class TestSupportAndOpposite:
    def test_partition(self):
        for x in vecs(3):
            assert x.support() | x.zero_set() == frozenset(range(3))
            assert not (x.support() & x.zero_set())

    def test_opposite_involution(self):
        for x in vecs(3):
            assert -(-x) == x
            assert (-x).support() == x.support()
            assert x.opposite() == -x

    def test_is_zero(self):
        assert SignVector.zero(4).is_zero
        assert not SignVector.from_string("000+").is_zero


class TestDeleteRestrict:
    def test_delete_known(self):
        x = SignVector.from_string("+0-+")
        assert str(x.delete({1})) == "+-+"
        assert str(x.delete({0, 3})) == "0-"
        assert str(x.delete(set())) == "+0-+"

    def test_restrict_complements_delete(self):
        x = SignVector.from_string("+0-+")
        assert x.restrict({0, 2}) == x.delete({1, 3})

    def test_delete_out_of_range(self):
        with pytest.raises(DomainError):
            SignVector.from_string("+-").delete({5})

    def test_delete_commutes_with_compose(self):
        for x, y in itertools.product(vecs(3), repeat=2):
            assert x.delete({1}).compose(y.delete({1})) == x.compose(y).delete({1})


class TestGroundSet:
    def test_basic(self):
        gs = GroundSet(["h1", "h2", "g"], g="g")
        assert len(gs) == 3
        assert gs.index("h2") == 1
        assert gs.g_index == 2
        assert gs.indices(["g", "h1"]) == {0, 2}

    def test_duplicate_labels(self):
        with pytest.raises(DomainError):
            GroundSet(["a", "a"])

    def test_unknown_g(self):
        with pytest.raises(DomainError):
            GroundSet(["a", "b"], g="c")

    def test_without(self):
        gs = GroundSet(["a", "b", "c"], g="c")
        assert gs.without(["b"]) == GroundSet(["a", "c"], g="c")
        assert gs.without(["c"]) == GroundSet(["a", "b"])
        with pytest.raises(DomainError):
            gs.without(["z"])


class TestSignEnum:
    def test_negation(self):
        assert -Sign.PLUS is Sign.MINUS
        assert -Sign.MINUS is Sign.PLUS
        assert -Sign.ZERO is Sign.ZERO

    def test_of_number(self):
        from fractions import Fraction

        assert Sign.of_number(3) is Sign.PLUS
        assert Sign.of_number(Fraction(-1, 7)) is Sign.MINUS
        assert Sign.of_number(0) is Sign.ZERO
