"""Set-label arithmetic: sumsets, difference sets, and the maximality
criterion, checked against naive enumeration oracles."""

import importlib
from random import Random

import pytest

from iasi import SetLabel, sumset, difference_set, is_sumset_maximal
from helpers import naive_sumset, naive_difference_set, small_sets

setlabel_module = importlib.import_module("iasi.setlabel")


class TestSetLabel:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SetLabel([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SetLabel([-1, 2])

    @pytest.mark.parametrize("elements", [[1.5, 2], [True], [0, "1"]], ids=["float", "bool", "str"])
    def test_rejects_non_integer_elements(self, elements):
        with pytest.raises(ValueError, match="integers"):
            SetLabel(elements)

    def test_normalizes_to_sorted_unique(self):
        assert SetLabel([3, 1, 3, 2]).elements == (1, 2, 3)

    def test_value_equality_and_hash(self):
        assert SetLabel([0, 1]) == SetLabel([1, 0])
        assert hash(SetLabel([0, 1])) == hash(SetLabel([0, 1]))
        assert SetLabel([0, 1]) != SetLabel([0, 2])

    def test_not_equal_to_a_foreign_type(self):
        a = SetLabel([0, 1])
        assert a.__eq__((0, 1)) is NotImplemented
        assert a != (0, 1)
        assert a != frozenset({0, 1})

    def test_immutable(self):
        a = SetLabel([0, 1])
        with pytest.raises(AttributeError):
            a.elements = (5,)

    def test_canonical_text_form(self):
        assert str(SetLabel([7, 5, 0])) == "{0,5,7}"

    def test_text_forms_of_an_element_past_the_int_digit_limit(self):
        assert repr(SetLabel([7, 5, 0])) == "SetLabel([0, 5, 7])"
        a = SetLabel([3, 10**4300])
        assert str(a) == "{3,<14285-bit integer>}"
        assert repr(a) == "SetLabel([3, <14285-bit integer>])"


class TestSumset:
    def test_singleton_translates(self):
        assert sumset(SetLabel([0]), SetLabel([5, 7])) == SetLabel([5, 7])

    def test_full_size(self):
        # all 4 pairwise sums distinct
        assert sumset(SetLabel([0, 1]), SetLabel([0, 2])) == SetLabel([0, 1, 2, 3])

    def test_collision(self):
        # 1+4 = 2+3, so only 3 of the 4 sums survive
        assert sumset(SetLabel([1, 2]), SetLabel([3, 4])) == SetLabel([4, 5, 6])

    def test_matches_naive_enumeration(self):
        rng = Random(0xA5)
        for _ in range(300):
            a = SetLabel(rng.sample(range(51), rng.randint(1, 8)))
            b = SetLabel(rng.sample(range(51), rng.randint(1, 8)))
            assert list(sumset(a, b)) == naive_sumset(a.elements, b.elements)

    def test_commutative(self):
        rng = Random(0xB6)
        for _ in range(200):
            a = SetLabel(rng.sample(range(51), rng.randint(1, 8)))
            b = SetLabel(rng.sample(range(51), rng.randint(1, 8)))
            assert sumset(a, b) == sumset(b, a)

    def test_translation_covariance(self):
        rng = Random(0xC7)
        for _ in range(200):
            a = SetLabel(rng.sample(range(40), rng.randint(1, 6)))
            b = SetLabel(rng.sample(range(40), rng.randint(1, 6)))
            t = rng.randint(0, 20)
            assert sumset(a.shift(t), b) == sumset(a, b).shift(t)


class TestArithmeticResults:
    """sumset and shift build their results without re-validating them;
    those results must be indistinguishable from validated labels."""

    def test_equal_to_validated_labels(self):
        rng = Random(0x5E7)
        for _ in range(500):
            top = rng.choice((10, 1000, 2**70))
            a = SetLabel(rng.randrange(top) for _ in range(rng.randint(1, 8)))
            b = SetLabel(rng.randrange(top) for _ in range(rng.randint(1, 8)))
            t = rng.randrange(top)
            for got, want in (
                (sumset(a, b), SetLabel([x + y for x in a.elements for y in b.elements])),
                (a.shift(t), SetLabel([x + t for x in a.elements])),
            ):
                assert type(got) is SetLabel
                assert got == want and hash(got) == hash(want)
                assert got.elements == want.elements
                assert type(got.elements) is tuple

    def test_shift_rejects_bad_amounts(self):
        for t in (-1, 0.5, True, 1.0, "1", None):
            with pytest.raises(ValueError):
                SetLabel([0, 1]).shift(t)


class TestDifferenceSet:
    def test_singleton_is_empty(self):
        assert difference_set(SetLabel([3])) == frozenset()

    def test_consecutive(self):
        assert difference_set(SetLabel([0, 1, 2])) == {1, 2}

    def test_general(self):
        assert difference_set(SetLabel([0, 3, 7])) == {3, 4, 7}

    def test_matches_naive_enumeration(self):
        for elems in small_sets(6, 3):
            assert sorted(difference_set(SetLabel(elems))) == naive_difference_set(elems)

    def test_translation_invariance(self):
        rng = Random(0xD8)
        for _ in range(200):
            a = SetLabel(rng.sample(range(40), rng.randint(1, 6)))
            t = rng.randint(0, 25)
            assert difference_set(a.shift(t)) == difference_set(a)


class TestMaximality:
    def test_disjoint_differences(self):
        assert is_sumset_maximal(SetLabel([0, 1]), SetLabel([0, 2]))

    def test_shared_difference(self):
        assert not is_sumset_maximal(SetLabel([0, 1]), SetLabel([0, 1]))

    def test_singleton_always_maximal(self):
        assert is_sumset_maximal(SetLabel([4]), SetLabel([0, 9, 11]))

    def test_large_label_builds_no_difference_set(self, monkeypatch):
        # a quadratic difference set of a 100,000-element label would run
        # for minutes; fail at once instead
        real = setlabel_module.difference_set

        def guarded(a):
            assert len(a) <= 1000
            return real(a)

        monkeypatch.setattr(setlabel_module, "difference_set", guarded)
        evens = SetLabel(range(0, 200_000, 2))
        assert not is_sumset_maximal(evens, SetLabel([3, 5]))
        assert is_sumset_maximal(SetLabel([3, 6]), evens)

    def test_equivalent_to_product_size_exhaustively(self):
        # |A+B| = |A||B|  iff  the difference sets are disjoint, over every
        # pair of subsets of {0..6} with at most 3 elements
        sets = [SetLabel(e) for e in small_sets(6, 3)]
        for a in sets:
            for b in sets:
                full = len(sumset(a, b)) == len(a) * len(b)
                assert full == is_sumset_maximal(a, b), (a, b)

    def test_full_sumsets_cancel_exhaustively(self):
        # A + B = A + C with both sums full forces B = C, the law the search
        # and the reduction rely on, over every pair of subsets of {0..8}
        # with at most 3 elements
        sets = [SetLabel(e) for e in small_sets(8, 3)]
        for a in sets:
            first_with_sum: dict[SetLabel, SetLabel] = {}
            for b in sets:
                if is_sumset_maximal(a, b):
                    c = first_with_sum.setdefault(sumset(a, b), b)
                    assert c == b, (a, b, c)


def test_size_bounds_exhaustive_and_random():
    sets = [SetLabel(e) for e in small_sets(6, 3)]
    for a in sets:
        for b in sets:
            s = len(sumset(a, b))
            assert max(len(a), len(b)) <= s <= len(a) * len(b)
    rng = Random(0xE9)
    for _ in range(500):
        a = SetLabel(rng.sample(range(51), rng.randint(1, 8)))
        b = SetLabel(rng.sample(range(51), rng.randint(1, 8)))
        s = len(sumset(a, b))
        assert max(len(a), len(b)) <= s <= len(a) * len(b)
