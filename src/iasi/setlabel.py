"""Exact arithmetic on finite sets of non-negative integers.

Vertex labels are finite nonempty sets of non-negative integers.  The two
operations everything else is built on are the sumset A + B (all pairwise
sums) and the difference set D_A (all positive differences between distinct
elements).  The sumset of two sets is full, |A + B| = |A||B| as large as
possible, exactly when their difference sets are disjoint.  Verification
takes the size of a strong edge label from the difference sets and builds
a sumset only where the size or the label itself is in question.

Such full sumsets cancel: if A + B and A + C are full and equal, B = C.
With P_X(x) the sum of x^e over e in X, a full A + B has each sum once, so
its polynomial is P_A·P_B; P_A·P_B = P_A·P_C and Z[x] has no zero divisors,
so P_B = P_C.  Strong edges at one vertex share a label only if their other
ends do, so the search and the degree-2 reduction never test for that.
"""

from __future__ import annotations

from itertools import chain, combinations, islice, repeat
from operator import countOf, ge, itemgetter
from typing import Iterable, Iterator

# Most elements the labels of one construction, or one search universe, may
# hold: 10**6 ints take tens of MB, so a larger request fails before allocating.
MAX_ELEMENTS = 10**6


class SetLabel:
    """Immutable finite nonempty set of non-negative integers.

    Elements are stored as a strictly increasing tuple; instances compare
    and hash by value.
    """

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        distinct = set(elements)
        for e in distinct:
            if type(e) is not int:  # bool is a subclass of int, but True is not a label element
                raise ValueError("set label elements must be integers")
        elems = sorted(distinct)
        if not elems:
            raise ValueError("a set label must be nonempty")
        if elems[0] < 0:
            raise ValueError(f"negative element {elems[0]} in set label")
        object.__setattr__(self, "elements", tuple(elems))

    def __setattr__(self, name, value):
        raise AttributeError("SetLabel is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetLabel):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"SetLabel([{', '.join(map(_element_text, self.elements))}])"

    def __str__(self) -> str:
        return "{" + ",".join(map(_element_text, self.elements)) + "}"

    def shift(self, t: int) -> "SetLabel":
        """Translate every element by an integer t >= 0."""
        if type(t) is not int or t < 0:  # bool is not a shift
            raise ValueError("shift must be a non-negative integer")
        return _from_sorted(tuple(e + t for e in self.elements))


def _element_text(e: int) -> str:
    """e in decimal, or its bit length where the decimal form would pass
    the interpreter's int-to-str digit limit."""
    try:
        return str(e)
    except ValueError:
        return f"<{e.bit_length()}-bit integer>"


def _from_sorted(elements: tuple[int, ...]) -> SetLabel:
    """A label from a strictly increasing, nonempty tuple of non-negative
    ints, taken as is.  Only for results of arithmetic on validated labels,
    which meet those conditions by construction, and for arrays that the
    per-key loop of `Labeling.from_json` has checked; `_from_arrays` sets
    the same slot for many labels at once."""
    label = object.__new__(SetLabel)
    object.__setattr__(label, "elements", elements)
    return label


def _from_arrays(arrays: tuple) -> list[SetLabel] | None:
    """The labels of JSON arrays, or None unless each is a nonempty list of
    ints, strictly ascending from an element >= 0.  Chained, strictly
    ascending arrays fall only at array borders.  The passes over elements
    are lazy, and each label's slot is set as _from_sorted sets it."""
    elements, first, last = chain.from_iterable, itemgetter(0), itemgetter(-1)
    if not ({list}.issuperset(map(type, arrays)) and all(arrays)
            and {int}.issuperset(map(type, elements(arrays)))
            and countOf(map(ge, elements(arrays), islice(elements(arrays), 1, None)), True)
            == countOf(map(ge, map(last, arrays), islice(map(first, arrays), 1, None)), True)
            and min(map(first, arrays), default=0) >= 0):
        return None
    labels = list(map(object.__new__, repeat(SetLabel, len(arrays))))
    any(map(SetLabel.elements.__set__, labels, map(tuple, arrays)))  # each call returns None
    return labels


def sumset(a: SetLabel, b: SetLabel) -> SetLabel:
    """All pairwise sums of a and b, as a new label.

    Always satisfies max(|a|,|b|) <= |result| <= |a|*|b|.
    """
    return _from_sorted(tuple(sorted({x + y for x in a.elements for y in b.elements})))


def difference_set(a: SetLabel) -> frozenset[int]:
    """Positive differences between distinct elements of a.

    Empty exactly when a is a singleton.  Only positive differences are
    kept: disjointness of two difference sets is unchanged by the sign
    convention, and the positive half is canonical.
    """
    return frozenset(y - x for x, y in combinations(a.elements, 2))


def is_sumset_maximal(a: SetLabel, b: SetLabel) -> bool:
    """True iff |sumset(a, b)| = |a|*|b|.

    Equivalent to the difference sets of a and b being disjoint, but decided
    by counting the |a|*|b| sums: that costs O(|a||b|), where the two
    difference sets would cost O(|a|^2 + |b|^2).
    """
    return len({x + y for x in a.elements for y in b.elements}) == len(a) * len(b)
