"""Classify a labeled graph: set-indexer, weak, strong, uniform, and the
divisor-class component structure of strongly uniform labelings.

All flags are computed independently and reported even when the assignment
fails injectivity, with violations carrying the witnessing vertices or
edges, so a bad labeling explains itself.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from operator import eq, itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .graphs import (
    MAX_ID_DIGITS, Graph, Edge, _clip, _components, _id_summary, _parse_id, is_clique,
)
from .setlabel import SetLabel, _from_arrays, _from_sorted, difference_set, sumset


class LabelingError(ValueError):
    """Raised when a labeling does not cover its graph's vertex set."""


class Labeling:
    """Total, read-only assignment of a SetLabel to every vertex id of some graph."""

    # _proof: None, or (graph, edge-label minima) set by topological_reduce
    __slots__ = ("assignment", "_proof")

    def __init__(self, assignment: Mapping[int, SetLabel]):
        # types checked in bulk; by Graph()'s rule, bool is not an id
        if not {int}.issuperset(map(type, assignment)):
            bad = next(v for v in assignment if type(v) is not int)
            raise LabelingError(f"vertex ids must be integers, not {type(bad).__name__}")
        if not {SetLabel}.issuperset(map(type, assignment.values())):
            bad = next(a for a in assignment.values() if type(a) is not SetLabel)
            raise LabelingError(f"labels must be SetLabels, not {type(bad).__name__}")
        object.__setattr__(self, "assignment", MappingProxyType({v: assignment[v] for v in sorted(assignment)}))
        object.__setattr__(self, "_proof", None)

    def __setattr__(self, name, value):
        raise AttributeError("Labeling is immutable")

    def __getitem__(self, v: int) -> SetLabel:
        return self.assignment[v]

    def __len__(self) -> int:
        return len(self.assignment)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self.assignment == other.assignment

    def __repr__(self) -> str:
        return f"Labeling({self.assignment.copy()!r})"

    def vertices(self) -> list[int]:
        return list(self.assignment)

    def as_dict(self) -> dict[str, list[int]]:
        """The JSON object form: decimal vertex ids, ascending elements."""
        return {str(v): list(a.elements) for v, a in self.assignment.items()}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "Labeling":
        """The labeling a JSON object of decimal keys and element arrays
        spells.  The pairs are checked a column at a time; if any pair is
        refused, a per-key loop finds the first and raises its error."""
        try:
            # objects load as tuples of (key, value) pairs, keeping repeated keys
            raw = json.loads(text, object_pairs_hook=tuple)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise LabelingError(f"labeling is not valid JSON: {exc}") from None
        except ValueError:  # int() refuses the digits of a huge element
            raise LabelingError(f"labeling holds an integer longer than {MAX_ID_DIGITS} digits") from None
        if not isinstance(raw, tuple):
            raise LabelingError("labeling JSON must be an object")
        assignment = _labels_in_bulk(raw)
        if assignment is not None:
            return cls(assignment)
        assignment = {}  # some pair is refused: the first one names the error
        for key, arr in raw:
            try:
                v = _parse_id(key)
            except ValueError as exc:
                raise LabelingError(f"vertex key {exc}") from None
            vid = _clip(key)  # key is v's canonical decimal form
            if v in assignment:
                raise LabelingError(f"vertex {vid} is labeled twice")
            if v < 0:
                raise LabelingError(f"negative vertex id {vid}")
            if not isinstance(arr, list) or not all(type(e) is int for e in arr):
                raise LabelingError(f"label for vertex {vid} must be an integer array")
            if arr != sorted(set(arr)):
                raise LabelingError(f"label for vertex {vid} must be strictly ascending")
            if not arr:
                raise LabelingError(f"label for vertex {vid}: a set label must be nonempty")
            if arr[0] < 0:
                raise LabelingError(f"label for vertex {vid}: negative element {arr[0]} in set label")
            assignment[v] = _from_sorted(tuple(arr))
        return cls(assignment)


def _labels_in_bulk(raw: tuple) -> dict[int, SetLabel] | None:
    """The pairs' labels by id, checked a column at a time, or None if any
    pair is refused: keys canonical, non-negative and distinct, arrays as
    _from_arrays takes them."""
    keys = tuple(map(itemgetter(0), raw))
    try:
        ids = list(map(int, keys))
    except ValueError:  # not a decimal, or too long for int()
        return None
    labels = _from_arrays(tuple(map(itemgetter(1), raw)))
    if labels is None or min(ids, default=0) < 0 or not all(map(eq, map(str, ids), keys)):
        return None
    assignment = dict(zip(ids, labels))
    return assignment if len(assignment) == len(ids) else None


def _proven(labels: list[SetLabel], g: Graph, minima: Counter) -> Labeling:
    """The labeling i -> labels[i], not re-sorted, with the proof (g, minima)."""
    f = object.__new__(Labeling)
    object.__setattr__(f, "assignment", MappingProxyType(dict(enumerate(labels))))
    object.__setattr__(f, "_proof", (g, minima))
    return f


class Violation(NamedTuple):
    """One structured finding explaining a False classification flag."""

    kind: str
    message: str
    witness: tuple

    def as_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "witness": list(self.witness)}


class VerificationReport(NamedTuple):
    is_iasi: bool
    is_weak: bool
    is_strong: bool
    uniform_k: int | None
    vertex_uniform_l: int | None
    completely_uniform: bool
    edge_sizes: dict[Edge, int]
    violations: list[Violation]

    def as_dict(self) -> dict:
        edge_sizes = {f"{u}-{v}": s for (u, v), s in self.edge_sizes.items()}
        violations = [viol.as_dict() for viol in self.violations]
        return {**self._asdict(), "edge_sizes": edge_sizes, "violations": violations}


def _require_total(g: Graph, f: Labeling) -> None:
    ids, n = f.assignment, g.vertex_count
    if len(ids) == n and (not n or next(iter(ids)) == 0 and next(reversed(ids)) == n - 1):
        return  # a Labeling's ids are sorted and distinct, so they are 0..n-1
    missing = [v for v in g.vertices() if v not in f.assignment]
    if missing:
        raise LabelingError(f"labeling missing vertices {_id_summary(missing, len(missing))}")
    extra = [v for v in f.assignment if not (0 <= v < g.vertex_count)]
    if extra:
        raise LabelingError(f"labeling references unknown vertices {_id_summary(extra, len(extra))}")


# keys of labels with an element of 2**61 or more pack their sums modulo
# this prime; equal labels keep equal keys, and a collision of unequal
# ones only sends both edges to the exact comparison in their bucket
_P = 2**61 - 1


def _edge_pass(
    g: Graph, f: Labeling, index: bool = True
) -> tuple[list[int], list[int], list[int], dict[int, tuple[Edge, SetLabel]] | None]:
    """Induced label sizes of g's edges, in one loop over g.edges, by the
    method verify describes.

    Returns (size, sizes, not_strong, firsts): each vertex's label size,
    each edge's label size, the positions of the edges that are not strong,
    and each position whose label an earlier edge already carries -> (the
    first such edge, the label).  Edges are bucketed by one int key per
    edge, (min, max, size) packed at widths fixed per call, the sums taken
    modulo _P when an element reaches 2**61.  A label of up to 5 elements
    meets the size guard whenever it has a neighbor of 2 or more elements,
    and its difference set costs at most 10 differences, so the guard's sum
    is taken only for larger labels.  With index False no key is packed,
    counted or scanned, and firsts is None.
    """
    _require_total(g, f)
    labels = list(f.assignment.values())  # f's keys are exactly 0..n-1
    size = [len(a.elements) for a in labels]
    diffs = [
        difference_set(a)
        if s <= 5 or s - 1 <= 2 * sum(size[u] for u in g.neighbors(v) if size[u] > 1)
        else None
        for v, (a, s) in enumerate(zip(labels, size))
    ]
    sizes: list[int] = []
    keys: list[int] = []
    not_strong: list[int] = []
    sums: dict[int, SetLabel] = {}
    if index:
        lo = [a.elements[0] for a in labels]
        hi = [a.elements[-1] for a in labels]
        # each key packs (min, max, size) into one int: the sums take hb bits
        # (max <= 2*max(hi)) and the size nb bits (size <= max(size)**2)
        hb = (2 * max(hi, default=0)).bit_length()
        nb = (max(size, default=0) ** 2).bit_length()
        wide = hb > 62
        if wide:  # one huge element would widen every key; work modulo _P
            lo = [x % _P for x in lo]
            hi = [x % _P for x in hi]
            hb = 62
    for i, (u, v) in enumerate(g.edges):
        n = size[u] * size[v]
        du, dv = diffs[u], diffs[v]
        if du is None or dv is None:
            strong = size[u] == 1 or size[v] == 1
        else:
            strong = du.isdisjoint(dv)
        if not strong:
            sums[i] = lab = sumset(labels[u], labels[v])
            if len(lab.elements) != n:
                n = len(lab.elements)
                not_strong.append(i)
        sizes.append(n)
        if index:
            keys.append(((lo[u] + lo[v]) << hb | hi[u] + hi[v]) << nb | n)
    if not index:
        return size, sizes, not_strong, None
    if wide:
        # equal labels may carry residue sums s and s + _P: reduce the sums
        keys = [((lo[u] + lo[v]) % _P << 62 | (hi[u] + hi[v]) % _P) << nb | n
                for (u, v), n in zip(g.edges, sizes)]
    firsts: dict[int, tuple[Edge, SetLabel]] = {}
    count = Counter(keys)
    # all keys distinct means all labels distinct, and the scan is skipped
    if len(count) < len(keys):
        # the first position with each label, per shared key
        buckets: dict[int, dict[SetLabel, int]] = {}
        for i, key in enumerate(keys):
            if count[key] > 1:
                lab = sums[i] if i in sums else sumset(*(labels[x] for x in g.edges[i]))
                first = buckets.setdefault(key, {}).setdefault(lab, i)
                if first != i:
                    firsts[i] = (g.edges[first], lab)
    return size, sizes, not_strong, firsts


def verify(g: Graph, f: Labeling) -> VerificationReport:
    """Full classification of the labeled graph.

    Edge labels are induced sumsets, and injectivity of the edge map is set
    equality of those sumsets.  One loop over the edges takes each edge's
    size and key: the triple (min, max, size) packed into one int, with
    the sums taken modulo 2**61 - 1 once an element reaches 2**61, so one
    huge element does not widen every key.  An edge with a singleton
    endpoint, or whose endpoint labels have disjoint difference sets, is
    strong with size |A|*|B| and needs no sumset.  Edges whose keys differ have
    different labels; only edges with equal keys, and edges that are not
    strong, get their sumsets built and compared exactly.  A difference set
    D_v is built only when |f(v)| - 1 <= 2 * (sum of |f(u)| over the
    neighbors u with |f(u)| >= 2), so its quadratic cost never exceeds the
    sumsets it saves; without it, an edge at v whose other end is not a
    singleton takes the exact sumset.  No input costs more than one sumset
    per edge.  Edges are processed in sorted order so the violation list is
    deterministic, and an edge's witness is its own tuple from g.edges.
    """
    size, sizes, not_strong, firsts = _edge_pass(g, f)
    labels = f.assignment
    violations: list[Violation] = []
    is_iasi = not firsts

    # each Violation is built by tuple.__new__, without a call to the
    # NamedTuple's __new__; an edge's witness is its own tuple from g.edges
    seen_labels: dict[SetLabel, int] = {}
    for v in g.vertices():
        a = labels[v]
        first = seen_labels.setdefault(a, v)
        if first != v:
            is_iasi = False
            msg = f"vertices {first} and {v} share the label {a}"
            violations.append(tuple.__new__(Violation, ("duplicate-vertex-labels", msg, (first, v))))

    edge_sizes = dict(zip(g.edges, sizes))
    weak_ok = True
    for i, (e, n) in enumerate(edge_sizes.items()):
        u, v = e
        su, sv = size[u], size[v]
        if i in firsts:
            (pu, pv), lab = firsts[i]
            msg = f"edges {pu}-{pv} and {u}-{v} share the induced label {lab}"
            violations.append(tuple.__new__(Violation, ("duplicate-edge-labels", msg, (pu, pv, u, v))))
        if n != (su if su > sv else sv):
            weak_ok = False
            msg = f"edge {u}-{v}: |label| = {n} != max({su},{sv})"
            violations.append(tuple.__new__(Violation, ("weak-equality", msg, e)))
        if n != su * sv:
            msg = f"edge {u}-{v}: |label| = {n} != {su}*{sv}"
            violations.append(tuple.__new__(Violation, ("strong-equality", msg, e)))

    ks = set(edge_sizes.values())
    uniform_k = ks.pop() if len(ks) == 1 else None
    ls = set(size)
    vertex_uniform_l = ls.pop() if len(ls) == 1 else None
    return VerificationReport(
        is_iasi=is_iasi,
        is_weak=weak_ok,
        is_strong=not not_strong,
        uniform_k=uniform_k,
        vertex_uniform_l=vertex_uniform_l,
        completely_uniform=uniform_k is not None and vertex_uniform_l is not None,
        edge_sizes=edge_sizes,
        violations=violations,
    )


def check_weak_characterization(g: Graph, f: Labeling) -> bool:
    """True iff every edge has an endpoint labeled by a singleton.

    Agrees with the is_weak flag: two labels of size >= 2 have a sumset
    larger than either, |A + B| >= |A| + |B| - 1.
    """
    _require_total(g, f)
    return all(len(f[u]) == 1 or len(f[v]) == 1 for u, v in g.edges)


def check_strong_criterion(g: Graph, f: Labeling) -> bool:
    """True iff adjacent labels always have disjoint difference sets.

    Equivalent to every edge label reaching the maximal size
    |f(u)|*|f(v)|, which is how an edge is decided where a difference set
    would cost more than the sumset.  It runs verify's edge pass without
    its key index and reads only which edges are not strong.
    """
    return not _edge_pass(g, f, index=False)[2]


def divisors_of(k: int) -> list[int]:
    """Ascending divisors of k >= 1, by trial division up to sqrt(k)."""
    if type(k) is not int or k < 1:  # bool is not a size
        raise ValueError("k must be a positive integer")
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d * d != k:
                large.append(k // d)
        d += 1
    return small + large[::-1]


class ComponentReport(NamedTuple):
    """Divisor-class view of one connected component."""

    vertices: tuple[int, ...]
    kind: str  # "bipartite-pair" or "square-class"
    sizes: tuple[int, ...]  # the vertex set-indexing numbers present
    clique: bool

    def as_dict(self) -> dict:
        vertices, kind, sizes, clique = self
        return {"vertices": list(vertices), "kind": kind, "sizes": list(sizes), "clique": clique}


class PartitionReport(NamedTuple):
    """Divisor classes and component structure of a strongly k-uniform labeling."""

    k: int
    k_is_square: bool
    divisor_count: int
    classes: dict[int, tuple[int, ...]]  # divisor -> vertices with that label size
    components: list[ComponentReport]
    bipartite_component_count: int
    square_component_count: int
    bipartite_bound: int
    total_bound: int | None  # only bounded for square k
    bipartite_bound_satisfied: bool
    total_bound_satisfied: bool
    clique_component_present: bool

    def as_dict(self) -> dict:
        classes = {str(d): list(vs) for d, vs in self.classes.items()}
        components = [c.as_dict() for c in self.components]
        return {**self._asdict(), "classes": classes, "components": components}


def analyze_divisor_partition(g: Graph, f: Labeling, k: int) -> PartitionReport:
    """Partition the vertices of a strongly k-uniform labeling by label size.

    Every vertex size divides k (the edge size is the product of its
    endpoint sizes), so each connected component either pairs two divisor
    classes d and k/d across a bipartition, or, when k is a perfect square,
    consists entirely of vertices of size sqrt(k).  Component counts are
    compared against the bounds implied by the number of divisors of k:
    for non-square k at most n/2 bipartite components; for square k at most
    (n+1)/2 components of which at most (n-1)/2 are bipartite pairs.
    It checks strength and k-uniformity, not that labels are distinct.  As
    every edge joins sizes d and k/d and no vertex is isolated, a component
    holds exactly its lowest id's size d and k/d, one size when d*d == k.
    """
    if type(k) is not int or k < 1:  # bool is not a size
        raise ValueError("k must be a positive integer")
    size, sizes, not_strong, _ = _edge_pass(g, f, index=False)
    if not_strong:
        raise ValueError(
            f"labeling is not strongly {k}-uniform "
            "(adjacent labels share a difference)"
        )
    for (u, v), n in zip(g.edges, sizes):
        if n != k:
            raise ValueError(
                f"labeling is not strongly {k}-uniform "
                f"(edge {u}-{v}: {size[u]}*{size[v]} != {k})"
            )

    root = math.isqrt(k)
    k_is_square = root * root == k
    divs = divisors_of(k)
    n_div = len(divs)

    classes: dict[int, list[int]] = {}
    for v in g.vertices():
        classes.setdefault(size[v], []).append(v)

    # (kind, sizes) of a component whose lowest id has size d
    shape = {d: ("square-class" if d * d == k else "bipartite-pair", tuple(sorted({d, k // d}))) for d in divs}
    comps = []
    for comp in _components(g):
        vs = tuple(comp)
        # K_2 components are complete but bipartite; the clique flag marks
        # complete components that cannot be bipartite (>= 3 vertices)
        clique = len(vs) >= 3 and is_clique(g, vs)
        comps.append(tuple.__new__(ComponentReport, (vs, *shape[size[vs[0]]], clique)))
    sq_count = sum(c.kind == "square-class" for c in comps)
    bip_bound = (n_div - 1 if k_is_square else n_div) // 2
    total_bound = (n_div + 1) // 2 if k_is_square else None
    return PartitionReport(
        k=k,
        k_is_square=k_is_square,
        divisor_count=n_div,
        classes={d: tuple(classes[d]) for d in divs if d in classes},
        components=comps,
        bipartite_component_count=len(comps) - sq_count,
        square_component_count=sq_count,
        bipartite_bound=bip_bound,
        total_bound=total_bound,
        bipartite_bound_satisfied=len(comps) - sq_count <= bip_bound,
        total_bound_satisfied=total_bound is None or len(comps) <= total_bound,
        clique_component_present=any(c.clique for c in comps),
    )
