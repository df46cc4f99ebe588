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
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .graphs import (
    MAX_ID_DIGITS, Graph, Edge, _clip, _id_summary, _parse_id, connected_components, is_clique,
)
from .setlabel import SetLabel, _from_sorted, difference_set, sumset


class LabelingError(ValueError):
    """Raised when a labeling does not cover its graph's vertex set."""


class Labeling:
    """Total, read-only assignment of a SetLabel to every vertex id of some graph."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Mapping[int, SetLabel]):
        object.__setattr__(
            self, "assignment", MappingProxyType(dict(sorted(assignment.items())))
        )

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
        try:
            # objects load as tuples of (key, value) pairs, keeping repeated keys
            raw = json.loads(text, object_pairs_hook=tuple)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise LabelingError(f"labeling is not valid JSON: {exc}") from None
        except ValueError:  # int() refuses the digits of a huge element
            raise LabelingError(f"labeling holds an integer longer than {MAX_ID_DIGITS} digits") from None
        if not isinstance(raw, tuple):
            raise LabelingError("labeling JSON must be an object")
        assignment = {}
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
    missing = [v for v in g.vertices() if v not in f.assignment]
    if missing:
        raise LabelingError(f"labeling missing vertices {_id_summary(missing, len(missing))}")
    extra = [v for v in f.assignment if not (0 <= v < g.vertex_count)]
    if extra:
        raise LabelingError(f"labeling references unknown vertices {_id_summary(extra, len(extra))}")


def _edge_pass(
    g: Graph, f: Labeling, edges: tuple[Edge, ...]
) -> tuple[list[int], list[int], list[int], dict[int, tuple[Edge, SetLabel]]]:
    """Induced label sizes of the given edges between g's vertices, in one
    loop over them, by the method verify describes.

    Returns (size, sizes, not_strong, firsts): each vertex's label size,
    each edge's label size, the positions of the edges that are not strong,
    and each position whose label an earlier edge already carries -> (the
    first such edge, the label).  A label of up to 5 elements meets the
    size guard whenever it has a neighbor of 2 or more elements, and its
    difference set costs at most 10 differences, so the guard's sum is
    taken only for larger labels.
    """
    _require_total(g, f)
    labels = list(f.assignment.values())  # f's keys are exactly 0..n-1
    size = [len(a.elements) for a in labels]
    lo = [a.elements[0] for a in labels]
    hi = [a.elements[-1] for a in labels]
    diffs = [
        difference_set(a)
        if s <= 5 or s - 1 <= 2 * sum(size[u] for u in g.neighbors(v) if size[u] > 1)
        else None
        for v, (a, s) in enumerate(zip(labels, size))
    ]
    sizes: list[int] = []
    keys: list[tuple[int, int, int]] = []
    not_strong: list[int] = []
    sums: dict[int, SetLabel] = {}
    for i, (u, v) in enumerate(edges):
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
        keys.append((lo[u] + lo[v], hi[u] + hi[v], n))
    firsts: dict[int, tuple[Edge, SetLabel]] = {}
    count = Counter(keys)
    # all keys distinct means all labels distinct, and the scan is skipped
    if len(count) < len(keys):
        # the first position with each label, per shared key
        buckets: dict[tuple, dict[SetLabel, int]] = {}
        for i, key in enumerate(keys):
            if count[key] > 1:
                lab = sums[i] if i in sums else sumset(*(labels[x] for x in edges[i]))
                first = buckets.setdefault(key, {}).setdefault(lab, i)
                if first != i:
                    firsts[i] = (edges[first], lab)
    return size, sizes, not_strong, firsts


def verify(g: Graph, f: Labeling) -> VerificationReport:
    """Full classification of the labeled graph.

    Edge labels are induced sumsets, and injectivity of the edge map is set
    equality of those sumsets.  One loop over the edges takes each edge's
    size and key (min, max, size).  An edge with a singleton endpoint, or
    whose endpoint labels have disjoint difference sets, is strong with
    size |A|*|B| and needs no sumset.  Edges whose keys differ have
    different labels; only edges with equal keys, and edges that are not
    strong, get their sumsets built and compared exactly.  A difference set
    D_v is built only when |f(v)| - 1 <= 2 * (sum of |f(u)| over the
    neighbors u with |f(u)| >= 2), so its quadratic cost never exceeds the
    sumsets it saves; without it, an edge at v whose other end is not a
    singleton takes the exact sumset.  No input costs more than one sumset
    per edge.  Edges are processed in sorted order so the violation list is
    deterministic.
    """
    size, sizes, not_strong, firsts = _edge_pass(g, f, g.edges)
    labels = f.assignment
    violations: list[Violation] = []
    is_iasi = not firsts

    seen_labels: dict[SetLabel, int] = {}
    for v in g.vertices():
        a = labels[v]
        first = seen_labels.setdefault(a, v)
        if first != v:
            is_iasi = False
            violations.append(
                Violation(
                    "duplicate-vertex-labels",
                    f"vertices {first} and {v} share the label {a}",
                    (first, v),
                )
            )

    edge_sizes = dict(zip(g.edges, sizes))
    weak_ok = True
    for i, ((u, v), n) in enumerate(edge_sizes.items()):
        su, sv = size[u], size[v]
        if i in firsts:
            (pu, pv), lab = firsts[i]
            violations.append(
                Violation(
                    "duplicate-edge-labels",
                    f"edges {pu}-{pv} and {u}-{v} share the induced label {lab}",
                    (pu, pv, u, v),
                )
            )
        if n != max(su, sv):
            weak_ok = False
            violations.append(
                Violation(
                    "weak-equality",
                    f"edge {u}-{v}: |label| = {n} != max({su},{sv})",
                    (u, v),
                )
            )
        if n != su * sv:
            violations.append(
                Violation(
                    "strong-equality",
                    f"edge {u}-{v}: |label| = {n} != {su}*{sv}",
                    (u, v),
                )
            )

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
    would cost more than the sumset.  It runs verify's edge pass, key index
    included, and reads only which edges are not strong.
    """
    return not _edge_pass(g, f, g.edges)[2]


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
        return {**self._asdict(), "vertices": list(self.vertices), "sizes": list(self.sizes)}


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
    """
    if type(k) is not int or k < 1:  # bool is not a size
        raise ValueError("k must be a positive integer")
    size, sizes, not_strong, _ = _edge_pass(g, f, g.edges)
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

    comps = []
    for comp in connected_components(g):
        vs = tuple(sorted(comp))
        comp_sizes = tuple(sorted({size[v] for v in vs}))
        kind = "square-class" if k_is_square and comp_sizes == (root,) else "bipartite-pair"
        # K_2 components are complete but bipartite; the clique flag marks
        # complete components that cannot be bipartite (>= 3 vertices)
        clique = len(vs) >= 3 and is_clique(g, vs)
        comps.append(ComponentReport(vs, kind, comp_sizes, clique))
    sq_count = sum(c.kind == "square-class" for c in comps)
    bip_count = len(comps) - sq_count

    if k_is_square:
        bip_bound = (n_div - 1) // 2
        total_bound = (n_div + 1) // 2
        total_ok = len(comps) <= total_bound
    else:
        bip_bound = n_div // 2
        total_bound = None
        total_ok = True
    return PartitionReport(
        k=k,
        k_is_square=k_is_square,
        divisor_count=n_div,
        classes={d: tuple(classes[d]) for d in divs if d in classes},
        components=comps,
        bipartite_component_count=bip_count,
        square_component_count=sq_count,
        bipartite_bound=bip_bound,
        total_bound=total_bound,
        bipartite_bound_satisfied=bip_count <= bip_bound,
        total_bound_satisfied=total_ok,
        clique_component_present=any(c.clique for c in comps),
    )
