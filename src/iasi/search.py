"""Exhaustive search for labelings over a bounded universe.

The search assigns candidate labels to vertices in ascending id order,
enumerating candidates by size and then lexicographically, and prunes a
branch as soon as it can no longer complete: duplicate vertex labels, an
edge that is not strong, and duplicate edge labels.  A placed label is
held as the bitmask of its elements less their minimum.  The product of
two such masks is a sum of |f(u)|·|f(v)| powers of two, one per pair of
elements, so it has that many bits exactly when no two sums are equal,
that is when the edge uv is strong; it is then the bitmask of the sums
less their minimum, the edge label's key.  One multiply per edge replaces
|f(u)| shifts.  Python multiplies in time quadratic in the digits, so two
sparse labels each spanning thousands of bits cost more than shifts would,
but a placed label is the first candidate to pass, so it is rarely wide.

Label sizes come from a table built once per search.  Under a uniform
target the sizes of adjacent vertices multiply to k (weak: they pair 1 with
k), so along a 2-coloring of each connected component they alternate d and
k/d, and an odd cycle forces d = sqrt(k).  The lowest-id vertex of each
component tries every feasible d in ascending order and fixes the size of
every other vertex in it; a component with no feasible d ends the search
without trying a label.  One function, `_search`, holds the table and the
depth-first search as locals and serves both public functions: it counts
the labelings, or stops at the first; the last vertex counts its passing
candidates without applying them, as no later vertex reads them.  It keeps
an explicit stack of generators, so recursion limits do not bound its
depth.  The node count is checked right after each increment, so a search
cut by its budget has always visited budget + 1 nodes.

Twins, vertices with the same open or closed neighbourhood, come from one
pass over the adjacency tuples, with no automorphism search.  Swapping
twins maps labelings to labelings, so a later twin tries only the labels
after its predecessor's, and counts take the orbit factor prod c_i! over
twin classes of sizes c_i.  The first witness does not change: swapping a
falling pair of twins in it would give a labeling that comes earlier.

A negative answer is always scoped to the universe bound; the search never
claims nonexistence beyond it.
"""

from __future__ import annotations

from bisect import bisect
from collections import namedtuple
from itertools import chain, combinations
from math import prod
from typing import NamedTuple

from .graphs import Graph, _two_coloring
from .setlabel import MAX_ELEMENTS, SetLabel
from .verify import Labeling, divisors_of

TARGETS = ("any-strong", "strong", "weak")

class BudgetExceededError(RuntimeError):
    """Raised when a search runs past its node budget; brute_force_search
    reports it as the status "budget-exceeded"."""


class SearchSpec(namedtuple(
    "SearchSpec", "universe_max max_label_size target k node_budget", defaults=(None, 10_000_000)
)):
    """Bounds and target for one exhaustive run.

    Labels are drawn from subsets of {0..universe_max} with at most
    max_label_size elements; universe_max + 1 may not exceed
    setlabel.MAX_ELEMENTS.  Targets: "any-strong" (a strong set-indexer),
    "strong" (strongly k-uniform), "weak" (weakly k-uniform); the uniform
    targets require k.  node_budget caps the nodes visited.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):  # type(): a bool is refused
            if name != "target" and type(value) is not int and not (name == "k" and value is None):
                raise ValueError(f"{name} must be an integer")
        if not 0 <= self.universe_max < MAX_ELEMENTS:
            raise ValueError(f"universe_max must be in 0..{MAX_ELEMENTS - 1}")
        if self.max_label_size < 1:
            raise ValueError("max_label_size must be positive")
        if self.universe_max + 1 < self.max_label_size:
            raise ValueError("max_label_size exceeds the universe size")
        if self.node_budget < 1:
            raise ValueError("node_budget must be positive")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.target in ("strong", "weak"):
            if self.k is None or self.k < 1:
                raise ValueError(f"target {self.target!r} requires a positive k")
        elif self.k is not None:
            raise ValueError("target 'any-strong' takes no k")
        return self


class SearchOutcome(NamedTuple):
    status: str  # "found" | "exhausted-none" | "budget-exceeded"
    witness: Labeling | None
    nodes_visited: int

    def as_dict(self) -> dict:
        d: dict = {"status": self.status, "nodes_visited": self.nodes_visited}
        if self.witness is not None:
            d["witness"] = self.witness.as_dict()
        return d


def _after(t: tuple[int, ...], universe: tuple[int, ...]):
    """The len(t)-subsets of universe after t in lexicographic order: for i
    from the last position down, t[:i], an element above t[i], then more."""
    return chain.from_iterable(
        map(t[:i].__add__, combinations(universe[t[i] + 1:], len(t) - i))
        for i in reversed(range(len(t)))
    )


def _search(g: Graph, spec: SearchSpec, first: bool) -> tuple[int, list[tuple[int, ...]], int]:
    """Count the complete labelings, stopping at the first with first set;
    return the count, the labels indexed by vertex, and the nodes visited.
    v tries only labels after pred[v]'s, its previous twin's.  It raises
    BudgetExceededError at the node that crosses spec.node_budget, so a
    cut search has always visited budget + 1 nodes."""
    if not g.edges:
        raise ValueError("graph has no edges")
    nv = g.vertex_count
    k = spec.k
    budget = spec.node_budget
    # the size table: a component root (its lowest id) tries root_sizes;
    # any other vertex takes the root's size d on color 0, k // d on 1
    cap = spec.max_label_size
    if spec.target == "any-strong":
        root = list(g.vertices())
        color = [0] * nv
        root_sizes = [range(1, cap + 1)] * nv
    else:
        color, root, odd_roots = _two_coloring(g)
        # past cap**2 no size d <= cap has k // d <= cap: k is not factored
        strong = spec.target == "strong" and k <= cap * cap
        base = divisors_of(k) if strong else sorted({1, k})
        sizes = [d for d in base if d <= cap and k // d <= cap]
        square = [d for d in sizes if d * d == k]
        root_sizes = [square if v in odd_roots else sizes for v in g.vertices()]
    # The size table already makes a strong edge's label reach k (strong
    # sizes multiply to k; weak sizes pair a singleton, always strong,
    # with a k-set), so what is left to check is strength,
    # |A + B| = |A|·|B|, and distinct labels.  An edge label's key is its
    # sum mask paired with its minimum.  Two back-edges of one vertex never
    # share a key: strong sums cancel (setlabel).
    labels: list[tuple[int, ...]] = [()] * nv
    masks: list[tuple[int, int, int]] = [(0, 0, 0)] * nv  # (mask, min, size) per label
    used_labels: set[tuple[int, ...]] = set()
    edge_keys: set[tuple[int, int]] = set()
    nodes = found = 0

    def place(v: int):
        """For each candidate label of v that passes every check against
        the vertices before it: apply it, yield True, and undo it when
        resumed.  The last vertex counts it instead (with first set, it
        keeps the first and returns)."""
        nonlocal nodes, found
        r = root[v]
        if r == v:
            sizes = root_sizes[v]
        else:
            d = len(labels[r])
            sizes = (k // d if color[v] else d,)
        p = pred[v]
        if p >= 0:  # a later twin: only the labels after its predecessor's
            floor = labels[p]
            sizes = [s for s in sizes if s >= len(floor)]
        back_v = back[v]
        last = v == nv - 1
        for s in sizes:
            for cand in combinations(universe, s) if p < 0 or s > len(floor) else _after(floor, universe):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(f"node budget {budget} exceeded")
                if cand in used_labels:
                    continue
                lo = cand[0]
                cmask = 0
                for b in cand:
                    cmask |= 1 << (b - lo)
                new_keys = []
                for u in back_v:
                    umask, ulo, us = masks[u]
                    mask = umask * cmask
                    if mask.bit_count() != us * s:
                        break
                    key = (mask, ulo + lo)
                    if key in edge_keys:
                        break
                    new_keys.append(key)
                else:
                    if last:
                        found += 1
                        if first:
                            labels[v] = cand
                            return
                        continue
                    labels[v] = cand
                    masks[v] = (cmask, lo, s)
                    used_labels.add(cand)
                    edge_keys.update(new_keys)
                    yield True
                    edge_keys.difference_update(new_keys)
                    used_labels.remove(cand)

    if not all(root_sizes[r] for r in set(root)):
        return 0, labels, 0  # some component has no feasible size
    # back[v]: the smaller neighbors, whose edges are checked when v is
    # placed.  One dict keys open and closed neighbourhoods, as only the
    # latter hold their vertex; rank[v] is v's 1-based place among its twins
    back: list[tuple[int, ...]] = []
    pred = [-1] * nv
    rank = [1] * nv
    last_with: dict[tuple[int, ...], int] = {}
    for v, nb in enumerate(g._adj):
        below = nb[:bisect(nb, v)]
        back.append(below)
        closed = below + (v,) + nb[len(below):]
        p = last_with.get(nb, last_with.get(closed, -1))
        if p >= 0:
            pred[v], rank[v] = p, rank[p] + 1
        last_with[nb] = last_with[closed] = v
    # shared by every place(): combinations() copies any non-tuple input
    universe = tuple(range(spec.universe_max + 1))
    stack = [place(0)]
    while stack and not (first and found):
        if next(stack[-1], False):
            stack.append(place(len(stack)))
        else:
            stack.pop()
    return found * prod(rank), labels, nodes


def brute_force_search(g: Graph, spec: SearchSpec) -> SearchOutcome:
    """Find the first labeling meeting the target, or certify that none
    exists within the universe bound."""
    try:
        found, labels, nodes = _search(g, spec, first=True)
    except BudgetExceededError:
        return SearchOutcome("budget-exceeded", None, spec.node_budget + 1)
    if not found:
        return SearchOutcome("exhausted-none", None, nodes)
    witness = Labeling({v: SetLabel(c) for v, c in enumerate(labels)})
    return SearchOutcome("found", witness, nodes)


def count_labelings(g: Graph, spec: SearchSpec) -> int:
    """Exact number of labelings meeting the target within the universe.

    Counts whole labelings, not equivalence classes: the labelings whose
    twins rise, times the exact orbit factor prod c_i! over the twin
    classes.  Intended for tiny instances.
    """
    return _search(g, spec, first=False)[0]
