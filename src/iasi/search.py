"""Exhaustive search for labelings over a bounded universe.

The search assigns candidate labels to vertices in ascending id order,
enumerating candidates by size and then lexicographically, and prunes a
branch as soon as it can no longer complete: duplicate vertex labels,
intersecting difference sets on an edge of a strong target, duplicate edge
labels, and (for uniform targets) sizes that cannot multiply out to k.
A negative answer is always scoped to the universe bound; the search never
claims nonexistence beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph
from .setlabel import SetLabel
from .verify import Labeling, divisors_of

TARGETS = ("any-strong", "strong", "weak")


class BudgetExceededError(RuntimeError):
    """Raised by count_labelings when the node budget runs out."""


@dataclass(frozen=True)
class SearchSpec:
    """Bounds and target for one exhaustive run.

    Labels are drawn from subsets of {0..universe_max} with at most
    max_label_size elements.  Targets: "any-strong" (a strong set-indexer),
    "strong" (strongly k-uniform), "weak" (weakly k-uniform); the uniform
    targets require k.
    """

    universe_max: int
    max_label_size: int
    target: str
    k: int | None = None
    node_budget: int = 10_000_000

    def __post_init__(self):
        if self.universe_max < 0:
            raise ValueError("universe_max must be non-negative")
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


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "exhausted-none" | "budget-exceeded"
    witness: Labeling | None
    nodes_visited: int

    def as_dict(self) -> dict:
        d: dict = {"status": self.status, "nodes_visited": self.nodes_visited}
        if self.witness is not None:
            d["witness"] = self.witness.as_dict()
        return d


class _Budget(Exception):
    pass


class _Searcher:
    """Shared depth-first machinery for first-witness search and counting."""

    def __init__(self, g: Graph, spec: SearchSpec):
        if not g.edges:
            raise ValueError("graph has no edges")
        self.g = g
        self.spec = spec
        self.nodes = 0
        self.universe = range(spec.universe_max + 1)
        self.sizes = self._candidate_sizes()
        # neighbors with smaller id: the edges checked when a vertex is placed
        self.back = [
            tuple(u for u in g.neighbors(v) if u < v) for v in g.vertices()
        ]

    def _candidate_sizes(self) -> list[int]:
        cap = min(self.spec.max_label_size, self.spec.universe_max + 1)
        k = self.spec.k
        if self.spec.target == "strong":
            return [d for d in divisors_of(k) if d <= cap]
        if self.spec.target == "weak":
            # every edge label must have size max(|A|,|B|) = k, which forces
            # one singleton endpoint and the other of size 1 or k
            return [s for s in ([1] if k == 1 else [1, k]) if s <= cap]
        return list(range(1, cap + 1))

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.spec.node_budget:
            raise _Budget

    def _sizes_consistent(self, size_of: list[int], v: int, s: int) -> bool:
        """Uniform-target look-ahead: with |label(v)| = s tentatively fixed,
        every later vertex must still have one feasible size from its
        already-sized neighbors."""
        k = self.spec.k
        if self.spec.target == "strong":
            if k % s != 0:
                return False
            if any(size_of[u] * s != k for u in self.back[v]):
                return False
            cap = min(self.spec.max_label_size, self.spec.universe_max + 1)
            for w in range(v + 1, self.g.vertex_count):
                need = set()
                for u in self.g.neighbors(w):
                    if u < v:
                        need.add(k // size_of[u])
                    elif u == v:
                        need.add(k // s)
                if len(need) > 1 or (need and next(iter(need)) > cap):
                    return False
            return True
        if self.spec.target == "weak" and k is not None and k > 1:
            # adjacent sizes must pair 1 with k
            for u in self.back[v]:
                if {size_of[u], s} != {1, k}:
                    return False
        return True

    def run(self, count_all: bool):
        """DFS; returns (count, witness) where witness is the first complete
        labeling found (and count is 0 or 1 unless count_all)."""
        g, spec = self.g, self.spec
        nv = g.vertex_count
        labels: list[tuple[int, ...] | None] = [None] * nv
        diffs: list[frozenset[int] | None] = [None] * nv
        edge_sums: list[frozenset[int]] = []
        used_labels: set[tuple[int, ...]] = set()
        size_of = [0] * nv
        found: list[Labeling] = []
        k = spec.k

        def place(v: int) -> int:
            if v == nv:
                if not found:
                    found.append(
                        Labeling({u: SetLabel(labels[u]) for u in range(nv)})
                    )
                return 1
            total = 0
            for s in self.sizes:
                if not self._sizes_consistent(size_of, v, s):
                    continue
                size_of[v] = s
                for cand in combinations(self.universe, s):
                    self._tick()
                    if cand in used_labels:
                        continue
                    cdiff = frozenset(
                        cand[j] - cand[i]
                        for i in range(s)
                        for j in range(i + 1, s)
                    )
                    new_sums = []
                    ok = True
                    for u in self.back[v]:
                        if spec.target in ("any-strong", "strong"):
                            if not diffs[u].isdisjoint(cdiff):
                                ok = False
                                break
                        esum = frozenset(a + b for a in labels[u] for b in cand)
                        if spec.target == "strong" and len(esum) != k:
                            ok = False
                            break
                        if spec.target == "weak" and (
                            len(esum) != k or len(esum) != max(len(labels[u]), s)
                        ):
                            ok = False
                            break
                        if esum in edge_sums or any(esum == e for e in new_sums):
                            ok = False
                            break
                        new_sums.append(esum)
                    if not ok:
                        continue
                    labels[v] = cand
                    diffs[v] = cdiff
                    used_labels.add(cand)
                    edge_sums.extend(new_sums)
                    sub = place(v + 1)
                    total += sub
                    del edge_sums[len(edge_sums) - len(new_sums):]
                    used_labels.remove(cand)
                    labels[v] = None
                    diffs[v] = None
                    if sub and not count_all:
                        return total
            return total

        count = place(0)
        return count, (found[0] if found else None)


def brute_force_search(g: Graph, spec: SearchSpec) -> SearchOutcome:
    """Find the first labeling meeting the target, or certify that none
    exists within the universe bound."""
    searcher = _Searcher(g, spec)
    try:
        count, witness = searcher.run(count_all=False)
    except _Budget:
        return SearchOutcome("budget-exceeded", None, searcher.nodes)
    if count:
        return SearchOutcome("found", witness, searcher.nodes)
    return SearchOutcome("exhausted-none", None, searcher.nodes)


def count_labelings(g: Graph, spec: SearchSpec) -> int:
    """Exact number of labelings meeting the target within the universe.

    Counts whole labelings, not equivalence classes; intended for tiny
    instances.
    """
    searcher = _Searcher(g, spec)
    try:
        count, _ = searcher.run(count_all=True)
    except _Budget:
        raise BudgetExceededError(
            f"node budget {spec.node_budget} exceeded"
        ) from None
    return count
