"""Constructors that realize the existence theorems.

Three label families are produced here:

* strongly k-uniform labelings of bipartite graphs, interval labels on one
  side against arithmetic progressions on the other;
* weakly k-uniform labelings of bipartite graphs: the first family with
  m = 1, singletons against k-element intervals, since an edge with a
  singleton endpoint is both weak and strong;
* strong, completely uniform labelings of complete graphs, one arithmetic
  progression per vertex with closed-form gaps and offsets.

All constructors are deterministic: identical inputs give identical labels.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import Graph, Bipartition, _id_summary, is_valid_bipartition
from .setlabel import MAX_ELEMENTS, SetLabel, difference_set
from .verify import Labeling, _edge_pass, divisors_of


class ConstructionError(ValueError):
    """Raised when a constructor's preconditions fail."""


class ReductionError(ValueError):
    """Raised when a degree-2 reduction is undefined or breaks strength."""

    def __init__(self, message: str, shared_differences: tuple[int, ...] = ()):
        super().__init__(message)
        self.shared_differences = shared_differences


class FactorPair(namedtuple("FactorPair", "m n")):
    """Positive factors of k = m*n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(type(x) is int and x >= 1 for x in self):  # bool is not a factor
            raise ConstructionError("factors must be positive integers")
        return self


class ConstructionParams(namedtuple("ConstructionParams", "k factors", defaults=(None,))):
    """Inputs for the bipartite construction: target edge size k and an
    optional FactorPair with k = m*n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if type(self.k) is not int:
            raise ConstructionError("k must be an integer")
        if self.k < 1:
            raise ConstructionError("k must be positive")
        if self.factors is not None and not isinstance(self.factors, FactorPair):
            raise ConstructionError("factors must be a FactorPair")
        if self.factors is not None and self.factors.m * self.factors.n != self.k:
            raise ConstructionError(
                f"factors {self.factors.m}*{self.factors.n} != k={self.k}"
            )
        return self


def default_factor_pair(k: int) -> FactorPair:
    """Smallest divisor 1 < m <= sqrt(k), else 1, paired with n = k/m."""
    if type(k) is not int:  # bool is not a size
        raise ConstructionError("k must be an integer")
    if k < 1:
        raise ConstructionError("k must be positive")
    m = next((d for d in divisors_of(k) if d > 1 and d * d <= k), 1)
    return FactorPair(m, k // m)


def construct_bipartite_strong(
    g: Graph, bp: Bipartition, params: ConstructionParams
) -> Labeling:
    """Strongly k-uniform labeling of a bipartite graph, any k >= 1.

    With k = m*n, the x-th vertex of side_x gets the m consecutive integers
    starting at x*S, and the y-th vertex of side_y gets the n-term
    progression {y, y+m, ..., y+(n-1)m}.  Differences on the two sides
    (below m versus multiples of m) never collide, so every edge label has
    the full size m*n, and the stride S keeps all vertex labels and all
    edge labels pairwise distinct.
    """
    if not is_valid_bipartition(g, bp):
        raise ConstructionError("bipartition is not valid for the graph")
    # the default n = k/m is at least sqrt(k), and side_y is nonempty, so
    # past MAX_ELEMENTS**2 the bound below fails: (1, k) fails it unfactored
    k = params.k
    pair = params.factors or (default_factor_pair(k) if k <= MAX_ELEMENTS**2 else FactorPair(1, k))
    m, n = pair.m, pair.n
    if m * len(bp.side_x) + n * len(bp.side_y) > MAX_ELEMENTS:
        raise ConstructionError(f"the labels would hold more than {MAX_ELEMENTS} elements")
    ys = sorted(bp.side_y)
    stride = m + n * m * len(ys)
    # m = n = 1 makes the x=0 and y=0 labels both {0}; shifting the
    # singleton side one stride up restores injectivity.
    base = stride if m == 1 and n == 1 else 0
    assignment: dict[int, SetLabel] = {}
    for x, u in enumerate(sorted(bp.side_x)):
        assignment[u] = SetLabel(base + x * stride + t for t in range(m))
    for y, v in enumerate(ys):
        assignment[v] = SetLabel(y + s * m for s in range(n))
    return Labeling(assignment)


def construct_weak_uniform(g: Graph, bp: Bipartition, k: int) -> Labeling:
    """Weakly k-uniform labeling: the strong construction with k = 1*k,
    singletons on side_x against k-element intervals on side_y."""
    # the record refuses a bad k before FactorPair can misname it a factor
    return construct_bipartite_strong(g, bp, ConstructionParams(k)._replace(factors=FactorPair(1, k)))


def construct_complete_strong(num_vertices: int, l: int) -> Labeling:
    """Strong (l*l, l)-completely uniform labeling of K_n.

    Vertex i gets {o_i + t*g_i : 0 <= t < l}, with gap g_i = n*l + i and
    offset o_i = 2*n*n*i + i*i, so every element is below 2n^3 + l^2*n.

    Strong, every edge of size l*l: each g_i lies in [G, G + G/l) with
    G = n*l.  Take 0 < s, t < l.  If t > s, then t*g_i >= (s+1)*G > s*g_j,
    so t*g_i = s*g_j forces t = s and i = j: the difference sets are
    pairwise disjoint.

    A set-indexer: an edge label's least element, o_i + o_j =
    2n^2(i + j) + (i^2 + j^2) with i^2 + j^2 < 2n^2, gives back i + j and
    i^2 + j^2, and so the pair {i, j}: the edge-label minima are distinct.
    The o_i are distinct too, so the vertex labels are, also for l = 1.
    """
    if type(num_vertices) is not int or type(l) is not int:  # bool is not a size
        raise ConstructionError("the vertex count and l must be integers")
    if num_vertices < 2:
        raise ConstructionError("K_n needs at least two vertices (no isolated vertices)")
    if l < 1:
        raise ConstructionError("l must be positive")
    if num_vertices * l > MAX_ELEMENTS:
        raise ConstructionError(f"the labels would hold more than {MAX_ELEMENTS} elements")
    n = num_vertices
    assignment = {
        i: SetLabel(2 * n * n * i + i * i + t * (n * l + i) for t in range(l))
        for i in range(n)
    }
    return Labeling(assignment)


def topological_reduce(g: Graph, f: Labeling, v: int) -> tuple[Graph, Labeling]:
    """Remove a degree-2 vertex v and join its neighbors by a new edge.

    Requires the input to carry a strong set-indexer, v's neighbors u and w
    to be non-adjacent, and their difference sets to be disjoint; then the
    new edge keeps the product property and the result is strong again.
    Vertex ids above v are shifted down by one in both the returned graph
    and labeling.
    """
    if type(v) is not int:  # bool is not a vertex id
        raise ReductionError("vertex must be an integer")
    if not (0 <= v < g.vertex_count):
        raise ReductionError(f"vertex {v} out of range")
    if g.degree(v) != 2:
        raise ReductionError(f"vertex {v} has degree {g.degree(v)}, need degree 2")
    u, w = g.neighbors(v)
    if g.has_edge(u, w):
        raise ReductionError(f"neighbors {u} and {w} are adjacent; reduction undefined")
    # one pass over the old edges and then the new one: the old edges must
    # be strong with distinct labels, and the new one strong with a label no
    # old edge carries (an edge at v cannot: strong sums cancel, see setlabel)
    new = len(g.edges)
    _, _, not_strong, firsts = _edge_pass(g, f, (*g.edges, (u, w)))
    if not_strong and not_strong[0] != new:
        raise ReductionError("labeling is not strong")
    if len(set(f.assignment.values())) < len(f) or any(i != new for i in firsts):
        raise ReductionError("labeling is not a set-indexer")
    if not_strong:
        # the larger label's difference set costs |large|^2; past |small|^2
        # elements it is cheaper to test each difference d of the smaller
        # label against the larger one's members, at |small|^2 * |large|
        small, large = sorted((f[u], f[w]), key=len)
        if len(large) <= len(small) ** 2:
            shared = difference_set(small) & difference_set(large)
        else:
            members = set(large.elements)
            shared = [d for d in difference_set(small) if any(x + d in members for x in large.elements)]
        shared = sorted(shared)
        raise ReductionError(
            f"difference sets of {u} and {w} share {_id_summary(shared, len(shared))}",
            shared_differences=tuple(shared),
        )
    if new in firsts:
        a, b = firsts[new][0]
        raise ReductionError(
            f"new edge {u}-{w} would duplicate the label of edge {a}-{b}"
        )

    def remap(x: int) -> int:
        return x if x < v else x - 1

    edges = [(remap(a), remap(b)) for a, b in g.edges if v not in (a, b)]
    edges.append((remap(u), remap(w)))
    reduced = Graph(g.vertex_count - 1, edges)
    labels = Labeling(
        {remap(x): f[x] for x in g.vertices() if x != v}
    )
    return reduced, labels
