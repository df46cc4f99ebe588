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


class ConstructionParams(namedtuple("ConstructionParams", "k m", defaults=(None,))):
    """Inputs for the bipartite construction: target edge size k and an
    optional positive divisor m of k, the size of the side_x labels."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        k, m = self
        if type(k) is not int:
            raise ConstructionError("k must be an integer")
        if k < 1:
            raise ConstructionError("k must be positive")
        if m is not None and not (type(m) is int and m >= 1 and k % m == 0):  # bool is not a divisor
            raise ConstructionError(f"m must be a positive divisor of k={k}")
        return self


def default_factor(k: int) -> int:
    """Smallest divisor 1 < m <= sqrt(k), else 1."""
    k = ConstructionParams(k).k  # the record's checks and messages
    return next((d for d in divisors_of(k) if d > 1 and d * d <= k), 1)


def construct_bipartite_strong(
    g: Graph, bp: Bipartition, params: ConstructionParams
) -> Labeling:
    """Strongly k-uniform labeling of a bipartite graph, any k >= 1.

    With n = k/m, the x-th vertex of side_x, counting x from 1, gets the
    interval {x*|Y| + t : t < m}, and the y-th vertex of side_y, counting
    y from 0, gets the progression {y + s*m : s < n}.  The sums t + s*m are
    the k distinct integers below k, so edge (x, y) is labeled by the k
    consecutive integers from x*|Y| + y: full, hence strong, and since
    y < |Y| its least element gives back (x, y).  Side_x minima are at
    least |Y| and side_y minima below it, so the vertex labels are distinct
    too.  Every element is below (|X| + 1)*|Y| + k.
    """
    if not is_valid_bipartition(g, bp):
        raise ConstructionError("bipartition is not valid for the graph")
    # the default n = k/m is at least sqrt(k), and side_y is nonempty, so
    # past MAX_ELEMENTS**2 the bound below fails: m = 1 fails it unfactored
    k, m = params
    if m is None:
        m = default_factor(k) if k <= MAX_ELEMENTS**2 else 1
    xs, ys = sorted(bp.side_x), sorted(bp.side_y)
    if m * len(xs) + k // m * len(ys) > MAX_ELEMENTS:
        raise ConstructionError(f"the labels would hold more than {MAX_ELEMENTS} elements")
    assignment = {u: SetLabel(range(x * len(ys), x * len(ys) + m)) for x, u in enumerate(xs, 1)}
    assignment.update((v, SetLabel(range(y, y + k, m))) for y, v in enumerate(ys))
    return Labeling(assignment)


def construct_weak_uniform(g: Graph, bp: Bipartition, k: int) -> Labeling:
    """Weakly k-uniform labeling: the strong construction with m = 1,
    singletons on side_x against k-element intervals on side_y."""
    return construct_bipartite_strong(g, bp, ConstructionParams(k, 1))


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
