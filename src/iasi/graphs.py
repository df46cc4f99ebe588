"""Finite simple undirected graphs and the structural predicates we need.

Graphs are loops-free, without parallel edges, and every vertex is incident
to at least one edge.  Vertex ids are dense integers starting at 0; edge-list
files that skip an id are rejected rather than silently re-indexed, so a
labeling file prepared for the graph stays aligned with it.
"""

from __future__ import annotations

import re
from bisect import insort
from functools import cache
from itertools import chain, islice
from operator import eq, itemgetter
from typing import Iterable, NamedTuple


class GraphFormatError(ValueError):
    """Raised for malformed edge lists or invariant violations."""


Edge = tuple[int, int]


class Graph:
    """Immutable simple graph given by its vertex count and edge set."""

    __slots__ = ("vertex_count", "edges", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[Edge]):
        if type(vertex_count) is not int or vertex_count < 0:  # bool is not a count
            raise GraphFormatError("vertex count must be a non-negative integer")
        pairs: list[Edge] = []
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphFormatError("edge must be a pair of vertex ids") from None
            if type(u) is not int or type(v) is not int:  # bool is not an id
                bad = v if type(u) is int else u
                raise GraphFormatError(f"vertex ids must be integers, not {type(bad).__name__}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphFormatError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
            pairs.append((u, v) if u < v else (v, u))
        self._build(vertex_count, pairs)

    def _build(self, vertex_count: int, pairs: list[Edge]) -> "Graph":
        """Set the fields from in-range pairs (u, v), u < v, once no pair
        repeats and every id is on one.  A repeat shows as two equal
        neighbours in the sorted pairs; only then is the input scanned, for
        the first repeat in input order."""
        edges = sorted(pairs)
        if any(map(eq, edges, islice(edges, 1, None))):
            seen: set[Edge] = set()
            for e in pairs:  # the first repeat, in input order
                if e in seen:
                    raise GraphFormatError(f"duplicate edge {e[0]}-{e[1]}")
                seen.add(e)
        if vertex_count > 2 * len(edges):
            # fewer edge endpoints than ids: fail before allocating anything
            # per id, so a lone edge to a huge id costs no memory
            raise GraphFormatError(_isolated_vertices(vertex_count, edges))
        self._fill(vertex_count, tuple(edges))  # linear on sorted input
        if not all(self._adj):
            raise GraphFormatError(_isolated_vertices(vertex_count, edges))
        return self

    def _fill(self, vertex_count: int, edges: tuple[Edge, ...]) -> "Graph":
        """Set the fields from sorted edges (u, v), u < v, taken as valid."""
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", tuple(tuple(ns) for ns in adj))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def vertices(self) -> range:
        return range(self.vertex_count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {list(self.edges)})"


def _smooth(g: Graph, v: int) -> Graph:
    """g less its degree-2 vertex v, with v's non-adjacent neighbors joined and
    ids above v one lower: the shift keeps the edges sorted and valid."""
    shift = [x - (x > v) for x in range(g.vertex_count)]
    edges = [(shift[a], shift[b]) for a, b in g.edges if a != v != b]
    u, w = g.neighbors(v)  # ascending, like every adjacency tuple
    insort(edges, (shift[u], shift[w]))
    return object.__new__(Graph)._fill(g.vertex_count - 1, tuple(edges))


# Longest id an edge list, a labeling key or an integer option may spell:
# int() refuses longer decimal strings under Python's default limit.
MAX_ID_DIGITS = 4300


class _IdTooLongError(ValueError):
    """A decimal id with more than MAX_ID_DIGITS digits."""


def _clip(text: str) -> str:
    """text cut to 40 characters and '…', so an error line stays short
    whatever the input holds."""
    return text if len(text) <= 40 else text[:40] + "…"


def _id_summary(ids: Iterable[int], count: int) -> str:
    """The first ten of count ids, then how many more: a short error line."""
    first = [_clip(str(v)) for v in islice(ids, 10)]
    more = f" and {_clip(str(count - len(first)))} more" if count > len(first) else ""
    return f"[{', '.join(first)}]{more}"


def _isolated_vertices(vertex_count: int, edges: list[Edge]) -> str:
    """The error for ids on no edge."""
    touched = set(chain.from_iterable(edges))
    isolated = (v for v in range(vertex_count) if v not in touched)
    return f"isolated vertices: {_id_summary(isolated, vertex_count - len(touched))}"


def _parse_id(token: str) -> int:
    """The id a token spells in canonical decimal form, as str() writes it
    (no '+', '_', leading zero or non-ASCII digit), else ValueError."""
    if len(token) > MAX_ID_DIGITS and token.removeprefix("-").isdecimal():
        raise _IdTooLongError(f"{_clip(token)!r} is longer than {MAX_ID_DIGITS} digits")
    try:
        v = int(token)
    except ValueError:
        raise ValueError(f"{_clip(token)!r} is not an integer") from None
    if str(v) != token:
        raise ValueError(f"{_clip(token)!r} is not in canonical decimal form")
    return v


class Bipartition(NamedTuple):
    """A 2-coloring of a bipartite graph's vertex set."""

    side_x: frozenset[int]
    side_y: frozenset[int]


_CHUNK = 1 << 14  # bulk chunk: a larger one holds more tokens alive at once, raising peak memory


@cache
def _edge_lines() -> re.Pattern[str]:
    """Lines of two canonical ids between spaces or tabs (not \\d, which
    takes non-ASCII digits; a longer id is left to the per-line error),
    compiled at first use: a process that reads no edge list skips it."""
    an_id = f"(?:0|[1-9][0-9]{{0,{MAX_ID_DIGITS - 1}}})"
    return re.compile(rf"(?:[ \t]*{an_id}[ \t]+{an_id}[ \t]*(?:\n|\Z))*")


def _edges_in_bulk(text: str, edges: list[Edge]) -> int:
    """Append the (min, max) pair of each line in input order, a chunk at a
    time, while every line of a chunk is two canonical ids and none a
    self-loop; return where the first chunk that is not starts, or the
    text's end."""
    fullmatch = _edge_lines().fullmatch
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        if not fullmatch(text, pos, end):
            break
        try:
            ids = list(map(int, text[pos:end].split()))
        except ValueError:  # int() under a digit limit below MAX_ID_DIGITS
            break
        us, vs = ids[::2], ids[1::2]
        if any(map(eq, us, vs)):  # a self-loop
            break
        edges += [(u, v) if u < v else (v, u) for u, v in zip(us, vs)]
        pos = end
    return pos


def parse_edge_list(text: str) -> Graph:
    """Build a graph from edge-list text: one "u v" pair per line.

    Lines starting with '#' and blank lines are ignored.  Ids are canonical
    decimals, like labeling keys.  The vertex count is 1 + the largest id
    seen; every id below that must occur in some edge.

    Lines of two ids between spaces or tabs, each ending in a newline, are
    read in bulk; from the first chunk that holds any other line, the text
    is read line by line, which gives every line-numbered error.
    """
    edges: list[Edge] = []
    pos = _edges_in_bulk(text, edges)
    if pos < len(text):  # the rest line by line; each line before pos is one edge
        for lineno, raw in enumerate(text[pos:].splitlines(), start=len(edges) + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {_clip(line)!r}")
            try:
                u, v = _parse_id(parts[0]), _parse_id(parts[1])
            except _IdTooLongError as exc:
                raise GraphFormatError(f"line {lineno}: vertex id {exc}") from None
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex id in {_clip(line)!r}") from None
            if u > v:
                u, v = v, u
            if u < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id in {_clip(line)!r}")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop at vertex {_clip(parts[0])}")
            edges.append((u, v))
    if not edges:
        raise GraphFormatError("edge list is empty")
    return object.__new__(Graph)._build(1 + max(map(itemgetter(1), edges)), edges)


def _two_coloring(g: Graph) -> tuple[list[int], list[int], set[int]]:
    """BFS 2-coloring of each connected component from its lowest-id vertex,
    which gets color 0 and is the component's root.

    Returns each vertex's color, each vertex's root, and the roots of the
    components with an odd cycle; in those the colors are only BFS-layer
    parities and some edge joins two vertices of one color.
    """
    color = [-1] * g.vertex_count
    root = [-1] * g.vertex_count
    odd_roots: set[int] = set()
    for start in g.vertices():
        if color[start] != -1:
            continue
        color[start] = 0
        root[start] = start
        queue = [start]
        for u in queue:  # FIFO: the loop reaches what it appends
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    root[w] = start
                    queue.append(w)
                elif color[w] == color[u]:
                    odd_roots.add(start)
    return color, root, odd_roots


def bipartition_of(g: Graph) -> Bipartition | None:
    """Return a valid bipartition, or None if the graph has an odd cycle.

    Deterministic: in each connected component, the lowest-id vertex goes
    to side_x.
    """
    color, _, odd_roots = _two_coloring(g)
    if odd_roots:
        return None
    side_x = frozenset(v for v in g.vertices() if color[v] == 0)
    side_y = frozenset(v for v in g.vertices() if color[v] == 1)
    return Bipartition(side_x, side_y)


def is_valid_bipartition(g: Graph, bp: Bipartition) -> bool:
    """True iff bp partitions V(g) and every edge crosses the sides."""
    if bp.side_x & bp.side_y:
        return False
    if bp.side_x | bp.side_y != frozenset(g.vertices()):
        return False
    return all((u in bp.side_x) != (v in bp.side_x) for u, v in g.edges)


def _components(g: Graph) -> list[list[int]]:
    """Each connected component's vertices in ascending order, the
    components by ascending minimum vertex id."""
    _, root, _ = _two_coloring(g)
    members: dict[int, list[int]] = {}
    for v, r in enumerate(root):
        # a root is its component's lowest id, so components appear in
        # ascending order of their minimum
        members.setdefault(r, []).append(v)
    return list(members.values())


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Partition the vertex set into maximal connected pieces.

    Components are listed by ascending minimum vertex id.
    """
    return [frozenset(vs) for vs in _components(g)]


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    """True iff every pair of the given vertices is an edge of g; costs the
    degree sum of the given vertices."""
    given = list(vertices)  # checked before the set can merge True into 1
    for v in given:
        if type(v) is not int:  # bool is not an id
            raise ValueError(f"vertex ids must be integers, not {type(v).__name__}")
        if not (0 <= v < g.vertex_count):
            raise ValueError(f"vertex {v} out of range")
    vs = set(given)
    return all(len(vs.intersection(g.neighbors(v))) == len(vs) - 1 for v in vs)


# The generators below list valid, sorted edges with no isolated vertex,
# so they fill their graphs without the checks of Graph(), once their
# counts pass its type rule.


def _require_counts(*counts) -> None:
    for c in counts:
        if type(c) is not int:  # bool is not a count
            raise ValueError(f"vertex counts must be integers, not {type(c).__name__}")


def complete_graph(n: int) -> Graph:
    """K_n for n >= 2."""
    _require_counts(n)
    if n < 2:
        raise ValueError("a complete graph needs at least 2 vertices here (no isolated vertices)")
    return object.__new__(Graph)._fill(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> Graph:
    """P_n: the path on n >= 2 vertices 0-1-...-(n-1)."""
    _require_counts(n)
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return object.__new__(Graph)._fill(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """C_n: the cycle on n >= 3 vertices."""
    _require_counts(n)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return object.__new__(Graph)._fill(n, ((0, 1), (0, n - 1), *((i, i + 1) for i in range(1, n - 1))))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b} with side {0..a-1} against {a..a+b-1}."""
    _require_counts(a, b)
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    return object.__new__(Graph)._fill(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertex ids are shifted past g's."""
    off = g.vertex_count
    shifted = ((u + off, v + off) for u, v in h.edges)
    return object.__new__(Graph)._fill(off + h.vertex_count, (*g.edges, *shifted))
