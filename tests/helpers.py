"""Shared test utilities: naive oracles and small-graph generators."""

from itertools import combinations, product
from random import Random

from iasi import Graph, Labeling, SetLabel


def naive_sumset(a, b):
    """Pairwise-sum enumeration, independent of the library's sumset."""
    return sorted({x + y for x in a for y in b})


def naive_difference_set(a):
    """All positive differences, by direct pair enumeration."""
    return sorted({x - y for x in a for y in a if x > y})


def reference_verify(g, f):
    """verify(g, f).as_dict() by the plain per-edge loop: every edge label
    is built with naive_sumset and keyed into one dict, so injectivity is
    set equality of the sumsets themselves."""

    def text(elements):
        return "{" + ",".join(map(str, elements)) + "}"

    labels = [list(f[v]) for v in g.vertices()]
    violations = []
    seen = {}
    for v, a in enumerate(labels):
        first = seen.setdefault(tuple(a), v)
        if first != v:
            violations.append(("duplicate-vertex-labels",
                               f"vertices {first} and {v} share the label {text(a)}", [first, v]))
    edge_sizes = {}
    edge_labels = {}
    for u, v in g.edges:
        lab = naive_sumset(labels[u], labels[v])
        n, su, sv = len(lab), len(labels[u]), len(labels[v])
        edge_sizes[f"{u}-{v}"] = n
        pu, pv = edge_labels.setdefault(tuple(lab), (u, v))
        if (pu, pv) != (u, v):
            violations.append(("duplicate-edge-labels",
                               f"edges {pu}-{pv} and {u}-{v} share the induced label {text(lab)}",
                               [pu, pv, u, v]))
        if n != max(su, sv):
            violations.append(("weak-equality", f"edge {u}-{v}: |label| = {n} != max({su},{sv})", [u, v]))
        if n != su * sv:
            violations.append(("strong-equality", f"edge {u}-{v}: |label| = {n} != {su}*{sv}", [u, v]))
    kinds = {kind for kind, _, _ in violations}
    ks, ls = set(edge_sizes.values()), {len(a) for a in labels}
    uniform_k = ks.pop() if len(ks) == 1 else None
    vertex_uniform_l = ls.pop() if len(ls) == 1 else None
    return {
        "is_iasi": not kinds & {"duplicate-vertex-labels", "duplicate-edge-labels"},
        "is_weak": "weak-equality" not in kinds,
        "is_strong": "strong-equality" not in kinds,
        "uniform_k": uniform_k,
        "vertex_uniform_l": vertex_uniform_l,
        "completely_uniform": uniform_k is not None and vertex_uniform_l is not None,
        "edge_sizes": edge_sizes,
        "violations": [{"kind": k, "message": m, "witness": w} for k, m, w in violations],
    }


def small_sets(universe_max, max_size):
    """Every nonempty subset of {0..universe_max} with at most max_size
    elements, ordered by size then lexicographically."""
    out = []
    for size in range(1, max_size + 1):
        out.extend(combinations(range(universe_max + 1), size))
    return out


def graphs_without_isolated(n):
    """All labeled graphs on vertex set {0..n-1} with no isolated vertex,
    as edge tuples."""
    all_edges = list(combinations(range(n), 2))
    result = []
    for bits in range(1, 2 ** len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if bits >> i & 1]
        covered = {v for e in edges for v in e}
        if len(covered) == n:
            result.append(tuple(edges))
    return result


def random_bipartite_graph(rng: Random, max_vertices=12):
    """A random connected-enough bipartite graph with no isolated vertices."""
    while True:
        a = rng.randint(1, max_vertices - 1)
        b = rng.randint(1, max_vertices - a)
        cross = list(product(range(a), range(a, a + b)))
        edges = [e for e in cross if rng.random() < 0.5]
        covered = {v for e in edges for v in e}
        for v in range(a + b):
            if v not in covered:
                u = rng.randrange(a, a + b) if v < a else rng.randrange(a)
                edges.append((min(u, v), max(u, v)))
                covered.update((u, v))
        if edges:
            return Graph(a + b, set(edges))


def delete_vertex(g: Graph, f: Labeling, v: int):
    """Remove v and any vertices left isolated, compacting ids; returns the
    reduced (graph, labeling) or None if nothing remains."""
    edges = [e for e in g.edges if v not in e]
    return _compact(g, f, edges)


def delete_edge(g: Graph, f: Labeling, e):
    """Remove one edge and any vertices left isolated."""
    edges = [x for x in g.edges if x != e]
    return _compact(g, f, edges)


def _compact(g, f, edges):
    covered = sorted({v for e in edges for v in e})
    if not edges:
        return None
    remap = {old: new for new, old in enumerate(covered)}
    new_edges = [(remap[a], remap[b]) for a, b in edges]
    new_labels = Labeling({remap[old]: f[old] for old in covered})
    return Graph(len(covered), new_edges), new_labels
