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


def reference_analyze(g, f, k):
    """analyze_divisor_partition(g, f, k).as_dict() from the definitions:
    every edge label built with naive_sumset, components by breadth-first
    search over the edge list, each component's sizes as the set over its
    vertices, and the clique flag by testing every pair.  Raises the same
    ValueError lines: a labeling that is not strong is refused before one
    whose edges are off k."""
    labels = [list(f[v]) for v in g.vertices()]
    edge_sizes = [len(naive_sumset(labels[u], labels[v])) for u, v in g.edges]
    if any(n != len(labels[u]) * len(labels[v]) for (u, v), n in zip(g.edges, edge_sizes)):
        raise ValueError(f"labeling is not strongly {k}-uniform (adjacent labels share a difference)")
    for (u, v), n in zip(g.edges, edge_sizes):
        if n != k:
            raise ValueError(f"labeling is not strongly {k}-uniform "
                             f"(edge {u}-{v}: {len(labels[u])}*{len(labels[v])} != {k})")
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    k_is_square = any(d * d == k for d in divisors)
    classes = {str(d): [v for v, a in enumerate(labels) if len(a) == d] for d in divisors}
    edge_set = set(g.edges)
    components, seen = [], set()
    for start in g.vertices():
        if start in seen:
            continue
        seen.add(start)
        found, frontier = [start], [start]
        while frontier:
            nxt = []
            for x in frontier:
                for u, v in g.edges:
                    for a, b in ((u, v), (v, u)):
                        if a == x and b not in seen:
                            seen.add(b)
                            found.append(b)
                            nxt.append(b)
            frontier = nxt
        vs = sorted(found)
        sizes = sorted({len(labels[v]) for v in vs})
        clique = len(vs) >= 3 and all(e in edge_set for e in combinations(vs, 2))
        kind = "square-class" if all(s * s == k for s in sizes) else "bipartite-pair"
        components.append({"vertices": vs, "kind": kind, "sizes": sizes, "clique": clique})
    square = sum(c["kind"] == "square-class" for c in components)
    bipartite = len(components) - square
    bipartite_bound = (len(divisors) - 1 if k_is_square else len(divisors)) // 2
    total_bound = (len(divisors) + 1) // 2 if k_is_square else None
    return {
        "k": k,
        "k_is_square": k_is_square,
        "divisor_count": len(divisors),
        "classes": {d: vs for d, vs in classes.items() if vs},
        "components": components,
        "bipartite_component_count": bipartite,
        "square_component_count": square,
        "bipartite_bound": bipartite_bound,
        "total_bound": total_bound,
        "bipartite_bound_satisfied": bipartite <= bipartite_bound,
        "total_bound_satisfied": total_bound is None or len(components) <= total_bound,
        "clique_component_present": any(c["clique"] for c in components),
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
