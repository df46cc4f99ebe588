"""Correctness oracle, independent of ``iasi.verify`` and ``iasi.search``.

Labels are plain ``{vertex: tuple of ints}`` dicts and edges plain pairs;
every rule is checked from the definitions: distinct vertex labels,
distinct edge sumsets, and the size rule of the target.  Search statuses
are compared with pinned values.  Each pinned ``exhausted-none`` is backed
by the odd-cycle theorem: a strongly k-uniform labeling makes the label
sizes alternate d and k/d along every path, so an odd cycle forces d = k/d
and a graph with an odd cycle has none when k is not a square.  Counts are
compared with ``unpruned_count``, an enumeration of every assignment.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, product

PINNED_STATUS = {
    "c5-k2": "exhausted-none",
    "c5-k3": "exhausted-none",
    "c5-k5": "exhausted-none",
    "c5-k4-u12": "found",
    "c3-k4-u40": "found",
    "k4-k9-u30": "found",
    "p600-any": "found",
}


def sumset(a, b) -> frozenset:
    return frozenset(x + y for x in a for y in b)


def is_square(k: int) -> bool:
    return math.isqrt(k) ** 2 == k


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def components(n: int, edges) -> list[list[int]]:
    adj = adjacency(n, edges)
    seen, comps = [False] * n, []
    for s in range(n):
        if seen[s]:
            continue
        seen[s], stack, comp = True, [s], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_bipartite(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    color = [-1] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s], stack = 0, [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def from_json_dict(d: dict) -> dict:
    return {int(v): tuple(lab) for v, lab in d.items()}


def check_labeling(n, edges, labels, kind, k=None, l=None, universe=None, max_size=None) -> list[str]:
    """Problems with ``labels`` as a labeling of kind ``strong`` (strongly
    k-uniform), ``weak`` (weakly k-uniform), ``any-strong`` or ``complete``
    (strong, every vertex of size l, every edge of size k)."""
    if set(labels) != set(range(n)):
        return [f"labeling covers {len(labels)} ids, graph has {n} vertices"]
    problems = []
    for v, lab in labels.items():
        if not lab or list(lab) != sorted(set(lab)) or lab[0] < 0:
            problems.append(f"vertex {v}: label {lab} is not a strictly ascending non-negative set")
        elif universe is not None and lab[-1] > universe:
            problems.append(f"vertex {v}: label {lab} leaves the universe 0..{universe}")
        elif max_size is not None and len(lab) > max_size:
            problems.append(f"vertex {v}: label {lab} exceeds size {max_size}")
        elif l is not None and len(lab) != l:
            problems.append(f"vertex {v}: label size {len(lab)} != {l}")
    if len(set(labels.values())) != n:
        problems.append("vertex labels are not distinct")
    sums = set()
    for u, v in edges:
        a, b = labels[u], labels[v]
        s = sumset(a, b)
        if s in sums:
            problems.append(f"edge {u}-{v} repeats an edge label")
        sums.add(s)
        strong = len(s) == len(a) * len(b)
        if kind in ("strong", "complete", "any-strong") and not strong:
            problems.append(f"edge {u}-{v}: |A+B| = {len(s)} != {len(a)}*{len(b)}")
        if kind == "weak" and len(s) != max(len(a), len(b)):
            problems.append(f"edge {u}-{v}: |A+B| = {len(s)} != max({len(a)},{len(b)})")
        if k is not None and len(s) != k:
            problems.append(f"edge {u}-{v}: |A+B| = {len(s)} != k = {k}")
        if len(problems) > 5:
            break
    return problems[:5]


def check_search(name, status, witness, n, edges, spec_args) -> list[str]:
    """Compare a search result with its pinned status; check any witness."""
    universe, max_size, target, k = spec_args
    pinned = PINNED_STATUS[name]
    if status != pinned:
        return [f"status {status} != pinned {pinned}"]
    if pinned == "exhausted-none":
        if is_bipartite(n, edges) or is_square(k):
            return ["pinned exhausted-none is not backed by the odd-cycle theorem"]
        return [] if witness is None else ["exhausted-none came with a witness"]
    if witness is None:
        return ["found without a witness"]
    return check_labeling(n, edges, witness, target, k=k, universe=universe, max_size=max_size)


def classify(n, edges, labels) -> dict:
    """The verification flags, edge sizes and per-kind size-rule counts."""
    sizes, sums, dup_edges = {}, set(), 0
    weak_fail = strong_fail = 0
    for u, v in edges:
        a, b = labels[u], labels[v]
        s = sumset(a, b)
        dup_edges += s in sums
        sums.add(s)
        sizes[(min(u, v), max(u, v))] = len(s)
        weak_fail += len(s) != max(len(a), len(b))
        strong_fail += len(s) != len(a) * len(b)
    ks = set(sizes.values())
    ls = {len(labels[v]) for v in range(n)}
    uniform_k = next(iter(ks)) if len(ks) == 1 else None
    vertex_l = next(iter(ls)) if len(ls) == 1 else None
    return {
        "is_iasi": dup_edges == 0 and len(set(labels.values())) == n,
        "is_weak": weak_fail == 0,
        "is_strong": strong_fail == 0,
        "uniform_k": uniform_k,
        "vertex_uniform_l": vertex_l,
        "completely_uniform": uniform_k is not None and vertex_l is not None,
        "edge_sizes": {f"{u}-{v}": s for (u, v), s in sizes.items()},
        "weak-equality": weak_fail,
        "strong-equality": strong_fail,
    }


def check_report_dict(report: dict, n, edges, labels) -> list[str]:
    """Compare a verification report (as JSON data) with ``classify``."""
    want = classify(n, edges, labels)
    got_kinds = Counter(viol["kind"] for viol in report["violations"])
    problems = []
    for key, value in want.items():
        got = got_kinds[key] if key.endswith("-equality") else report.get(key)
        if got != value:
            problems.append(f"report {key}: {str(got)[:60]} != {str(value)[:60]}")
    return problems


def check_report(report, n, edges, labels) -> list[str]:
    return check_report_dict(report.as_dict(), n, edges, labels)


def check_partition(report: dict, edges, labels: dict, k: int) -> list[str]:
    """Compare an ``analyze`` report (as JSON data) with its definition."""
    n = len(labels)
    comps = components(n, edges)
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    root = math.isqrt(k)
    divisors = [d for d in range(1, k + 1) if k % d == 0]
    want_comps = []
    for comp in comps:
        sizes = sorted({len(labels[v]) for v in comp})
        square = len(sizes) == 1 and is_square(k) and sizes[0] == root
        clique = len(comp) >= 3 and all((a, b) in edge_set for a, b in combinations(comp, 2))
        want_comps.append(
            {"vertices": comp, "kind": "square-class" if square else "bipartite-pair", "sizes": sizes, "clique": clique}
        )
    bip = sum(c["kind"] == "bipartite-pair" for c in want_comps)
    nd = len(divisors)
    classes = {}
    for v in range(n):
        classes.setdefault(len(labels[v]), []).append(v)
    want = {
        "k": k,
        "k_is_square": is_square(k),
        "divisor_count": nd,
        "classes": {str(d): classes[d] for d in divisors if d in classes},
        "components": want_comps,
        "bipartite_component_count": bip,
        "square_component_count": len(comps) - bip,
        "bipartite_bound": (nd - 1) // 2 if is_square(k) else nd // 2,
        "total_bound": (nd + 1) // 2 if is_square(k) else None,
        "clique_component_present": any(c["clique"] for c in want_comps),
    }
    want["bipartite_bound_satisfied"] = bip <= want["bipartite_bound"]
    want["total_bound_satisfied"] = want["total_bound"] is None or len(comps) <= want["total_bound"]
    return [f"analyze {key} differs" for key, value in want.items() if report.get(key) != value]


def same_edges(vertex_count, edge_list, n, edges) -> list[str]:
    got = {tuple(sorted(e)) for e in edge_list}
    want = {(min(u, v), max(u, v)) for u, v in edges}
    if vertex_count != n or got != want or len(edge_list) != len(want):
        return [f"graph has {vertex_count} vertices / {len(edge_list)} edges, want {n} / {len(want)} as generated"]
    return []


def same_graph(g, n, edges) -> list[str]:
    return same_edges(g.vertex_count, g.edges, n, edges)


def check_reduction(vertex_count, edge_list, labels, edges, labels0, removals) -> list[str]:
    """Compare the result of degree-2 reductions with the same reductions
    applied to plain data (remove v, join its two neighbors, shift ids
    above v down by one), and check that it is still strongly 4-uniform."""
    edges = [tuple(e) for e in edges]
    want = {v: tuple(lab) for v, lab in labels0.items()}
    for v in removals:
        nbrs = [b if a == v else a for a, b in edges if v in (a, b)]
        edges = [e for e in edges if v not in e] + [tuple(nbrs)]

        def shift(x, v=v):
            return x - (x > v)

        edges = [(shift(a), shift(b)) for a, b in edges]
        want = {shift(x): lab for x, lab in want.items() if x != v}
    problems = same_edges(vertex_count, edge_list, len(want), edges)
    if labels != want:
        problems.append("reduced labels differ from the expected relabeling")
    return problems + check_labeling(len(want), edges, labels, "strong", k=4)


def unpruned_count(n, edges, spec_args) -> int:
    """Labelings meeting the target, by enumerating every assignment of
    candidate labels with pair tables and no pruning."""
    universe, max_size, target, k = spec_args
    if target == "strong":
        sizes = {s for s in range(1, max_size + 1) if k % s == 0}
    elif target == "weak":
        sizes = {1, k} & set(range(1, max_size + 1))
    else:
        sizes = set(range(1, max_size + 1))
    cands = [c for s in sorted(sizes) for c in combinations(range(universe + 1), s)]
    interned, pair = {}, {}
    for i, a in enumerate(cands):
        for j, b in enumerate(cands):
            s = sumset(a, b)
            ok = len(s) == len(a) * len(b) if target != "weak" else len(s) == max(len(a), len(b))
            ok = ok and (k is None or len(s) == k)
            pair[i, j] = interned.setdefault(s, len(interned)) if ok else None
    total = 0
    for idxs in product(range(len(cands)), repeat=n):
        if len(set(idxs)) < n:
            continue
        seen = set()
        for u, v in edges:
            sid = pair[idxs[u], idxs[v]]
            if sid is None or sid in seen:
                break
            seen.add(sid)
        else:
            total += 1
    return total
