"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances (zero-violation counts and runtime caps) are fixed
here, not configurable.
"""

import time
from collections import Counter
from itertools import product
from random import Random

import pytest

from iasi import (
    ConstructionParams,
    Graph,
    Labeling,
    ReductionError,
    SearchSpec,
    SetLabel,
    analyze_divisor_partition,
    bipartition_of,
    brute_force_search,
    check_weak_characterization,
    complete_bipartite_graph,
    complete_graph,
    construct_bipartite_strong,
    construct_complete_strong,
    construct_weak_uniform,
    count_labelings,
    cycle_graph,
    difference_set,
    divisors_of,
    is_sumset_maximal,
    path_graph,
    sumset,
    topological_reduce,
    verify,
)
from helpers import (
    delete_edge,
    delete_vertex,
    graphs_without_isolated,
    random_bipartite_graph,
    small_sets,
)
from test_search import unpruned_count


def report(number, description, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"PASS criterion {number}: {description}{suffix}")


def random_label(rng):
    return SetLabel(rng.sample(range(51), rng.randint(1, 8)))


def test_criterion_01_sumset_cardinality_bounds():
    t0 = time.perf_counter()
    rng = Random(0xACC1)
    violations = 0
    for _ in range(1000):
        a, b = random_label(rng), random_label(rng)
        s = len(sumset(a, b))
        if not (max(len(a), len(b)) <= s <= len(a) * len(b)):
            violations += 1
    exhaustive = [SetLabel(e) for e in small_sets(6, 3)]
    for a in exhaustive:
        for b in exhaustive:
            s = len(sumset(a, b))
            if not (max(len(a), len(b)) <= s <= len(a) * len(b)):
                violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 5.0
    report(1, "sumset size within [max(|A|,|B|), |A||B|], zero violations", elapsed)


def test_criterion_02_maximality_iff_disjoint_differences():
    t0 = time.perf_counter()
    exhaustive = [SetLabel(e) for e in small_sets(6, 3)]
    exceptions = 0
    for a in exhaustive:
        for b in exhaustive:
            full = len(sumset(a, b)) == len(a) * len(b)
            disjoint = difference_set(a).isdisjoint(difference_set(b))
            if full != disjoint or full != is_sumset_maximal(a, b):
                exceptions += 1
    elapsed = time.perf_counter() - t0
    assert exceptions == 0
    assert elapsed < 5.0
    report(2, "|A+B| = |A||B| iff difference sets disjoint, both directions", elapsed)


def test_criterion_03_bipartite_graphs_strongly_uniform_for_every_k():
    t0 = time.perf_counter()
    rng = Random(0xACC3)
    suite = [
        path_graph(2), path_graph(3), path_graph(4), path_graph(5), path_graph(6),
        cycle_graph(4), cycle_graph(6),
        complete_bipartite_graph(1, 3),
        complete_bipartite_graph(2, 3),
        complete_bipartite_graph(3, 3),
    ] + [random_bipartite_graph(rng) for _ in range(5)]
    checked = 0
    for k in range(1, 13):
        for g in suite:
            bp = bipartition_of(g)
            for m in divisors_of(k):
                f = construct_bipartite_strong(g, bp, ConstructionParams(k, m))
                r = verify(g, f)
                assert r.is_iasi and r.is_strong and r.uniform_k == k, (k, m)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"{checked} bipartite constructions strongly k-uniform, k=1..12", elapsed)


def test_criterion_04_complete_graphs_completely_uniform():
    t0 = time.perf_counter()
    for n in range(2, 9):
        for l in range(1, 5):
            f = construct_complete_strong(n, l)
            r = verify(complete_graph(n), f)
            assert r.is_iasi and r.is_strong, (n, l)
            assert r.uniform_k == l * l and r.vertex_uniform_l == l, (n, l)
            assert r.completely_uniform, (n, l)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, "K_n constructions are (l^2, l)-completely uniform, n=2..8, l=1..4", elapsed)


def test_criterion_05_nonsquare_k_nonexistent_on_odd_cycles():
    t0 = time.perf_counter()
    for g in (cycle_graph(3), cycle_graph(5)):
        for k in (2, 3, 5, 6):
            cap = min(max(divisors_of(k)), 9)
            out = brute_force_search(g, SearchSpec(8, cap, "strong", k))
            assert out.status == "exhausted-none", (g, k, out.status)
    out = brute_force_search(cycle_graph(3), SearchSpec(40, 4, "strong", 4))
    assert out.status == "found"
    r = verify(cycle_graph(3), out.witness)
    assert r.is_iasi and r.is_strong
    assert r.uniform_k == 4 and r.vertex_uniform_l == 2 and r.completely_uniform
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, "non-square k exhausted on C_3/C_5; k=4 witness (4,2)-completely uniform", elapsed)


def _strong_instances():
    rng = Random(0xACC6)
    instances = []
    graphs = [
        path_graph(4), path_graph(6), cycle_graph(4), cycle_graph(6),
        complete_bipartite_graph(2, 3), complete_bipartite_graph(3, 3),
    ]
    for k in (2, 3, 4, 6, 8, 9, 12, 15):
        for g in graphs:
            bp = bipartition_of(g)
            instances.append(
                (g, construct_bipartite_strong(g, bp, ConstructionParams(k)))
            )
    for n, l in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        instances.append((complete_graph(n), construct_complete_strong(n, l)))
    rng.shuffle(instances)
    return instances[:50]


def test_criterion_06_strength_inherited_by_subgraphs():
    t0 = time.perf_counter()
    rng = Random(0xACC7)
    instances = _strong_instances()
    assert len(instances) == 50
    exceptions = 0
    for g, f in instances:
        assert verify(g, f).is_strong
        for _ in range(10):
            if rng.random() < 0.5:
                sub = delete_edge(g, f, rng.choice(g.edges))
            else:
                sub = delete_vertex(g, f, rng.randrange(g.vertex_count))
            if sub is None:
                continue
            if not verify(*sub).is_strong:
                exceptions += 1
    elapsed = time.perf_counter() - t0
    assert exceptions == 0
    report(6, "50 strong instances x 10 random deletions stay strong, zero exceptions", elapsed)


def test_criterion_07_topological_reduction():
    g = path_graph(4)
    f = Labeling(
        {0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([30, 34]),
         3: SetLabel([100, 108])}
    )
    # difference sets {1},{2},{4},{8}: pairwise disjoint
    g1, f1 = topological_reduce(g, f, 1)
    assert verify(g1, f1).is_strong
    g2, f2 = topological_reduce(g1, f1, 1)
    assert verify(g2, f2).is_strong
    bad = Labeling(
        {0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([5, 6])}
    )
    with pytest.raises(ReductionError) as exc:
        topological_reduce(path_graph(3), bad, 1)
    assert exc.value.shared_differences == (1,)
    report(7, "P_4 reduces twice staying strong; shared-difference P_3 rejected with witness")


def test_criterion_08_prime_and_composite_k():
    for p in (2, 3, 5, 7):
        for g in (path_graph(3), complete_bipartite_graph(2, 3)):
            bp = bipartition_of(g)
            f = construct_bipartite_strong(g, bp, ConstructionParams(p, 1))
            r = verify(g, f)
            assert r.is_iasi and r.is_strong and r.uniform_k == p
            assert check_weak_characterization(g, f)
    g = path_graph(3)
    bp = bipartition_of(g)
    weak = construct_weak_uniform(g, bp, 4)
    strong = construct_bipartite_strong(g, bp, ConstructionParams(4, 2))
    assert verify(g, weak).is_weak and verify(g, weak).uniform_k == 4
    assert verify(g, strong).is_strong and verify(g, strong).uniform_k == 4
    weak_sizes = Counter(len(weak[v]) for v in range(3))
    strong_sizes = Counter(len(strong[v]) for v in range(3))
    assert weak_sizes != strong_sizes
    report(8, "prime (1,p) constructions weak and strong; k=4 weak/strong size multisets differ")


def test_criterion_09_pruned_search_matches_unpruned_enumeration():
    t0 = time.perf_counter()
    disagreements = 0
    runs = 0
    for target, k in [("any-strong", None), ("strong", 2), ("weak", 2)]:
        for n in (2, 3, 4):
            for edges in graphs_without_isolated(n):
                g = Graph(n, edges)
                spec = SearchSpec(4, 2, target, k)
                if count_labelings(g, spec) != unpruned_count(g, spec):
                    disagreements += 1
                runs += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60.0
    report(9, f"pruned vs unpruned counts agree on {runs} (graph, target) pairs", elapsed)


def test_criterion_10_divisor_partition_bounds():
    # non-square k = 6 on a two-component union: construct on each edge,
    # realizing divisor pairs (1,6) and (2,3)
    g = Graph(4, [(0, 1), (2, 3)])
    f = Labeling(
        {0: SetLabel([0]), 1: SetLabel(range(1, 7)),
         2: SetLabel([0, 100]), 3: SetLabel([0, 1, 2])}
    )
    rep = analyze_divisor_partition(g, f, 6)
    assert not rep.k_is_square
    assert rep.bipartite_component_count == 2
    assert rep.bipartite_bound == 2 and rep.bipartite_bound_satisfied
    assert not rep.clique_component_present

    g2 = Graph(4, [(0, 1), (2, 3)])
    bp = bipartition_of(g2)
    f2 = construct_bipartite_strong(g2, bp, ConstructionParams(6, 2))
    rep2 = analyze_divisor_partition(g2, f2, 6)
    assert rep2.bipartite_bound_satisfied and not rep2.clique_component_present

    # square k = 4 on K_3: one square-class component, flagged as a clique
    f3 = construct_complete_strong(3, 2)
    rep3 = analyze_divisor_partition(complete_graph(3), f3, 4)
    assert rep3.k_is_square
    assert len(rep3.components) == 1
    assert rep3.components[0].kind == "square-class"
    assert rep3.clique_component_present
    assert rep3.total_bound == 2 and rep3.total_bound_satisfied
    assert rep3.bipartite_component_count <= rep3.bipartite_bound == 1
    report(10, "divisor-class component counts within bounds; clique flagged only for square k")
