"""Exhaustive search: witnesses, nonexistence within bounds, counting, and
agreement between the pruned search and a naive unpruned enumeration."""

import tracemalloc
from itertools import combinations, product
from random import Random

import pytest

from iasi import (
    BudgetExceededError,
    Graph,
    Labeling,
    SearchSpec,
    SetLabel,
    brute_force_search,
    complete_bipartite_graph,
    complete_graph,
    count_labelings,
    cycle_graph,
    disjoint_union,
    path_graph,
    verify,
)
from iasi.search import _after
from iasi.setlabel import MAX_ELEMENTS
from helpers import distinct_pair_sum_sets, graphs_without_isolated, reference_search, small_sets


def unpruned_count(g, spec):
    """Reference count by complete enumeration over every assignment of
    candidate labels, judged with the verifier.  No pruning."""
    if spec.target == "strong":
        sizes = [s for s in range(1, spec.max_label_size + 1) if spec.k % s == 0]
    elif spec.target == "weak":
        sizes = sorted({1, spec.k} & set(range(1, spec.max_label_size + 1)))
    else:
        sizes = range(1, spec.max_label_size + 1)
    cands = [
        SetLabel(e)
        for e in small_sets(spec.universe_max, spec.max_label_size)
        if len(e) in set(sizes)
    ]
    # precomputed pairwise facts, from the verifier side of the house
    strong_ok = [[None] * len(cands) for _ in cands]
    sum_id = [[0] * len(cands) for _ in cands]
    sum_size = [[0] * len(cands) for _ in cands]
    interned = {}
    for i, a in enumerate(cands):
        for j, b in enumerate(cands):
            s = frozenset(x + y for x in a for y in b)
            sum_id[i][j] = interned.setdefault(s, len(interned))
            sum_size[i][j] = len(s)
            strong_ok[i][j] = len(s) == len(a) * len(b)
    total = 0
    n = g.vertex_count
    k = spec.k
    for idxs in product(range(len(cands)), repeat=n):
        if len(set(idxs)) < n:
            continue
        seen = set()
        ok = True
        for u, v in g.edges:
            i, j = idxs[u], idxs[v]
            if spec.target in ("any-strong", "strong") and not strong_ok[i][j]:
                ok = False
                break
            if spec.target == "strong" and sum_size[i][j] != k:
                ok = False
                break
            if spec.target == "weak" and (
                sum_size[i][j] != k
                or sum_size[i][j] != max(len(cands[i]), len(cands[j]))
            ):
                ok = False
                break
            sid = sum_id[i][j]
            if sid in seen:
                ok = False
                break
            seen.add(sid)
        if ok:
            total += 1
    return total


class TestBruteForceSearch:
    def test_k3_strong6_nonexistent(self):
        # edge products 6 on a triangle would force non-integer sizes
        out = brute_force_search(complete_graph(3), SearchSpec(8, 6, "strong", 6))
        assert out.status == "exhausted-none"
        assert out.witness is None

    def test_p2_strong4_found(self):
        out = brute_force_search(path_graph(2), SearchSpec(3, 4, "strong", 4))
        assert out.status == "found"
        r = verify(path_graph(2), out.witness)
        assert r.is_iasi and r.is_strong and r.uniform_k == 4

    def test_c5_strong2_nonexistent(self):
        out = brute_force_search(cycle_graph(5), SearchSpec(8, 2, "strong", 2))
        assert out.status == "exhausted-none"
        # an odd cycle forces every size to sqrt(k); weak needs sizes 1 and k
        # on adjacent vertices: either way no size is feasible, no label tried
        for target in ("strong", "weak"):
            for k in (2, 3, 5):
                out = brute_force_search(cycle_graph(5), SearchSpec(8, k, target, k))
                assert out.status == "exhausted-none", (target, k)
                assert out.nodes_visited == 0, (target, k)
        # also when the odd cycle is not the first component
        g = disjoint_union(path_graph(2), cycle_graph(5))
        out = brute_force_search(g, SearchSpec(8, 2, "strong", 2))
        assert (out.status, out.nodes_visited) == ("exhausted-none", 0)

    def test_found_witnesses_verify(self):
        for target, k in [("any-strong", None), ("strong", 4), ("weak", 2)]:
            out = brute_force_search(
                path_graph(3), SearchSpec(6, 4, target, k)
            )
            assert out.status == "found"
            r = verify(path_graph(3), out.witness)
            assert r.is_iasi
            if target in ("any-strong", "strong"):
                assert r.is_strong
            if target == "weak":
                assert r.is_weak
            if k is not None:
                assert r.uniform_k == k

    def test_budget_exceeded(self):
        out = brute_force_search(
            cycle_graph(5), SearchSpec(8, 2, "strong", 4, node_budget=5)
        )
        assert out.status == "budget-exceeded"
        assert out.witness is None
        assert out.nodes_visited == 6  # stops right after crossing the cap
        # K_5 has no labeling by singletons of {0..5}, and its whole tree is
        # 58 nodes on each target, so every budget below cuts it; the cut
        # always comes right after the node that crosses the budget
        g = complete_graph(5)
        assert brute_force_search(g, SearchSpec(5, 1, "any-strong")).nodes_visited == 58
        for target, k in (("strong", 1), ("weak", 1), ("any-strong", None)):
            for budget in (1, 5, 57):
                spec = SearchSpec(5, 1, target, k, node_budget=budget)
                out = brute_force_search(g, spec)
                assert (out.status, out.witness, out.nodes_visited) == (
                    "budget-exceeded", None, budget + 1
                )
                with pytest.raises(BudgetExceededError, match=f"^node budget {budget} exceeded$"):
                    count_labelings(g, spec)

    def test_full_tree_exhausted_none_node_count(self):
        # K_{2,2}, k = 9, at most 6 elements: every label has 3 elements, and
        # the whole tree over {0..5} is searched without a witness
        g = complete_bipartite_graph(2, 2)
        out = brute_force_search(g, SearchSpec(5, 6, "strong", 9))
        assert (out.status, out.nodes_visited) == ("exhausted-none", 4010)

    def test_deep_found_node_count(self):
        g = complete_bipartite_graph(3, 3)
        out = brute_force_search(g, SearchSpec(6, 7, "strong", 9))
        assert (out.status, out.nodes_visited) == ("found", 82069)
        r = verify(g, out.witness)
        assert r.is_iasi and r.is_strong and r.uniform_k == 9

    def test_k33_full_tree_exhausted_none_node_count(self):
        # every label has 3 elements; over {0..5} the whole tree holds no
        # witness (over {0..6} it ends found, test_deep_found_node_count)
        g = complete_bipartite_graph(3, 3)
        out = brute_force_search(g, SearchSpec(5, 6, "strong", 9))
        assert (out.status, out.nodes_visited) == ("exhausted-none", 24150)

    def test_deterministic(self):
        a = brute_force_search(path_graph(3), SearchSpec(5, 2, "any-strong"))
        b = brute_force_search(path_graph(3), SearchSpec(5, 2, "any-strong"))
        assert a == b


class TestWideSearches:
    """Pinned results of deeper trees and of a large universe, where an edge
    label's bitmask would be wide if it were not taken from the minimum."""

    K8_WITNESS = {
        0: [0, 1, 2, 3], 1: [0, 4, 8, 12], 2: [0, 5, 10, 15], 3: [0, 6, 13, 19],
        4: [0, 9, 18, 27], 5: [0, 11, 22, 33], 6: [0, 14, 28, 42], 7: [0, 16, 32, 48],
    }
    K40_SINGLETONS = [
        0, 1, 2, 4, 7, 12, 20, 29, 38, 52, 73, 94, 127, 151, 181, 211, 257,
        315, 373, 412, 475, 530, 545, 607, 716, 797, 861, 964, 1059, 1160,
        1306, 1385, 1434, 1555, 1721, 1833, 1933, 2057, 2260, 2496,
    ]

    def test_k8_four_element_labels(self):
        # K_8 needs 8 four-element labels with pairwise disjoint difference sets
        out = brute_force_search(complete_graph(8), SearchSpec(80, 4, "strong", 16))
        assert (out.status, out.nodes_visited) == ("found", 39336)
        assert out.witness == Labeling({v: SetLabel(e) for v, e in self.K8_WITNESS.items()})

    def test_singletons_over_a_wide_universe(self):
        # K_40 with singletons over {0..99999}: pairwise sums must differ;
        # the candidates reach 2496, and an edge's mask stays one bit wide
        out = brute_force_search(complete_graph(40), SearchSpec(99_999, 1, "any-strong"))
        assert (out.status, out.nodes_visited) == ("found", 2497)
        assert out.witness == Labeling(
            {v: SetLabel([e]) for v, e in enumerate(self.K40_SINGLETONS)}
        )

    def test_memory_does_not_grow_with_the_nodes(self):
        # the search keeps no state per node searched: the traced peak of a
        # search cut by its budget stays small at 5,000 and 150,000 nodes.
        # K_8 by singletons of {0..23} has none (its tree is 163,288 nodes),
        # so both budgets cut it
        def peak(budget):
            spec = SearchSpec(23, 1, "any-strong", node_budget=budget)
            tracemalloc.start()
            try:
                out = brute_force_search(complete_graph(8), spec)
                return out.status, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (status1, early), (status2, late) = peak(5_000), peak(150_000)
        assert status1 == status2 == "budget-exceeded"
        assert max(early, late) < 32 * 1024


class TestSpecValidation:
    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError):
            SearchSpec(-1, 1, "any-strong")
        # the universe may hold MAX_ELEMENTS elements, no more
        SearchSpec(MAX_ELEMENTS - 1, 1, "any-strong")
        with pytest.raises(ValueError):
            SearchSpec(MAX_ELEMENTS, 1, "any-strong")

    def test_rejects_oversized_labels(self):
        with pytest.raises(ValueError):
            SearchSpec(2, 5, "any-strong")

    def test_uniform_targets_need_k(self):
        with pytest.raises(ValueError):
            SearchSpec(4, 2, "strong")
        with pytest.raises(ValueError):
            SearchSpec(4, 2, "any-strong", k=3)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            SearchSpec(4, 2, "rainbow")

    def test_graph_without_edges(self):
        with pytest.raises(ValueError, match="graph has no edges"):
            brute_force_search(Graph(0, []), SearchSpec(2, 1, "any-strong"))


class TestCountLabelings:
    def test_p2_weak1(self):
        assert count_labelings(path_graph(2), SearchSpec(1, 1, "weak", 1)) == 2

    def test_impossible_k(self):
        # k exceeds (universe size)^2, so no edge can reach it
        assert count_labelings(path_graph(2), SearchSpec(3, 4, "strong", 17)) == 0

    def test_huge_k_is_not_factored(self, monkeypatch):
        # k > max_label_size**2 leaves no size pair, so divisors_of, whose
        # trial division to sqrt(10**30) would not return, is never called
        def refuse(k):
            raise AssertionError(f"divisors_of({k}) called")

        monkeypatch.setattr("iasi.search.divisors_of", refuse)
        out = brute_force_search(path_graph(2), SearchSpec(5, 2, "strong", 10**30))
        assert (out.status, out.nodes_visited) == ("exhausted-none", 0)
        assert count_labelings(path_graph(2), SearchSpec(5, 2, "strong", 10**30)) == 0

    def test_k3_any_strong_singletons(self):
        assert count_labelings(complete_graph(3), SearchSpec(2, 1, "any-strong")) == 6

    def test_budget_raises(self):
        with pytest.raises(BudgetExceededError):
            count_labelings(
                path_graph(3), SearchSpec(4, 2, "any-strong", node_budget=3)
            )

    @pytest.mark.parametrize(
        "g, spec_args, nodes, count",
        [
            pytest.param(cycle_graph(4), (5, 2, "strong", 2), 4_206, 11_920, id="c4"),
            pytest.param(path_graph(4), (4, 2, "any-strong", None), 36_690, 24_050, id="p4"),
            pytest.param(complete_bipartite_graph(1, 3), (4, 2, "weak", 2), 1_140, 4_200,
                         id="k13"),
            pytest.param(complete_bipartite_graph(2, 2), (5, 6, "strong", 9), 4_010, 0,
                         id="k22"),
            # masks of up to 35 bits on both ends, so their products take
            # several digits of a Python int; N = C(35, 2) 2-sets give
            # N + N(N − 1)/2 nodes, as the second end, a twin of the first,
            # tries only the 2-sets after the first's, and N² − Σ_{j≤34} j²
            # ordered pairs whose two differences are unequal (so the labels
            # are distinct too)
            pytest.param(path_graph(2), (34, 2, "strong", 4), 177_310, 340_340, id="p2-wide"),
        ],
    )
    def test_budget_boundary(self, g, spec_args, nodes, count):
        # every candidate counts as a node, the last vertex's included: the
        # count completes within a budget of exactly its nodes, not one less
        assert count_labelings(g, SearchSpec(*spec_args, node_budget=nodes)) == count
        with pytest.raises(BudgetExceededError, match=f"node budget {nodes - 1} exceeded"):
            count_labelings(g, SearchSpec(*spec_args, node_budget=nodes - 1))

    def test_found_iff_count_positive(self):
        spec_args = [(4, 2, "any-strong", None), (4, 2, "strong", 4), (4, 2, "weak", 2)]
        for n in (2, 3):
            for edges in graphs_without_isolated(n):
                g = Graph(n, edges)
                for u, s, target, k in spec_args:
                    spec = SearchSpec(u, s, target, k)
                    cnt = count_labelings(g, spec)
                    out = brute_force_search(g, spec)
                    assert (cnt > 0) == (out.status == "found"), (edges, target)


def canonical_first_witness(g, spec):
    """The first assignment, in candidate order per vertex (by size, then
    lexicographic), that the verifier accepts for spec's target; None if
    there is none."""
    cands = [SetLabel(e) for e in small_sets(spec.universe_max, spec.max_label_size)]
    for labels in product(cands, repeat=g.vertex_count):
        f = Labeling(dict(enumerate(labels)))
        r = verify(g, f)
        if r.is_iasi and (
            (spec.target == "any-strong" and r.is_strong)
            or (spec.target == "strong" and r.is_strong and r.uniform_k == spec.k)
            or (spec.target == "weak" and r.is_weak and r.uniform_k == spec.k)
        ):
            return f
    return None


# (universe_max, max_label_size, target, k) of the pruned-vs-unpruned checks
PRUNE_SPECS = [
    pytest.param((4, 2, "any-strong", None), id="any-strong-None"),
    pytest.param((4, 2, "strong", 2), id="strong-2"),
    pytest.param((4, 2, "weak", 2), id="weak-2"),
    pytest.param((4, 4, "strong", 4), id="strong-4"),
    pytest.param((4, 3, "weak", 3), id="weak-3"),
]


def prune_graphs():
    """Every graph on 2 or 3 vertices without isolated vertices, and one
    disjoint union, whose second component has a root of its own."""
    for n in (2, 3):
        for edges in graphs_without_isolated(n):
            yield Graph(n, edges)
    yield disjoint_union(path_graph(2), path_graph(2))


class TestPruneCorrectness:
    @pytest.mark.parametrize("spec_args", PRUNE_SPECS)
    def test_small_graphs_match_unpruned(self, spec_args):
        spec = SearchSpec(*spec_args)
        for g in prune_graphs():
            assert count_labelings(g, spec) == unpruned_count(g, spec), g.edges

    @pytest.mark.parametrize("spec_args", PRUNE_SPECS)
    def test_first_witness_is_canonical_on_prune_graphs(self, spec_args):
        spec = SearchSpec(*spec_args)
        for g in prune_graphs():
            out = brute_force_search(g, spec)
            assert out.witness == canonical_first_witness(g, spec), g.edges

    def test_first_witness_is_canonical(self):
        # the witness is the first assignment, in candidate order per vertex
        # (by size, then lexicographic), that the verifier accepts
        spec_args = [
            (4, 2, "any-strong", None), (4, 2, "strong", 2), (4, 2, "weak", 2),
            (4, 4, "strong", 4), (3, 4, "weak", 4),
        ]
        for n in (2, 3):
            for edges in graphs_without_isolated(n):
                g = Graph(n, edges)
                for u, s, target, k in spec_args:
                    cands = [SetLabel(e) for e in small_sets(u, s)]
                    first = None
                    for labels in product(cands, repeat=n):
                        r = verify(g, Labeling(dict(enumerate(labels))))
                        if r.is_iasi and (
                            (target == "any-strong" and r.is_strong)
                            or (target == "strong" and r.is_strong and r.uniform_k == k)
                            or (target == "weak" and r.is_weak and r.uniform_k == k)
                        ):
                            first = Labeling(dict(enumerate(labels)))
                            break
                    out = brute_force_search(g, SearchSpec(u, s, target, k))
                    assert out.witness == first, (edges, target, k)


class TestTwins:
    """Twins, vertices sharing their open or their closed neighbourhood,
    take rising labels, and the count is scaled by the orbit factor; the
    search agrees with the twin-free reference in tests/helpers.py."""

    def test_after_lists_the_later_subsets(self):
        for universe_max in range(6):
            universe = tuple(range(universe_max + 1))
            for size in range(1, universe_max + 2):
                every = list(combinations(universe, size))
                for i, t in enumerate(every):
                    assert list(_after(t, universe)) == every[i + 1:], t

    def test_matches_the_twin_free_reference(self):
        # random graphs on 2-6 vertices, all three targets, U 2-7, labels of
        # at most 3 elements; a case whose reference count runs past 5,000
        # nodes is not compared.  The twin tree is a subtree of the
        # reference's, so it is never larger
        rng = Random(2013)
        compared = 0
        for _ in range(150):
            n = rng.randint(2, 6)
            edges = []
            while len({v for e in edges for v in e}) < n:
                edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = Graph(n, edges)
            target = rng.choice(("any-strong", "strong", "weak"))
            k = {"any-strong": None, "strong": rng.choice((1, 2, 3, 4, 6, 9)),
                 "weak": rng.randint(1, 3)}[target]
            universe_max = rng.randint(2, 7)
            spec = SearchSpec(universe_max, rng.randint(1, 3), target, k, node_budget=5_000)
            try:
                count = reference_search(g, spec, first=False)[0]
                found, labels, nodes = reference_search(g, spec, first=True)
            except BudgetExceededError:
                continue
            compared += 1
            case = (edges, spec)
            assert count_labelings(g, spec) == count, case
            out = brute_force_search(g, spec)
            assert out.status == ("found" if found else "exhausted-none"), case
            if found:
                assert out.witness == Labeling({v: SetLabel(c) for v, c in enumerate(labels)}), case
            assert out.nodes_visited <= nodes, case
        assert compared >= 100, compared


# least U at which K_n has a labeling by singletons, for n = 3..8, and the
# first witnesses from n = 6 on
SINGLETON_CLIQUES = [
    pytest.param(3, 2, None, id="k3"),
    pytest.param(4, 4, None, id="k4"),
    pytest.param(5, 7, None, id="k5"),
    pytest.param(6, 12, (0, 1, 2, 4, 7, 12), id="k6"),
    pytest.param(7, 18, (0, 1, 2, 4, 8, 13, 18), id="k7"),
    pytest.param(8, 24, (0, 1, 2, 4, 8, 14, 19, 24), id="k8"),
]


@pytest.mark.parametrize("n, least, witness", SINGLETON_CLIQUES)
def test_singleton_cliques_match_the_set_enumeration(n, least, witness):
    # K_n by singletons is a strong set-indexer exactly when its values have
    # distinct sums over distinct pairs; the search, which cuts these trees
    # by twins, and the enumeration of such sets agree on both sides of the
    # least U
    g = complete_graph(n)
    below = brute_force_search(g, SearchSpec(least - 1, 1, "any-strong"))
    assert below.status == "exhausted-none"
    assert next(distinct_pair_sum_sets(n, least - 1), None) is None
    out = brute_force_search(g, SearchSpec(least, 1, "any-strong"))
    first = next(distinct_pair_sum_sets(n, least))
    assert out.status == "found"
    assert out.witness == Labeling({v: SetLabel([e]) for v, e in enumerate(first)})
    assert witness is None or first == witness
