"""Constructors: bipartite strong, complete-graph strong, weak uniform,
and degree-2 reductions.  Every output is certified by the verifier."""

import importlib
from collections import Counter
from random import Random

import pytest

from iasi import (
    ConstructionError,
    ConstructionParams,
    Graph,
    Labeling,
    ReductionError,
    SetLabel,
    bipartition_of,
    check_weak_characterization,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    construct_bipartite_strong,
    construct_complete_strong,
    construct_weak_uniform,
    cycle_graph,
    default_factor,
    difference_set,
    divisors_of,
    path_graph,
    sumset,
    topological_reduce,
    verify,
)
from helpers import random_bipartite_graph

construct_module = importlib.import_module("iasi.construct")


def bipartite_suite():
    rng = Random(0x51D0)
    graphs = [
        path_graph(2), path_graph(3), path_graph(4), path_graph(5), path_graph(6),
        cycle_graph(4), cycle_graph(6),
        complete_bipartite_graph(1, 3),
        complete_bipartite_graph(2, 3),
        complete_bipartite_graph(3, 3),
    ]
    graphs.extend(random_bipartite_graph(rng) for _ in range(5))
    return graphs


class TestBipartiteStrong:
    def test_p2_k4(self):
        g = path_graph(2)
        f = construct_bipartite_strong(g, bipartition_of(g), ConstructionParams(4, 2))
        assert f[0] == SetLabel([1, 2])
        assert f[1] == SetLabel([0, 2])
        assert sumset(f[0], f[1]) == SetLabel([1, 2, 3, 4])

    def test_star_k4(self):
        g = Graph(3, [(0, 1), (0, 2)])
        f = construct_bipartite_strong(g, bipartition_of(g), ConstructionParams(4, 2))
        assert f[0] == SetLabel([2, 3])
        assert f[1] == SetLabel([0, 2])
        assert f[2] == SetLabel([1, 3])
        assert sumset(f[0], f[1]) == SetLabel([2, 3, 4, 5])
        assert sumset(f[0], f[2]) == SetLabel([3, 4, 5, 6])

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_k_is_also_weak(self, p):
        g = complete_bipartite_graph(2, 3)
        f = construct_bipartite_strong(g, bipartition_of(g), ConstructionParams(p, 1))
        r = verify(g, f)
        assert r.is_iasi and r.is_strong and r.uniform_k == p
        assert check_weak_characterization(g, f)
        assert r.is_weak

    @pytest.mark.parametrize("k", range(1, 13))
    def test_every_k_and_factorization_on_the_suite(self, k):
        for g in bipartite_suite():
            bp = bipartition_of(g)
            for m in divisors_of(k):
                f = construct_bipartite_strong(g, bp, ConstructionParams(k, m))
                r = verify(g, f)
                assert r.is_iasi, (k, m, g)
                assert r.is_strong, (k, m, g)
                assert r.uniform_k == k, (k, m, g)

    def test_every_edge_label_is_an_interval(self):
        # edge (x, y), x counted from 1 in sorted side_x and y from 0 in
        # sorted side_y, is labeled by the k integers from x*|Y| + y
        for g in bipartite_suite():
            bp = bipartition_of(g)
            xs = {u: x for x, u in enumerate(sorted(bp.side_x), 1)}
            ys = {v: y for y, v in enumerate(sorted(bp.side_y))}
            for k in range(1, 25):
                for m in divisors_of(k):
                    f = construct_bipartite_strong(g, bp, ConstructionParams(k, m))
                    for a, b in g.edges:
                        u, v = (a, b) if a in xs else (b, a)
                        start = xs[u] * len(ys) + ys[v]
                        assert sumset(f[u], f[v]) == SetLabel(range(start, start + k)), (k, m, g)
                    top = max(e for v in g.vertices() for e in f[v])
                    assert top < (len(xs) + 1) * len(ys) + k, (k, m, g)

    def test_rejects_invalid_bipartition(self):
        g = path_graph(3)
        bad = bipartition_of(path_graph(2))
        with pytest.raises(ConstructionError):
            construct_bipartite_strong(g, bad, ConstructionParams(4))

    def test_rejects_k_zero(self):
        with pytest.raises(ConstructionError, match="k must be positive"):
            ConstructionParams(0)
        g = path_graph(2)
        with pytest.raises(ConstructionError, match="k must be positive"):
            construct_weak_uniform(g, bipartition_of(g), 0)
        with pytest.raises(ConstructionError, match="k must be positive"):
            default_factor(0)

    @pytest.mark.parametrize("k", ["3", None, 2.0, True])
    def test_rejects_k_that_is_not_an_int(self, k):
        # not a TypeError, nor the m message for an m the caller never gave
        g = path_graph(2)
        with pytest.raises(ConstructionError, match="^k must be an integer$"):
            construct_weak_uniform(g, bipartition_of(g), k)
        with pytest.raises(ConstructionError, match="^k must be an integer$"):
            default_factor(k)

    def test_huge_k_fails_the_element_bound_unfactored(self, monkeypatch):
        # the default n = k/m >= sqrt(k) > MAX_ELEMENTS, so the bound fails
        # before divisors_of, whose trial division would not return
        def refuse(k):
            raise AssertionError(f"divisors_of({k}) called")

        monkeypatch.setattr("iasi.construct.divisors_of", refuse)
        g = path_graph(2)
        with pytest.raises(ConstructionError, match="more than 1000000 elements"):
            construct_bipartite_strong(g, bipartition_of(g), ConstructionParams(10**30))

    def test_rejects_mismatched_factors(self):
        with pytest.raises(ConstructionError, match="^m must be a positive divisor of k=6$"):
            ConstructionParams(6, 4)
        with pytest.raises(ConstructionError, match="^m must be a positive divisor of k=6$"):
            ConstructionParams(6, 0)

    def test_deterministic(self):
        g = complete_bipartite_graph(3, 3)
        bp = bipartition_of(g)
        a = construct_bipartite_strong(g, bp, ConstructionParams(6))
        b = construct_bipartite_strong(g, bp, ConstructionParams(6))
        assert a == b and a.to_json() == b.to_json()


class TestDefaultFactor:
    def test_prime(self):
        assert default_factor(7) == 1

    def test_composite_prefers_smallest_nontrivial_divisor(self):
        assert default_factor(12) == 2
        assert default_factor(9) == 3


class TestCompleteStrong:
    def test_n3_l2_difference_bands(self):
        f = construct_complete_strong(3, 2)
        assert [sorted(difference_set(f[i])) for i in range(3)] == [[6], [7], [8]]
        r = verify(complete_graph(3), f)
        assert r.is_iasi and r.is_strong
        assert r.uniform_k == 4 and r.vertex_uniform_l == 2
        assert r.completely_uniform

    def test_n2_l1_distinct_singletons(self):
        f = construct_complete_strong(2, 1)
        assert len(f[0]) == len(f[1]) == 1
        assert f[0] != f[1]
        r = verify(complete_graph(2), f)
        assert r.is_iasi and r.uniform_k == 1

    def test_n4_l3(self):
        f = construct_complete_strong(4, 3)
        r = verify(complete_graph(4), f)
        assert r.is_iasi and r.is_strong
        assert r.uniform_k == 9 and r.vertex_uniform_l == 3
        assert len(r.edge_sizes) == 6

    @pytest.mark.parametrize("n", range(2, 40))
    @pytest.mark.parametrize("l", range(1, 6))
    def test_full_range(self, n, l):
        f = construct_complete_strong(n, l)
        r = verify(complete_graph(n), f)
        assert r.is_iasi and r.is_strong and r.completely_uniform
        assert r.uniform_k == l * l
        assert r.vertex_uniform_l == l

    def test_k150_l3(self):
        f = construct_complete_strong(150, 3)
        r = verify(complete_graph(150), f)
        assert r.is_iasi and r.is_strong and r.completely_uniform
        assert r.uniform_k == 9 and r.vertex_uniform_l == 3

    def test_k1000_l3_without_verify(self):
        # the three facts the strong set-indexer rests on, checked directly:
        # a full verify of K_1000 takes seconds
        n, l = 1000, 3
        f = construct_complete_strong(n, l)
        assert all(len(f[i]) == l for i in range(n))
        assert max(f[i].elements[-1] for i in range(n)) < 2 * n**3 + l * l * n
        offsets = [f[i].elements[0] for i in range(n)]
        pair_sums = {offsets[i] + offsets[j] for i in range(n) for j in range(i + 1, n)}
        assert len(pair_sums) == n * (n - 1) // 2
        differences = [difference_set(f[i]) for i in range(n)]
        assert len(set().union(*differences)) == sum(map(len, differences)) == n * (l - 1)

    def test_rejects_bad_args(self):
        with pytest.raises(ConstructionError):
            construct_complete_strong(0, 2)
        with pytest.raises(ConstructionError):
            construct_complete_strong(1, 2)  # K_1 has an isolated vertex
        with pytest.raises(ConstructionError):
            construct_complete_strong(3, 0)
        # sizes are ints, as in the records: a float or a bool is refused
        for args in ((3, 2.0), (3.0, 2), (3, True)):
            with pytest.raises(ConstructionError, match="must be integers"):
                construct_complete_strong(*args)


class TestWeakUniform:
    def test_p2_k3(self):
        g = path_graph(2)
        f = construct_weak_uniform(g, bipartition_of(g), 3)
        assert f[0] == SetLabel([1])
        assert f[1] == SetLabel([0, 1, 2])
        assert sumset(f[0], f[1]) == SetLabel([1, 2, 3])

    def test_c4_k2_alternating_sizes(self):
        g = cycle_graph(4)
        f = construct_weak_uniform(g, bipartition_of(g), 2)
        r = verify(g, f)
        assert r.is_iasi and r.is_weak and r.uniform_k == 2
        assert [len(f[v]) for v in range(4)] == [1, 2, 1, 2]

    def test_weak_and_strong_differ_for_composite_k(self):
        g = path_graph(3)
        bp = bipartition_of(g)
        weak = construct_weak_uniform(g, bp, 4)
        strong = construct_bipartite_strong(g, bp, ConstructionParams(4, 2))
        weak_sizes = Counter(len(weak[v]) for v in range(3))
        strong_sizes = Counter(len(strong[v]) for v in range(3))
        assert weak_sizes == Counter({1: 2, 4: 1})
        assert strong_sizes == Counter({2: 3})
        assert weak_sizes != strong_sizes

    @pytest.mark.parametrize("k", range(1, 9))
    def test_characterization_holds(self, k):
        for g in [path_graph(4), cycle_graph(6), complete_bipartite_graph(2, 3)]:
            f = construct_weak_uniform(g, bipartition_of(g), k)
            r = verify(g, f)
            assert r.is_iasi and r.is_weak and r.uniform_k == k
            assert check_weak_characterization(g, f)
        # the weak family is the strong one with m = 1
        for g in bipartite_suite():
            bp = bipartition_of(g)
            strong = construct_bipartite_strong(g, bp, ConstructionParams(k, 1))
            assert construct_weak_uniform(g, bp, k) == strong


def test_constructors_verify_on_random_bipartite_graphs():
    # 2-7 vertices per side, sparse or dense cross edges; a vertex left
    # isolated gets one random cross edge, so sparse graphs are often
    # disconnected
    rng = Random(0xB1)
    disconnected = 0
    for _ in range(30):
        a, b = rng.randint(2, 7), rng.randint(2, 7)
        p = rng.choice((0.1, 0.3, 0.7))
        edges = {(x, a + y) for x in range(a) for y in range(b) if rng.random() < p}
        for v in range(a + b):
            if not any(v in e for e in edges):
                edges.add((v, rng.randrange(a, a + b)) if v < a else (rng.randrange(a), v))
        g = Graph(a + b, edges)
        disconnected += len(connected_components(g)) > 1
        bp = bipartition_of(g)
        for k in range(1, 13):
            for m in divisors_of(k):
                rep = verify(g, construct_bipartite_strong(g, bp, ConstructionParams(k, m)))
                assert (rep.is_iasi, rep.is_strong, rep.uniform_k) == (True, True, k), (edges, m)
        for k in range(1, 7):
            rep = verify(g, construct_weak_uniform(g, bp, k))
            assert (rep.is_iasi, rep.is_weak, rep.uniform_k) == (True, True, k), (edges, k)
    assert disconnected >= 5


class TestTopologicalReduce:
    def strong_p3(self):
        return path_graph(3), Labeling(
            {0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([30, 34])}
        )

    def test_reduces_p3_to_edge(self):
        g, f = self.strong_p3()
        h, fh = topological_reduce(g, f, 1)
        assert h.vertex_count == 2 and h.edges == ((0, 1),)
        r = verify(h, fh)
        assert r.is_strong and r.edge_sizes[(0, 1)] == 4

    def test_shared_difference_rejected(self):
        g = path_graph(3)
        f = Labeling({0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([5, 6])})
        with pytest.raises(ReductionError) as exc:
            topological_reduce(g, f, 1)
        assert exc.value.shared_differences == (1,)

    def test_shared_differences_from_the_smaller_label(self, monkeypatch):
        # a quadratic difference set of the 100,000-element label would run
        # for minutes; fail at once instead
        real = construct_module.difference_set

        def guarded(a):
            assert len(a) <= 1000
            return real(a)

        monkeypatch.setattr(construct_module, "difference_set", guarded)
        g = path_graph(3)
        f = Labeling({0: SetLabel(range(0, 200_000, 2)), 1: SetLabel([1]), 2: SetLabel([3, 5])})
        with pytest.raises(ReductionError, match=r"share \[2\]$") as exc:
            topological_reduce(g, f, 1)
        assert exc.value.shared_differences == (2,)

    def test_shared_differences_match_the_intersection(self):
        # both sizes of the larger label: up to and past the smaller one's
        # size squared; the singleton middle vertex keeps P_3 strong
        rng = Random(0x5D)
        checked = 0
        for _ in range(300):
            a = SetLabel(rng.sample(range(40), rng.randint(2, 3)))
            b = SetLabel(rng.sample(range(40), rng.randint(2, 12)))
            shared = tuple(sorted(difference_set(a) & difference_set(b)))
            if not shared or a == b:
                continue
            for f0, f2 in ((a, b), (b, a)):
                f = Labeling({0: f0, 1: SetLabel([100]), 2: f2})
                with pytest.raises(ReductionError) as exc:
                    topological_reduce(path_graph(3), f, 1)
                assert exc.value.shared_differences == shared
            checked += 1
        assert checked > 100

    def test_wrong_degree_rejected(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        f = Labeling(
            {0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([30, 34]),
             3: SetLabel([70, 78])}
        )
        with pytest.raises(ReductionError, match="degree"):
            topological_reduce(g, f, 0)
        for v in (-1, 4):
            with pytest.raises(ReductionError, match=f"vertex {v} out of range"):
                topological_reduce(g, f, v)
        for v in (True, 1.0, "1", None):
            with pytest.raises(ReductionError, match="^vertex must be an integer$"):
                topological_reduce(g, f, v)

    def test_adjacent_neighbors_rejected(self):
        g = complete_graph(3)
        f = Labeling({0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([30, 34])})
        with pytest.raises(ReductionError, match="adjacent"):
            topological_reduce(g, f, 1)

    def test_non_strong_labeling_rejected(self):
        g = path_graph(3)
        f = Labeling({0: SetLabel([0, 1]), 1: SetLabel([5, 6]), 2: SetLabel([30, 34])})
        with pytest.raises(ReductionError, match="not strong"):
            topological_reduce(g, f, 1)

    def test_non_injective_labeling_rejected(self):
        # strong (all singletons) but vertices 0 and 2 share {0}, so the
        # reduced K_2 would carry {0} twice
        g = path_graph(3)
        f = Labeling({0: SetLabel([0]), 1: SetLabel([1]), 2: SetLabel([0])})
        with pytest.raises(ReductionError, match="not a set-indexer"):
            topological_reduce(g, f, 1)

    def test_new_edge_duplicating_an_edge_label_rejected(self):
        # the new edge 0-2 gets {0}+{5} = {5}, already the label of 3-4
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        f = Labeling(
            {0: SetLabel([0]), 1: SetLabel([10]), 2: SetLabel([5]),
             3: SetLabel([1]), 4: SetLabel([4])}
        )
        assert verify(g, f).is_iasi
        with pytest.raises(ReductionError, match="duplicate the label of edge 3-4"):
            topological_reduce(g, f, 1)

    def test_precondition_errors_agree_with_verify(self):
        # "not strong" exactly when verify says not strong; "not a
        # set-indexer" exactly when it is strong but not a set-indexer
        rng = Random(0x2ED)
        cases = [(path_graph(3), 1), (path_graph(4), 1), (path_graph(4), 2), (cycle_graph(4), 0)]
        seen = Counter()
        for _ in range(400):
            g, v = rng.choice(cases)
            f = Labeling(
                {x: SetLabel(rng.sample(range(6), rng.randint(1, 2))) for x in g.vertices()}
            )
            r = verify(g, f)
            try:
                topological_reduce(g, f, v)
                message = "reduced"
            except ReductionError as exc:
                message = str(exc)
            assert (message == "labeling is not strong") == (not r.is_strong)
            assert (message == "labeling is not a set-indexer") == (r.is_strong and not r.is_iasi)
            seen[message] += 1
        assert seen["labeling is not strong"] and seen["labeling is not a set-indexer"]
        assert seen["reduced"]

    def test_successive_reductions_along_a_path(self):
        g = path_graph(4)
        f = Labeling(
            {0: SetLabel([0, 1]), 1: SetLabel([10, 12]), 2: SetLabel([30, 34]),
             3: SetLabel([100, 108])}
        )
        assert verify(g, f).is_strong
        g1, f1 = topological_reduce(g, f, 1)
        assert verify(g1, f1).is_strong
        g2, f2 = topological_reduce(g1, f1, 1)
        assert verify(g2, f2).is_strong
        assert g2.vertex_count == 2


class TestChainedReductions:
    """A labeling returned by topological_reduce proves itself a strong
    set-indexer of the graph returned with it, so the next reduction of
    that very graph runs no full pass: it checks only the new edge, and
    compares its label only with the old edges of its minimum."""

    @staticmethod
    def count_edge_passes(monkeypatch):
        calls = []

        def counted(*args, real=construct_module._edge_pass):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(construct_module, "_edge_pass", counted)
        return calls

    @staticmethod
    def count_sumsets(monkeypatch):
        """The sumsets topological_reduce builds itself, outside any full pass."""
        calls = []

        def counted(*args, real=construct_module.sumset):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(construct_module, "sumset", counted)
        return calls

    @staticmethod
    def reduce_or_error(g, f, v):
        try:
            return topological_reduce(g, f, v)
        except ReductionError as exc:
            return str(exc), exc.shared_differences

    def test_chains_match_proof_free_copies(self, monkeypatch):
        # paths and cycles with chords, random small labels: each step is
        # also run on a copy of its input without the proof, and must give
        # the same graph and labeling, or the same error
        calls = self.count_edge_passes(monkeypatch)
        rng = Random(0x21C)
        seen = Counter()
        for _ in range(400):
            n = rng.randint(4, 12)
            edges = {(i, i + 1) for i in range(n - 1)}
            if rng.random() < 0.5:
                edges.add((0, n - 1))
            for _ in range(rng.randint(0, 2)):
                a, b = sorted(rng.sample(range(n), 2))
                edges.add((a, b))
            g = Graph(n, edges)
            top = rng.choice((1, 3))  # all singletons, whose sums collide more often
            for _ in range(20):  # mostly strong set-indexers, so that chains go on
                f = Labeling({x: SetLabel(rng.sample(range(24), rng.randint(1, top))) for x in g.vertices()})
                if (r := verify(g, f)).is_strong and r.is_iasi:
                    break
            for step in range(n):
                candidates = [x for x in g.vertices() if g.degree(x) == 2]
                if not candidates:
                    break
                v = rng.choice(candidates)
                del calls[:]
                got = self.reduce_or_error(g, f, v)
                passes = len(calls)
                assert got == self.reduce_or_error(g, Labeling(dict(f.assignment)), v)
                failed = isinstance(got[0], str)
                if step:  # f carries a proof: count the outcome and full passes
                    seen["reduced" if not failed else got[0].split()[0], passes] += 1
                if failed:
                    break
                g, f = got
                rebuilt = Graph(g.vertex_count, g.edges)  # validated, sorted
                assert g == rebuilt and all(g.neighbors(x) == rebuilt.neighbors(x) for x in g.vertices())
        # every proven step runs 0 full passes: it reduces, or it refuses for
        # shared differences ("difference ..."), a duplicate label ("new
        # edge ...") or adjacent neighbours; a proof is never wrong about the
        # old edges ("labeling is not ...")
        assert all(passes == 0 for _, passes in seen)
        assert seen["reduced", 0] and seen["difference", 0] and seen["new", 0] and seen["neighbors", 0]
        assert not seen["labeling", 0]

    def test_proof_for_an_equal_graph_runs_the_full_pass(self, monkeypatch):
        calls = self.count_edge_passes(monkeypatch)
        g = path_graph(6)
        f = Labeling({i: SetLabel([24 * i, 24 * i + i + 1]) for i in g.vertices()})
        g1, f1 = topological_reduce(g, f, 1)
        assert len(calls) == 1
        topological_reduce(g1, f1, 1)
        assert len(calls) == 1
        twin = Graph(g1.vertex_count, g1.edges)
        assert twin == g1 and twin is not g1
        assert topological_reduce(twin, f1, 1) == topological_reduce(g1, f1, 1)
        assert len(calls) == 2

    def test_duplicate_new_edge_label_through_a_proof(self, monkeypatch):
        # the first reduction joins 0-2 with {20}; the second joins 0-2 of
        # the reduced graph with {0}+{5} = {5}, the label of edge 3-4
        calls = self.count_edge_passes(monkeypatch)
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
        f = Labeling({x: SetLabel([e]) for x, e in enumerate([0, 10, 20, 5, 1, 4])})
        g1, f1 = topological_reduce(g, f, 1)
        message = "new edge 0-2 would duplicate the label of edge 3-4"
        with pytest.raises(ReductionError, match=f"^{message}$"):
            topological_reduce(g1, f1, 1)
        assert len(calls) == 1
        with pytest.raises(ReductionError, match=f"^{message}$"):
            topological_reduce(g1, Labeling(dict(f1.assignment)), 1)

    def test_the_edges_at_v_leave_the_count(self, monkeypatch):
        # after the first reduction, the new edge 0-2 of P_3 has the minimum
        # 0 + 10 of the edge 0-1 it replaces, which leaves the count, so no
        # old edge shares it and the new label is never built
        calls = self.count_edge_passes(monkeypatch)
        sumsets = self.count_sumsets(monkeypatch)
        g = path_graph(4)
        f = Labeling({0: SetLabel([0, 1]), 1: SetLabel([50]), 2: SetLabel([10]), 3: SetLabel([10, 13])})
        g1, f1 = topological_reduce(g, f, 1)
        g2, f2 = topological_reduce(g1, f1, 1)
        assert len(calls) == 1
        assert not sumsets
        assert g2.edges == ((0, 1),) and verify(g2, f2).edge_sizes == {(0, 1): 4}

    @staticmethod
    def shared_minimum(second):
        """A proven labeling of 0-1, 2-3, 4-5-6 and 7-8, and the graph it
        proves: the new edge 4-6 is {0, 1} + {10, 12} = {10, 11, 12, 13},
        whose minimum 10 the old edges 0-1, {10, 106}, and 2-3, {10} +
        second, share."""
        g = Graph(10, [(0, 1), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)])
        labels = [[4], [6, 100], [10], second, [0, 1], [30], [10, 12], [200], [300], [500]]
        return topological_reduce(g, Labeling({x: SetLabel(a) for x, a in enumerate(labels)}), 8)

    def test_a_shared_minimum_with_another_label_reduces_without_a_full_pass(self, monkeypatch):
        g1, f1 = self.shared_minimum([0, 1, 2, 4])
        calls = self.count_edge_passes(monkeypatch)
        g2, f2 = topological_reduce(g1, f1, 5)
        assert not calls
        assert g2.edges == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert sumset(f2[4], f2[5]) == SetLabel([10, 11, 12, 13])
        assert (g2, f2) == topological_reduce(g1, Labeling(dict(f1.assignment)), 5)
        assert len(calls) == 1
        r = verify(g2, f2)
        assert r.is_strong and r.is_iasi

    def test_a_shared_minimum_names_the_edge_with_the_same_label(self, monkeypatch):
        # 0-1 comes first in edge order with the minimum 10, but only 2-3
        # carries the label {10, 11, 12, 13}
        g1, f1 = self.shared_minimum([0, 1, 2, 3])
        calls = self.count_edge_passes(monkeypatch)
        message = "new edge 4-6 would duplicate the label of edge 2-3"
        with pytest.raises(ReductionError, match=f"^{message}$"):
            topological_reduce(g1, f1, 5)
        assert not calls
        with pytest.raises(ReductionError, match=f"^{message}$"):
            topological_reduce(g1, Labeling(dict(f1.assignment)), 5)
        assert len(calls) == 1

    def test_a_new_edge_that_is_not_full_is_refused_without_a_full_pass(self, monkeypatch):
        # P_4 with n evens, {1}, {5} and n multiples of 3: after the first
        # reduction, the new edge 0-2 joins differences shared at 6, 12, ...
        calls = self.count_edge_passes(monkeypatch)
        n = 20
        g = path_graph(4)
        f = Labeling({0: SetLabel(range(0, 2 * n, 2)), 1: SetLabel([1]), 2: SetLabel([5]),
                      3: SetLabel(range(10**6, 10**6 + 3 * n, 3))})
        g1, f1 = topological_reduce(g, f, 1)
        assert len(calls) == 1
        got = self.reduce_or_error(g1, f1, 1)
        assert len(calls) == 1
        assert got == ("difference sets of 0 and 2 share [6, 12, 18, 24, 30, 36]", (6, 12, 18, 24, 30, 36))
        assert got == self.reduce_or_error(g1, Labeling(dict(f1.assignment)), 1)
        assert len(calls) == 2

    def test_a_chain_runs_one_edge_pass(self, monkeypatch):
        # position i of P_200 carries {L*i, L*i + i + 1}: difference sets
        # {i + 1} are pairwise disjoint, and every new edge has a fresh minimum,
        # so no step builds its new label to scan the old edges
        calls = self.count_edge_passes(monkeypatch)
        sumsets = self.count_sumsets(monkeypatch)
        n = 200
        g = path_graph(n)
        f = Labeling({i: SetLabel([4 * n * i, 4 * n * i + i + 1]) for i in g.vertices()})
        for j in range(20):
            g, f = topological_reduce(g, f, 9 * j + 5)  # path position 10j + 5
        assert len(calls) == 1
        assert not sumsets
        assert g.vertex_count == n - 20 and verify(g, f).is_strong and verify(g, f).is_iasi
