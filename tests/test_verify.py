"""Classification of labeled graphs and the divisor-class analyzer."""

import importlib
import json
from collections import Counter
from itertools import product
from random import Random

import pytest

from iasi import (
    ConstructionParams,
    Graph,
    Labeling,
    LabelingError,
    SetLabel,
    analyze_divisor_partition,
    bipartition_of,
    check_strong_criterion,
    check_weak_characterization,
    complete_bipartite_graph,
    complete_graph,
    construct_bipartite_strong,
    construct_complete_strong,
    construct_weak_uniform,
    divisors_of,
    path_graph,
    topological_reduce,
    verify,
)
from helpers import delete_edge, delete_vertex, naive_sumset, reference_verify, small_sets

# the module, not the function the package re-exports under its name
verify_module = importlib.import_module("iasi.verify")


def labeling(d):
    return Labeling({v: SetLabel(e) for v, e in d.items()})


STRONG_K3 = labeling({0: [0, 1], 1: [10, 12], 2: [30, 34]})


class TestVerify:
    def test_strong_p2(self):
        r = verify(path_graph(2), labeling({0: [0, 1], 1: [0, 2]}))
        assert r.is_iasi and r.is_strong
        assert r.uniform_k == 4
        assert r.edge_sizes == {(0, 1): 4}
        assert r.completely_uniform and r.vertex_uniform_l == 2

    def test_weak_p2_singleton_translate(self):
        r = verify(path_graph(2), labeling({0: [1], 1: [2, 5, 9]}))
        assert r.is_iasi and r.is_weak
        assert r.edge_sizes[(0, 1)] == 3

    def test_duplicate_vertex_labels(self):
        r = verify(path_graph(3), labeling({0: [0, 1], 1: [0, 1], 2: [2, 3]}))
        assert not r.is_iasi
        kinds = [v.kind for v in r.violations]
        assert "duplicate-vertex-labels" in kinds
        dup = next(v for v in r.violations if v.kind == "duplicate-vertex-labels")
        assert dup.witness == (0, 1)

    def test_duplicate_edge_labels(self):
        # {0,1,2}+{0,1} and {0,2}+{0,1} both give {0,1,2,3}
        r = verify(path_graph(3), labeling({0: [0, 1, 2], 1: [0, 1], 2: [0, 2]}))
        assert not r.is_iasi
        assert any(v.kind == "duplicate-edge-labels" for v in r.violations)

    def test_reports_compare_by_value(self):
        # the input of the CLI's VERIFY_P4_ALL_KINDS pin: every violation kind
        f = labeling({0: [0], 1: [0, 1], 2: [0, 1], 3: [0]})
        r = verify(path_graph(4), f)
        assert {v.kind for v in r.violations} == {
            "duplicate-vertex-labels", "duplicate-edge-labels", "weak-equality", "strong-equality",
        }
        assert r == verify(path_graph(4), labeling({0: [0], 1: [0, 1], 2: [0, 1], 3: [0]}))

    def test_missing_vertex(self):
        with pytest.raises(LabelingError, match="missing"):
            verify(path_graph(3), labeling({0: [0], 1: [1]}))

    def test_unknown_vertex(self):
        with pytest.raises(LabelingError, match="unknown"):
            verify(path_graph(2), labeling({0: [0], 1: [1], 5: [2]}))

    def test_edge_size_bounds(self):
        rng = Random(0x3D)
        for _ in range(100):
            f = labeling(
                {v: rng.sample(range(30), rng.randint(1, 4)) for v in range(3)}
            )
            r = verify(path_graph(3), f)
            for (u, v), s in r.edge_sizes.items():
                assert max(len(f[u]), len(f[v])) <= s <= len(f[u]) * len(f[v])

    def test_uniform_k_none_when_sizes_differ(self):
        r = verify(path_graph(3), labeling({0: [0], 1: [1, 2], 2: [0, 1, 2]}))
        assert r.uniform_k is None
        assert r.vertex_uniform_l is None
        assert not r.completely_uniform


class TestCharacterizations:
    def test_weak_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        f = labeling({0: [5], 1: [0, 1], 2: [2, 4], 3: [3, 7]})
        assert check_weak_characterization(g, f)

    def test_weak_fails_without_singleton(self):
        assert not check_weak_characterization(
            path_graph(2), labeling({0: [0, 1], 1: [0, 2]})
        )

    def test_weak_both_singletons(self):
        assert check_weak_characterization(
            path_graph(2), labeling({0: [0], 1: [1]})
        )

    def test_strong_triangle(self):
        assert check_strong_criterion(complete_graph(3), STRONG_K3)
        r = verify(complete_graph(3), STRONG_K3)
        assert all(s == 4 for s in r.edge_sizes.values())

    def test_strong_fails_on_shared_difference(self):
        f = labeling({0: [0, 1], 1: [5, 6]})
        assert not check_strong_criterion(path_graph(2), f)
        assert verify(path_graph(2), f).edge_sizes[(0, 1)] == 3

    def test_strong_singleton_endpoint(self):
        assert check_strong_criterion(path_graph(2), labeling({0: [3], 1: [0, 5]}))

    @pytest.mark.parametrize("n", [2, 3])
    def test_agreement_with_flags_exhaustive(self, n):
        # every labeling of P_2 / P_3 with labels from {0..5}, sizes <= 2
        g = path_graph(n)
        cands = [SetLabel(e) for e in small_sets(5, 2)]
        for choice in product(cands, repeat=n):
            f = Labeling(dict(enumerate(choice)))
            r = verify(g, f)
            if not r.is_iasi:
                continue
            assert check_strong_criterion(g, f) == r.is_strong
            assert check_weak_characterization(g, f) == r.is_weak


def random_graph(rng, n):
    """A random graph on {0..n-1}, not necessarily bipartite, with every
    vertex on some edge."""
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    covered = {v for e in edges for v in e}
    for v in range(n):
        if v not in covered:
            u = (v + 1) % n
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def test_flags_agree_with_criteria_on_random_labelings():
    # both equivalences hold for every labeling, set-indexer or not
    rng = Random(0xF1A6)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        f = Labeling(
            {v: SetLabel(rng.sample(range(rng.choice((6, 40))), rng.randint(1, 3))) for v in range(n)}
        )
        r = verify(g, f)
        assert check_strong_criterion(g, f) == r.is_strong
        assert check_weak_characterization(g, f) == r.is_weak
        outcomes.add((r.is_strong, r.is_weak))
    assert {s for s, _ in outcomes} == {w for _, w in outcomes} == {True, False}


def edge_key(a, b):
    lab = naive_sumset(a, b)
    return lab[0], lab[-1], len(lab)


def test_verify_matches_the_reference_loop():
    # small universes and few distinct labels, so edges share their
    # (min, max, size) key with equal and with unequal sumsets, edge labels
    # repeat and edges fail to be strong
    rng = Random(0xD1FF)
    seen = Counter()
    for _ in range(500):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        u = rng.choice((4, 6, 12))
        # half the labels span {0..u}, so many edge labels share min and max
        pool = [
            rng.sample(range(u), rng.randint(1, 3)) if rng.random() < 0.5
            else [0, u, *rng.sample(range(1, u), rng.randint(0, 2))]
            for _ in range(n + 2)
        ]
        f = labeling({v: rng.choice(pool) for v in range(n)})
        want = reference_verify(g, f)
        assert json.dumps(verify(g, f).as_dict()) == json.dumps(want)
        assert check_strong_criterion(g, f) == want["is_strong"]
        keyed = {}
        for u, v in g.edges:
            keyed.setdefault(edge_key(f[u], f[v]), set()).add(tuple(naive_sumset(f[u], f[v])))
        seen["key shared by unequal labels"] += any(len(labs) > 1 for labs in keyed.values())
        seen["duplicate edge label"] += "duplicate-edge-labels" in json.dumps(want)
        seen["not strong"] += not want["is_strong"]
        seen["strong set-indexer"] += want["is_strong"] and want["is_iasi"]
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_verify_matches_the_reference_on_built_key_collisions():
    # {2}+{0,1,4} and {2}+{0,3,4} share the key (2, 6, 3) but differ;
    # {1}+{1,2,5} repeats the first label; {5,6}+{0,1} is not strong
    g = Graph(7, [(0, 1), (0, 2), (3, 4), (3, 5), (4, 6)])
    f = labeling({0: [2], 1: [0, 1, 4], 2: [0, 3, 4], 3: [1], 4: [5, 6], 5: [1, 2, 5], 6: [0, 1]})
    r = verify(g, f)
    assert json.dumps(r.as_dict()) == json.dumps(reference_verify(g, f))
    assert [v.kind for v in r.violations] == ["duplicate-edge-labels", "weak-equality", "strong-equality"]
    assert r.violations[0].witness == (0, 1, 3, 5)


@pytest.fixture
def calls(monkeypatch):
    """The argument tuples of every sumset and difference_set call the
    edge pass makes, counted by a wrapper around each."""
    made = {"sumset": Counter(), "difference_set": Counter()}
    for name, counter in made.items():
        real = getattr(verify_module, name)

        def counting(*args, name=name, real=real, counter=counter):
            counter[tuple(a.elements for a in args)] += 1
            # a quadratic difference set of a large label would run for
            # minutes; fail at once instead
            assert name == "sumset" or len(args[0]) <= 1000
            return real(*args)

        monkeypatch.setattr(verify_module, name, counting)
    return made


class TestEdgePassCost:
    def test_strong_constructions_build_no_sumset(self, calls):
        g = complete_bipartite_graph(150, 150)
        f = construct_bipartite_strong(g, bipartition_of(g), ConstructionParams(60))
        assert verify(g, f).is_strong
        # 150 singletons against 5-element intervals
        assert verify(g, construct_weak_uniform(g, bipartition_of(g), 5)).is_strong
        assert verify(complete_graph(150), construct_complete_strong(150, 3)).is_strong
        assert not calls["sumset"]

    def test_colliding_keys_build_each_sumset_once(self, calls):
        # every leaf edge has the key (0, 10**6, 3) and a label of its own
        g = complete_bipartite_graph(1, 20_000)
        f = labeling({0: [0], **{i: [0, i, 10**6] for i in range(1, 20_001)}})
        r = verify(g, f)
        assert r.is_iasi and r.is_strong and not r.violations
        assert sum(calls["sumset"].values()) == 20_000
        assert max(calls["sumset"].values()) == 1

    def test_no_difference_set_of_a_large_label_next_to_a_small_one(self, calls):
        big = list(range(0, 200_000, 2))
        for small, strong in (([0, 1], True), ([0, 2], False)):
            f = labeling({0: small, 1: big})
            assert verify(path_graph(2), f).is_strong is strong
            assert check_strong_criterion(path_graph(2), f) is strong
        assert max(len(args[0]) for args in calls["difference_set"]) == 2
        # next to singletons the large label needs neither: the edges are strong
        calls["sumset"].clear()
        r = verify(Graph(3, [(0, 1), (0, 2)]), labeling({0: big, 1: [1], 2: [3]}))
        assert r.is_strong and r.is_iasi
        assert not calls["sumset"]
        assert max(len(args[0]) for args in calls["difference_set"]) == 2

    def test_reduce_builds_sumsets_only_in_the_new_edge_bucket(self, calls):
        n = 2000
        g = path_graph(n)
        f = labeling({i: [4 * n * i, 4 * n * i + i + 1] for i in range(n)})
        v, (u, w) = 1000, g.neighbors(1000)
        bucket = {
            (f[a].elements, f[b].elements)
            for a, b in g.edges
            if edge_key(f[a], f[b]) == edge_key(f[u], f[w])
        }
        h, fh = topological_reduce(g, f, v)
        assert verify(h, fh).is_strong
        allowed = bucket | {(f[u].elements, f[w].elements)}
        assert set(calls["sumset"]) <= allowed


class TestRestrictionClosure:
    def test_strong_survives_deletions(self):
        g = complete_graph(3)
        f = STRONG_K3
        assert verify(g, f).is_strong
        for e in g.edges:
            sub = delete_edge(g, f, e)
            if sub:
                assert verify(*sub).is_strong
        for v in g.vertices():
            sub = delete_vertex(g, f, v)
            if sub:
                assert verify(*sub).is_strong


class TestDivisorStructure:
    def test_vertex_sizes_divide_k(self):
        r = verify(complete_graph(3), STRONG_K3)
        assert r.is_strong and r.uniform_k == 4
        for v in range(3):
            assert r.uniform_k % len(STRONG_K3[v]) == 0

    def test_nonbipartite_strongly_uniform_forces_square(self):
        r = verify(complete_graph(3), STRONG_K3)
        assert r.uniform_k == 4  # a perfect square
        assert r.vertex_uniform_l == 2
        assert r.vertex_uniform_l ** 2 == r.uniform_k


class TestDivisors:
    def test_small_values(self):
        assert divisors_of(1) == [1]
        assert divisors_of(6) == [1, 2, 3, 6]
        assert divisors_of(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    def test_rejects_nonpositive(self):
        for k in (0, -3, 2.0, True, "6", None):
            with pytest.raises(ValueError, match="k must be a positive integer"):
                divisors_of(k)


class TestAnalyze:
    def test_p2_square_k(self):
        g = path_graph(2)
        f = labeling({0: [0, 1], 1: [0, 2]})
        rep = analyze_divisor_partition(g, f, 4)
        assert rep.classes == {2: (0, 1)}
        assert len(rep.components) == 1
        # both endpoints have size sqrt(4): the lone component is square-class
        assert rep.components[0].kind == "square-class"
        assert rep.k_is_square

    def test_two_component_union_k6(self):
        g = Graph(4, [(0, 1), (2, 3)])
        f = labeling({0: [0], 1: [1, 2, 3, 4, 5, 6], 2: [0, 100], 3: [0, 1, 2]})
        rep = analyze_divisor_partition(g, f, 6)
        assert rep.classes == {1: (0,), 2: (2,), 3: (3,), 6: (1,)}
        assert rep.bipartite_component_count == 2
        assert rep.bipartite_bound == 2  # n = 4 divisors of 6
        assert rep.bipartite_bound_satisfied
        assert not rep.clique_component_present

    def test_k3_clique_flagged(self):
        rep = analyze_divisor_partition(complete_graph(3), STRONG_K3, 4)
        assert rep.k_is_square
        assert len(rep.components) == 1
        assert rep.components[0].kind == "square-class"
        assert rep.components[0].clique
        assert rep.clique_component_present
        assert rep.total_bound == 2 and rep.total_bound_satisfied
        assert rep.bipartite_component_count == 0

    def test_precondition_enforced(self):
        with pytest.raises(ValueError, match="not strongly"):
            analyze_divisor_partition(
                path_graph(2), labeling({0: [0, 1], 1: [0, 2]}), 6
            )
        # sizes multiply to k, but the difference sets share 1: not strong
        with pytest.raises(ValueError, match="not strongly"):
            analyze_divisor_partition(
                path_graph(2), labeling({0: [0, 1], 1: [1, 2]}), 4
            )

    @pytest.mark.parametrize("k", [4.0, True, "4", None, 0, -4])
    def test_rejects_k_that_is_not_a_positive_int(self, k):
        # refused before the edge pass, as the wrong k, not as a labeling
        # that fails to be strongly k-uniform
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            analyze_divisor_partition(path_graph(2), labeling({0: [0, 1], 1: [0, 2]}), k)


class TestLabelingObject:
    def test_vertices_ascend(self):
        assert labeling({2: [5], 0: [0, 1], 1: [2]}).vertices() == [0, 1, 2]

    def test_immutable(self):
        f = labeling({0: [0]})
        with pytest.raises(AttributeError, match="Labeling is immutable"):
            f.assignment = {}
        with pytest.raises(AttributeError, match="Labeling is immutable"):
            f.extra = 1
        # the mapping is read-only too: reinserting a popped vertex would
        # move it to the end and reorder every pass over the labels
        with pytest.raises(TypeError):
            f.assignment[0] = SetLabel([1])
        with pytest.raises(AttributeError):
            f.assignment.pop(0)
        assert f == labeling({0: [0]}) and repr(f) == "Labeling({0: SetLabel([0])})"

    def test_not_equal_to_a_foreign_type(self):
        f = labeling({0: [0, 1]})
        assert f.__eq__({0: SetLabel([0, 1])}) is NotImplemented
        assert f != {0: SetLabel([0, 1])}


class TestLabelingJson:
    def test_round_trip(self):
        f = labeling({0: [0, 1], 1: [0, 2]})
        assert Labeling.from_json(f.to_json()) == f

    def test_format(self):
        assert labeling({0: [0, 1], 1: [0, 2]}).to_json() == '{"0": [0, 1], "1": [0, 2]}'

    def test_rejects_unsorted(self):
        with pytest.raises(LabelingError, match="ascending"):
            Labeling.from_json('{"0": [2, 1]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"0": [0], "1": []}', "label for vertex 1: a set label must be nonempty"),
            ('{"0": [-1, 2]}', "label for vertex 0: negative element -1 in set label"),
            ('{"0": [0, true]}', "label for vertex 0 must be an integer array"),
            ('{"0": [0, 1.0]}', "label for vertex 0 must be an integer array"),
            ('{"0": [[1]]}', "label for vertex 0 must be an integer array"),
            ('{"0": [1, 1]}', "label for vertex 0 must be strictly ascending"),
            ('{"0": [0, 3, 2]}', "label for vertex 0 must be strictly ascending"),
            ('{"0": [1], "1": [2], "0": [3]}', "vertex 0 is labeled twice"),
            ('{"0": [1], "-1": [2]}', "negative vertex id -1"),
        ],
        ids=["empty", "negative-element", "boolean-element", "float-element", "nested-list",
             "duplicate-element", "descending", "vertex-labeled-twice", "negative-vertex-id"],
    )
    def test_label_error_messages(self, text, message):
        with pytest.raises(LabelingError) as exc:
            Labeling.from_json(text)
        assert str(exc.value) == message

    def test_rejects_non_object(self):
        with pytest.raises(LabelingError):
            Labeling.from_json("[1,2]")

    def test_rejects_bad_key(self):
        # each vertex must appear once, under its canonical decimal key
        for text in (
            '{"x": [1]}',
            '{"0": [1], "00": [2], "1": [3]}',
            '{"0": [1], "0": [2], "1": [3]}',
            '{"1_0": [1], "0": [2]}',
        ):
            with pytest.raises(LabelingError):
                Labeling.from_json(text)
