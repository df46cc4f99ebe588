"""Graph parsing and structural predicates."""

from itertools import product
from random import Random

import pytest

from iasi import (
    Bipartition,
    Graph,
    GraphFormatError,
    bipartition_of,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    disjoint_union,
    is_clique,
    parse_edge_list,
    path_graph,
)
from iasi.graphs import is_valid_bipartition
from helpers import graphs_without_isolated


class TestParseEdgeList:
    def test_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert g == complete_graph(3)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a path\n\n0 1\n\n# tail\n1 2\n")
        assert g == path_graph(3)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_edge_list("0 0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_edge_list("0 1\n1 0")

    def test_gap_in_ids_reported_as_isolated(self):
        with pytest.raises(GraphFormatError, match=r"isolated vertices: \[1\]"):
            parse_edge_list("0 2")

    def test_sparse_huge_id_is_a_short_error(self):
        # one edge to id 200,000: rejected before any per-vertex table is
        # allocated, naming a count and the first ten ids only
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list("0 200000")
        message = str(excinfo.value)
        assert len(message) < 200
        assert message == "isolated vertices: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 199989 more"
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list("0 11")
        assert str(excinfo.value) == "isolated vertices: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"
        # as many ids as edge endpoints, so found after the adjacency lists
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list("0 5\n0 1\n1 5")
        assert str(excinfo.value) == "isolated vertices: [2, 3, 4]"

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n0 1 2")

    def test_non_integer(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 x")
        # ids are canonical decimals, like labeling keys: int() alone would
        # read 1_0 as 10, +0 as 0 and Arabic-Indic digits as 0 and 1
        for text in ("0 1_0", "+0 1", "\u0660 \u0661"):
            with pytest.raises(GraphFormatError, match="line 1: non-integer vertex id"):
                parse_edge_list(text)
        with pytest.raises(GraphFormatError, match="line 1: negative vertex id"):
            parse_edge_list("-1 0")

    def test_over_long_input_is_clipped(self):
        # int() refuses more than 4300 digits; the error says so, not
        # "non-integer", and quotes at most 40 characters of the input
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list("0 " + "1" * 5000)
        assert str(excinfo.value) == f"line 1: vertex id '{'1' * 40}…' is longer than 4300 digits"
        for text in ("0 x" + "1" * 5000, "0 1 " + "2" * 5000, f"{'3' * 4000} {'3' * 4000}"):
            with pytest.raises(GraphFormatError) as excinfo:
                parse_edge_list(text)
            assert len(str(excinfo.value)) < 100

    def test_empty_input(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("# nothing\n")


class TestBipartition:
    def test_even_cycle(self):
        bp = bipartition_of(cycle_graph(4))
        assert bp.side_x == {0, 2}
        assert bp.side_y == {1, 3}

    def test_triangle_has_none(self):
        assert bipartition_of(complete_graph(3)) is None

    def test_k33(self):
        bp = bipartition_of(complete_bipartite_graph(3, 3))
        assert sorted(map(len, (bp.side_x, bp.side_y))) == [3, 3]

    def test_lowest_id_goes_to_side_x(self):
        g = disjoint_union(path_graph(2), path_graph(3))
        bp = bipartition_of(g)
        assert 0 in bp.side_x
        assert 2 in bp.side_x  # lowest id of the second component

    def test_overlapping_sides_are_not_a_bipartition(self):
        g = path_graph(2)
        assert is_valid_bipartition(g, Bipartition(frozenset({0}), frozenset({1})))
        assert not is_valid_bipartition(g, Bipartition(frozenset({0, 1}), frozenset({1})))

    def test_none_exactly_when_odd_cycle_exists(self):
        # oracle: exhaustive 2-coloring over all assignments
        for n in range(2, 6):
            for edges in graphs_without_isolated(n):
                g = Graph(n, edges)
                two_colorable = any(
                    all(colors[u] != colors[v] for u, v in edges)
                    for colors in product((0, 1), repeat=n)
                )
                assert (bipartition_of(g) is not None) == two_colorable

    def test_random_eight_vertex_graphs_against_coloring_oracle(self):
        rng = Random(0x1F)
        all_edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        checked = 0
        while checked < 120:
            edges = [e for e in all_edges if rng.random() < 0.25]
            if {v for e in edges for v in e} != set(range(8)):
                continue
            g = Graph(8, edges)
            two_colorable = any(
                all(colors[u] != colors[v] for u, v in edges)
                for colors in product((0, 1), repeat=8)
            )
            assert (bipartition_of(g) is not None) == two_colorable
            checked += 1


class TestConnectedComponents:
    def test_path_single_component(self):
        assert connected_components(path_graph(3)) == [frozenset({0, 1, 2})]

    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]
        # listed by minimum id, also when the components interleave
        g = Graph(4, [(0, 3), (1, 2)])
        assert connected_components(g) == [frozenset({0, 3}), frozenset({1, 2})]

    def test_triangle_plus_edge(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        assert len(connected_components(g)) == 2

    def test_is_a_partition_with_no_crossing_edges(self):
        rng = Random(0x2E)
        for _ in range(30):
            n = rng.randint(2, 10)
            edges = {
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            }
            covered = {v for e in edges for v in e}
            for v in range(n):
                if v not in covered:
                    u = (v + 1) % n
                    edges.add((min(u, v), max(u, v)))
            g = Graph(n, edges)
            comps = connected_components(g)
            union = set()
            for c in comps:
                assert not (union & c)
                union |= c
            assert union == set(range(n))
            which = {v: i for i, c in enumerate(comps) for v in c}
            assert all(which[u] == which[v] for u, v in g.edges)
            assert [min(c) for c in comps] == sorted(min(c) for c in comps)


class TestIsClique:
    def test_triangle(self):
        assert is_clique(complete_graph(3), [0, 1, 2])

    def test_path_is_not(self):
        assert not is_clique(path_graph(3), [0, 1, 2])

    def test_singleton_vacuous(self):
        assert is_clique(path_graph(3), [1])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_clique(path_graph(3), [0, 5])


def test_graph_invariants_enforced():
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 0), (1, 2)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 3)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 1)])  # vertex 2 isolated


@pytest.mark.parametrize(
    "count, edges, message",
    [
        (-1, [], "^vertex count must be a non-negative integer$"),
        (2.0, [(0, 1)], "^vertex count must be a non-negative integer$"),
        (True, [], "^vertex count must be a non-negative integer$"),
        ("2", [(0, 1)], "^vertex count must be a non-negative integer$"),
        # True == 1 would pass the range check and be written as true
        (3, [(0, True), (1, 2)], "^vertex ids must be integers, not bool$"),
        (2, [(0.0, 1)], "^vertex ids must be integers, not float$"),
        (2, [(0, "1")], "^vertex ids must be integers, not str$"),
    ],
)
def test_graph_refuses_ids_that_are_not_ints(count, edges, message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(count, edges)


class TestGraphObject:
    def test_hash_and_repr(self):
        g = path_graph(3)
        assert hash(g) == hash(Graph(3, [(2, 1), (1, 0)]))
        assert repr(g) == "Graph(3, [(0, 1), (1, 2)])"

    def test_immutable(self):
        g = path_graph(2)
        with pytest.raises(AttributeError, match="Graph is immutable"):
            g.vertex_count = 5
        with pytest.raises(AttributeError, match="Graph is immutable"):
            g.color = 1

    def test_not_equal_to_a_foreign_type(self):
        g = path_graph(2)
        assert g.__eq__((2, ((0, 1),))) is NotImplemented
        assert g != (2, ((0, 1),))
        assert g != "Graph(2, [(0, 1)])"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: complete_graph(1), "a complete graph needs at least 2 vertices"),
            (lambda: path_graph(1), "a path needs at least 2 vertices"),
            (lambda: cycle_graph(2), "a cycle needs at least 3 vertices"),
            (lambda: complete_bipartite_graph(0, 1), "both sides must be nonempty"),
        ],
        ids=["complete-1", "path-1", "cycle-2", "bipartite-0-1"],
    )
    def test_family_argument_errors(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
