"""Graph parsing and structural predicates."""

import sys
import tracemalloc
from itertools import product
from random import Random
from unittest.mock import patch

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
from iasi import graphs
from iasi.graphs import _CHUNK, _edges_in_bulk, is_valid_bipartition
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

    def test_duplicate_reported_after_every_line_in_input_order(self):
        with pytest.raises(GraphFormatError, match="^line 3: non-integer vertex id in '0 x'$"):
            parse_edge_list("0 1\n1 0\n0 x")
        with pytest.raises(GraphFormatError, match="^duplicate edge 1-2$"):
            parse_edge_list("0 1\n1 2\n2 1\n1 0")

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


def outcome(parse, text):
    """The graph parse builds from text, or its error line."""
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


def parse_by_line(text):
    """The reference: parse_edge_list with no line read in bulk, every line
    through the per-line loop."""
    with patch.object(graphs, "_edges_in_bulk", lambda text, us, vs: 0):
        return parse_edge_list(text)


def edge_lines(rng, n):
    """'u v' lines of a random graph on 0..n-1 with no isolated vertex, in
    random order and orientation."""
    order = rng.sample(range(n), n)
    edges = {tuple(sorted(order[i:i + 2])) for i in range(n - 1)}
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n))}
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in sorted(edges)]
    rng.shuffle(lines)
    return lines


# lines that only the per-line loop may read, or refuse
OTHER_LINES = ["# a comment", "", "   ", "\t# indented comment", "0 1 # note"]
BAD_LINES = [
    "+0 1", "1_0 2", "00 1", "1 01", "\u0661 2", "1 \u0662", "\uff11 0", "-1 3", "2 -5",
    "0 " + "1" * 4301, "1" * 4400 + " 0", "3 3", "0 1 2", "7", "x 1", "1 2.0",
]
# line ends and separators other than '\n' and ' ' or '\t' between ids
OTHER_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
OTHER_SPACES = ["\xa0", "\u3000", "\x0b"]


def mutate(rng, lines, n):
    """lines with one random change, and whether the bulk pass must take
    the text: its lines all still two canonical ids with '\\n' ends."""
    lines = list(lines)
    at = rng.randrange(len(lines) + 1)
    kind = rng.randrange(9)
    if kind == 0:  # unchanged
        return lines, "\n", True
    if kind == 1:  # spaces and tabs around and between the ids
        for i in rng.sample(range(len(lines)), min(len(lines), 3)):
            u, v = lines[i].split()
            lead, mid, trail = rng.choice(["", " ", "\t"]), rng.choice(["\t", "  ", " \t "]), rng.choice(["", "\t "])
            lines[i] = lead + u + mid + v + trail
        return lines, "\n", True
    if kind == 2:  # a repeat, possibly after every other line
        u, v = rng.choice(lines).split()
        lines.insert(rng.choice([at, len(lines)]), f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}")
        return lines, "\n", True
    if kind == 3:  # a gap: id n on no edge
        lines.insert(at, f"{rng.randrange(n)} {n + 1}")
        return lines, "\n", True
    if kind == 4:  # a huge sparse id
        lines.insert(at, f"{rng.randrange(n)} {rng.choice([10**6, 10**12])}")
        return lines, "\n", True
    if kind == 5:
        lines.insert(at, rng.choice(BAD_LINES))
        return lines, "\n", False
    if kind == 6:
        lines.insert(at, rng.choice(OTHER_LINES))
        return lines, "\n", False
    if kind == 7:
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace(" ", rng.choice(OTHER_SPACES))
        return lines, "\n", False
    return lines, rng.choice(OTHER_ENDS), False


def assert_paths_agree(text, bulk):
    got, want = outcome(parse_edge_list, text), outcome(parse_by_line, text)
    assert got == want, (got, want)
    us, vs = [], []
    pos = _edges_in_bulk(text, us, vs)
    # the bulk pass stops at a line start or the end, and reads each line
    # before it as one edge
    assert pos in (0, len(text)) or text[pos - 1] == "\n"
    assert list(zip(us, vs)) == [tuple(map(int, x.split())) for x in text[:pos].splitlines()]
    assert (pos == len(text)) == bulk
    return pos


def test_bulk_and_per_line_parses_agree():
    # the bulk pass takes only text the per-line loop reads the same way;
    # every other text, and every error, is the per-line loop's
    rng = Random(0xB01C)
    for _ in range(1500):
        n = rng.randint(2, 30)
        lines, end, bulk = mutate(rng, edge_lines(rng, n), n)
        # a text the bulk pass takes may lack its final line end
        text = end.join(lines) + ("" if bulk and rng.random() < 0.3 else end)
        assert_paths_agree(text, bulk)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
def test_bulk_pass_yields_to_a_lower_int_digit_limit():
    # an interpreter may refuse shorter ids than MAX_ID_DIGITS; the
    # per-line loop then names the line, as without the bulk pass
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        text = "0 1\n1 " + "2" * 700 + "\n"
        assert_paths_agree(text, False)
        assert outcome(parse_edge_list, text).startswith("line 2: non-integer vertex id in '1 222")
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "change", ["none", "bad", "loop", "repeat", "crlf", "final", "comment", "blank", "trailing"]
)
def test_bulk_and_per_line_parses_agree_past_the_first_chunk(change):
    # over 100 kB: the changed line sits past the first chunk, so the
    # per-line loop takes over from a later chunk, with its line numbers
    rng = Random(f"chunks-{change}")
    n = 12_000
    lines = edge_lines(rng, n)
    tail = rng.randrange(len(lines) * 3 // 4, len(lines))
    line = {"none": None, "bad": rng.choice(BAD_LINES), "loop": "17 17", "repeat": lines[5],
            "comment": "# late", "blank": ""}.get(change)
    if line is not None:
        lines.insert(tail, line)
    text = "\n".join(lines) + ("" if change == "final" else "\n")
    if change == "crlf":
        text = text[:-1] + "\r\n"
    if change == "trailing":  # a blank last line
        text += "\n"
    assert len(text) > 2 * _CHUNK and sum(len(x) + 1 for x in lines[:tail]) > _CHUNK
    assert assert_paths_agree(text, change in ("none", "repeat", "final")) > _CHUNK
    if change == "none":
        g = parse_edge_list(text)
        assert g.vertex_count == n and len(g.edges) == len(lines)


def sorted_reference(count, pairs):
    """Graph(count, pairs)'s edges and adjacency, by sorting (min, max) tuples."""
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
    adj = [[] for _ in range(count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return edges, tuple(map(tuple, adj))


def test_packed_keys_sort_like_the_edge_tuples():
    # any line order and orientation; up to 400 ids, so keys u * n + v pass 2**16
    rng = Random(0x50A7)
    for _ in range(300):
        n = rng.choice([rng.randint(2, 12), rng.randint(13, 400)])
        lines = edge_lines(rng, n)
        pairs = [tuple(map(int, line.split())) for line in lines]
        want = sorted_reference(n, pairs)
        for g in (Graph(n, pairs), parse_edge_list("\n".join(lines))):
            assert (g.edges, g._adj) == want


def test_build_empties_the_id_columns():
    # once packed into the keys the ids are freed: kept, the two columns
    # raise parse_edge_list's peak memory by about a fifth on K_{150,150}
    us, vs = [1, 0], [2, 1]
    g = object.__new__(Graph)._build(3, us, vs)
    assert us == [] and vs == []
    assert g == path_graph(3)


def by_graph(lines):
    pairs = [tuple(map(int, line.split())) for line in lines]
    return Graph(1 + max(map(max, pairs)), pairs)


def by_parse(lines):
    return parse_edge_list("\n".join(lines) + "\n")


HUGE = "9" * 4000


@pytest.mark.parametrize("build", [by_graph, by_parse], ids=["Graph", "parse"])
@pytest.mark.parametrize(
    "lines, message",
    [
        # sorted, 0-1 repeats first; in input order 2-3 does
        (["2 3", "0 1", "3 2", "1 0", "1 2"], "duplicate edge 2-3"),
        # id 2 is on no edge, with as many ids as edge ends and with fewer
        (["0 1", "1 0", "1 3"], "duplicate edge 0-1"),
        (["0 1", "3 1", "1 0", "0 100"], "duplicate edge 0-1"),
        (["1 0", "0 " + HUGE, "0 1"], "duplicate edge 0-1"),
    ],
    ids=["input-order", "dense-gap", "sparse-gap", "huge-id"],
)
def test_a_repeat_is_named_first(build, lines, message):
    with pytest.raises(GraphFormatError) as excinfo:
        build(lines)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("build", [by_graph, by_parse], ids=["Graph", "parse"])
def test_a_sparse_huge_id_packs_no_key(build):
    # 2,000 path edges and one to a 4,000-digit id: a key u * n + v per edge
    # would take 1.7 kB each, 3.3 MB in all, and a table per id cannot exist;
    # the text's tokens and its bulk match take about 1.1 MB
    lines = [f"{i} {i + 1}" for i in range(2000)] + ["7 " + HUGE]
    tracemalloc.start()
    try:
        with pytest.raises(GraphFormatError) as excinfo:
            build(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value).startswith("isolated vertices: [2001, 2002, 2003,")
    assert peak < 2 << 20


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

    @pytest.mark.parametrize(
        "vertices, name",
        # True == 1 would pass the range check, and a set would merge it into 1
        [([0, True], "bool"), ([1, True], "bool"), ([True, 1], "bool"), ([0, 1.0], "float"), (["0"], "str")],
    )
    def test_refuses_ids_that_are_not_ints(self, vertices, name):
        with pytest.raises(ValueError, match=f"^vertex ids must be integers, not {name}$"):
            is_clique(path_graph(3), vertices)


def test_graph_invariants_enforced():
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 0), (1, 2)])
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 3)])
    with pytest.raises(GraphFormatError):
        Graph(3, [(0, 1)])  # vertex 2 isolated
    with pytest.raises(GraphFormatError, match="^duplicate edge 1-2$"):  # the first in input order
        Graph(3, [(0, 1), (1, 2), (2, 1), (1, 0)])


@pytest.mark.parametrize("n", [*range(2, 13), 40])
def test_generated_graphs_equal_validated_ones(n):
    # the generators skip Graph's checks: each must build what Graph
    # builds from the same edges, adjacency order included
    def same(g, count, edges):
        h = Graph(count, edges)
        assert g == h and [g.neighbors(v) for v in g.vertices()] == [h.neighbors(v) for v in h.vertices()]

    same(complete_graph(n), n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    same(path_graph(n), n, [(i, i + 1) for i in range(n - 1)])
    if n >= 3:
        same(cycle_graph(n), n, [(i, (i + 1) % n) for i in range(n)])
    for a in range(1, n):
        same(complete_bipartite_graph(a, n - a), n, [(i, a + j) for i in range(a) for j in range(n - a)])
    for g, h in [(path_graph(n), complete_graph(3)), (complete_graph(3), path_graph(n)),
                 (Graph(0, []), path_graph(n)), (path_graph(n), Graph(0, []))]:
        off = g.vertex_count
        same(disjoint_union(g, h), off + h.vertex_count, [*g.edges, *((u + off, v + off) for u, v in h.edges)])


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


@pytest.mark.parametrize("edge", [5, (0, 1, 2), (0,)], ids=["int", "triple", "single"])
def test_graph_refuses_edges_that_are_not_pairs(edge):
    with pytest.raises(GraphFormatError, match="^edge must be a pair of vertex ids$"):
        Graph(2, [edge])


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

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: complete_graph(True), "bool"),
            (lambda: complete_graph(3.0), "float"),
            (lambda: path_graph(3.0), "float"),
            (lambda: path_graph(True), "bool"),
            (lambda: cycle_graph("5"), "str"),
            (lambda: cycle_graph(5.0), "float"),
            # two bools would build K_{1,1}
            (lambda: complete_bipartite_graph(True, True), "bool"),
            (lambda: complete_bipartite_graph(2, 2.0), "float"),
            (lambda: complete_bipartite_graph(None, 2), "NoneType"),
        ],
        ids=["complete-bool", "complete-float", "path-float", "path-bool", "cycle-str", "cycle-float",
             "bipartite-bools", "bipartite-float", "bipartite-none"],
    )
    def test_family_counts_must_be_ints(self, build, name):
        with pytest.raises(ValueError, match=f"^vertex counts must be integers, not {name}$"):
            build()
