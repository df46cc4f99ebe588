"""End-to-end CLI checks: flag grammar, JSON output, exit codes, round trips."""

import gc
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import iasi
from iasi import (
    ConstructionParams, Labeling, SetLabel, analyze_divisor_partition, bipartition_of,
    construct_bipartite_strong, construct_complete_strong, parse_edge_list, search, verify,
)
from iasi.cli import build_parser, main


@pytest.fixture
def p2(tmp_path):
    path = tmp_path / "p2.txt"
    path.write_text("0 1\n")
    return str(path)


@pytest.fixture
def p3(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture
def c5(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
    return str(path)


@pytest.fixture
def k33(tmp_path):
    path = tmp_path / "k33.txt"
    path.write_text("".join(f"{i} {3 + j}\n" for i in range(3) for j in range(3)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_line_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# Exact stdout of fixed invocations: identical input must keep giving
# byte-identical JSON, as json.dumps(payload) writes it.
K33_STRONG6 = '{"0": [3, 4], "1": [6, 7], "2": [9, 10], "3": [0, 2, 4], "4": [1, 3, 5], "5": [2, 4, 6]}\n'
COMPLETE_4_2 = '{"0": [0, 8], "1": [33, 42], "2": [68, 78], "3": [105, 116]}\n'
SEARCH_P3_STRONG4 = '{"status": "found", "nodes_visited": 3, "witness": {"0": [0], "1": [0, 1, 2, 3], "2": [1]}}\n'
REDUCE_P3 = '{"vertex_count": 2, "edges": [[0, 1]], "labels": {"0": [0, 1], "1": [30, 34]}}\n'
# P_4 labeled {0},{0,1},{0,1},{0}: all four violation kinds
VERIFY_P4_ALL_KINDS = (
    '{"is_iasi": false, "is_weak": false, "is_strong": false, "uniform_k": null, '
    '"vertex_uniform_l": null, "completely_uniform": false, '
    '"edge_sizes": {"0-1": 2, "1-2": 3, "2-3": 2}, "violations": ['
    '{"kind": "duplicate-vertex-labels", "message": "vertices 1 and 2 share the label {0,1}", '
    '"witness": [1, 2]}, '
    '{"kind": "duplicate-vertex-labels", "message": "vertices 0 and 3 share the label {0}", '
    '"witness": [0, 3]}, '
    '{"kind": "weak-equality", "message": "edge 1-2: |label| = 3 != max(2,2)", "witness": [1, 2]}, '
    '{"kind": "strong-equality", "message": "edge 1-2: |label| = 3 != 2*2", "witness": [1, 2]}, '
    '{"kind": "duplicate-edge-labels", "message": "edges 0-1 and 2-3 share the induced label {0,1}", '
    '"witness": [0, 1, 2, 3]}]}\n'
)
ANALYZE_K3_SQUARE4 = (
    '{"k": 4, "k_is_square": true, "divisor_count": 3, "classes": {"2": [0, 1, 2]}, '
    '"components": [{"vertices": [0, 1, 2], "kind": "square-class", "sizes": [2], "clique": true}], '
    '"bipartite_component_count": 0, "square_component_count": 1, "bipartite_bound": 1, '
    '"total_bound": 2, "bipartite_bound_satisfied": true, "total_bound_satisfied": true, '
    '"clique_component_present": true}\n'
)

# The same stdout as json.dumps(payload, indent=2) wrote it until the
# compact form replaced it; indenting the compact text gives it exactly.
K33_STRONG6_INDENT2 = """\
{
  "0": [
    3,
    4
  ],
  "1": [
    6,
    7
  ],
  "2": [
    9,
    10
  ],
  "3": [
    0,
    2,
    4
  ],
  "4": [
    1,
    3,
    5
  ],
  "5": [
    2,
    4,
    6
  ]
}
"""

COMPLETE_4_2_INDENT2 = """\
{
  "0": [
    0,
    8
  ],
  "1": [
    33,
    42
  ],
  "2": [
    68,
    78
  ],
  "3": [
    105,
    116
  ]
}
"""

SEARCH_P3_STRONG4_INDENT2 = """\
{
  "status": "found",
  "nodes_visited": 3,
  "witness": {
    "0": [
      0
    ],
    "1": [
      0,
      1,
      2,
      3
    ],
    "2": [
      1
    ]
  }
}
"""

REDUCE_P3_INDENT2 = """\
{
  "vertex_count": 2,
  "edges": [
    [
      0,
      1
    ]
  ],
  "labels": {
    "0": [
      0,
      1
    ],
    "1": [
      30,
      34
    ]
  }
}
"""

VERIFY_P4_ALL_KINDS_INDENT2 = """\
{
  "is_iasi": false,
  "is_weak": false,
  "is_strong": false,
  "uniform_k": null,
  "vertex_uniform_l": null,
  "completely_uniform": false,
  "edge_sizes": {
    "0-1": 2,
    "1-2": 3,
    "2-3": 2
  },
  "violations": [
    {
      "kind": "duplicate-vertex-labels",
      "message": "vertices 1 and 2 share the label {0,1}",
      "witness": [
        1,
        2
      ]
    },
    {
      "kind": "duplicate-vertex-labels",
      "message": "vertices 0 and 3 share the label {0}",
      "witness": [
        0,
        3
      ]
    },
    {
      "kind": "weak-equality",
      "message": "edge 1-2: |label| = 3 != max(2,2)",
      "witness": [
        1,
        2
      ]
    },
    {
      "kind": "strong-equality",
      "message": "edge 1-2: |label| = 3 != 2*2",
      "witness": [
        1,
        2
      ]
    },
    {
      "kind": "duplicate-edge-labels",
      "message": "edges 0-1 and 2-3 share the induced label {0,1}",
      "witness": [
        0,
        1,
        2,
        3
      ]
    }
  ]
}
"""

ANALYZE_K3_SQUARE4_INDENT2 = """\
{
  "k": 4,
  "k_is_square": true,
  "divisor_count": 3,
  "classes": {
    "2": [
      0,
      1,
      2
    ]
  },
  "components": [
    {
      "vertices": [
        0,
        1,
        2
      ],
      "kind": "square-class",
      "sizes": [
        2
      ],
      "clique": true
    }
  ],
  "bipartite_component_count": 0,
  "square_component_count": 1,
  "bipartite_bound": 1,
  "total_bound": 2,
  "bipartite_bound_satisfied": true,
  "total_bound_satisfied": true,
  "clique_component_present": true
}
"""

class TestVerifyCommand:
    def test_strong_p2(self, capsys, tmp_path, p2):
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [0, 2]}')
        code, out, _ = run(capsys, ["verify", "--graph", p2, "--labels", str(labels)])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_strong"] is True
        assert payload["uniform_k"] == 4
        assert payload["edge_sizes"] == {"0-1": 4}

    def test_false_answer_still_exits_zero(self, capsys, tmp_path, p2):
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [5, 6]}')
        code, out, _ = run(capsys, ["verify", "--graph", p2, "--labels", str(labels)])
        assert code == 0
        assert json.loads(out)["is_strong"] is False

    def test_missing_file_is_operational_error(self, capsys, tmp_path, p2):
        code, _, err = run(
            capsys, ["verify", "--graph", p2, "--labels", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "error:" in err

    def test_malformed_labels(self, capsys, tmp_path, p2):
        labels = tmp_path / "l.json"
        # a JSON boolean is not an integer label element; "00" names vertex 0
        # a second time; nesting past the recursion limit is invalid JSON, not
        # a traceback; an empty or a negative label names its vertex; an
        # element too long for int() is a labeling error, not Python's message
        deep = '{"0": ' + "[" * 200_000 + "]" * 200_000 + "}"
        for text, needle in (
            ("not json", "not valid JSON"),
            ('{"0": [true], "1": [0, 2]}', "vertex 0"),
            ('{"0": [1], "00": [2], "1": [3]}', "'00'"),
            (deep, "not valid JSON"),
            ('{"0": [0], "1": []}', "vertex 1"),
            ('{"0": [0], "1": [-1]}', "vertex 1"),
            ('{"0": [' + "1" * 5000 + '], "1": [2]}', "longer than 4300 digits"),
        ):
            labels.write_text(text)
            code, out, err = run(capsys, ["verify", "--graph", p2, "--labels", str(labels)])
            assert_one_line_error(code, out, err)
            assert needle in err, err

    def test_sparse_huge_vertex_id(self, capsys, tmp_path):
        graph = tmp_path / "sparse.txt"
        graph.write_text("0 200000\n")
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0], "1": [1]}')
        code, out, err = run(capsys, ["verify", "--graph", str(graph), "--labels", str(labels)])
        assert_one_line_error(code, out, err)
        assert len(err) < 200

    def test_many_missing_vertices(self, capsys, tmp_path):
        graph = tmp_path / "p20000.txt"
        graph.write_text("".join(f"{i} {i + 1}\n" for i in range(19_999)))
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0], "1": [1]}')
        code, out, err = run(capsys, ["verify", "--graph", str(graph), "--labels", str(labels)])
        assert_one_line_error(code, out, err)
        assert len(err) < 200

    @staticmethod
    def assert_huge_sum_is_written_short(capsys, tmp_path, p3, digits):
        # both edge labels are {10**digits}, one digit past what the labels
        # may hold: the message writes the sum by its bit length
        labels = tmp_path / "huge.json"
        labels.write_text(f'{{"0": [1], "1": [{"9" * digits}], "2": [1]}}')
        code, out, err = run(capsys, ["verify", "--graph", p3, "--labels", str(labels)])
        assert (code, err) == (0, "")
        violations = json.loads(out)["violations"]
        assert [v["kind"] for v in violations] == ["duplicate-vertex-labels", "duplicate-edge-labels"]
        bits = (10**digits).bit_length()
        assert violations[1]["message"] == f"edges 0-1 and 1-2 share the induced label {{<{bits}-bit integer>}}"

    def test_a_sum_past_the_int_digit_limit(self, capsys, tmp_path, p3):
        self.assert_huge_sum_is_written_short(capsys, tmp_path, p3, 4300)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
    def test_a_sum_past_a_lowered_int_digit_limit(self, capsys, tmp_path, p3):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            self.assert_huge_sum_is_written_short(capsys, tmp_path, p3, 640)
        finally:
            sys.set_int_max_str_digits(limit)


class TestConstructCommand:
    def test_strong_round_trip(self, capsys, tmp_path, k33):
        out_file = tmp_path / "labels.json"
        code, _, _ = run(
            capsys,
            ["construct", "--graph", k33, "--mode", "strong", "--k", "6",
             "--out", str(out_file)],
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["verify", "--graph", k33, "--labels", str(out_file)]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["is_strong"] is True and payload["uniform_k"] == 6

    def test_weak_round_trip(self, capsys, tmp_path, k33):
        out_file = tmp_path / "labels.json"
        assert run(
            capsys,
            ["construct", "--graph", k33, "--mode", "weak", "--k", "5",
             "--out", str(out_file)],
        )[0] == 0
        code, out, _ = run(capsys, ["verify", "--graph", k33, "--labels", str(out_file)])
        payload = json.loads(out)
        assert payload["is_weak"] is True and payload["uniform_k"] == 5

    def test_weak_mode_is_strong_mode_with_m_1(self, capsys, tmp_path, k33):
        # P_3, C_4 and a star K_{1,3}, with ids mixed across the components
        parts = tmp_path / "parts.txt"
        parts.write_text("9 4\n4 0\n1 7\n7 3\n3 10\n10 1\n5 2\n5 8\n5 6\n")
        for graph in (k33, str(parts)):
            for k in range(1, 13):
                weak = run(capsys, ["construct", "--graph", graph, "--mode", "weak", "--k", str(k)])
                strong = run(capsys, ["construct", "--graph", graph, "--mode", "strong", "--k", str(k),
                                      "--factors", f"1,{k}"])
                assert weak == strong and weak[0] == 0, (graph, k)

    def test_complete_mode(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["construct", "--mode", "complete", "--vertices", "4", "--l", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"0", "1", "2", "3"}
        assert all(len(v) == 2 for v in payload.values())
        # the library's one JSON form of a labeling
        assert out == construct_complete_strong(4, 2).to_json() + "\n"

    def test_explicit_factors(self, capsys, tmp_path, k33):
        code, out, _ = run(
            capsys,
            ["construct", "--graph", k33, "--mode", "strong", "--k", "6",
             "--factors", "3,2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert all(len(v) in (2, 3) for v in payload.values())

    def test_non_bipartite_is_error(self, capsys, tmp_path):
        tri = tmp_path / "k3.txt"
        tri.write_text("0 1\n1 2\n2 0\n")
        code, _, err = run(
            capsys, ["construct", "--graph", str(tri), "--mode", "strong", "--k", "6"]
        )
        assert code == 1
        assert "not bipartite" in err

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--k", "6"], "graph is not bipartite"),
            # the options are read before the constructor refuses the graph
            (["--k", "0"], "k must be in 1..2147483647"),
            (["--k", "6", "--factors", "2,4"], "factors 2*4 != k=6"),
        ],
        ids=["not-bipartite", "k-zero", "factors-product-not-k"],
    )
    def test_refusals_on_a_triangle(self, capsys, tmp_path, options, message):
        tri = tmp_path / "k3.txt"
        tri.write_text("0 1\n1 2\n2 0\n")
        code, out, err = run(capsys, ["construct", "--graph", str(tri), *options])
        assert_one_line_error(code, out, err)
        assert err == f"error: {message}\n"

    def test_byte_identical_output(self, capsys, tmp_path, k33, p3):
        argv = ["construct", "--graph", k33, "--mode", "strong", "--k", "6"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [10, 12], "2": [30, 34]}')
        p4 = tmp_path / "p4.txt"
        p4.write_text("0 1\n1 2\n2 3\n")
        p4_labels = tmp_path / "p4.json"
        p4_labels.write_text('{"0": [0], "1": [0, 1], "2": [0, 1], "3": [0]}')
        k3 = tmp_path / "k3.txt"
        k3.write_text("0 1\n1 2\n2 0\n")
        pinned = [
            (argv, K33_STRONG6, K33_STRONG6_INDENT2),
            (["construct", "--mode", "complete", "--vertices", "4", "--l", "2"], COMPLETE_4_2,
             COMPLETE_4_2_INDENT2),
            (["search", "--graph", p3, "--target", "strong", "--k", "4", "--universe", "4"],
             SEARCH_P3_STRONG4, SEARCH_P3_STRONG4_INDENT2),
            (["reduce", "--graph", p3, "--labels", str(labels), "--vertex", "1"], REDUCE_P3,
             REDUCE_P3_INDENT2),
            (["verify", "--graph", str(p4), "--labels", str(p4_labels)], VERIFY_P4_ALL_KINDS,
             VERIFY_P4_ALL_KINDS_INDENT2),
            (["analyze", "--graph", str(k3), "--labels", str(labels), "--k", "4"],
             ANALYZE_K3_SQUARE4, ANALYZE_K3_SQUARE4_INDENT2),
        ]
        for pinned_argv, expected, indented in pinned:
            assert run(capsys, pinned_argv) == (0, expected, ""), pinned_argv
            assert json.dumps(json.loads(expected), indent=2) + "\n" == indented, pinned_argv
        # json.tool indents each line of the compact text to the indented pin
        done = subprocess.run(
            [sys.executable, "-m", "json.tool", "--json-lines", "--indent", "2"],
            input="".join(p[1] for p in pinned), capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "".join(p[2] for p in pinned))


class TestSearchCommand:
    def test_exhausted_none(self, capsys, c5):
        code, out, err = run(
            capsys,
            ["search", "--graph", c5, "--target", "strong", "--k", "2",
             "--universe", "8"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "exhausted-none"
        assert payload["nodes_visited"] == 0  # C_5 with non-square k: no feasible size
        assert "only up to this bound" in err

    def test_deep_path(self, capsys, tmp_path):
        g = tmp_path / "p1100.txt"
        g.write_text("".join(f"{i} {i + 1}\n" for i in range(1099)))
        code, out, _ = run(
            capsys,
            ["search", "--graph", str(g), "--target", "any-strong",
             "--universe", "1300", "--max-size", "1"],
        )
        assert code == 0
        assert json.loads(out)["status"] == "found"

    def test_found_with_witness(self, capsys, p2):
        code, out, _ = run(
            capsys,
            ["search", "--graph", p2, "--target", "strong", "--k", "4",
             "--universe", "3"],
        )
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert set(payload["witness"]) == {"0", "1"}

    def test_largest_universe_with_default_max_size(self, capsys, p2, monkeypatch):
        # --max-size defaults to the universe size, 10**6 here; the search
        # enumerates only the label sizes it reaches, 1 at the root and 4
        # next to it, and builds nothing for the sizes up to 10**6
        sizes = []

        def combinations(pool, r, real=search.combinations):
            sizes.append(r)
            return real(pool, r)

        monkeypatch.setattr(search, "combinations", combinations)
        code, out, _ = run(
            capsys,
            ["search", "--graph", p2, "--target", "strong", "--k", "4",
             "--universe", "999999"],
        )
        assert sizes == [1, 4]
        assert code == 0
        assert out == json.dumps(
            {"status": "found", "nodes_visited": 2, "witness": {"0": [0], "1": [0, 1, 2, 3]}}
        ) + "\n"

    def test_usage_error_exit_2(self, capsys, p2):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--graph", p2, "--target", "sideways", "--universe", "4"])
        assert exc.value.code == 2


class TestReduceCommand:
    def test_reduce_p3(self, capsys, tmp_path):
        g = tmp_path / "p3.txt"
        g.write_text("0 1\n1 2\n")
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [10, 12], "2": [30, 34]}')
        code, out, _ = run(
            capsys, ["reduce", "--graph", str(g), "--labels", str(labels), "--vertex", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vertex_count"] == 2
        assert payload["edges"] == [[0, 1]]
        assert payload["labels"] == {"0": [0, 1], "1": [30, 34]}

    def test_shared_difference_reported(self, capsys, tmp_path):
        g = tmp_path / "p3.txt"
        g.write_text("0 1\n1 2\n")
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [10, 12], "2": [5, 6]}')
        code, _, err = run(
            capsys, ["reduce", "--graph", str(g), "--labels", str(labels), "--vertex", "1"]
        )
        assert code == 1
        assert "share [1]" in err


class TestAnalyzeCommand:
    def test_k3_square(self, capsys, tmp_path):
        g = tmp_path / "k3.txt"
        g.write_text("0 1\n1 2\n2 0\n")
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [10, 12], "2": [30, 34]}')
        code, out, _ = run(
            capsys,
            ["analyze", "--graph", str(g), "--labels", str(labels), "--k", "4"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["k_is_square"] is True
        assert payload["clique_component_present"] is True
        assert payload["components"][0]["kind"] == "square-class"


def divisor_forest(components):
    """Edge-list text and labeling of a strongly 4-uniform forest whose
    components alternate between 2*2 edges and stars of a singleton centre
    with 4-element leaves; every label is shifted clear of the others."""
    edges, labels = [], {}
    for c in range(components):
        v, o = len(labels), 1000 * c
        if c % 2:
            edges += [(v, v + 1)]
            labels |= {v: [o, o + 1], v + 1: [o + 10, o + 12]}
        else:
            edges += [(v, v + 1), (v, v + 2), (v, v + 3)]
            labels[v] = [o]
            labels |= {v + j: [o + 100 * j + t for t in range(4)] for j in (1, 2, 3)}
    text = "".join(f"{u} {w}\n" for u, w in edges)
    return text, Labeling({v: SetLabel(a) for v, a in labels.items()})


def report_values(value):
    """value, and every key and value nested in it, depth first."""
    yield value
    if type(value) is dict:
        for key, item in value.items():
            yield key
            yield from report_values(item)
    elif type(value) in (list, tuple):
        for item in value:
            yield from report_values(item)


class TestReportWriter:
    """_emit writes json.dumps(payload) and a newline, to stdout and to
    --out alike."""

    @pytest.mark.parametrize("command", [
        "verify", "construct-strong", "construct-weak", "construct-complete", "search-found",
        "search-exhausted-none", "reduce", "analyze",
    ])
    def test_payloads_hold_only_report_types(self, capsys, monkeypatch, tmp_path, k33, p3, c5,
                                             command):
        # the C encoder would write a float, and an int or tuple key as a
        # string, without a word; no command's payload holds one
        labels = tmp_path / "l.json"
        labels.write_text('{"0": [0, 1], "1": [10, 12], "2": [30, 34]}')
        k3 = tmp_path / "k3.txt"
        k3.write_text("0 1\n1 2\n2 0\n")
        argv = {
            # a strong labeling that fails weak equality: violations with witnesses
            "verify": ["verify", "--graph", p3, "--labels", str(labels)],
            "construct-strong": ["construct", "--graph", k33, "--k", "6"],
            "construct-weak": ["construct", "--graph", k33, "--mode", "weak", "--k", "5"],
            "construct-complete": ["construct", "--mode", "complete", "--vertices", "4", "--l", "2"],
            "search-found": ["search", "--graph", p3, "--target", "strong", "--k", "4", "--universe", "4"],
            "search-exhausted-none": ["search", "--graph", c5, "--target", "strong", "--k", "2",
                                      "--universe", "8"],
            "reduce": ["reduce", "--graph", p3, "--labels", str(labels), "--vertex", "1"],
            "analyze": ["analyze", "--graph", str(k3), "--labels", str(labels), "--k", "4"],
        }[command]
        payloads = []
        monkeypatch.setattr(iasi.cli, "_emit", lambda payload, out: payloads.append(payload))
        assert main(argv) == 0
        capsys.readouterr()
        [payload] = payloads
        assert type(payload) is dict and payload
        for value in report_values(payload):
            assert type(value) in (dict, list, tuple, str, int, bool, type(None)), (command, value)
            if type(value) is dict:
                assert {str}.issuperset(map(type, value)), (command, value)
        if command.startswith("search"):
            assert payload["status"] == command.removeprefix("search-")

    def test_cli_writes_json_dumps(self, capsys, tmp_path):
        # strong k = 6 K_{20,20}, and a small divisor forest
        kbb = "".join(f"{i} {20 + j}\n" for i in range(20) for j in range(20))
        g = parse_edge_list(kbb)
        f = construct_bipartite_strong(g, bipartition_of(g), ConstructionParams(6))
        forest_text, forest_labels = divisor_forest(12)
        forest = parse_edge_list(forest_text)
        cases = [
            ("verify", kbb, f, [], verify(g, f).as_dict()),
            ("analyze", forest_text, forest_labels, ["--k", "4"],
             analyze_divisor_partition(forest, forest_labels, 4).as_dict()),
        ]
        for command, edges, labeling, extra, payload in cases:
            graph, labels, out = (tmp_path / f"{command}.{ext}" for ext in ("txt", "json", "out"))
            graph.write_text(edges)
            labels.write_text(labeling.to_json())
            expected = json.dumps(payload) + "\n"
            argv = [command, "--graph", str(graph), "--labels", str(labels), *extra]
            assert run(capsys, argv) == (0, expected, ""), command
            assert run(capsys, [*argv, "--out", str(out)]) == (0, "", ""), command
            assert out.read_text(encoding="utf-8") == expected, command


# the exact line of the cases no other test reaches
ONE_LINE_ERRORS = {
    "factors-zero": "factors must be positive integers",
    "factors-product-not-k": "factors 2*2 != k=6",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--mode", "complete", "--vertices", "1", "--l", "2"],
        ["search", "--graph", "{p2}", "--target", "any-strong", "--k", "3", "--universe", "3"],
        ["construct", "--mode", "complete", "--vertices", "3", "--l", "2", "--out", "{dir}"],
        ["construct", "--graph", "{p2}", "--k", "0"],
        ["construct", "--graph", "{p2}", "--k", "2147483648"],
        ["construct", "--graph", "{p2}", "--k", "6", "--factors", "2"],
        ["construct", "--graph", "{p2}", "--k", "6", "--factors", "a,b"],
        ["construct", "--graph", "{p2}", "--k", "6", "--factors", "+2,3"],
        ["construct", "--graph", "{p2}", "--k", "6", "--factors", "0,6"],
        ["construct", "--graph", "{p2}", "--k", "6", "--factors", "2,2"],
        ["construct", "--mode", "complete", "--vertices", "3"],
        ["construct", "--mode", "weak", "--graph", "{p2}"],
        # above the element bound: checked before any allocation
        ["search", "--graph", "{p2}", "--target", "strong", "--k", "4",
         "--universe", "100000000000"],
        ["search", "--graph", "{p2}", "--target", "strong", "--k", "4",
         "--universe", "10000000000000000000"],
        ["construct", "--graph", "{p2}", "--k", "2147483647"],
        ["construct", "--mode", "complete", "--vertices", "2", "--l", "2147483647"],
        # options the mode does not read
        ["construct", "--graph", "{p2}", "--mode", "weak", "--k", "6", "--factors", "2,abc"],
        ["construct", "--mode", "complete", "--vertices", "3", "--l", "2", "--k", "9",
         "--graph", "{dir}/nonexistent"],
        ["construct", "--mode", "complete", "--vertices", "3", "--l", "2", "--factors", "1,2"],
        ["construct", "--graph", "{p2}", "--k", "6", "--vertices", "3"],
        ["construct", "--graph", "{p2}", "--mode", "weak", "--k", "6", "--l", "2"],
        ["construct", "--graph", "{p2}", "--k", "6", "--factors", ""],
        # over-long input is clipped in the error line
        ["verify", "--graph", "{dir}/long-id.txt", "--labels", "{dir}/long-key.json"],
        ["verify", "--graph", "{p2}", "--labels", "{dir}/long-key.json"],
        ["verify", "--graph", "{p2}", "--labels", "{dir}/long-unknown.json"],
        # 999 shared differences are summarized, not listed
        ["reduce", "--graph", "{p3}", "--labels", "{dir}/many-shared.json", "--vertex", "1"],
        # the count of ids not listed is clipped too
        ["search", "--graph", "{dir}/isolated.txt", "--target", "strong", "--k", "4", "--universe", "10"],
    ],
    ids=[
        "complete-one-vertex", "any-strong-with-k", "out-is-a-directory",
        "k-zero", "k-above-max", "factors-one-part", "factors-not-integers",
        "factors-plus-sign", "factors-zero", "factors-product-not-k",
        "complete-without-l", "weak-without-k",
        "universe-above-bound", "universe-above-int64", "strong-prime-k-above-bound",
        "complete-l-above-bound", "weak-with-factors", "complete-with-graph-and-k",
        "complete-with-factors", "strong-with-vertices", "weak-with-l", "factors-empty",
        "edge-id-above-digit-limit", "long-labeling-key", "long-unknown-vertex",
        "reduce-many-shared-differences", "many-isolated-vertices",
    ],
)
def test_rejected_input_is_a_one_line_error(capsys, tmp_path, p2, p3, argv, request):
    (tmp_path / "long-id.txt").write_text("0 " + "1" * 5000 + "\n")
    (tmp_path / "isolated.txt").write_text("0 1\n1 " + "2" * 4300)
    (tmp_path / "long-key.json").write_text(json.dumps({"a" * 3000: [0]}))
    (tmp_path / "long-unknown.json").write_text(json.dumps({"0": [0], "1": [1], "7" * 4000: [2]}))
    (tmp_path / "many-shared.json").write_text(
        json.dumps({0: list(range(1000)), 1: [10_000], 2: list(range(5000, 6000))})
    )
    code, out, err = run(capsys, [a.format(p2=p2, p3=p3, dir=tmp_path) for a in argv])
    assert_one_line_error(code, out, err)
    assert len(err.encode()) < 200, err
    message = ONE_LINE_ERRORS.get(request.node.callspec.id)
    assert message is None or err == f"error: {message}\n"


@pytest.mark.parametrize(
    "value", ["abc", "1_0", "+3", "\u0663"],
    ids=["letters", "underscore", "plus-sign", "arabic-indic-digit"],
)
def test_non_canonical_integer_is_usage_error(capsys, p2, value):
    # integer options follow the edge-list id rule: canonical decimals only
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--graph", p2, "--mode", "weak", "--k", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.count("error: ") == 1


CORPUS_EDGES = "0 1\n1 2\n2 3\n"
CORPUS_LABELS = '{"0": [0, 1], "1": [10, 12], "2": [30, 34], "3": [100, 108]}'
# spliced in anywhere: broken JSON, stray words, and numbers of the wrong kind
CORPUS_STRAY = ["x", "#", "{", "}", "[", "]", ",", ":", '"', " ", "\n", "\t", "-", "null", "true"]
# in place of one number: non-canonical ids, floats, booleans, bad values
CORPUS_NUMBERS = ["01", "+1", "1_0", "\u0663", "-1", "1.0", "1e3", "NaN", "true", "false",
                  "null", '"1"', "[1]", "99", "3", "0", "1" * 50]


def mutate(rng, text, labels):
    """text with one random defect: cut short, a token spliced in, one
    number replaced, or (labels only) one more vertex key."""
    kind = rng.randrange(4 if labels else 3)
    i = rng.randrange(len(text) + 1)
    if kind == 0:
        return text[:i]
    if kind == 1:
        return text[:i] + rng.choice(CORPUS_STRAY) + text[i:]
    if kind == 2:
        numbers = list(re.finditer(r"\d+", text))
        m = rng.choice(numbers)
        return text[:m.start()] + rng.choice(CORPUS_NUMBERS) + text[m.end():]
    key = rng.choice(['"4"', '"x"', '"1"', '"-1"', '"00"', '""'])
    return text[:-1] + f", {key}: [7]}}"


def test_malformed_input_corpus(capsys, tmp_path):
    # each mutated input is answered (exit 0) or rejected with one short
    # error line (exit 1) by every command that reads it; never a traceback
    rng = Random(11)
    graph, labels = tmp_path / "g.txt", tmp_path / "l.json"
    codes = Counter()
    for _ in range(200):
        which = rng.randrange(3)
        edges = mutate(rng, CORPUS_EDGES, False) if which != 1 else CORPUS_EDGES
        labeling = mutate(rng, CORPUS_LABELS, True) if which != 0 else CORPUS_LABELS
        graph.write_text(edges)
        labels.write_text(labeling)
        files = ["--graph", str(graph), "--labels", str(labels)]
        for argv in (["verify", *files], ["reduce", *files, "--vertex", "1"],
                     ["analyze", *files, "--k", "4"]):
            code, out, err = run(capsys, argv)
            codes[code] += 1
            case = (argv[0], edges, labeling, err)
            if code:
                assert_one_line_error(code, out, err)
                assert len(err.encode()) < 200, case
            else:
                assert err == "" and json.loads(out), case
    assert codes[0] and codes[1] and set(codes) == {0, 1}


def test_package_names_survive_submodule_imports():
    # importing a submodule binds it as an attribute of the package; every
    # re-exported name, `verify` among them, must still give the object
    import iasi
    import iasi.cli  # noqa: F401  (imports every submodule)
    from iasi import verify

    assert callable(verify) and not isinstance(verify, types.ModuleType)
    for name in iasi.__all__:
        assert not isinstance(getattr(iasi, name), types.ModuleType), name
        # __all__ is read off the package's imports: no stdlib object in it
        assert getattr(iasi, name).__module__.startswith("iasi."), name


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "iasi" in capsys.readouterr().out


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_python_m_exits_with_the_code_main_returns(capsys, tmp_path, p2):
    # `python -m iasi.cli` runs run(), which returns main()'s code, under
    # the __main__ guard
    labels = tmp_path / "l.json"
    labels.write_text('{"0": [0, 1], "1": [10, 12]}')
    env = dict(os.environ, PYTHONPATH=str(Path(iasi.__file__).resolve().parents[1]))
    for argv in (["verify", "--graph", p2, "--labels", str(labels)],
                 ["verify", "--graph", p2, "--labels", str(tmp_path / "missing.json")]):
        done = subprocess.run([sys.executable, "-m", "iasi.cli", *argv], capture_output=True,
                              text=True, timeout=60, env=env)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, argv)


def garbage_left_by(call) -> int:
    """The objects gc.collect() finds unreachable after call() has run with
    the collector off."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_commands_leave_no_cycles_but_the_parser(capsys, tmp_path, p3):
    # run() turns the collector off for the process: every command, its
    # error exits and a cut search included, must leave nothing for it but
    # the cycles of argparse's own parser
    labels = tmp_path / "l.json"
    labels.write_text('{"0": [0, 1], "1": [10, 12], "2": [30, 34]}')
    files = ["--graph", p3, "--labels", str(labels)]
    search = ["search", "--graph", p3, "--target", "strong", "--k", "4", "--universe", "3"]
    runs = [
        (0, ["verify", *files]),
        (0, ["construct", "--graph", p3, "--k", "6"]),
        (0, ["construct", "--mode", "complete", "--vertices", "4", "--l", "2"]),
        (0, search),
        (0, [*search, "--budget", "1"]),
        (0, ["reduce", *files, "--vertex", "1"]),
        (0, ["analyze", *files, "--k", "4"]),
        (1, ["verify", "--graph", p3, "--labels", str(tmp_path / "missing.json")]),
        (1, ["verify", "--graph", str(labels), "--labels", str(labels)]),
        (1, ["reduce", *files, "--vertex", "0"]),
    ]
    parser = garbage_left_by(build_parser)
    assert parser > 0
    for code, argv in runs:
        codes = []
        assert garbage_left_by(lambda: codes.append(main(argv))) <= parser, argv
        assert codes == [code], argv
    assert '"budget-exceeded"' in capsys.readouterr().out


def test_the_process_entry_turns_the_collector_off(p3):
    script = (
        "import gc, sys\n"
        "import iasi.cli\n"
        f"sys.argv = ['iasi', 'search', '--graph', {p3!r}, '--target', 'strong', '--k', '4', '--universe', '3']\n"
        "code = iasi.cli.run()\n"
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(iasi.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False True"
