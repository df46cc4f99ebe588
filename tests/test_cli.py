"""End-to-end CLI checks: flag grammar, JSON output, exit codes, round trips."""

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
    construct_bipartite_strong, parse_edge_list, search, verify,
)
from iasi.cli import _dumps, main


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
# byte-identical JSON.
K33_STRONG6 = """\
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

COMPLETE_4_2 = """\
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

SEARCH_P3_STRONG4 = """\
{
  "status": "found",
  "nodes_visited": 4,
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

REDUCE_P3 = """\
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


# P_4 labeled {0},{0,1},{0,1},{0}: all four violation kinds
VERIFY_P4_ALL_KINDS = """\
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

ANALYZE_K3_SQUARE4 = """\
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

    def test_complete_mode(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["construct", "--mode", "complete", "--vertices", "4", "--l", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"0", "1", "2", "3"}
        assert all(len(v) == 2 for v in payload.values())

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
            (argv, K33_STRONG6),
            (["construct", "--mode", "complete", "--vertices", "4", "--l", "2"], COMPLETE_4_2),
            (["search", "--graph", p3, "--target", "strong", "--k", "4", "--universe", "4"],
             SEARCH_P3_STRONG4),
            (["reduce", "--graph", p3, "--labels", str(labels), "--vertex", "1"], REDUCE_P3),
            (["verify", "--graph", str(p4), "--labels", str(p4_labels)], VERIFY_P4_ALL_KINDS),
            (["analyze", "--graph", str(k3), "--labels", str(labels), "--k", "4"],
             ANALYZE_K3_SQUARE4),
        ]
        for pinned_argv, expected in pinned:
            assert run(capsys, pinned_argv) == (0, expected, ""), pinned_argv


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
            {"status": "found", "nodes_visited": 2,
             "witness": {"0": [0], "1": [0, 1, 2, 3]}},
            indent=2,
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


class TestReportWriter:
    """_emit writes json.dumps(payload, indent=2) and a newline, through
    its own writer."""

    def test_matches_json_dumps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # non-ASCII, quote, backslash, control characters and a lone surrogate
        chars = st.sampled_from('a"\\\x00\x1f\x7f\n\t\u00e9\u20ac\U0001f600\u2028\ud800')
        text = st.text(chars | st.characters(), max_size=6)
        ints = st.integers() | st.sampled_from([0, -1, 2**64, 2**64 + 1, -(2**70)])
        leaves = st.none() | st.booleans() | ints | text
        values = st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(text, inner, max_size=4),
            max_leaves=24,
        )

        @hypothesis.settings(derandomize=True, max_examples=200, database=None, deadline=None)
        @hypothesis.given(values)
        @hypothesis.example({"a": {}, "b": [[], {}, ()], "": [[[]]]})
        def check(value):
            assert _dumps(value) == json.dumps(value, indent=2)

        check()

    @pytest.mark.parametrize("value", [1.5, {"a": [0, 0.5]}, {1: 2}, {"a": {("b",): 1}}],
                             ids=["float", "nested-float", "int-key", "tuple-key"])
    def test_rejects_what_no_report_holds(self, value):
        with pytest.raises(TypeError):
            _dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            list(range(-10_000, 10_000)),
            {f"{u}-{u + 1}": [u, u + 1] for u in range(50)},
            [{"kind": "weak-equality", "witness": [u, 2 * u]} for u in range(5)],
            [0, True, 1, False, -1, [True, 2], (3, False), 2**64],
            [-1, -(2**63), 2**64, 2**64 + 1, -(2**70), 10**40],
        ],
        ids=["20000-ints", "witness-dict", "witness-list", "ints-and-bools", "negative-and-huge"],
    )
    def test_int_lists_match_json_dumps(self, value):
        # the hypothesis strategy above draws only short lists
        assert _dumps(value) == json.dumps(value, indent=2)

    def test_cli_writes_json_dumps_indent_2(self, capsys, tmp_path):
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
            expected = json.dumps(payload, indent=2) + "\n"
            argv = [command, "--graph", str(graph), "--labels", str(labels), *extra]
            assert run(capsys, argv) == (0, expected, ""), command
            assert run(capsys, [*argv, "--out", str(out)]) == (0, "", ""), command
            assert out.read_text(encoding="utf-8") == expected, command


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
    ],
    ids=[
        "complete-one-vertex", "any-strong-with-k", "out-is-a-directory",
        "k-zero", "k-above-max", "factors-one-part", "factors-not-integers",
        "factors-plus-sign", "complete-without-l", "weak-without-k",
        "universe-above-bound", "universe-above-int64", "strong-prime-k-above-bound",
        "complete-l-above-bound", "weak-with-factors", "complete-with-graph-and-k",
        "complete-with-factors", "strong-with-vertices", "weak-with-l", "factors-empty",
        "edge-id-above-digit-limit", "long-labeling-key", "long-unknown-vertex",
        "reduce-many-shared-differences",
    ],
)
def test_rejected_input_is_a_one_line_error(capsys, tmp_path, p2, p3, argv):
    (tmp_path / "long-id.txt").write_text("0 " + "1" * 5000 + "\n")
    (tmp_path / "long-key.json").write_text(json.dumps({"a" * 3000: [0]}))
    (tmp_path / "long-unknown.json").write_text(json.dumps({"0": [0], "1": [1], "7" * 4000: [2]}))
    (tmp_path / "many-shared.json").write_text(
        json.dumps({0: list(range(1000)), 1: [10_000], 2: list(range(5000, 6000))})
    )
    code, out, err = run(capsys, [a.format(p2=p2, p3=p3, dir=tmp_path) for a in argv])
    assert_one_line_error(code, out, err)
    assert len(err.encode()) < 200, err


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
    # `python -m iasi.cli` runs main() under the __main__ guard
    labels = tmp_path / "l.json"
    labels.write_text('{"0": [0, 1], "1": [10, 12]}')
    env = dict(os.environ, PYTHONPATH=str(Path(iasi.__file__).resolve().parents[1]))
    for argv in (["verify", "--graph", p2, "--labels", str(labels)],
                 ["verify", "--graph", p2, "--labels", str(tmp_path / "missing.json")]):
        done = subprocess.run([sys.executable, "-m", "iasi.cli", *argv], capture_output=True,
                              text=True, timeout=60, env=env)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, argv)
