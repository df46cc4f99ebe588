"""The record types: immutable, readable, validated, and cheap to import."""

import subprocess
import sys
from pathlib import Path

import pytest

import iasi.cli
from iasi import (
    ConstructionError,
    ConstructionParams,
    Labeling,
    SearchSpec,
    SetLabel,
    analyze_divisor_partition,
    bipartition_of,
    brute_force_search,
    path_graph,
    verify,
)

P2_STRONG4 = Labeling({0: SetLabel([0, 1]), 1: SetLabel([0, 2])})

# one instance of each record type, with its field names in order
RECORDS = {
    "Bipartition": (lambda: bipartition_of(path_graph(3)), ("side_x", "side_y")),
    "VerificationReport": (
        lambda: verify(path_graph(2), P2_STRONG4),
        ("is_iasi", "is_weak", "is_strong", "uniform_k", "vertex_uniform_l",
         "completely_uniform", "edge_sizes", "violations"),
    ),
    "ComponentReport": (
        lambda: analyze_divisor_partition(path_graph(2), P2_STRONG4, 4).components[0],
        ("vertices", "kind", "sizes", "clique"),
    ),
    "PartitionReport": (
        lambda: analyze_divisor_partition(path_graph(2), P2_STRONG4, 4),
        ("k", "k_is_square", "divisor_count", "classes", "components",
         "bipartite_component_count", "square_component_count", "bipartite_bound",
         "total_bound", "bipartite_bound_satisfied", "total_bound_satisfied",
         "clique_component_present"),
    ),
    "SearchOutcome": (
        lambda: brute_force_search(path_graph(2), SearchSpec(3, 4, "strong", 4)),
        ("status", "witness", "nodes_visited"),
    ),
    "SearchSpec": (
        lambda: SearchSpec(8, 2, "strong", 4),
        ("universe_max", "max_label_size", "target", "k", "node_budget"),
    ),
    "ConstructionParams": (lambda: ConstructionParams(6, 2), ("k", "m")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_names_its_fields(name):
    make, fields = RECORDS[name]
    record = make()
    body = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({body})"


def test_small_record_reprs():
    assert repr(ConstructionParams(4)) == "ConstructionParams(k=4, m=None)"
    assert repr(SearchSpec(8, 2, "strong", 4)) == (
        "SearchSpec(universe_max=8, max_label_size=2, target='strong', k=4, node_budget=10000000)"
    )
    assert repr(bipartition_of(path_graph(3))) == (
        "Bipartition(side_x=frozenset({0, 2}), side_y=frozenset({1}))"
    )


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: ConstructionParams(0), ConstructionError, "k must be positive"),
        (lambda: ConstructionParams(k=-2), ConstructionError, "k must be positive"),
        (lambda: ConstructionParams(6, 0), ConstructionError,
         "^m must be a positive divisor of k=6$"),
        (lambda: ConstructionParams(k=6, m=-1), ConstructionError,
         "^m must be a positive divisor of k=6$"),
        (lambda: ConstructionParams(6, 4), ConstructionError,
         "^m must be a positive divisor of k=6$"),
        (lambda: ConstructionParams(k=6, m=5), ConstructionError,
         "^m must be a positive divisor of k=6$"),
        (lambda: SearchSpec(-1, 1, "any-strong"), ValueError, "universe_max must be in"),
        (lambda: SearchSpec(universe_max=10**6, max_label_size=1, target="any-strong"),
         ValueError, "universe_max must be in"),
        (lambda: SearchSpec(3, 0, "any-strong"), ValueError, "max_label_size must be positive"),
        (lambda: SearchSpec(3, 5, "any-strong"), ValueError,
         "max_label_size exceeds the universe size"),
        (lambda: SearchSpec(3, 2, "any-strong", None, 0), ValueError,
         "node_budget must be positive"),
        (lambda: SearchSpec(3, 2, "any-strong", node_budget=-5), ValueError,
         "node_budget must be positive"),
        (lambda: SearchSpec(3, 2, "uniform"), ValueError, "unknown target 'uniform'"),
        # k defaults to None, which the uniform targets refuse
        (lambda: SearchSpec(8, 2, "strong"), ValueError, "target 'strong' requires a positive k"),
        (lambda: SearchSpec(8, 2, target="weak", k=0), ValueError,
         "target 'weak' requires a positive k"),
        (lambda: SearchSpec(8, 2, "any-strong", 4), ValueError, "target 'any-strong' takes no k"),
        # bool is a subclass of int, and a float may equal an int, but
        # neither is a size, a budget or a divisor
        (lambda: SearchSpec(4.0, 2, "any-strong"), ValueError, "universe_max must be an integer"),
        (lambda: SearchSpec(4, 2.0, "any-strong"), ValueError, "max_label_size must be an integer"),
        (lambda: SearchSpec(4, True, "any-strong"), ValueError,
         "max_label_size must be an integer"),
        (lambda: SearchSpec(4, 2, "strong", 4.0), ValueError, "k must be an integer"),
        (lambda: SearchSpec(4, 2, "weak", True), ValueError, "k must be an integer"),
        (lambda: SearchSpec(4, 2, "any-strong", None, 1e6), ValueError,
         "node_budget must be an integer"),
        (lambda: ConstructionParams(True), ConstructionError, "k must be an integer"),
        (lambda: ConstructionParams(6.0, 2), ConstructionError, "k must be an integer"),
        (lambda: ConstructionParams(6, 2.0), ConstructionError,
         "^m must be a positive divisor of k=6$"),
        (lambda: ConstructionParams(1, True), ConstructionError,
         "^m must be a positive divisor of k=1$"),
        # a factor pair is not a divisor
        (lambda: ConstructionParams(6, (2, 3)), ConstructionError,
         "^m must be a positive divisor of k=6$"),
        (lambda: ConstructionParams(6, "ab"), ConstructionError,
         "^m must be a positive divisor of k=6$"),
    ],
)
def test_validated_records_reject_bad_arguments(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_replace_validates():
    assert SearchSpec(8, 2, "strong", 4)._replace(k=9).k == 9
    with pytest.raises(ValueError, match="node_budget must be positive"):
        SearchSpec(8, 2, "strong", 4)._replace(node_budget=0)
    assert ConstructionParams(6, 2)._replace(m=3) == (6, 3)
    with pytest.raises(ConstructionError, match="^m must be a positive divisor of k=5$"):
        ConstructionParams(6, 2)._replace(k=5)
    with pytest.raises(ConstructionError, match="^m must be a positive divisor of k=6$"):
        ConstructionParams(6, 2)._replace(m=0)
    with pytest.raises(ValueError, match="k must be an integer"):
        SearchSpec(8, 2, "strong", 4)._replace(k=4.0)
    with pytest.raises(ConstructionError, match="k must be an integer"):
        ConstructionParams(1)._replace(k=True)
    with pytest.raises(ConstructionError, match="^m must be a positive divisor of k=6$"):
        ConstructionParams(6, 2)._replace(m=2.0)


def test_search_spec_default_budget():
    spec = SearchSpec(8, 2, "strong", 4)
    assert spec.node_budget == 10_000_000
    assert SearchSpec(8, 2, "strong", k=4) == spec


def test_cli_search_default_budget(monkeypatch, tmp_path, capsys):
    # the default --budget must reach the search as the spec's own default
    graph = tmp_path / "p2.txt"
    graph.write_text("0 1\n")
    specs = []
    real = iasi.cli.brute_force_search
    monkeypatch.setattr(iasi.cli, "brute_force_search",
                        lambda g, spec: specs.append(spec) or real(g, spec))
    code = iasi.cli.main(["search", "--graph", str(graph), "--target", "strong",
                          "--k", "4", "--universe", "3"])
    assert code == 0 and '"status": "found"' in capsys.readouterr().out
    assert [spec.node_budget for spec in specs] == [10_000_000]


def test_cli_start_up_imports_no_dataclasses(tmp_path):
    # the records are named tuples, so a CLI process never loads
    # dataclasses, and with it inspect, ast, dis and tokenize
    graph = tmp_path / "p2.txt"
    graph.write_text("0 1\n")
    src = str(Path(iasi.__file__).resolve().parents[1])
    script = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import iasi, iasi.cli\n"
        f"code = iasi.cli.main(['search', '--graph', {str(graph)!r}, '--target', 'strong',"
        " '--k', '4', '--universe', '3'])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 []"


def test_cli_run_loads_only_the_stdlib_modules_it_imports(tmp_path):
    # a run of every command that writes a report (parsing, the work, the
    # JSON writer) loads no module beyond the stdlib modules src/iasi
    # imports and what argparse loads when it builds a parser
    (tmp_path / "p3.txt").write_text("0 1\n1 2\n")
    (tmp_path / "l.json").write_text('{"0": [0, 1], "1": [10, 12], "2": [30, 34]}')
    files = [f"--graph={tmp_path / 'p3.txt'}", f"--labels={tmp_path / 'l.json'}"]
    runs = [["verify", *files, f"--out={tmp_path / 'out.json'}"], ["analyze", *files, "--k=4"],
            ["reduce", *files, "--vertex=1"], ["construct", files[0], "--k=6"],
            ["search", files[0], "--target=strong", "--k=4", "--universe=3"]]
    src = str(Path(iasi.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import __future__, argparse, collections, itertools, json, math, types, typing\n"
        "argparse.ArgumentParser(prog='x').add_argument('--x')\n"
        "stdlib = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "import iasi.cli\n"
        f"codes = [iasi.cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in set(sys.modules) - stdlib if m.split('.')[0] != 'iasi'))\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def test_records_are_tuples_of_their_fields():
    # documented: records equal the plain tuple of their fields and unpack
    bp = bipartition_of(path_graph(3))
    side_x, side_y = bp
    assert bp == (frozenset({0, 2}), frozenset({1})) and len(bp) == 2
    assert (side_x, side_y) == (bp.side_x, bp.side_y)
    assert ConstructionParams(6, 2) == (6, 2) and hash(ConstructionParams(6, 2)) == hash((6, 2))
    report = verify(path_graph(2), P2_STRONG4)
    assert list(report._asdict()) == list(report.as_dict())
