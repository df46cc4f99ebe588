"""Seeded inputs and job lists of the three benchmark workloads.

A workload is built from plain Python data (edge-list text, label dicts), so
every call into ``iasi`` happens inside a timed job.  Jobs call the library
through module attributes (``construct.verify`` style lookups at call time),
which lets the traced run swap in wrappers without touching the jobs.

Seeds.  The seed picks a permutation of vertex ids and of edge-list line
order (and the orientation of each line).  Flags, statuses and counts do not
change under a relabeling, so they stay checkable.  The search graphs keep
their canonical vertex ids, except the path: the DFS places vertices in id
order, and a relabeled C_5 visits anywhere from 2,403 to 155,493 nodes for
the same k, so a per-seed relabeling would make the wall time of two seeds
measure different amounts of work.  The search inputs therefore vary only in
line order and orientation; P_600 is relabeled, which moves its node count by
under 1%.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("search", "build_verify", "cli")


@dataclass
class Job:
    """One unit of closed-loop work.

    ``run(state)`` does the timed work and returns its output; ``check(out)``
    is the independent oracle, run on the first pass and returning a list of
    problems; ``digest(out)`` is a cheap summary that later passes must
    reproduce exactly.
    """

    name: str
    run: Callable
    check: Callable
    digest: Callable


# ---------------------------------------------------------------- generators


def edge_text(rng: random.Random, edges) -> str:
    """Edge-list text with shuffled lines and a random orientation per line."""
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def relabel(rng: random.Random, n: int, edges):
    """A random vertex permutation sigma and the edges mapped through it."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma, [(sigma[u], sigma[v]) for u, v in edges]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def complete_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def bipartite_edges(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def bipartite_strong_labels(xs, ys, m, n):
    """Strongly (m*n)-uniform labels of K_{|xs|,|ys|}: m-element intervals
    spaced by a stride on one side, n-term progressions of step m on the
    other.  Written here, not taken from ``iasi.construct``, so the cli input
    does not depend on the code under test."""
    stride = m + n * m * len(ys)
    labels = {u: list(range(x * stride, x * stride + m)) for x, u in enumerate(sorted(xs))}
    labels.update({v: [y + s * m for s in range(n)] for y, v in enumerate(sorted(ys))})
    return labels


def strong_path(rng: random.Random, n: int, removals):
    """P_n with vertex at path position i labeled {L*i, L*i+i+1}, L = 4n.

    Position i has difference set {i+1}, so all difference sets are
    disjoint and the labeling is strongly 4-uniform; the minimum L*(2i+1) of
    each edge label makes the edge labels distinct, and an edge created by
    a reduction has the even minimum 2*L*i.  Returns the relabeled edges,
    labels, and the vertex ids to pass to successive reductions of the
    given path positions (ids above a removed vertex shift down by one).
    """
    big = 4 * n
    sigma, edges = relabel(rng, n, path_edges(n))
    labels = {sigma[i]: [big * i, big * i + i + 1] for i in range(n)}
    ids = list(sigma)
    order = []
    for pos in removals:
        v = ids[pos]
        order.append(v)
        ids = [None if x is None or x == v else x - (x > v) for x in ids]
    return edges, labels, order


def divisor_forest(rng: random.Random, pairs: int, triangles: int):
    """A strongly 4-uniform labeling of ``pairs`` K_2 and ``triangles`` K_3
    components, relabeled.

    K_2 components alternate size patterns (1, 4) and (2, 2); triangles are
    {b, b+1}, {b, b+2}, {b, b+3}, whose difference sets {1}, {2}, {3} are
    disjoint.  Each component sits in its own block of 16, so vertex and
    edge labels are distinct.  The triangles make ``analyze`` run its clique
    check; K_2 components skip it.
    """
    edges, raw = [], []
    for c in range(pairs + triangles):
        b = 16 * c
        v = 3 * c  # three ids reserved per component; compacted below
        if c >= pairs:
            raw += [(v, [b, b + 1]), (v + 1, [b, b + 2]), (v + 2, [b, b + 3])]
            edges += [(v, v + 1), (v, v + 2), (v + 1, v + 2)]
        elif c % 2:
            raw += [(v, [b, b + 1]), (v + 1, [b, b + 2])]
            edges.append((v, v + 1))
        else:
            raw += [(v, [b]), (v + 1, [b + 1, b + 2, b + 3, b + 4])]
            edges.append((v, v + 1))
    dense = {v: i for i, (v, _) in enumerate(raw)}
    sigma, edges = relabel(rng, len(raw), [(dense[u], dense[v]) for u, v in edges])
    labels = {sigma[dense[v]]: lab for v, lab in raw}
    return edges, labels


def labels_json(labels: dict) -> str:
    return json.dumps({str(v): labels[v] for v in sorted(labels)})


# ------------------------------------------------------------------ workloads


def search_inputs(rng: random.Random) -> dict:
    """Search instances: name -> (edge-list text, SearchSpec arguments
    (universe, max label size, target, k), vertex count, edges).  Only
    P_600 is relabeled; see the module docstring."""
    out = {}

    def add(name, n, edges, spec, keep_ids=True):
        if not keep_ids:
            _, edges = relabel(rng, n, edges)
        out[name] = (edge_text(rng, edges), spec, n, edges)

    for k in (2, 3, 5):
        add(f"c5-k{k}", 5, cycle_edges(5), (8, 9, "strong", k))
    add("c5-k4-u12", 5, cycle_edges(5), (12, 13, "strong", 4))
    add("c3-k4-u40", 3, cycle_edges(3), (40, 41, "strong", 4))
    add("k4-k9-u30", 4, complete_edges(4), (30, 31, "strong", 9))
    add("p600-any", 600, path_edges(600), (800, 1, "any-strong", None), keep_ids=False)
    add("count-c4", 4, cycle_edges(4), (5, 2, "strong", 2))
    add("count-p4", 4, path_edges(4), (4, 2, "any-strong", None))
    add("count-k13", 4, bipartite_edges(1, 3), (4, 2, "weak", 2))
    return out


def build_inputs(workload: str, seed: int) -> dict:
    """Everything a workload needs, generated from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return {"search": search_inputs(rng)}
    inputs = {}
    sigma, kbb = relabel(rng, 300, bipartite_edges(150, 150))
    inputs["kbb"] = (edge_text(rng, kbb), kbb, set(sigma[:150]), set(sigma[150:]))
    inputs["path"] = strong_path(rng, 2000, [100 * j + 50 for j in range(20)])
    inputs["path_text"] = edge_text(rng, inputs["path"][0])
    forest_edges, forest_labels = divisor_forest(rng, 10_000, 100)
    inputs["forest"] = (edge_text(rng, forest_edges), forest_edges, forest_labels)
    if workload == "cli":
        inputs["kbb_k6"] = bipartite_strong_labels(inputs["kbb"][2], inputs["kbb"][3], 2, 3)
        inputs["search"] = search_inputs(rng)
    return inputs


def write_cli_files(inputs: dict, workdir: str) -> dict:
    """Write the cli input files; returns name -> path."""
    files = {
        "kbb.txt": inputs["kbb"][0],
        "kbb_k6.json": labels_json(inputs["kbb_k6"]),
        "path.txt": inputs["path_text"],
        "path.json": labels_json(inputs["path"][1]),
        "forest.txt": inputs["forest"][0],
        "forest.json": labels_json(inputs["forest"][2]),
        "c5.txt": inputs["search"]["c5-k3"][0],
        "c3.txt": inputs["search"]["c3-k4-u40"][0],
    }
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(workdir, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def search_jobs(inputs: dict, iasi, oracle) -> list[Job]:
    """Heavy search with almost no ``graphs`` or ``verify`` work.

    * C_5 strong, U=8, k=2/3/5: complete trees ending exhausted-none
      (15k/72k/155k nodes); the odd-cycle theorem backs each pin.
    * C_5 strong k=4, U=12: a deep tree that ends found after 130k nodes.
    * C_3 k=4 U=40, K_4 k=9 U=30: early exits, where per-call set-up
      weighs as much as the DFS.
    * P_600 any-strong, singletons, U=800: a 600-deep DFS.  It stays below
      Python's recursion limit; ``iasi search`` still dies with a
      RecursionError near 1,100 vertices, which no job here covers.
    * count_labelings on C_4, P_4 and K_{1,3}: full enumeration of small
      spaces, checked against the oracle's unpruned enumeration (about
      0.3 s for the three on a 2-vCPU VM, once per run, outside the timed
      passes).
    """
    graphs, search = iasi.graphs, iasi.search
    jobs = []
    for name, (text, spec_args, n, edges) in inputs["search"].items():
        spec = search.SearchSpec(*spec_args)
        if name.startswith("count-"):
            def run(state, text=text, spec=spec):
                return search.count_labelings(graphs.parse_edge_list(text), spec)

            def check(out, n=n, edges=edges, spec_args=spec_args):
                want = oracle.unpruned_count(n, edges, spec_args)
                return [] if out == want else [f"count {out} != unpruned count {want}"]

            jobs.append(Job(name, run, check, lambda out: out))
            continue

        def run(state, text=text, spec=spec):
            return search.brute_force_search(graphs.parse_edge_list(text), spec)

        def check(out, name=name, n=n, edges=edges, spec_args=spec_args):
            return oracle.check_search(name, out.status, out.witness and labels_of(out.witness), n, edges, spec_args)

        jobs.append(Job(name, run, check, lambda out: (out.status, out.nodes_visited, out.witness)))
    return jobs


def labels_of(labeling) -> dict:
    """Plain {vertex: tuple} view of an ``iasi`` Labeling."""
    return {v: tuple(labeling[v].elements) for v in labeling.vertices()}


def build_verify_jobs(inputs: dict, iasi, oracle) -> list[Job]:
    """The library pipeline on large inputs, with no search.

    * parse the 22,500-edge K_{150,150} and take its bipartition;
    * construct strong k=6, strong k=60 and weak k=5 labelings, each
      followed by ``verify`` (the k=60 sumsets are the largest);
    * ``check_strong_criterion`` and a labeling JSON round-trip;
    * ``analyze_divisor_partition`` on 10,000 K_2 and 100 K_3 components,
      which runs a full ``verify`` and one ``is_clique`` per triangle;
    * 20 chained ``topological_reduce`` calls on a strong P_2000, each of
      which runs ``verify`` again;
    * ``construct_complete_strong(150, 3)``, mostly ``mian_chowla``, then
      ``verify`` on K_150.
    """
    graphs, verify, construct = iasi.graphs, iasi.verify, iasi.construct
    setlabel = iasi.setlabel
    kbb_text, kbb_edges, side_a, side_b = inputs["kbb"]
    path_edges_, path_labels, removals = inputs["path"]
    path_text = inputs["path_text"]
    forest_text, forest_edges, forest_labels = inputs["forest"]

    def parse(state):
        g = graphs.parse_edge_list(kbb_text)
        state["g"], state["bp"] = g, graphs.bipartition_of(g)
        return g, state["bp"]

    def check_parse(out):
        g, bp = out
        problems = oracle.same_graph(g, 300, kbb_edges)
        if bp is None or {frozenset(bp.side_x), frozenset(bp.side_y)} != {frozenset(side_a), frozenset(side_b)}:
            problems.append("bipartition differs from the generated sides")
        return problems

    def constructed(name, make, kind, k):
        def run(state):
            f = make(state)
            state[name] = f
            return f, verify.verify(state["g"], f)

        def check(out):
            f, report = out
            return oracle.check_labeling(300, kbb_edges, labels_of(f), kind, k=k) + oracle.check_report(
                report, 300, kbb_edges, labels_of(f)
            )

        return Job(name, run, check, digest_labeled)

    def criterion(state):
        f = state["strong6"]
        back = verify.Labeling.from_json(f.to_json())
        return verify.check_strong_criterion(state["g"], f), back == f

    def analyze(state):
        g = graphs.parse_edge_list(forest_text)
        f = verify.Labeling({v: setlabel.SetLabel(lab) for v, lab in forest_labels.items()})
        return verify.analyze_divisor_partition(g, f, 4)

    def reduce_chain(state):
        g = graphs.parse_edge_list(path_text)
        f = verify.Labeling({v: setlabel.SetLabel(lab) for v, lab in path_labels.items()})
        for v in removals:
            g, f = construct.topological_reduce(g, f, v)
        return g, f

    def check_reduce(out):
        g, f = out
        return oracle.check_reduction(g.vertex_count, g.edges, labels_of(f), path_edges_, path_labels, removals)

    def complete(state):
        f = construct.construct_complete_strong(150, 3)
        return f, verify.verify(graphs.complete_graph(150), f)

    def check_complete(out):
        f, report = out
        edges = complete_edges(150)
        return oracle.check_labeling(150, edges, labels_of(f), "complete", k=9, l=3) + oracle.check_report(
            report, 150, edges, labels_of(f)
        )

    params = construct.ConstructionParams
    return [
        Job("parse-bipartition", parse, check_parse, lambda out: (out[0].edges, out[1])),
        constructed(
            "strong6", lambda s: construct.construct_bipartite_strong(s["g"], s["bp"], params(6)), "strong", 6
        ),
        constructed(
            "strong60", lambda s: construct.construct_bipartite_strong(s["g"], s["bp"], params(60)), "strong", 60
        ),
        constructed("weak5", lambda s: construct.construct_weak_uniform(s["g"], s["bp"], 5), "weak", 5),
        Job(
            "criterion-roundtrip",
            criterion,
            lambda out: [] if out == (True, True) else [f"criterion/round-trip gave {out}"],
            lambda out: out,
        ),
        Job(
            "analyze-forest",
            analyze,
            lambda rep: oracle.check_partition(rep.as_dict(), forest_edges, forest_labels, 4),
            lambda rep: rep.as_dict(),
        ),
        Job("reduce-chain", reduce_chain, check_reduce, lambda out: (out[0].edges, out[1])),
        Job("complete-150", complete, check_complete, digest_labeled),
    ]


def digest_labeled(out):
    f, report = out
    return f, report.is_iasi, report.is_strong, report.is_weak, report.uniform_k, len(report.violations)


# ------------------------------------------------------------------------ cli

CLI_JOBS = (
    ("version", ["--version"]),
    ("verify", ["verify", "--graph", "kbb.txt", "--labels", "kbb_k6.json"]),
    ("construct-strong", ["construct", "--graph", "kbb.txt", "--mode", "strong", "--k", "6"]),
    ("construct-complete", ["construct", "--mode", "complete", "--vertices", "60", "--l", "2"]),
    ("search-c5-k3", ["search", "--graph", "c5.txt", "--target", "strong", "--k", "3", "--universe", "8"]),
    ("search-c3-k4", ["search", "--graph", "c3.txt", "--target", "strong", "--k", "4", "--universe", "40"]),
    ("reduce-path", ["reduce", "--graph", "path.txt", "--labels", "path.json", "--vertex", "{reduce_vertex}"]),
    ("analyze-forest", ["analyze", "--graph", "forest.txt", "--labels", "forest.json", "--k", "4"]),
)
"""Each subcommand once, through ``python -m iasi.cli``.  Interpreter start,
import, argparse and JSON emission weigh as much as the library work here,
so import-time work or extra output bytes show even when the library
workloads stay flat.  ``--version`` alone is the start-up floor."""


def cli_jobs(inputs: dict, iasi, oracle, paths: dict, spawn=None) -> list[Job]:
    """The ``CLI_JOBS`` with file names resolved to ``paths``.  ``spawn(argv)``
    runs one in a subprocess and returns its stdout; without it the jobs call
    ``iasi.cli.main`` in-process and skip ``--version``, which exits."""
    fill = {"reduce_vertex": str(inputs["path"][2][0])}
    jobs = []
    for name, argv in CLI_JOBS:
        argv = [paths.get(a, a.format(**fill)) for a in argv]
        if spawn is None and name == "version":
            continue

        def run(state, argv=argv):
            return spawn(argv) if spawn else run_cli_in_process(iasi.cli, argv)

        def check(out, name=name):
            return check_cli(name, out, inputs, oracle)

        jobs.append(Job(name, run, check, lambda out: hashlib.sha256(out.encode()).hexdigest()))
    return jobs


def check_cli(name: str, stdout: str, inputs: dict, oracle) -> list[str]:
    """Independent check of one cli job's stdout."""
    if name == "version":
        return [] if stdout.startswith("iasi ") else [f"version output {stdout!r}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    kbb_edges = inputs["kbb"][1]
    if name == "verify":
        labels = {v: tuple(lab) for v, lab in inputs["kbb_k6"].items()}
        return oracle.check_report_dict(out, 300, kbb_edges, labels)
    if name == "construct-strong":
        return oracle.check_labeling(300, kbb_edges, oracle.from_json_dict(out), "strong", k=6)
    if name == "construct-complete":
        return oracle.check_labeling(60, complete_edges(60), oracle.from_json_dict(out), "complete", k=4, l=2)
    if name.startswith("search-"):
        key = {"search-c5-k3": "c5-k3", "search-c3-k4": "c3-k4-u40"}[name]
        _, spec_args, n, edges = inputs["search"][key]
        witness = out.get("witness") and oracle.from_json_dict(out["witness"])
        return oracle.check_search(key, out["status"], witness, n, edges, spec_args)
    if name == "reduce-path":
        path_edges_, path_labels, removals = inputs["path"]
        labels = oracle.from_json_dict(out["labels"])
        return oracle.check_reduction(out["vertex_count"], out["edges"], labels, path_edges_, path_labels, removals[:1])
    if name == "analyze-forest":
        _, forest_edges, forest_labels = inputs["forest"]
        return oracle.check_partition(out, forest_edges, forest_labels, 4)
    return [f"no check for cli job {name}"]


def run_cli_in_process(cli, argv: list[str]) -> str:
    """``iasi.cli.main(argv)`` with stdout and stderr captured; returns stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"iasi {' '.join(argv[:1])} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()
