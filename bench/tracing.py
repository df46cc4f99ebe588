"""Spans recorded from outside the library, and the per-layer metrics.

The layers are the modules of ``iasi``.  While a ``Tracer`` is installed,
every public function bound in a layer's namespace is replaced by a wrapper
that records a span, so a call is traced whichever module name it goes
through: ``iasi.verify.sumset``, ``iasi.construct.verify``,
``iasi.construct.mian_chowla``, the ``iasi.cli`` imports, and intra-module
calls such as ``analyze_divisor_partition`` -> ``verify``.  Classes
(``SetLabel``, ``Labeling``) and private helpers are not wrapped; their
time counts toward the span that called them.

A span is named ``<layer>.<function>`` after the module that defines the
function.  Self time is a span's duration minus the time its child spans
cover.  Spans stay in memory and are written out when the run ends.
Every traced run prints every metric below; a layer the workload never
calls reads 0.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("setlabel", "graphs", "verify", "construct", "search", "cli")

# calls whose return value a per-layer metric reads
KEEP_RESULTS = {
    "graphs.parse_edge_list",
    "verify.verify",
    "construct.construct_bipartite_strong",
    "construct.construct_weak_uniform",
    "construct.construct_complete_strong",
    "search.brute_force_search",
}

# Which end-to-end metric each layer should move, and where:
# setlabel.* -> wall_s on build_verify; search stays flat.
# graphs.*   -> wall_s on build_verify, job_p50_s on cli.
# verify.*   -> wall_s on build_verify; report_bytes also wall_s and
#               peak_rss_mib on cli.
# construct.* -> wall_s on build_verify; reduce_verify_calls counts the
#               repeated verify passes inside topological_reduce.
# search.*   -> wall_s and job_p50_s on search; build_verify stays flat.
#               Better pruning lowers nodes and can lower nodes_per_s.
# cli.*      -> job_p50_s on cli, setup_s on every workload.
PER_LAYER = (
    ("setlabel.sumset_calls", "count"),
    ("setlabel.sumset_s", "s"),
    ("setlabel.difference_set_s", "s"),
    ("graphs.parse_s", "s"),
    ("graphs.parse_edges_per_s", "1/s"),
    ("graphs.bipartition_s", "s"),
    ("graphs.components_s", "s"),
    ("graphs.is_clique_calls", "count"),
    ("verify.calls", "count"),
    ("verify.self_s", "s"),
    ("verify.edges_per_s", "1/s"),
    ("verify.violations", "count"),
    ("verify.report_bytes", "bytes"),
    ("verify.strong_criterion_s", "s"),
    ("verify.analyze_s", "s"),
    ("construct.bipartite_strong_s", "s"),
    ("construct.weak_s", "s"),
    ("construct.complete_s", "s"),
    ("construct.mian_chowla_s", "s"),
    ("construct.reduce_s", "s"),
    ("construct.reduce_verify_calls", "count"),
    ("construct.max_element_bits", "bits"),
    ("search.brute_force_s", "s"),
    ("search.count_s", "s"),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("cli.startup_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.construct_s", "s"),
    ("cli.search_s", "s"),
    ("cli.reduce_s", "s"),
    ("cli.analyze_s", "s"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records one span per wrapped call: (id, parent id, job, name, start,
    end, self seconds).  ``job`` is the benchmark job the call belongs to."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.results: list[tuple[str, object]] = []
        self.job: str | None = None
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append(
                (sid, parent and parent[0], self.job, name, start, end, end - start - frame[1])
            )
        if name in KEEP_RESULTS:
            self.results.append((name, result))
        return result

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every public ``iasi`` function binding in every layer; restore
    the originals on exit."""
    saved = []
    for layer in LAYERS:
        module = sys.modules[f"iasi.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("iasi."):
                continue
            name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            saved.append((module, attr, obj))
            setattr(module, attr, _wrap(tracer, name, obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in saved:
            setattr(module, attr, obj)


def layer_metrics(tracer: Tracer, subcommand_of: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.  ``subcommand_of`` maps cli job
    names to their subcommand (empty outside the cli workload)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    name_of = {}
    reduce_verify = 0
    cli_sub: dict[str, float] = defaultdict(float)
    cli_self = 0.0
    for sid, parent, job, name, start, end, own in tracer.spans:
        name_of[sid] = name
    for sid, parent, job, name, start, end, own in tracer.spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own
        if name == "verify.verify" and name_of.get(parent) == "construct.topological_reduce":
            reduce_verify += 1
        if name.startswith("cli."):
            cli_self += own
            if name == "cli.main":
                cli_sub[subcommand_of[job]] += end - start

    edges_parsed = edges_verified = violations = report_bytes = nodes = 0
    max_bits = 0
    for name, result in tracer.results:
        if name == "graphs.parse_edge_list":
            edges_parsed += len(result.edges)
        elif name == "verify.verify":
            edges_verified += len(result.edge_sizes)
            violations += len(result.violations)
            report_bytes += len(json.dumps(result.as_dict(), indent=2)) + 1
        elif name == "search.brute_force_search":
            nodes += result.nodes_visited
        else:
            max_bits = max(max_bits, max(lab.elements[-1] for lab in result.assignment.values()).bit_length())

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    return {
        "setlabel.sumset_calls": calls["setlabel.sumset"],
        "setlabel.sumset_s": total["setlabel.sumset"],
        "setlabel.difference_set_s": total["setlabel.difference_set"],
        "graphs.parse_s": total["graphs.parse_edge_list"],
        "graphs.parse_edges_per_s": rate(edges_parsed, total["graphs.parse_edge_list"]),
        "graphs.bipartition_s": total["graphs.bipartition_of"],
        "graphs.components_s": total["graphs.connected_components"],
        "graphs.is_clique_calls": calls["graphs.is_clique"],
        "verify.calls": calls["verify.verify"],
        "verify.self_s": self_s["verify.verify"],
        "verify.edges_per_s": rate(edges_verified, total["verify.verify"]),
        "verify.violations": violations,
        "verify.report_bytes": report_bytes,
        "verify.strong_criterion_s": total["verify.check_strong_criterion"],
        "verify.analyze_s": total["verify.analyze_divisor_partition"],
        "construct.bipartite_strong_s": total["construct.construct_bipartite_strong"],
        "construct.weak_s": total["construct.construct_weak_uniform"],
        "construct.complete_s": total["construct.construct_complete_strong"],
        "construct.mian_chowla_s": total["construct.mian_chowla"],
        "construct.reduce_s": total["construct.topological_reduce"],
        "construct.reduce_verify_calls": reduce_verify,
        "construct.max_element_bits": max_bits,
        "search.brute_force_s": total["search.brute_force_search"],
        "search.count_s": total["search.count_labelings"],
        "search.nodes": nodes,
        "search.nodes_per_s": rate(nodes, total["search.brute_force_search"]),
        **{f"cli.{sub}_s": cli_sub[sub] for sub in ("verify", "construct", "search", "reduce", "analyze")},
        "cli.self_s": cli_self,
    }
