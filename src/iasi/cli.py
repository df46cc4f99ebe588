"""Command-line front end.

Subcommands: verify, construct, search, reduce, analyze.  Results go to
stdout as JSON; diagnostics go to stderr.  Exit codes: 0 when the command
ran (including "no" answers such as exhausted-none or is_strong=false),
1 for operational errors (bad files, violated preconditions), 2 for usage
errors.  Every command is deterministic: no seeds, byte-identical output
for identical invocations.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _string

from . import __version__
from .construct import (
    ConstructionError,
    ConstructionParams,
    construct_bipartite_strong,
    construct_complete_strong,
    construct_weak_uniform,
    topological_reduce,
)
from .graphs import Graph, _parse_id, bipartition_of, parse_edge_list
from .search import TARGETS, SearchSpec, brute_force_search
from .verify import Labeling, analyze_divisor_partition, verify

MAX_K = 2**31 - 1


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _read_labels(path: str) -> Labeling:
    with open(path, "r", encoding="utf-8") as fh:
        return Labeling.from_json(fh.read())


def _dumps(o, pad: str = "\n") -> str:
    """o as json.dumps(o, indent=2) writes it, for the types of a report:
    dicts with str keys, lists, tuples, str, int, bool and None."""
    t = type(o)
    if t is str:
        return _string(o)
    if t is int:
        return int.__repr__(o)
    inner = pad + "  "
    if t is dict:
        if not o:
            return "{}"
        items = [_string(key) + ": " + _dumps(value, inner) for key, value in o.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if t is list or t is tuple:
        if not o:
            return "[]"
        items = [_dumps(e, inner) for e in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if o is None:
        return "null"
    if t is bool:
        return "true" if o else "false"
    raise TypeError(f"{t.__name__} is not a report value")


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as json.dumps(payload, indent=2) followed by a newline."""
    text = _dumps(payload)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _int(text: str) -> int:
    """argparse type of the integer options: canonical decimals, the rule
    of edge-list ids."""
    try:
        return _parse_id(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_k(k: int) -> int:
    if not (1 <= k <= MAX_K):
        raise ConstructionError(f"k must be in 1..{MAX_K}")
    return k


def _parse_factors(text: str, k: int) -> int:
    """m of an m,n option with m*n = k."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConstructionError("--factors expects m,n")
    try:
        m, n = _parse_id(parts[0]), _parse_id(parts[1])
    except ValueError:
        raise ConstructionError("--factors expects two integers") from None
    if m < 1 or n < 1:
        raise ConstructionError("factors must be positive integers")
    if m * n != k:
        raise ConstructionError(f"factors {m}*{n} != k={k}")
    return m


def cmd_verify(args) -> dict:
    g = _read_graph(args.graph)
    f = _read_labels(args.labels)
    return verify(g, f).as_dict()


def cmd_construct(args) -> dict:
    # the options each mode reads, of which it needs the first two
    reads = {"strong": "graph k factors", "weak": "graph k", "complete": "vertices l"}[args.mode].split()
    given = [o for o in ("graph", "k", "factors", "vertices", "l") if getattr(args, o) is not None]
    extra = [f"--{o}" for o in given if o not in reads]
    if extra:
        raise ConstructionError(f"{args.mode} mode takes no {', '.join(extra)}")
    if not all(o in given for o in reads[:2]):
        raise ConstructionError(f"{args.mode} mode needs --{reads[0]} and --{reads[1]}")
    if args.mode == "complete":
        return construct_complete_strong(args.vertices, args.l).as_dict()
    g = _read_graph(args.graph)
    bp = bipartition_of(g)
    if bp is None:
        raise ConstructionError("graph is not bipartite")
    k = _check_k(args.k)
    if args.mode == "strong":
        m = None if args.factors is None else _parse_factors(args.factors, k)
        f = construct_bipartite_strong(g, bp, ConstructionParams(k, m))
    else:
        f = construct_weak_uniform(g, bp, k)
    return f.as_dict()


def cmd_search(args) -> dict:
    g = _read_graph(args.graph)
    spec = SearchSpec(
        universe_max=args.universe,
        max_label_size=args.universe + 1 if args.max_size is None else args.max_size,
        target=args.target,
        k=None if args.k is None else _check_k(args.k),
        node_budget=args.budget,
    )
    outcome = brute_force_search(g, spec)
    if outcome.status == "exhausted-none":
        print(
            f"no labeling within universe {{0..{args.universe}}}; "
            "nonexistence is certified only up to this bound",
            file=sys.stderr,
        )
    return outcome.as_dict()


def cmd_reduce(args) -> dict:
    g = _read_graph(args.graph)
    f = _read_labels(args.labels)
    reduced, labels = topological_reduce(g, f, args.vertex)
    return {
        "vertex_count": reduced.vertex_count,
        "edges": [[u, v] for u, v in reduced.edges],
        "labels": labels.as_dict(),
    }


def cmd_analyze(args) -> dict:
    g = _read_graph(args.graph)
    f = _read_labels(args.labels)
    return analyze_divisor_partition(g, f, _check_k(args.k)).as_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iasi",
        description="Construct, verify, analyze, and search integer additive set-indexers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="classify a labeled graph")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--labels", required=True, help="labeling JSON file")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="build a labeling with a guaranteed classification")
    p.add_argument("--graph", help="edge-list file (strong/weak modes)")
    p.add_argument("--k", type=_int, help="target edge label size")
    p.add_argument("--factors", help="m,n with m*n = k (strong mode)")
    p.add_argument("--mode", choices=["strong", "weak", "complete"], default="strong")
    p.add_argument("--vertices", type=_int, help="number of vertices (complete mode)")
    p.add_argument("--l", type=_int, help="vertex label size (complete mode)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="exhaustive search over a bounded universe")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--target", choices=TARGETS, required=True)
    p.add_argument("--k", type=_int, help="edge label size for uniform targets")
    p.add_argument("--universe", type=_int, required=True, help="labels drawn from {0..universe}")
    p.add_argument("--max-size", type=_int, default=None, help="largest label size (default: universe+1)")
    budget = SearchSpec._field_defaults["node_budget"]
    p.add_argument("--budget", type=_int, default=budget, help="search-tree node cap")
    p.set_defaults(func=cmd_search, out=None)

    p = sub.add_parser("reduce", help="remove a degree-2 vertex, joining its neighbors")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--labels", required=True, help="labeling JSON file (must be a strong set-indexer)")
    p.add_argument("--vertex", type=_int, required=True, help="degree-2 vertex to remove")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="divisor-class component structure of a strongly k-uniform labeling")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--labels", required=True, help="labeling JSON file")
    p.add_argument("--k", type=_int, required=True, help="the uniform edge label size")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.func(args), args.out)
    except (OSError, ValueError) as exc:
        # every error the library raises subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
