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
import json
import sys

from . import __version__
from .construct import (
    ConstructionError,
    ConstructionParams,
    construct_bipartite_strong,
    construct_complete_strong,
    topological_reduce,
)
from .graphs import _parse_id, bipartition_of, parse_edge_list
from .search import TARGETS, SearchSpec, brute_force_search
from .verify import Labeling, analyze_divisor_partition, verify

MAX_K = 2**31 - 1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(payload: dict, out: str | None) -> None:
    """Write payload as json.dumps(payload) writes it, followed by a newline:
    the C encoder's compact text, which json.tool --indent 2 indents."""
    text = json.dumps(payload) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    g = parse_edge_list(_read(args.graph))
    f = Labeling.from_json(_read(args.labels))
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
    g = parse_edge_list(_read(args.graph))
    bp = bipartition_of(g)
    if bp is None:
        raise ConstructionError("graph is not bipartite")
    k = _check_k(args.k)
    m = 1 if args.mode == "weak" else None  # weak mode takes no --factors
    if args.factors is not None:
        m = _parse_factors(args.factors, k)
    return construct_bipartite_strong(g, bp, ConstructionParams(k, m)).as_dict()


def cmd_search(args) -> dict:
    g = parse_edge_list(_read(args.graph))
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
    g = parse_edge_list(_read(args.graph))
    f = Labeling.from_json(_read(args.labels))
    reduced, labels = topological_reduce(g, f, args.vertex)
    return {
        "vertex_count": reduced.vertex_count,
        "edges": reduced.edges,
        "labels": labels.as_dict(),
    }


def cmd_analyze(args) -> dict:
    g = parse_edge_list(_read(args.graph))
    f = Labeling.from_json(_read(args.labels))
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


def run() -> int:
    """The iasi command's process entry: main() without the cyclic
    garbage collector.  A command builds only acyclic graphs, labels and
    reports, which reference counting frees, so the collector would only
    rescan them, and at exit everything imported, which freeze() exempts."""
    import gc  # here: a caller of main() loads no module main() does not use

    gc.freeze()
    gc.disable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
