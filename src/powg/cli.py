"""Command-line front end.

    powg group (--family sdl --k K --p P | --cyclic N | --cayley FILE) info
    powg graph (--family ... | --cyclic N | --cayley FILE) --format (dot|edges) [-o FILE]
    powg invariant (hosoya|rs-hosoya|wiener|matching-poly|hosoya-index) (--family ... | ...)
    powg paper eval --k K --p P --which (hosoya|rs-hosoya|index|degrees|edge-types)
                    --mode (printed|corrected)
    powg verify --k K1[,K2...] --p P1[,P2...] [--out FILE] [--skip-index-above N] [--no-cache]

Exit codes: 0 success (diffs in verify reports are findings, not failures),
1 usage error, 2 invalid input, 3 matching-engine resource limit,
4 verify's cross-check failed (the matching engine and the order-arithmetic
count disagree).
"""

from __future__ import annotations

import argparse
import os
import sys

from .distance import hosoya_polynomial, rs_hosoya_polynomial, wiener_index
from .formulas import (
    MODES,
    paper_degree_claims,
    paper_edge_type_counts,
    paper_hosoya_coeffs,
    paper_hosoya_index,
    paper_rs_hosoya,
)
from .graphs import build_power_graph, export
from .groups import FamilyParams, FiniteGroup, GroupError, build_cyclic, build_family, \
    cyclic_subgroups, load_cayley_table, partition
from .matching import MatchingLimitError, _digits, matching_polynomial
from .report import DEFAULT_SKIP_INDEX_ABOVE, CrossCheckError, render_report, verify_cases

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_CROSS_CHECK = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; remap to 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_selection(sp) -> None:
    sp.add_argument("--family", choices=["sdl"], help="built-in group family")
    sp.add_argument("--k", type=int, help="family parameter k (k >= 2)")
    sp.add_argument("--p", type=int, help="family parameter p (odd prime)")
    sp.add_argument("--cyclic", type=int, metavar="N", help="cyclic group Z_N")
    sp.add_argument("--cayley", metavar="FILE", help="Cayley-table file")


def _resolve_group(args) -> FiniteGroup:
    picked = [name for name, val in
              (("family", args.family), ("cyclic", args.cyclic), ("cayley", args.cayley))
              if val is not None]
    if len(picked) != 1:
        raise UsageError("select exactly one of --family, --cyclic, --cayley")
    if args.family is not None:
        if args.k is None or args.p is None:
            raise UsageError("--family requires --k and --p")
        return build_family(FamilyParams(args.k, args.p))
    if args.k is not None or args.p is not None:
        raise UsageError("--k and --p require --family")
    if args.cyclic is not None:
        return build_cyclic(args.cyclic)
    try:
        with open(args.cayley, encoding="utf-8-sig", newline="") as f:  # keep line endings
            text = f.read()
    except OSError as exc:
        raise GroupError(f"cannot read Cayley file: {exc}") from None
    return load_cayley_table(text)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


def build_parser(command: str | None = None) -> _Parser:
    """The powg parser, with every sub-parser, or with only the one named by
    command.

    A process runs one command, and each add_argument builds a help
    formatter, so main builds only the sub-parser its first token names;
    any other argv gets the full tree.  A single command's tree still names
    all five commands in the main usage line, through the metavar.
    """
    parser = _Parser(prog="powg", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # unset for the full tree: "invalid choice" and "required" errors take it
    metavar = None if command is None else "{" + ",".join(_DISPATCH) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    if command in (None, "group"):
        sp = sub.add_parser("group", help="group inspection")
        _add_selection(sp)
        sp.add_argument("action", choices=["info"])

    if command in (None, "graph"):
        sp = sub.add_parser("graph", help="export the power graph")
        _add_selection(sp)
        sp.add_argument("--format", required=True, choices=["dot", "edges"])
        sp.add_argument("-o", "--output", metavar="FILE")

    if command in (None, "invariant"):
        sp = sub.add_parser("invariant", help="compute an invariant of the power graph")
        sp.add_argument("which", choices=["hosoya", "rs-hosoya", "wiener",
                                          "matching-poly", "hosoya-index"])
        _add_selection(sp)

    if command in (None, "paper"):
        sp = sub.add_parser("paper", help="evaluate the published closed forms")
        sp.add_argument("action", choices=["eval"])
        sp.add_argument("--k", type=int, required=True)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--which", required=True,
                        choices=["hosoya", "rs-hosoya", "index", "degrees", "edge-types"])
        sp.add_argument("--mode", choices=MODES, default=MODES[0])

    if command in (None, "verify"):
        sp = sub.add_parser("verify", help="batch oracle-vs-formula verification")
        sp.add_argument("--k", required=True, metavar="K1[,K2...]")
        sp.add_argument("--p", required=True, metavar="P1[,P2...]")
        sp.add_argument("--out", metavar="FILE")
        sp.add_argument("--skip-index-above", type=int, default=DEFAULT_SKIP_INDEX_ABOVE,
                        metavar="N",
                        help="skip the Hosoya index (the decomposition engine and its "
                             "arithmetic cross-check) above this graph order "
                             "(default %(default)s, the largest supported order)")
        sp.add_argument("--no-cache", action="store_true",
                        help="accepted and ignored: verify keeps no cache")
    return parser


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_group(args) -> int:
    g = _resolve_group(args)
    print(f"order: {g.order}")
    hist: dict[int, int] = {}  # order -> elements; each C adds its generators
    for powers, generators in cyclic_subgroups(g):
        hist[len(powers)] = hist.get(len(powers), 0) + len(generators)
    print("element orders: " + " ".join(f"{t}:{c}" for t, c in sorted(hist.items())))
    if args.family is not None:
        part = partition(g, FamilyParams(args.k, args.p))
        s0, s1, s2, s3 = part.sizes()
        print(f"partition sizes: H0={s0} H1={s1} H2={s2} H3={s3}")
    return EXIT_OK


def _cmd_graph(args) -> int:
    graph = build_power_graph(_resolve_group(args))
    _emit(export(graph, args.format), args.output)
    return EXIT_OK


def _cmd_invariant(args) -> int:
    graph = build_power_graph(_resolve_group(args))
    if args.which == "hosoya":
        dd = hosoya_polynomial(graph)
        print(dd.polynomial_string())
        if dd.unreachable_pairs:
            print(f"unreachable pairs: {dd.unreachable_pairs}")
    elif args.which == "rs-hosoya":
        print(rs_hosoya_polynomial(graph).render())
    elif args.which == "wiener":
        print(wiener_index(graph))
    elif args.which == "matching-poly":
        print(matching_polynomial(graph).render())
    else:  # hosoya-index
        print(_digits(matching_polynomial(graph).hosoya_index))
    return EXIT_OK


def _cmd_paper(args) -> int:
    k, p, mode = args.k, args.p, args.mode
    FamilyParams(k, p)  # validates, maps bad input to exit 2
    if args.which == "hosoya":
        dis0, dis1, dis2 = paper_hosoya_coeffs(k, p)
        print(f"dis0={dis0}")
        print(f"dis1={dis1}")
        print(f"dis2={dis2}")
    elif args.which == "rs-hosoya":
        print(paper_rs_hosoya(k, p, mode).render())
    elif args.which == "degrees":
        for cls, d in paper_degree_claims(k, p).items():
            print(f"{cls}={d}")
    elif args.which == "edge-types":
        counts = paper_edge_type_counts(k, p)
        for kind, c in counts.items():
            print(f"{kind}={c}")
        print(f"total={sum(counts.values())}")
    else:  # index
        total, rows = paper_hosoya_index(k, p, mode)
        print(f"total={_digits(total)}")
        for row in rows:
            suffix = f"  # {row['note']}" if row["note"] else ""
            print(f"{row['family']}[{row['order']}]={_digits(row['count'])}{suffix}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.skip_index_above < 0:
        raise UsageError("--skip-index-above must be >= 0")
    ks = _parse_int_list(args.k)
    ps = _parse_int_list(args.p)
    if not ks or not ps:
        raise UsageError("--k and --p must list at least one value each")
    doc = verify_cases(ks, ps, skip_index_above=args.skip_index_above)
    _emit(render_report(doc), args.out)
    return EXIT_OK


_DISPATCH = {
    "group": _cmd_group,
    "graph": _cmd_graph,
    "invariant": _cmd_invariant,
    "paper": _cmd_paper,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _DISPATCH else None)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"powg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        rc = _DISPATCH[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return rc
    except BrokenPipeError as exc:
        # the reader left: stdout goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"powg: invalid input: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID
    except UsageError as exc:
        print(f"powg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MatchingLimitError as exc:
        print(f"powg: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except CrossCheckError as exc:
        print(f"powg: cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except (GroupError, ValueError) as exc:
        print(f"powg: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
