"""Command-line front end.

Subcommands: `tw` and `pw` run the cover-parameterized solvers, `oracle`
runs the exponential reference solvers on small graphs, `check` validates a
path/tree decomposition against a graph. Graphs are read in .gr format from
--input or stdin; decompositions are printed in .td format.

Exit codes: 0 success, 2 malformed or unreadable input (or failed check), 3
resource cap exceeded, memory exhausted or output that cannot be written, 4
internal invariant violation; a closed stream is one that cannot be used.
"""

from __future__ import annotations

import argparse
import sys

from .complement import MAX_COMPLEMENT_COVER, pathwidth_cvc
from .cover import is_vertex_cover, minimum_vertex_cover
from .decomposition import find_violations
from .errors import (InputError, InternalError, InvalidDecompositionError,
                     ParseError, ResourceLimitError)
from .formats import emit_td, parse_cover, parse_gr, parse_td
from .oracle import pathwidth_exact, treewidth_exact
from .pathwidth import pathwidth_vc
from .treewidth import treewidth_vc_4k
from .treewidth_fast import treewidth_vc_3k

DEFAULT_MAX_K = {"tw-vc-3k": 14, "tw-vc-4k": 14, "pw-vc": 18, "pw-cvc": 26}
DEFAULT_MAX_N = 26
ORACLE_FALLBACK_MAX_N = 12

_SELECTORS = {
    "tw": {None: "tw-vc-3k", "3k": "tw-vc-3k", "tw-vc-3k": "tw-vc-3k",
           "4k": "tw-vc-4k", "tw-vc-4k": "tw-vc-4k",
           "oracle": "oracle-tw", "oracle-tw": "oracle-tw"},
    "pw": {None: "pw-vc", "vc": "pw-vc", "pw-vc": "pw-vc",
           "cvc": "pw-cvc", "pw-cvc": "pw-cvc",
           "oracle": "oracle-pw", "oracle-pw": "oracle-pw"},
    "oracle": {None: "oracle-tw", "tw": "oracle-tw", "oracle-tw": "oracle-tw",
               "pw": "oracle-pw", "oracle-pw": "oracle-pw"},
}


def std_stream(name):
    """sys.stdin, stdout or stderr by name; OSError where Python set it to
    None, as it does for a fd closed at start-up."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    return stream


def _read_input(path):
    try:
        if path is None:
            return std_stream("stdin").buffer.read()
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        name = "stdin" if path is None else path
        raise InputError(f"cannot read {name}: {exc.strerror or exc}") from exc


# Solver-specific counters, printed after the common four when collected.
_EXTRA_STATS = [
    ("width_bound", "width bound"),  # pw-vc, tw-vc-4k and tw-vc-3k
    ("sweeps", "sweeps"),
    ("certificate", "certificate"),  # tw-vc-4k and tw-vc-3k
    ("table_entries", "table entries"),  # pw-cvc
    ("threshold_levels", "threshold levels"),
    ("reach_sweeps", "reach sweeps"),
    ("glue_evaluated", "glue subsets evaluated"),
    ("join_cells", "join cells"),  # tw-vc-3k from here on
    ("convolve_calls", "convolve calls"),
    ("convolve_cells", "convolve cells"),
]


def _stats_text(stats):
    lines = [f"cover size: {stats.get('cover_size', 0)}",
             f"valid triples: {stats.get('valid_triples', 0)}",
             f"states: {stats.get('states', 0)}",
             f"peak table entries: {stats.get('peak_table', 0)}"]
    lines += [f"{label}: {stats[key]}" for key, label in _EXTRA_STATS
              if key in stats]
    return "\n".join(lines) + "\n"


def _print_errors(*lines):
    """Print lines to stderr; if it cannot be written they are lost but
    the exit code is not, as with argparse's own messages."""
    try:
        std_stream("stderr").write("".join(line + "\n" for line in lines))
    except OSError:
        pass


def output_failed(exc):
    """Report that writing or flushing stdout failed; returns exit code 3."""
    _print_errors(f"error: cannot write output: {exc.strerror or exc}")
    return 3


def _write_output(text):
    """Write the answer to stdout: 0, or 3 when the write fails (a full
    disk, a reader that closed the pipe, a closed stdout)."""
    try:
        std_stream("stdout").write(text)
    except OSError as exc:
        return output_failed(exc)
    return 0


def _run_solver(args, algo, g):
    """Dispatch one solve; returns (width, witness-or-None, stats dict)."""
    stats = {}
    if algo in ("oracle-tw", "oracle-pw"):
        if g.n > args.max_n:
            raise ResourceLimitError(
                f"graph has {g.n} vertices, oracle cap is {args.max_n}")
        w = treewidth_exact(g) if algo == "oracle-tw" else pathwidth_exact(g)
        stats["states"] = 1 << g.n
        stats["peak_table"] = 1 << g.n
        return w, None, stats
    cap = args.max_k if args.max_k is not None else DEFAULT_MAX_K[algo]
    cover = parse_cover(_read_input(args.cover), g.n) if args.cover else None
    if algo == "pw-cvc":
        w, dec = pathwidth_cvc(g, cover=cover, stats=stats,
                               max_cover=min(cap, MAX_COMPLEMENT_COVER))
        return w, dec, stats
    if cover is None:
        cover = minimum_vertex_cover(g, limit=cap)
    elif not is_vertex_cover(g, cover):
        raise InputError("supplied vertex set is not a vertex cover")
    if cover is None or len(cover) > cap:
        if (args.algo is None and algo == "tw-vc-3k"
                and g.n <= ORACLE_FALLBACK_MAX_N and not args.emit_witness):
            # small instance with a large cover: the plain oracle is cheaper
            w = treewidth_exact(g)
            stats["states"] = 1 << g.n
            stats["peak_table"] = 1 << g.n
            return w, None, stats
        size = "" if cover is None else f" of size {len(cover)}"
        raise ResourceLimitError(f"vertex cover{size} exceeds the cap {cap}")
    solver = {"pw-vc": pathwidth_vc, "tw-vc-4k": treewidth_vc_4k,
              "tw-vc-3k": treewidth_vc_3k}[algo]
    w, dec = solver(g, cover=cover, stats=stats)
    return w, dec, stats


def run(args, algo):
    g = parse_gr(_read_input(args.input))
    width, witness, stats = _run_solver(args, algo, g)
    out = [f"width: {width}\n"]
    if args.stats:
        out.append(_stats_text(stats))
    if args.emit_witness:
        out.append(emit_td(witness, g.n))
    return _write_output("".join(out))


def _run_check(graph_path, td_path):
    g = parse_gr(_read_input(graph_path))
    dec, n = parse_td(_read_input(td_path))
    if n != g.n:
        _print_errors(
            f"error: decomposition is for {n} vertices, graph has {g.n}")
        return 2
    violations = find_violations(g, dec)
    if violations:
        _print_errors(*(f"invalid: {v}" for v in violations))
        return 2
    return _write_output(f"width: {dec.width}\n")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vcwidth",
        description="exact treewidth/pathwidth via vertex-cover structure")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
            ("tw", "treewidth of a .gr graph"),
            ("pw", "pathwidth of a .gr graph"),
            ("oracle", "reference exponential solver (small graphs)")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--algo", default=None,
                       help="algorithm selector (see docs for choices)")
        p.add_argument("--input", default=None, help=".gr file (default stdin)")
        p.add_argument("--cover", default=None,
                       help="file with a vertex cover to use (1-based ids)")
        p.add_argument("--emit-witness", action="store_true",
                       help="print the decomposition in .td format")
        p.add_argument("--stats", action="store_true",
                       help="print solver counters")
        p.add_argument("--max-k", type=int, default=None,
                       help="cover size cap (defaults per algorithm)")
        p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                       help="vertex count cap for the oracle")
    pc = sub.add_parser("check", help="validate a .td against a .gr")
    pc.add_argument("graph", help=".gr file")
    pc.add_argument("decomposition", help=".td file")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "check":
            return _run_check(args.graph, args.decomposition)
        table = _SELECTORS[args.subcommand]
        if args.algo not in table:
            parser.error(f"unknown --algo {args.algo!r} for "
                         f"{args.subcommand}")
        algo = table[args.algo]
        if args.max_k is not None and args.max_k <= 0:
            raise InputError(f"--max-k must be positive, got {args.max_k}")
        if args.max_n <= 0:
            raise InputError(f"--max-n must be positive, got {args.max_n}")
        if args.emit_witness and algo.startswith("oracle"):
            parser.error("--emit-witness is not available for the oracle")
        return run(args, algo)
    except ParseError as exc:
        _print_errors(f"error: line {exc.line}: {exc.message}")
        return 2
    except InputError as exc:
        _print_errors(f"error: {exc}")
        return 2
    except InvalidDecompositionError as exc:
        # a solver's own witness failed validation (`check` exits 2 itself)
        _print_errors(*(f"internal error: {v}" for v in exc.violations))
        return 4
    except ResourceLimitError as exc:
        _print_errors(f"error: {exc}")
        return 3
    except MemoryError:
        _print_errors("error: out of memory")
        return 3
    except InternalError as exc:
        _print_errors(f"internal error: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
