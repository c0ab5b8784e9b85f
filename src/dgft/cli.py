"""Command-line front end.

Subcommands: ``laplacian`` (assemble and dump the matrix), ``gft``
(signal to spectrum), ``igft`` (spectrum back to signal), ``filter``
(apply a tap polynomial), ``analyze`` (spectral structure report).

Exit codes: 0 success, 1 an unreadable path, 2 malformed input or usage,
3 dimension mismatch between inputs, 4 numeric failure (no convergence,
singular basis, or a decomposition that fails to reproduce the Laplacian).
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import io as fileio
from .errors import (
    DgftError,
    DimensionMismatchError,
    EmptyTapsError,
    IllConditionedBasisWarning,
    NoConvergenceError,
    NonSquareError,
    ParseError,
    ReconstructionError,
    SingularMatrixError,
)
from .filters import apply_spectral_domain, apply_vertex_domain, check_lsi_preconditions
from .graph import Graph, in_degree_matrix, ring_graph
from .linalg import DEFAULT_RANK_TOL, RECON_LIMIT, _is_tolerance
from .spectral import (
    as_laplacian,
    decompose,
    igft,
    order_frequencies,
    spectrum,
    total_variation,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NUMERIC = 4


def _tolerance(text: str) -> float:
    """The type of every tolerance flag: a finite number above zero, the
    library's one test (:func:`dgft.linalg._is_tolerance`)."""
    try:
        if _is_tolerance(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}")


def _load_graph_argument(args: argparse.Namespace) -> Graph:
    if args.ring is not None and args.graph is not None:
        raise ParseError("give a graph file or --ring, not both")
    if args.ring is not None:
        return ring_graph(args.ring)
    if args.graph is None:
        raise ParseError("a graph file or --ring N is required")
    return fileio.load_graph(args.graph, sum_duplicates=args.sum_duplicates)


def _destination(path: str):
    """The type of ``-o``: ``-`` is stdout, anything else a path to write."""
    return sys.stdout if path == "-" else path


def _checked_decompose(g: Graph, args: argparse.Namespace):
    """Decompose under the run's tolerances; the library refuses a basis
    that does not reproduce the Laplacian within ``--tol-recon``."""
    lap = as_laplacian(g)
    with warnings.catch_warnings():
        # The flag on the result carries this information; a warning on
        # stderr would break byte-deterministic piping.
        warnings.simplefilter("ignore", IllConditionedBasisWarning)
        dec = decompose(
            lap,
            args.tol,
            cluster_tol=args.cluster_tol,
            recon_tol=args.tol_recon,
        )
    return lap, dec


def _parse_taps(text: str) -> list[complex]:
    fields = [piece.strip() for piece in text.split(",")]
    if not any(fields):
        raise EmptyTapsError("no taps given")
    try:
        taps = [fileio.parse_complex(t) for t in fields if t]
    except ValueError as exc:
        raise ParseError(f"bad tap: {exc}") from None
    if "" in fields:  # skipped, it would move every higher tap down one order
        raise ParseError(f"bad tap: field {fields.index('') + 1} of {len(fields)} is empty")
    return taps


# ---------------------------------------------------------------------------
# Subcommand bodies


def _graph_and_input(args: argparse.Namespace, load, path, name: str, unit: str):
    """The graph and ``load(path)``, which must hold one entry per node; the refusal
    reads "``name`` has k ``unit`` but the graph has n nodes"."""
    g = _load_graph_argument(args)
    x = load(path)
    if x.n != g.n:
        raise DimensionMismatchError(f"{name} has {x.n} {unit} but the graph has {g.n} nodes")
    return g, x


def _cmd_laplacian(args: argparse.Namespace) -> None:
    g = _load_graph_argument(args)
    if args.matrix == "w":
        m = g.weights
    elif args.matrix == "din":
        m = in_degree_matrix(g)
    else:
        m = as_laplacian(g).matrix
    dump = fileio.dump_matrix_csv if args.format == "csv" else fileio.dump_matrix_json
    dump(m, args.output)


def _cmd_gft(args: argparse.Namespace) -> None:
    g, signal = _graph_and_input(args, fileio.load_signal, args.signal, "signal", "values")
    _, dec = _checked_decompose(g, args)
    spec = spectrum(dec, signal)
    dump = fileio.dump_spectrum_csv if args.format == "csv" else fileio.dump_spectrum_json
    dump(spec, args.output)


def _cmd_igft(args: argparse.Namespace) -> None:
    g, spec = _graph_and_input(args, fileio.load_spectrum, args.spectrum, "spectrum", "entries")
    _, dec = _checked_decompose(g, args)
    fileio.dump_signal(igft(dec, spec.coefficients), args.output)


def _cmd_filter(args: argparse.Namespace) -> None:
    g, signal = _graph_and_input(args, fileio.load_signal, args.signal, "signal", "values")
    taps = _parse_taps(args.taps)
    if args.domain == "vertex":
        values = apply_vertex_domain(g, taps, signal)
    else:
        _, dec = _checked_decompose(g, args)
        values = apply_spectral_domain(dec, taps, signal)
    fileio.dump_signal(values, args.output)


def _cmd_analyze(args: argparse.Namespace) -> None:
    g = _load_graph_argument(args)
    lap, dec = _checked_decompose(g, args)
    report = check_lsi_preconditions(dec)
    ordering = order_frequencies(dec.eigenvalues)

    # Whole arrays, listed once: no JordanBlock, no Python step per column.
    w = dec.eigenvalues
    pairs = np.stack((w.real, w.imag), axis=-1).tolist()
    heads = np.asarray(dec.proper_indices)
    starts, sizes = heads.tolist(), np.diff(heads, append=dec.n).tolist()
    proper = dec.v[:, heads]
    tv = total_variation(lap, proper).tolist()
    l1 = (np.abs(w[heads]) * np.abs(proper).sum(axis=0)).tolist()

    doc = {
        "n": g.n,
        "undirected": lap.is_undirected,
        "tol": args.tol,
        "cluster_tol": dec.cluster_tol,
        "diagonalizable": dec.is_diagonalizable,
        "unitary_basis": dec.is_unitary_basis,
        "basis_condition": dec.basis_condition,
        "ill_conditioned": dec.ill_conditioned,
        "reconstruction_residual": dec.residual,
        "eigenvalues": pairs,
        "blocks": [
            {"eigenvalue": pairs[s], "size": k, "start": s} for s, k in zip(starts, sizes)
        ],
        "frequency_order": list(ordering.order),
        "frequency_ranks": list(ordering.ranks),
        "tie_groups": [list(group) for group in ordering.tie_groups],
        "lsi_preconditions": {
            "polynomials_span_commutant": report.polynomials_span_commutant,
            "eigenvalues": [
                {
                    "eigenvalue": [e.eigenvalue.real, e.eigenvalue.imag],
                    "algebraic": e.algebraic,
                    "geometric": e.geometric,
                }
                for e in report.entries
            ],
        },
        "proper_vector_variation": [
            {"spectral_index": s, "tv": t, "lambda_times_l1": x}
            for s, t, x in zip(starts, tv, l1)
        ],
    }
    fileio.dump_report(doc, args.output)


# ---------------------------------------------------------------------------
# Parser assembly


_COMMON = [
    (("graph",), dict(nargs="?", help="edge-list file (or use --ring)")),
    (("--ring",), dict(type=int, metavar="N", help="directed cycle on N nodes")),
    (("--sum-duplicates",), dict(action="store_true",
                                 help="accumulate repeated edges instead of rejecting them")),
    (("-o", "--output"), dict(type=_destination, default="-", help="output path (default stdout)")),
]
# The decomposition's tolerances, on each subcommand that decomposes.
_TOLERANCES = [
    (("--tol",), dict(type=_tolerance, default=DEFAULT_RANK_TOL,
                      help=f"rank / zero-detection tolerance (default {DEFAULT_RANK_TOL:g})")),
    (("--tol-cluster",), dict(dest="cluster_tol", type=_tolerance, help="eigenvalue clustering "
                              "tolerance (default scales with the matrix)")),
    (("--tol-recon",), dict(type=_tolerance, default=RECON_LIMIT, help="relative reconstruction "
                            f"residual above which results are refused (default {RECON_LIMIT:g})")),
]
_FORMAT = (("--format",), dict(choices=("csv", "json"), default="csv"))
_SIGNAL = (("--signal",), dict(required=True, help="signal JSON file"))

# name: (help, body, its options after the common ones)
SUBCOMMANDS = {
    "laplacian": ("assemble graph matrices and write one out", _cmd_laplacian, [
        _FORMAT,
        (("--matrix",), dict(choices=("w", "din", "l"), default="l", help="which matrix to "
                             "emit: weights, in-degree diagonal, or the Laplacian (default l)")),
    ]),
    "gft": ("transform a signal into the spectral domain", _cmd_gft,
            [*_TOLERANCES, _SIGNAL, _FORMAT]),
    "igft": ("synthesize a signal from a spectrum file", _cmd_igft, [
        *_TOLERANCES,
        (("--spectrum",), dict(required=True, help="spectrum CSV or JSON file")),
    ]),
    "filter": ("apply a polynomial filter to a signal", _cmd_filter, [
        *_TOLERANCES,
        _SIGNAL,
        (("--taps",), dict(required=True, help="comma-separated taps, lowest order first "
                           "(complex as a+bi); write a negative first tap as --taps=-1,1")),
        (("--domain",), dict(choices=("vertex", "spectral"), default="vertex",
                             help="where to run the filter (default vertex)")),
    ]),
    "analyze": ("report spectral structure as JSON", _cmd_analyze, _TOLERANCES),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``dgft`` parser with every subcommand, or with ``command``'s alone."""
    parser = argparse.ArgumentParser(
        prog="dgft",
        description="Graph Fourier transform on directed graphs "
        "(in-degree Laplacian).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.metavar = command and "{" + ",".join(SUBCOMMANDS) + "}"  # the full parser's usage
    for name, (help_text, body, options) in SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, settings in _COMMON + options:
                p.add_argument(*flags, **settings)
            p.set_defaults(func=body)
    return parser


def main(argv=None) -> int:
    command = next(iter(sys.argv[1:] if argv is None else argv), None)  # build only its parser
    parser = _build_parser(command if command in SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # no numpy warning on stderr
            args.func(args)
        return EXIT_OK
    except (DimensionMismatchError, NonSquareError) as exc:
        print(f"dgft: error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (NoConvergenceError, SingularMatrixError, ReconstructionError) as exc:
        print(f"dgft: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DgftError as exc:
        print(f"dgft: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"dgft: error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
