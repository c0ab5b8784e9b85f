"""File formats: edge lists, signal JSON, spectrum CSV/JSON, matrix dumps.

Text output is byte deterministic: floats go through ``%.17g`` (enough
digits to round-trip IEEE doubles), complex numbers through one fixed
``a+bi`` shape, and rows are emitted in a fixed order. Readers accept
either a path or an open text file; writers likewise.

The imaginary unit is ``i`` in every file format, independent of the
``j`` Python uses in memory.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import ParseError
from .graph import Graph, GraphSignal, build_graph
from .spectral import Spectrum, order_frequencies

SPECTRUM_HEADER = (
    "spectral_index",
    "eig_re",
    "eig_im",
    "coeff_re",
    "coeff_im",
    "magnitude",
    "frequency_rank",
)


def fmt_float(x: float) -> str:
    """Shortest fixed formatting that still round-trips a double exactly."""
    return "%.17g" % float(x)


def format_complex(z: complex) -> str:
    """Render as ``a`` for reals, else ``a+bi`` / ``a-bi``."""
    z = complex(z)
    if z.imag == 0.0:
        return fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_float(z.real)}{sign}{fmt_float(abs(z.imag))}i"


def parse_complex(token: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi``, ``a-bi`` (also accepts ``j``).

    Raises ValueError on anything else, including non-finite values.
    """
    text = token.strip()
    if not text:
        raise ValueError("empty number")
    candidate = text.replace("i", "j").replace("I", "j")
    if any(c.isspace() for c in candidate):
        raise ValueError(f"whitespace inside number: {token!r}")
    try:
        value = complex(candidate)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite number: {token!r}")
    return value


@contextlib.contextmanager
def _opened(target, mode: str) -> Iterator[IO[str]]:
    """Open a path (closed on exit), or pass an open text file through."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding="utf-8") as fh:
            yield fh
    else:
        yield target


def _dump_json(doc, dst, indent: int | None = None) -> None:
    with _opened(dst, "w") as fh:
        json.dump(doc, fh, indent=indent)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Edge lists


def load_graph(src, *, sum_duplicates: bool = False) -> Graph:
    """Read an edge-list file into a Graph.

    Format: a ``nodes N`` header, then one ``src dst weight`` line per
    edge with 1-based endpoints. ``#`` starts a comment, blank lines are
    skipped. Repeated (src, dst) pairs are an error unless
    ``sum_duplicates`` is set, in which case their weights accumulate.
    """
    with _opened(src, "r") as fh:
        n: int | None = None
        weights: dict[tuple[int, int], complex] = {}
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if n is None:
                if len(tokens) != 2 or tokens[0] != "nodes":
                    raise ParseError("expected header 'nodes N'", line=lineno)
                try:
                    n = int(tokens[1])
                except ValueError:
                    raise ParseError(f"bad node count {tokens[1]!r}", line=lineno) from None
                if n < 1:
                    raise ParseError("node count must be positive", line=lineno)
                continue
            if len(tokens) != 3:
                raise ParseError("expected 'src dst weight'", line=lineno)
            try:
                src_id, dst_id = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError("endpoints must be integers", line=lineno) from None
            if not (1 <= src_id <= n and 1 <= dst_id <= n):
                raise ParseError(
                    f"endpoint out of range 1..{n}: {src_id} -> {dst_id}", line=lineno
                )
            if src_id == dst_id:
                raise ParseError(f"self-loop on node {src_id}", line=lineno)
            try:
                weight = parse_complex(tokens[2])
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            key = (src_id - 1, dst_id - 1)
            if key in weights:
                if not sum_duplicates:
                    raise ParseError(
                        f"duplicate edge {src_id} -> {dst_id}", line=lineno
                    )
                weights[key] += weight
            else:
                weights[key] = weight
        if n is None:
            raise ParseError("missing 'nodes N' header", line=1)
        edges = [(s, d, w) for (s, d), w in sorted(weights.items())]
        return build_graph(n, edges)


def dump_graph(g: Graph, dst) -> None:
    """Write a Graph back out as an edge list, edges sorted by (src, dst)."""
    with _opened(dst, "w") as fh:
        fh.write(f"nodes {g.n}\n")
        entries = []
        for dst_idx in range(g.n):
            for src_idx in range(g.n):
                w = g.weights[dst_idx, src_idx]
                if w != 0:
                    entries.append((src_idx + 1, dst_idx + 1, w))
        entries.sort(key=lambda e: (e[0], e[1]))
        for src_id, dst_id, w in entries:
            fh.write(f"{src_id} {dst_id} {format_complex(w)}\n")


# ---------------------------------------------------------------------------
# Signals


def _value_to_json(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


def _finite(re, im, where: str, line: int | None = None) -> complex:
    """``re + im*i`` as a complex, refusing values no double holds finitely."""
    try:
        value = complex(float(re), float(im))
    except OverflowError:
        value = complex(math.inf)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParseError(f"{where}: non-finite value", line=line)
    return value


def _value_from_json(item, where: str) -> complex:
    if isinstance(item, bool):
        raise ParseError(f"{where}: booleans are not signal values")
    if isinstance(item, (int, float)):
        return _finite(item, 0.0, where)
    if isinstance(item, list) and len(item) == 2 and all(
        isinstance(p, (int, float)) and not isinstance(p, bool) for p in item
    ):
        return _finite(item[0], item[1], where)
    raise ParseError(f"{where}: expected a number or a [re, im] pair")


def load_signal(src) -> GraphSignal:
    """Read a signal from JSON of the form {"n": N, "values": [...]}.

    Values are plain numbers or [re, im] pairs; the declared length must
    match the list.
    """
    with _opened(src, "r") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("signal file must hold a JSON object")
    if "values" not in doc or not isinstance(doc["values"], list):
        raise ParseError("signal object needs a 'values' list")
    values = [
        _value_from_json(item, f"values[{k}]") for k, item in enumerate(doc["values"])
    ]
    if not values:
        raise ParseError("signal has no values")
    _check_declared_n(doc, len(values), "values")
    return GraphSignal(np.asarray(values, dtype=complex))


def _check_declared_n(doc: dict, count: int, noun: str) -> None:
    """An optional ``"n"`` field must match the number of items present."""
    declared = doc.get("n")
    if declared is not None and declared != count:
        raise ParseError(f"declared n={declared} but {count} {noun} present")


def dump_signal(signal, dst) -> None:
    values = signal.values if isinstance(signal, GraphSignal) else np.asarray(signal)
    _dump_json({"n": int(len(values)), "values": [_value_to_json(v) for v in values]}, dst)


# ---------------------------------------------------------------------------
# Matrices


def dump_matrix_csv(m, dst) -> None:
    """Comma-separated rows, complex entries in the a+bi text form."""
    m = np.asarray(m, dtype=complex)
    with _opened(dst, "w") as fh:
        for row in m:
            fh.write(",".join(format_complex(v) for v in row))
            fh.write("\n")


def dump_matrix_json(m, dst) -> None:
    """{"n": N, "rows": [[...], ...]} with number-or-pair entries."""
    m = np.asarray(m, dtype=complex)
    rows = [[_value_to_json(v) for v in row] for row in m]
    _dump_json({"n": int(m.shape[0]), "rows": rows}, dst)


# ---------------------------------------------------------------------------
# Spectra


def _spectrum_row_order(spec: Spectrum, natural_order: bool) -> Iterable[int]:
    return spec.ordering.order if natural_order else range(spec.n)


def dump_spectrum_csv(spec: Spectrum, dst, *, natural_order: bool = False) -> None:
    """One row per spectral index.

    Rows come out in spectral (basis column) order by default; with
    ``natural_order`` they are sorted by frequency rank instead. The
    spectral_index column keeps each row unambiguous either way.
    """
    with _opened(dst, "w") as fh:
        fh.write(",".join(SPECTRUM_HEADER) + "\n")
        for r in _spectrum_row_order(spec, natural_order):
            lam = complex(spec.eigenvalues[r])
            c = complex(spec.coefficients[r])
            fields = (
                str(r),
                fmt_float(lam.real),
                fmt_float(lam.imag),
                fmt_float(c.real),
                fmt_float(c.imag),
                fmt_float(abs(c)),
                str(spec.ordering.ranks[r]),
            )
            fh.write(",".join(fields) + "\n")


def dump_spectrum_json(spec: Spectrum, dst, *, natural_order: bool = False) -> None:
    entries = []
    for r in _spectrum_row_order(spec, natural_order):
        lam = complex(spec.eigenvalues[r])
        c = complex(spec.coefficients[r])
        entries.append(
            {
                "spectral_index": int(r),
                "eigenvalue": [lam.real, lam.imag],
                "coefficient": [c.real, c.imag],
                "magnitude": abs(c),
                "frequency_rank": spec.ordering.ranks[r],
            }
        )
    _dump_json({"n": spec.n, "entries": entries}, dst)


def dump_report(doc: dict, dst) -> None:
    """A JSON report (``dgft analyze``), indented two spaces."""
    _dump_json(doc, dst, indent=2)


def _spectrum_from_arrays(eigenvalues, coefficients) -> Spectrum:
    w = np.asarray(eigenvalues, dtype=complex)
    return Spectrum(
        eigenvalues=w,
        coefficients=np.asarray(coefficients, dtype=complex),
        ordering=order_frequencies(w),
    )


def _load_spectrum_rows(rows: Iterable[tuple[int, complex, complex]]) -> Spectrum:
    collected = sorted(rows, key=lambda r: r[0])
    indices = [r[0] for r in collected]
    if indices != list(range(len(collected))):
        raise ParseError("spectral_index values must cover 0..n-1 exactly once")
    if not collected:
        raise ParseError("spectrum holds no entries")
    return _spectrum_from_arrays(
        [r[1] for r in collected], [r[2] for r in collected]
    )


def load_spectrum(src) -> Spectrum:
    """Read a spectrum from CSV or JSON, sniffing the format from content.

    The frequency ordering is recomputed from the eigenvalues rather than
    trusted from the file; synthesis only needs indices right. A JSON
    ``"n"``, when present, must match the number of entries.
    """
    with _opened(src, "r") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _load_spectrum_json(stripped)
    return _load_spectrum_csv(text)


def _load_spectrum_json(text: str) -> Spectrum:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
        raise ParseError("spectrum object needs an 'entries' list")
    rows = []
    for k, entry in enumerate(doc["entries"]):
        where = f"entries[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        try:
            idx = entry["spectral_index"]
            lam = _value_from_json(entry["eigenvalue"], f"{where}.eigenvalue")
            coeff = _value_from_json(entry["coefficient"], f"{where}.coefficient")
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(idx, int) or isinstance(idx, bool):
            raise ParseError(f"{where}.spectral_index: expected an integer")
        rows.append((idx, lam, coeff))
    _check_declared_n(doc, len(rows), "entries")
    return _load_spectrum_rows(rows)


def _load_spectrum_csv(text: str) -> Spectrum:
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty spectrum file") from None
    if tuple(h.strip() for h in header) != SPECTRUM_HEADER:
        raise ParseError(
            "bad header, expected " + ",".join(SPECTRUM_HEADER), line=1
        )
    rows = []
    for lineno, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        if len(fields) != len(SPECTRUM_HEADER):
            raise ParseError(
                f"expected {len(SPECTRUM_HEADER)} fields, got {len(fields)}",
                line=lineno,
            )
        try:
            idx = int(fields[0])
            lam = _finite(fields[1], fields[2], "eigenvalue", lineno)
            coeff = _finite(fields[3], fields[4], "coefficient", lineno)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        rows.append((idx, lam, coeff))
    return _load_spectrum_rows(rows)
