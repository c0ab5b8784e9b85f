"""File formats: edge lists, signal JSON, spectrum CSV/JSON, matrix dumps.

Text output is byte deterministic, and every float round-trips: the CSV
writers print floats through ``%.17g`` and complex matrix entries in one
fixed ``a+bi`` shape, the JSON writers Python's shortest round-trip form
(``repr``), a complex value as an ``[re, im]`` pair; rows are emitted in
a fixed order. Readers accept either a path or an open text file; writers
likewise.

The imaginary unit is ``i`` in every file format, independent of the
``j`` Python uses in memory.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import warnings
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import GraphSizeError, ParseError
from .graph import Graph, GraphSignal, _clean_columns, _node_count, build_graph, real_or_complex
from .spectral import Spectrum

SPECTRUM_HEADER = (
    "spectral_index", "eig_re", "eig_im", "coeff_re", "coeff_im", "magnitude", "frequency_rank"
)
_SPECTRUM_COLUMNS = np.dtype({"names": SPECTRUM_HEADER, "formats": [np.intp] + [float] * 6})
_EDGE_COLUMNS = np.dtype([("src", np.intp), ("dst", np.intp), ("weight", float)])


def _fmt_float(x: float) -> str:
    """Shortest fixed formatting that still round-trips a double exactly."""
    return "%.17g" % float(x)


def _format_complex(z: complex) -> str:
    """Render as ``a`` for reals, else ``a+bi`` / ``a-bi``."""
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_float(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


def parse_complex(token: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi``, ``a-bi`` (also accepts ``j``); the unit
    is read only at the end of the token, so ``inf`` is a number.

    Raises ValueError on anything else, including non-finite values.
    """
    text = token.strip()
    if not text:
        raise ValueError("empty number")
    try:  # complex() itself refuses inner whitespace such as "1 +2j"
        value = complex(text[:-1] + "j" if text[-1] in "iI" else text)
    except ValueError:
        raise ValueError(f"not a number: {token!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"non-finite number: {token!r}")
    return value


@contextlib.contextmanager
def _opened(target, mode: str) -> Iterator[IO[str]]:
    """Open a path (closed on exit), or pass an open text file through. Text
    that does not decode, UTF-8 for a path, is a :class:`ParseError`; a path is
    read past a leading byte-order mark, and written without one."""
    try:
        if isinstance(target, (str, os.PathLike)):
            with open(target, mode, encoding="utf-8-sig" if "r" in mode else "utf-8") as fh:
                yield fh
        else:
            yield target
    except UnicodeDecodeError as exc:
        raise ParseError(f"not {exc.encoding.upper()} text: {exc.reason}") from None


def _json(value) -> str:
    """``value`` as :func:`json.dumps` (the C encoder) prints it, but a number past
    float64's range prints ``null``, as JSON has no infinity; only then is it walked."""
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError:
        return json.dumps(_null_non_finite(value))


def _null_non_finite(value):
    """``value`` with every float that is not finite replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _null_non_finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(v) for v in value]
    return value


def _dump_json(doc, dst) -> None:
    """``doc`` on one line (:func:`_json`)."""
    with _opened(dst, "w") as fh:
        fh.write(_json(doc))
        fh.write("\n")


def _columns(lines: list[str], dtype: np.dtype, **options) -> np.ndarray | None:
    """``lines`` as rows of ``dtype``'s fields, read by numpy's C text reader as
    :func:`int` and :func:`float` read them, or None: a field that does not parse, a row
    of another width, no row, or text that is not ASCII (numpy reads other digits as
    ASCII ones) or holds ``\\x1c``-``\\x1f`` (numpy strips them off a field)."""
    if not (text := "".join(lines)).isascii() or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            return np.loadtxt(lines, dtype, ndmin=1, **options)
    except (ValueError, UserWarning):
        return None


# ---------------------------------------------------------------------------
# Edge lists


def load_graph(src, *, sum_duplicates: bool = False) -> Graph:
    """Read an edge-list file into a Graph.

    Format: a ``nodes N`` header, then one ``src dst weight`` line per edge with
    1-based endpoints. ``#`` starts a comment, blank lines are skipped. Repeated (src,
    dst) pairs are an error unless ``sum_duplicates`` is set, in which case their weights
    accumulate. Only that or a failed check on the edge columns walks the lines.
    """
    with _opened(src, "r") as fh:
        lines = fh.readlines()
    k, n = _header(lines)
    if not sum_duplicates and (graph := _edge_columns(n, lines[k + 1:])) is not None:
        return graph
    weights: dict[tuple[int, int], complex] = {}
    for lineno, raw in enumerate(lines[k + 1:], start=k + 2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError("expected 'src dst weight'", line=lineno)
        try:
            src_id, dst_id = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("endpoints must be integers", line=lineno) from None
        if not (1 <= src_id <= n and 1 <= dst_id <= n):
            raise ParseError(f"endpoint out of range 1..{n}: {src_id} -> {dst_id}", line=lineno)
        if src_id == dst_id:
            raise ParseError(f"self-loop on node {src_id}", line=lineno)
        try:
            weight = parse_complex(tokens[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        key = (src_id - 1, dst_id - 1)
        if key in weights:
            if not sum_duplicates:
                raise ParseError(f"duplicate edge {src_id} -> {dst_id}", line=lineno)
            weights[key] += weight
        else:
            weights[key] = weight
    edges = [(s, d, w) for (s, d), w in sorted(weights.items())]
    return build_graph(n, edges)


def _header(lines: list[str]) -> tuple[int, int]:
    """(index, N) of the ``nodes N`` header, the first line not blank or a comment."""
    for k, raw in enumerate(lines):
        if not (tokens := raw.split("#", 1)[0].split()):
            continue
        if len(tokens) != 2 or tokens[0] != "nodes":
            raise ParseError("expected header 'nodes N'", line=k + 1)
        try:
            n = int(tokens[1])
        except ValueError:
            raise ParseError(f"bad node count {tokens[1]!r}", line=k + 1) from None
        if n < 1:
            raise ParseError("node count must be positive", line=k + 1)
        return k, n
    raise ParseError("missing 'nodes N' header", line=1)


def _edge_columns(n: int, lines: list[str]) -> Graph | None:
    """The graph of edge lines of real weights, read as columns (:func:`_columns`), checked
    whole as :func:`dgft.build_graph` checks them and written in its final dtype, or None."""
    try:
        weights = np.zeros((_node_count(n), n))
    except (GraphSizeError, MemoryError):  # the walker's build_graph refuses it typed
        return None
    if (edges := _columns(lines, _EDGE_COLUMNS, comments="#")) is None:
        return None
    src, dst, weight = edges["src"] - 1, edges["dst"] - 1, edges["weight"]
    if not (np.isfinite(weight).all() and _clean_columns(n, src, dst, weight)):
        return None
    weights[dst, src] = weight
    return Graph(weights)


# ---------------------------------------------------------------------------
# Signals


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
    values = [_value_from_json(v, f"values[{k}]") for k, v in enumerate(doc["values"])]
    if not values:
        raise ParseError("signal has no values")
    _check_declared_n(doc, len(values), "values")
    return GraphSignal(values)


def _check_declared_n(doc: dict, count: int, noun: str) -> None:
    """An optional ``"n"`` field must be an integer (not a bool) that matches
    the number of items present."""
    declared = doc.get("n")
    if declared is not None and (type(declared) is not int or declared != count):
        raise ParseError(f"declared n={json.dumps(declared)} but {count} {noun} present")


def _json_values(v: np.ndarray) -> list:
    """The vector ``v`` as JSON values: a plain number for an entry with no
    imaginary part, else a [re, im] pair."""
    return v.tolist() if v.dtype.kind != "c" else [
        re if im == 0.0 else [re, im] for re, im in zip(v.real.tolist(), v.imag.tolist())]


def dump_signal(signal, dst) -> None:
    """{"n": N, "values": [...]}, each value as :func:`_json_values` writes it."""
    v = real_or_complex(signal.values if isinstance(signal, GraphSignal) else signal).ravel()
    _dump_json({"n": len(v), "values": _json_values(v)}, dst)


# ---------------------------------------------------------------------------
# Matrices


def dump_matrix_csv(m, dst) -> None:
    """Comma-separated rows, complex entries in the a+bi text form.

    Each distinct entry is formatted once. Entries are told apart by their
    bytes, so ``-0.0`` and ``0.0`` keep their own text.
    """
    m = real_or_complex(m)
    keys = m.view(np.dtype((np.void, m.itemsize))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    text = np.array([_format_complex(v) for v in m.ravel()[first].tolist()], dtype=object)
    with _opened(dst, "w") as fh:
        for row in text[which].reshape(m.shape).tolist():
            fh.write(",".join(row))
            fh.write("\n")


def dump_matrix_json(m, dst) -> None:
    """{"n": N, "rows": [[...], ...]}, each row as :func:`_json_values` writes it."""
    m = real_or_complex(m)
    _dump_json({"n": len(m), "rows": [_json_values(row) for row in m]}, dst)


# ---------------------------------------------------------------------------
# Spectra


def _spectrum_table(spec: Spectrum) -> np.ndarray:
    """The spectrum file's rows, its columns in :data:`SPECTRUM_HEADER`'s order; the
    magnitude is libm's ``hypot``, as ``abs`` of a complex (numpy's differs in the last bit)."""
    w, c = spec.eigenvalues.astype(complex), spec.coefficients.astype(complex)
    columns = (w.real, w.imag, c.real, c.imag, np.hypot(c.real, c.imag), spec.ordering.ranks)
    return np.stack((np.arange(spec.n), *columns), axis=-1)


def dump_spectrum_csv(spec: Spectrum, dst) -> None:
    """One row per spectral index, in spectral (basis column) order, in one ``%``.

    A decomposition lists its columns in frequency order, so for a
    spectrum of one (:func:`dgft.spectral.spectrum`) the
    ``frequency_rank`` column reads 0, 1, ..., n-1 down the file.
    """
    row = "%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"
    with _opened(dst, "w") as fh:
        fh.write(",".join(SPECTRUM_HEADER) + "\n")
        fh.write((row * spec.n) % tuple(_spectrum_table(spec).ravel().tolist()))


def dump_spectrum_json(spec: Spectrum, dst) -> None:
    entries = [
        {"spectral_index": int(r), "eigenvalue": [a, b], "coefficient": [x, y],
         "magnitude": m, "frequency_rank": int(k)}
        for r, a, b, x, y, m, k in _spectrum_table(spec).tolist()
    ]
    _dump_json({"n": spec.n, "entries": entries}, dst)


def dump_report(doc: dict, dst) -> None:
    """A JSON report (``dgft analyze``): one top-level key per line,
    indented two spaces, its value as :func:`_json` prints it (an
    overflowing ``basis_condition`` as ``null``, say).
    """
    lines = [f"  {json.dumps(key)}: {_json(value)}" for key, value in doc.items()]
    with _opened(dst, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def _load_spectrum_rows(rows: Iterable[tuple[int, complex, complex]]) -> Spectrum:
    collected = sorted(rows, key=lambda r: r[0])
    indices = [r[0] for r in collected]
    if indices != list(range(len(collected))):
        raise ParseError("spectral_index values must cover 0..n-1 exactly once")
    if not collected:
        raise ParseError("spectrum holds no entries")
    return Spectrum(eigenvalues=[r[1] for r in collected], coefficients=[r[2] for r in collected])


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
    return _load_spectrum_csv(text.splitlines())


def _load_spectrum_json(text: str) -> Spectrum:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc.get("entries"), list):  # text starting with "{" loads as a dict
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


def _spectrum_columns(lines: list[str]) -> Spectrum | None:
    """The spectrum of a CSV file, or None when a check fails: a plain header, then
    rows (:func:`_columns`) with each ``spectral_index`` in 0..n-1 once, finite values."""
    if not lines or tuple(h.strip() for h in lines[0].split(",")) != SPECTRUM_HEADER:
        return None
    if (rows := _columns(lines[1:], _SPECTRUM_COLUMNS, delimiter=",", comments=None)) is None:
        return None
    order = np.argsort(rows["spectral_index"], kind="stable")
    parts = np.stack([rows[name] for name in SPECTRUM_HEADER[1:5]], axis=-1)[order]
    if not (np.array_equal(rows["spectral_index"][order], np.arange(len(rows)))
            and np.isfinite(parts).all()):
        return None
    return Spectrum(*parts.view(complex).T)  # (re, im) pairs, exactly: eigenvalue, coefficient


def _load_spectrum_csv(lines: list[str]) -> Spectrum:
    if (spec := _spectrum_columns(lines)) is not None:
        return spec
    import csv  # only the walker, which defines the format, reads CSV quoting
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty spectrum file") from None
    if tuple(h.strip() for h in header) != SPECTRUM_HEADER:
        raise ParseError("bad header, expected " + ",".join(SPECTRUM_HEADER), line=1)
    rows = []
    for lineno, fields in enumerate(reader, start=2):
        if not fields or (len(fields) == 1 and not fields[0].strip()):
            continue
        if len(fields) != len(SPECTRUM_HEADER):
            raise ParseError(
                f"expected {len(SPECTRUM_HEADER)} fields, got {len(fields)}", line=lineno
            )
        try:
            idx = int(fields[0])
            lam = _finite(fields[1], fields[2], "eigenvalue", lineno)
            coeff = _finite(fields[3], fields[4], "coefficient", lineno)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        rows.append((idx, lam, coeff))
    return _load_spectrum_rows(rows)
