import io as stdio
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgft import (
    DgftError,
    ParseError,
    Spectrum,
    decompose,
    demo_graph,
    directed_laplacian,
    spectrum,
)
import dgft.io
from dgft.graph import Graph, GraphSignal
from dgft.io import (
    SPECTRUM_HEADER,
    _edge_columns,
    _header,
    _fmt_float,
    _format_complex,
    _spectrum_columns,
    dump_matrix_csv,
    dump_matrix_json,
    dump_report,
    dump_signal,
    dump_spectrum_csv,
    dump_spectrum_json,
    load_graph,
    load_signal,
    load_spectrum,
    parse_complex,
)
from conftest import DATA


class TestNumberFormats:
    def test_fmt_float_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(_fmt_float(float(x))) == float(x)

    def test_format_complex_shapes(self):
        assert _format_complex(3.0) == "3"
        assert _format_complex(-2.5) == "-2.5"
        assert _format_complex(1 + 2j) == "1+2i"
        assert _format_complex(1 - 2j) == "1-2i"
        assert _format_complex(2j) == "0+2i"

    def test_parse_complex_forms(self):
        assert parse_complex("3") == 3.0
        assert parse_complex("-2.5e-3") == -2.5e-3
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("1-2i") == 1 - 2j
        assert parse_complex("2i") == 2j
        assert parse_complex("1+2j") == 1 + 2j

    def test_parse_format_round_trip_is_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert parse_complex(_format_complex(z)) == z

    def test_parse_complex_rejects_garbage(self):
        for bad in ("", "abc", "1 + 2i", "nan", "1+2"):
            with pytest.raises(ValueError):
                parse_complex(bad)
        # Only a final i is the imaginary unit, so "inf" parses and is refused as non-finite.
        for bad in ("inf", "Infinity", "1+infi", "1+nani"):
            with pytest.raises(ValueError, match=re.escape(f"non-finite number: '{bad}'")):
                parse_complex(bad)


class TestEdgeList:
    def test_load_demo_file_matches_demo_graph(self):
        g = load_graph(DATA / "demo_graph.txt")
        assert np.array_equal(g.weights, demo_graph().weights)

    def test_comments_and_blank_lines(self):
        text = "\n# heading\nnodes 2\n\n1 2 1.5 # trailing note\n"
        g = load_graph(stdio.StringIO(text))
        assert g.weights[1, 0] == 1.5

    def test_complex_weights(self):
        g = load_graph(stdio.StringIO("nodes 2\n1 2 1.5-0.5i\n"))
        assert g.weights[1, 0] == 1.5 - 0.5j

    def test_missing_header(self):
        with pytest.raises(ParseError) as exc:
            load_graph(stdio.StringIO("1 2 1.0\n"))
        assert exc.value.line == 1

    def test_bad_edge_line_number(self):
        with pytest.raises(ParseError) as exc:
            load_graph(stdio.StringIO("nodes 3\n1 2 1.0\n1 2\n"))
        assert exc.value.line == 3

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError, match="out of range"):
            load_graph(stdio.StringIO("nodes 2\n1 3 1.0\n"))

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            load_graph(stdio.StringIO("nodes 2\n1 1 1.0\n"))

    def test_duplicate_edge_rejected_by_default(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_graph(stdio.StringIO("nodes 2\n1 2 1.0\n1 2 2.0\n"))

    def test_duplicate_edges_summed_on_request(self):
        g = load_graph(
            stdio.StringIO("nodes 2\n1 2 1.0\n1 2 2.0\n"), sum_duplicates=True
        )
        assert g.weights[1, 0] == 3.0

    def test_empty_file(self):
        with pytest.raises(ParseError, match="missing"):
            load_graph(stdio.StringIO(""))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("nodes x\n", "bad node count 'x'"),
            ("node 5\n", "expected header 'nodes N'"),
            ("nodes 0\n", "node count must be positive"),
            ("nodes 2\n1.5 2 1\n", "endpoints must be integers"),
        ],
    )
    def test_bad_header_or_endpoint_rejected_with_line(self, text, match):
        with pytest.raises(ParseError, match=match) as exc:
            load_graph(stdio.StringIO(text))
        assert exc.value.line == text.count("\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError) as exc:
            load_graph(stdio.StringIO("nodes 2\n1 2 xyz\n"))
        assert exc.value.line == 2


@pytest.mark.parametrize("read", [load_graph, load_signal, load_spectrum])
def test_text_that_is_not_utf8_is_a_parse_error(tmp_path, read):
    # from a path or an open text file alike, not a UnicodeDecodeError
    path = tmp_path / "utf16.txt"
    path.write_bytes("nodes 2\n".encode("utf-16"))
    with pytest.raises(ParseError, match="^not UTF-8 text: invalid start byte$"):
        read(path)
    with open(path, encoding="utf-8") as fh, pytest.raises(ParseError, match="^not UTF-8 text"):
        read(fh)


class TestSignalJson:
    def test_load_real_and_complex_values(self):
        s = load_signal(stdio.StringIO('{"n": 3, "values": [1, 2.5, [0, -1]]}'))
        assert np.array_equal(s.values, np.array([1, 2.5, -1j]))
        s = load_signal(stdio.StringIO('{"values": [1, 2.5, [0, -1]]}'))  # "n" is optional
        assert np.array_equal(s.values, np.array([1, 2.5, -1j]))

    def test_declared_length_mismatch(self):
        with pytest.raises(ParseError, match="declared"):
            load_signal(stdio.StringIO('{"n": 2, "values": [1]}'))

    def test_missing_values(self):
        with pytest.raises(ParseError):
            load_signal(stdio.StringIO('{"n": 2}'))

    def test_rejects_bool_values(self):
        with pytest.raises(ParseError):
            load_signal(stdio.StringIO('{"n": 1, "values": [true]}'))

    @pytest.mark.parametrize("declared", ["true", "1.0", '"1"'])
    def test_declared_n_must_be_an_integer(self, declared):
        with pytest.raises(ParseError, match=f"declared n={re.escape(declared)} but 1 values"):
            load_signal(stdio.StringIO('{"n": %s, "values": [2.5]}' % declared))

    def test_rejects_bad_pair(self):
        # Neither a number nor a pair of two numbers: a triple, a string, null, a
        # pair with a string, a null or a boolean part.
        match = r"values\[0\]: expected a number or a \[re, im\] pair"
        for value in ["[1, 2, 3]", '"1"', "null", '[1, "2"]', "[null, 1]", "[true, 1]"]:
            with pytest.raises(ParseError, match=match):
                load_signal(stdio.StringIO('{"n": 1, "values": [%s]}' % value))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("[1, 2]", "must hold a JSON object"),
            ('{"n": 0, "values": []}', "no values"),
            ('{"values": 3}', "needs a 'values' list"),
        ],
    )
    def test_rejects_wrong_shape(self, text, match):
        with pytest.raises(ParseError, match=match):
            load_signal(stdio.StringIO(text))

    def test_rejects_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            load_signal(stdio.StringIO("{"))

    def test_dump_load_round_trip_exact(self):
        s = GraphSignal(np.array([0.1, -2.5, 3 + 4j, 0.0]))
        buf = stdio.StringIO()
        dump_signal(s, buf)
        again = load_signal(stdio.StringIO(buf.getvalue()))
        assert np.array_equal(again.values, s.values)

    def test_real_values_stay_plain_numbers(self):
        buf = stdio.StringIO()
        dump_signal(GraphSignal(np.array([1.0, 2.0])), buf)
        doc = json.loads(buf.getvalue())
        assert doc["values"] == [1.0, 2.0]


class TestMatrixDumps:
    def test_csv_integer_rendering(self):
        buf = stdio.StringIO()
        dump_matrix_csv(np.array([[1.0, -3.0], [0.0, 2.5]]), buf)
        assert buf.getvalue() == "1,-3\n0,2.5\n"

    def test_csv_complex_rendering(self):
        buf = stdio.StringIO()
        dump_matrix_csv(np.array([[1 + 1j]]), buf)
        assert buf.getvalue() == "1+1i\n"

    def test_csv_matches_the_per_cell_loop(self):
        # The per-cell loop formats all n^2 cells; dump_matrix_csv formats
        # each distinct entry once and must write the same bytes.
        def per_cell(m):
            m = np.asarray(m, dtype=complex)
            return "".join(",".join(_format_complex(v) for v in row) + "\n" for row in m)

        rng = np.random.default_rng(5)
        sparse = np.where(rng.random((30, 30)) < 0.1, rng.uniform(0.5, 2.0, (30, 30)), 0.0)
        cases = [
            sparse,
            np.diag(sparse.sum(axis=1)) - sparse,
            sparse.T,  # not C-contiguous
            sparse + 1j * np.where(rng.random((30, 30)) < 0.05, 1.0, 0.0),
            np.array([[0.0, -0.0], [1.0, -1.0]]),  # signed zeros keep their text
            np.array([[complex(-0.0, 1.0), complex(0.0, 1.0)], [complex(1.0, -0.0), 2j]]),
            np.array([[1, 2], [3, 4]]),
            directed_laplacian(demo_graph()).matrix,
        ]
        for m in cases:
            buf = stdio.StringIO()
            dump_matrix_csv(m, buf)
            assert buf.getvalue() == per_cell(m)

    def test_json_matches_the_per_cell_loop(self):
        # The per-cell loop converts each of the n^2 cells on its own, a plain
        # number if real, else [re, im], and lets json.dump write them;
        # dump_matrix_json converts whole rows and must write the same bytes.
        def value(z):
            z = complex(z)
            return z.real if z.imag == 0.0 else [z.real, z.imag]

        def per_cell(m):
            m = np.asarray(m)
            out = stdio.StringIO()
            rows = [[value(v) for v in row] for row in m]
            json.dump({"n": int(m.shape[0]), "rows": rows}, out)
            return out.getvalue() + "\n"

        rng = np.random.default_rng(6)
        sparse = np.where(rng.random((30, 30)) < 0.1, rng.uniform(0.5, 2.0, (30, 30)), 0.0)
        cases = [
            sparse,
            np.diag(sparse.sum(axis=1)) - sparse,
            sparse.T,  # not C-contiguous
            sparse + 1j * np.where(rng.random((30, 30)) < 0.05, rng.uniform(-1, 1, (30, 30)), 0.0),
            np.array([[0.0, -0.0], [1.0, -1.0]]),  # signed zeros keep their text
            np.array([[complex(-0.0, 1.0), complex(0.0, 1.0)], [complex(1.0, -0.0), 2j]]),
            np.array([[1, 2], [3, 4]]),
            np.array([[1e300, 1e-300], [0.1, 1 / 3]]),
            directed_laplacian(demo_graph()).matrix,
        ]
        for m in cases:
            buf = stdio.StringIO()
            dump_matrix_json(m, buf)
            assert buf.getvalue() == per_cell(m)

    def test_json_shape(self):
        buf = stdio.StringIO()
        dump_matrix_json(np.array([[0.0, 1j], [0.0, 2.0]]), buf)
        doc = json.loads(buf.getvalue())
        assert doc["n"] == 2
        assert doc["rows"][0] == [0.0, [0.0, 1.0]]
        assert doc["rows"][1] == [0.0, 2.0]


class TestReport:
    def test_one_key_per_line_with_non_finite_numbers_as_null(self):
        doc = {"n": 2, "condition": float("inf"), "rows": [{"tv": float("nan"), "k": 1}],
               "pair": (1.5, -float("inf")), "ok": [0.1, 2.0]}
        buf = stdio.StringIO()
        dump_report(doc, buf)
        assert buf.getvalue() == (
            '{\n  "n": 2,\n  "condition": null,\n  "rows": [{"tv": null, "k": 1}],\n'
            '  "pair": [1.5, null],\n  "ok": [0.1, 2.0]\n}\n'
        )


class TestSpectrumFiles:
    def _demo_spectrum(self):
        dec = decompose(demo_graph())
        return spectrum(dec, np.array([0.12, 0.38, 0.81, 0.24, 0.88]))

    def test_csv_header(self):
        buf = stdio.StringIO()
        dump_spectrum_csv(self._demo_spectrum(), buf)
        assert buf.getvalue().splitlines()[0] == ",".join(SPECTRUM_HEADER)

    def test_csv_round_trip(self):
        spec = self._demo_spectrum()
        buf = stdio.StringIO()
        dump_spectrum_csv(spec, buf)
        again = load_spectrum(stdio.StringIO(buf.getvalue()))
        assert np.allclose(again.coefficients, spec.coefficients, atol=0)
        assert np.allclose(again.eigenvalues, spec.eigenvalues, atol=0)
        assert again.ordering.ranks == spec.ordering.ranks

    def test_json_round_trip(self):
        spec = self._demo_spectrum()
        buf = stdio.StringIO()
        dump_spectrum_json(spec, buf)
        again = load_spectrum(stdio.StringIO(buf.getvalue()))
        assert np.array_equal(again.coefficients, spec.coefficients)

    def test_json_writers_print_what_json_dump_prints(self):
        # one json.dumps call (the C encoder); the text is the pure-Python
        # encoder's, which json.dump runs, byte for byte
        spec = self._demo_spectrum()
        for dump, value in ((dump_spectrum_json, spec), (dump_signal, spec.coefficients)):
            buf, want = stdio.StringIO(), stdio.StringIO()
            dump(value, buf)
            json.dump(json.loads(buf.getvalue()), want)
            assert buf.getvalue() == want.getvalue() + "\n"

    def test_format_sniffing(self):
        spec = self._demo_spectrum()
        for dump in (dump_spectrum_csv, dump_spectrum_json):
            buf = stdio.StringIO()
            dump(spec, buf)
            assert load_spectrum(stdio.StringIO(buf.getvalue())).n == 5

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            load_spectrum(stdio.StringIO("a,b,c\n"))

    def test_index_gap_rejected(self):
        lines = [",".join(SPECTRUM_HEADER), "0,0,0,1,0,1,0", "2,1,0,1,0,1,1"]
        with pytest.raises(ParseError, match="spectral_index"):
            load_spectrum(stdio.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("column", ["eig_re", "eig_im", "coeff_re", "coeff_im"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_csv_non_finite_rejected_with_line(self, column, value):
        fields = dict(zip(SPECTRUM_HEADER, "1,0,0,1,0,1,1".split(",")))
        fields[column] = value
        lines = [",".join(SPECTRUM_HEADER), "0,0,0,1,0,1,0", ",".join(fields.values())]
        with pytest.raises(ParseError, match="non-finite") as exc:
            load_spectrum(stdio.StringIO("\n".join(lines) + "\n"))
        assert exc.value.line == 3

    def test_repeated_index_rejected(self):
        lines = [",".join(SPECTRUM_HEADER), "0,0,0,1,0,1,0", "0,1,0,2,0,2,1"]
        with pytest.raises(ParseError, match="spectral_index"):
            load_spectrum(stdio.StringIO("\n".join(lines) + "\n"))

    def test_json_declared_n_must_match_entries(self):
        entries = [
            {"spectral_index": 0, "eigenvalue": 0.0, "coefficient": 1.0},
            {"spectral_index": 1, "eigenvalue": 1.0, "coefficient": 2.0},
        ]
        with pytest.raises(ParseError, match="declared n=9 but 2 entries"):
            load_spectrum(stdio.StringIO(json.dumps({"n": 9, "entries": entries})))
        assert load_spectrum(stdio.StringIO(json.dumps({"n": 2, "entries": entries}))).n == 2

    @pytest.mark.parametrize("declared", [True, 1.0])
    def test_json_declared_n_must_be_an_integer(self, declared):
        entries = [{"spectral_index": 0, "eigenvalue": 0.0, "coefficient": 1.0}]
        with pytest.raises(ParseError, match="but 1 entries"):
            load_spectrum(stdio.StringIO(json.dumps({"n": declared, "entries": entries})))

    def test_csv_output_is_deterministic(self):
        spec = self._demo_spectrum()
        a, b = stdio.StringIO(), stdio.StringIO()
        dump_spectrum_csv(spec, a)
        dump_spectrum_csv(spec, b)
        assert a.getvalue() == b.getvalue()

    @pytest.mark.parametrize(
        "text, match, line",
        [
            ("", "empty spectrum file", None),
            (",".join(SPECTRUM_HEADER) + "\n", "holds no entries", None),
            (",".join(SPECTRUM_HEADER) + "\n0,0,0,1,0\n", "expected 7 fields, got 5", 2),
            (",".join(SPECTRUM_HEADER) + "\njunk\n", "expected 7 fields, got 1", 2),
            (",".join(SPECTRUM_HEADER) + "\n0,0,0,1,0,1,0\nx,1,0,1,0,1,1\n", "invalid literal", 3),
            ("{", "invalid JSON", None),
            ('{"entries": 3}', "'entries' list", None),
            ('{"entries": [1]}', r"entries\[0\]: expected an object", None),
            ('{"entries": [{"spectral_index": 0, "eigenvalue": 0}]}', "missing field 'coefficient'", None),
        ],
    )
    def test_malformed_spectrum_rejected(self, text, match, line):
        with pytest.raises(ParseError, match=match) as exc:
            load_spectrum(stdio.StringIO(text))
        assert exc.value.line == line

    def test_path_based_io(self, tmp_path):
        spec = self._demo_spectrum()
        p = tmp_path / "spec.csv"
        dump_spectrum_csv(spec, p)
        assert load_spectrum(p).n == 5


# ---------------------------------------------------------------------------
# The column routes against the walkers, which define the formats


def _outcome(read):
    """What a reader gives: the bits of its arrays, or its typed refusal."""
    try:
        got = read()
    except DgftError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None))
    fields = {Graph: ("weights",), GraphSignal: ("values",), Spectrum: ("eigenvalues", "coefficients")}
    return tuple((a.dtype.str, a.tobytes()) for a in map(got.__getattribute__, fields[type(got)]))


def _walked(read, route: str):
    """:func:`_outcome` of ``read`` with the column route ``route`` refusing
    every file, so that the line walker, which defines the format, answers."""
    with mock.patch.object(dgft.io, route, return_value=None):
        return _outcome(read)


def _body_columns(lines: list[str]):
    """:func:`_edge_columns` of a file's lines after its header."""
    k, n = _header(lines)
    return _edge_columns(n, lines[k + 1:])


_EDGE_CASES = (5e-324, -0.0, 0.0, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1)
_WEIGHTS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_CASES))


@st.composite
def _number(draw, x):
    """``x`` as a file writes it: by repr, by %.17g, with an exponent, or
    a zero as ``-0``/``0``; every form holds ``x`` exactly."""
    forms = [repr(x), "%.17g" % x, "%.16e" % x, "%.16E" % x]
    if x == 0:
        forms += ["-0", "0", "-0.0e5"]
    return draw(st.sampled_from(forms))


@st.composite
def _edge_files(draw):
    """(n, edge lines as (src, dst, weight) text, a valid edge-list file)."""
    n = draw(st.integers(1, 5))
    pairs = [(s, d) for s in range(1, n + 1) for d in range(1, n + 1) if s != d]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    sep = st.sampled_from([" ", "\t", "  ", " \t "])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    filler = st.sampled_from(["", "   ", "# a comment", "\t# another"])
    endpoint = st.sampled_from(["{}", "+{}", "0{}", " {} "])
    lines = [draw(filler) + end for _ in range(draw(st.integers(0, 2)))]
    lines.append(f"nodes{draw(sep)}{n}{draw(st.sampled_from(['', ' # header']))}{end}")
    edges = []
    for s, d in chosen:
        w = draw(_number(draw(_WEIGHTS)))
        edges.append((draw(endpoint).format(s), draw(endpoint).format(d), w))
        lines.append(draw(sep).join(edges[-1]) + draw(st.sampled_from(["", " # note"])) + end)
        if draw(st.booleans()):
            lines.append(draw(filler) + end)
    return n, edges, lines


# One corruption of a valid edge line each; the walker's verdict stands.
_EDGE_DAMAGE = (
    lambda n, s, d, w: f"{s} {d}",
    lambda n, s, d, w: f"{s} {d} {w} 4",
    lambda n, s, d, w: f"1.5 {d} {w}",
    lambda n, s, d, w: f"{s} 1_0 {w}",
    lambda n, s, d, w: f"99999999999999999999 {d} {w}",
    lambda n, s, d, w: f"0 {d} {w}",
    lambda n, s, d, w: f"{s} {n + 1} {w}",
    lambda n, s, d, w: f"{s} {s} {w}",
    lambda n, s, d, w: f"{s} {d} nan",
    lambda n, s, d, w: f"{s} {d} inf",
    lambda n, s, d, w: f"{s} {d} 1e400",
    lambda n, s, d, w: f"{s} {d} xyz",
    lambda n, s, d, w: f"{s} {d} 1+2i",
    lambda n, s, d, w: f"{s} {d} -0.5i",
    lambda n, s, d, w: f"{s} {d} {w}\n{s} {d} 2",  # a repeated pair
)


class TestEdgeListColumns:
    @settings(max_examples=150, deadline=None)
    @given(_edge_files())
    def test_valid_files_give_the_walkers_weights_bit_for_bit(self, file):
        _, edges, lines = file
        read = lambda: load_graph(stdio.StringIO("".join(lines)))  # noqa: E731
        want = _walked(read, "_edge_columns")
        columns = _body_columns(lines)
        assert (columns is None) == (not edges)  # a header alone reads no columns
        if columns is not None:
            assert _outcome(lambda: columns) == want
        assert _outcome(read) == want

    @settings(max_examples=150, deadline=None)
    @given(_edge_files(), st.data())
    def test_malformed_files_give_the_walkers_error_and_line(self, file, data):
        n, edges, lines = file
        sum_duplicates = data.draw(st.booleans())
        if edges:
            k = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.split("#")[0].strip()][1:]))
            s, d, w = lines[k].split("#")[0].split()
            lines[k] = data.draw(st.sampled_from(_EDGE_DAMAGE))(n, s, d, w) + "\n"
        text = "".join(lines)
        read = lambda: load_graph(stdio.StringIO(text), sum_duplicates=sum_duplicates)  # noqa: E731
        want = _walked(read, "_edge_columns")
        columns = _body_columns(stdio.StringIO(text).readlines())
        assert columns is None or _outcome(lambda: columns) == want
        assert _outcome(read) == want

    def test_an_empty_body_reads_no_columns_and_warns_nothing(self):
        # numpy's reader warns "input contained no data"; the walker reads it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _edge_columns(3, ["# no edges\n"]) is None
            assert not load_graph(stdio.StringIO("nodes 3\n# no edges\n")).weights.any()

    @pytest.mark.parametrize("line", ["\u01fe 2 1\n", "١ 2 1\n", "1 2\x1f 1\n", "1 2 1\r3 1 1\n"])
    def test_text_the_c_reader_misreads_goes_to_the_walker(self, line):
        # numpy reads U+01FE as the integer 462 and the Arabic-Indic one as
        # garbage, not 1; \x1f is a separator to str.split; a lone \r ends a
        # line to numpy only
        assert _edge_columns(500, [line]) is None
        read = lambda: load_graph(stdio.StringIO("nodes 500\n" + line))  # noqa: E731
        assert _outcome(read) == _walked(read, "_edge_columns")


@st.composite
def _spectrum_files(draw):
    """(rows as field lists, a valid spectrum CSV file's lines)."""
    n = draw(st.integers(1, 5))
    rows = []
    for index in draw(st.permutations(range(n))):
        values = [draw(_number(draw(_WEIGHTS))) for _ in range(5)]
        pad = draw(st.sampled_from(["{}", " {}", "{} ", "+{}"]))
        rows.append([pad.format(index), *values, str(draw(st.integers(0, 9)))])
    lines = [",".join(SPECTRUM_HEADER)]
    for row in rows:
        lines.append(",".join(row))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "  "])))
    return rows, lines


_SPECTRUM_DAMAGE = (
    lambda row: row[:5],
    lambda row: row + ["1"],
    lambda row: ["1.5"] + row[1:],
    lambda row: ["x"] + row[1:],
    lambda row: ["0"] + row[1:],  # a repeated or missing index
    lambda row: ["7"] + row[1:],
    lambda row: row[:1] + ["nan"] + row[2:],
    lambda row: row[:2] + ["inf"] + row[3:],
    lambda row: row[:3] + ["1e400"] + row[4:],
    lambda row: row[:4] + ["xyz"] + row[5:],
    lambda row: row[:1] + ['"1"'] + row[2:],  # csv quoting: the walker reads 1
    lambda row: row[:5] + ["magnitude"] + row[6:],  # a column neither reader uses
)


class TestSpectrumColumns:
    @settings(max_examples=100, deadline=None)
    @given(_spectrum_files())
    def test_valid_files_give_the_walkers_spectrum_bit_for_bit(self, file):
        _, lines = file
        read = lambda: load_spectrum(stdio.StringIO("\r\n".join(lines)))  # noqa: E731
        want = _walked(read, "_spectrum_columns")
        columns = _spectrum_columns(lines)
        # numpy's reader takes a row of blanks for a field; the walker skips it
        assert (columns is None) == any(line.isspace() for line in lines)
        if columns is not None:
            assert _outcome(lambda: columns) == want
        assert _outcome(read) == want

    @settings(max_examples=100, deadline=None)
    @given(_spectrum_files(), st.data())
    def test_malformed_files_give_the_walkers_error_and_line(self, file, data):
        rows, lines = file
        k = data.draw(st.integers(0, len(rows) - 1))
        at = lines.index(",".join(rows[k]))
        lines[at] = ",".join(data.draw(st.sampled_from(_SPECTRUM_DAMAGE))(rows[k]))
        read = lambda: load_spectrum(stdio.StringIO("\n".join(lines)))  # noqa: E731
        want = _walked(read, "_spectrum_columns")
        columns = _spectrum_columns(lines)
        assert columns is None or _outcome(lambda: columns) == want
        assert _outcome(read) == want

    def test_quoted_header_goes_to_the_walker(self):
        lines = ['"spectral_index"' + ",".join(("",) + SPECTRUM_HEADER[1:]), "0,1,0,2,0,2,0"]
        assert _spectrum_columns(lines) is None
        assert load_spectrum(stdio.StringIO("\n".join(lines))).coefficients.tolist() == [2.0]


# ---------------------------------------------------------------------------
# Writers: one % operation, one non-finite rule


def test_spectrum_csv_is_the_per_row_loop_byte_for_byte():
    def per_row(spec):
        out = [",".join(SPECTRUM_HEADER)]
        for r in range(spec.n):
            lam, c = complex(spec.eigenvalues[r]), complex(spec.coefficients[r])
            fields = (lam.real, lam.imag, c.real, c.imag, abs(c))
            out.append(",".join([str(r), *map(_fmt_float, fields), str(spec.ordering.ranks[r])]))
        return "\n".join(out) + "\n"

    rng = np.random.default_rng(5)
    for dtype in (float, complex):
        for scale in (1e-300, 1.0, 1e300):
            w = rng.standard_normal(40) + (1j * rng.standard_normal(40) if dtype is complex else 0)
            c = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * scale
            spec = Spectrum(w, c if dtype is complex else c.real)
            buf = stdio.StringIO()
            dump_spectrum_csv(spec, buf)
            assert buf.getvalue() == per_row(spec)


def test_every_json_writer_prints_null_past_float64():
    inf, nan = float("inf"), float("nan")

    def text(dump, value):
        buf = stdio.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dump(value, buf)
        return buf.getvalue()

    assert text(dump_signal, np.array([inf, 1.0, nan])) == '{"n": 3, "values": [null, 1.0, null]}\n'
    assert text(dump_signal, np.array([complex(inf, 1), 2.0])) == (
        '{"n": 2, "values": [[null, 1.0], 2.0]}\n'
    )
    assert text(dump_matrix_json, np.array([[inf, 0.0], [1.0, -inf]])) == (
        '{"n": 2, "rows": [[null, 0.0], [1.0, null]]}\n'
    )
    doc = json.loads(text(dump_spectrum_json, Spectrum([0.0, 1.0], [inf, 2.0])))
    assert [e["coefficient"] for e in doc["entries"]] == [[None, 0.0], [2.0, 0.0]]
    assert doc["entries"][0]["magnitude"] is None
