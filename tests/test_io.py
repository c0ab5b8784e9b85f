import io as stdio
import json

import numpy as np
import pytest

from dgft import ParseError, Spectrum, demo_graph, decompose, order_frequencies, spectrum
from dgft.graph import GraphSignal
from dgft.io import (
    SPECTRUM_HEADER,
    dump_graph,
    dump_matrix_csv,
    dump_matrix_json,
    dump_signal,
    dump_spectrum_csv,
    dump_spectrum_json,
    fmt_float,
    format_complex,
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
            assert float(fmt_float(float(x))) == float(x)

    def test_format_complex_shapes(self):
        assert format_complex(3.0) == "3"
        assert format_complex(-2.5) == "-2.5"
        assert format_complex(1 + 2j) == "1+2i"
        assert format_complex(1 - 2j) == "1-2i"
        assert format_complex(2j) == "0+2i"

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
            assert parse_complex(format_complex(z)) == z

    def test_parse_complex_rejects_garbage(self):
        for bad in ("", "abc", "1 + 2i", "inf", "nan", "1+2"):
            with pytest.raises(ValueError):
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

    def test_bad_weight(self):
        with pytest.raises(ParseError) as exc:
            load_graph(stdio.StringIO("nodes 2\n1 2 xyz\n"))
        assert exc.value.line == 2

    def test_dump_load_round_trip(self):
        g = demo_graph()
        buf = stdio.StringIO()
        dump_graph(g, buf)
        again = load_graph(stdio.StringIO(buf.getvalue()))
        assert np.array_equal(again.weights, g.weights)

    def test_dump_is_deterministic(self):
        a, b = stdio.StringIO(), stdio.StringIO()
        dump_graph(demo_graph(), a)
        dump_graph(demo_graph(), b)
        assert a.getvalue() == b.getvalue()


class TestSignalJson:
    def test_load_real_and_complex_values(self):
        s = load_signal(stdio.StringIO('{"n": 3, "values": [1, 2.5, [0, -1]]}'))
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

    def test_rejects_bad_pair(self):
        with pytest.raises(ParseError):
            load_signal(stdio.StringIO('{"n": 1, "values": [[1, 2, 3]]}'))

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

    def test_json_shape(self):
        buf = stdio.StringIO()
        dump_matrix_json(np.array([[0.0, 1j], [0.0, 2.0]]), buf)
        doc = json.loads(buf.getvalue())
        assert doc["n"] == 2
        assert doc["rows"][0] == [0.0, [0.0, 1.0]]
        assert doc["rows"][1] == [0.0, 2.0]


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

    def test_csv_output_is_deterministic(self):
        spec = self._demo_spectrum()
        a, b = stdio.StringIO(), stdio.StringIO()
        dump_spectrum_csv(spec, a)
        dump_spectrum_csv(spec, b)
        assert a.getvalue() == b.getvalue()

    def test_natural_order_rows_sorted_by_rank(self):
        # eigenvalues deliberately out of frequency order so the two row
        # orders differ
        w = np.array([3.0, 1.0, 2.0], dtype=complex)
        spec = Spectrum(
            eigenvalues=w,
            coefficients=np.array([0.5, -1.5, 2.5], dtype=complex),
            ordering=order_frequencies(w),
        )
        buf = stdio.StringIO()
        dump_spectrum_csv(spec, buf, natural_order=True)
        lines = buf.getvalue().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "0"]
        again = load_spectrum(stdio.StringIO(buf.getvalue()))
        assert np.array_equal(again.coefficients, spec.coefficients)
        assert np.array_equal(again.eigenvalues, spec.eigenvalues)

    def test_natural_order_json_entries_sorted_by_rank(self):
        w = np.array([3.0, 1.0, 2.0], dtype=complex)
        spec = Spectrum(
            eigenvalues=w,
            coefficients=np.array([0.5, -1.5, 2.5], dtype=complex),
            ordering=order_frequencies(w),
        )
        buf = stdio.StringIO()
        dump_spectrum_json(spec, buf, natural_order=True)
        entries = json.loads(buf.getvalue())["entries"]
        assert [e["spectral_index"] for e in entries] == [1, 2, 0]
        assert [e["frequency_rank"] for e in entries] == [0, 1, 2]

    def test_path_based_io(self, tmp_path):
        spec = self._demo_spectrum()
        p = tmp_path / "spec.csv"
        dump_spectrum_csv(spec, p)
        assert load_spectrum(p).n == 5
