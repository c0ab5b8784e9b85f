import ast
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dgft
from dgft import Graph, apply_vertex_domain, decompose, demo_graph, gft, ring_graph
from dgft.cli import main
from dgft.io import load_graph, load_signal, load_spectrum
from conftest import DATA, make_random_digraph

DEMO = str(DATA / "demo_graph.txt")
SIGNAL = str(DATA / "demo_signal.json")
UNDIRECTED = "nodes 3\n1 2 1\n2 1 1\n2 3 2\n3 2 2\n"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edge_list(g) -> str:
    """The edge-list file of ``g``, its weights written exactly."""
    return f"nodes {g.n}\n" + "".join(
        f"{s + 1} {d + 1} {float(g.weights[d, s])!r}\n" for d, s in zip(*np.nonzero(g.weights))
    )


class TestLaplacian:
    def test_demo_csv(self, capsys):
        code, out, err = run_cli(capsys, "laplacian", DEMO)
        assert code == 0
        assert err == ""
        assert out.splitlines() == [
            "3,0,0,0,-3",
            "-1,3,-2,0,0",
            "0,0,3,-3,0",
            "-2,-4,0,7,-1",
            "-3,-3,0,0,6",
        ]

    def test_ring_flag(self, capsys):
        code, out, _ = run_cli(capsys, "laplacian", "--ring", "3")
        assert code == 0
        assert out.splitlines() == ["1,0,-1", "-1,1,0", "0,-1,1"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "laplacian", DEMO, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 5
        assert doc["rows"][0] == [3.0, 0.0, 0.0, 0.0, -3.0]

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        p = tmp_path / "lap.csv"
        code, _, _ = run_cli(capsys, "laplacian", DEMO, "-o", str(p))
        assert code == 0
        code, out, _ = run_cli(capsys, "laplacian", DEMO)
        assert p.read_text() == out

    def test_matrix_flag_weights(self, capsys):
        code, out, _ = run_cli(capsys, "laplacian", DEMO, "--matrix", "w")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "0,0,0,0,3"
        assert lines[3] == "2,4,0,0,1"

    def test_matrix_flag_in_degrees(self, capsys):
        code, out, _ = run_cli(capsys, "laplacian", DEMO, "--matrix", "din")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert [rows[k][k] for k in range(5)] == ["3", "3", "3", "7", "6"]
        assert {rows[i][j] for i in range(5) for j in range(5) if i != j} == {"0"}

    def test_empty_edge_file_gives_zero_matrices(self, capsys, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("nodes 3\n")
        for which in ("w", "din", "l"):
            code, out, _ = run_cli(capsys, "laplacian", str(p), "--matrix", which)
            assert code == 0
            assert out.splitlines() == ["0,0,0", "0,0,0", "0,0,0"]

    def test_graph_and_ring_together_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "laplacian", DEMO, "--ring", "4")
        assert code == 2
        assert "not both" in err

    def test_no_graph_at_all(self, capsys):
        code, _, err = run_cli(capsys, "laplacian")
        assert code == 2


class TestGft:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "gft", DEMO, "--signal", SIGNAL)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("spectral_index,")
        assert len(lines) == 6

    def test_matches_library(self, capsys, tmp_path):
        p = tmp_path / "spec.csv"
        code, _, _ = run_cli(capsys, "gft", DEMO, "--signal", SIGNAL, "-o", str(p))
        assert code == 0
        spec = load_spectrum(p)
        dec = decompose(demo_graph())
        expected = gft(dec, np.array([0.12, 0.38, 0.81, 0.24, 0.88]))
        assert np.allclose(spec.coefficients, expected, atol=1e-12)

    def test_output_is_byte_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "gft", DEMO, "--signal", SIGNAL)
        _, out2, _ = run_cli(capsys, "gft", DEMO, "--signal", SIGNAL)
        assert out1 == out2

    def test_loose_cluster_tol_keeps_rows_in_frequency_order(self, capsys, tmp_path):
        # At --tol-cluster 0.01 distinct eigenvalues of this digraph share a
        # cluster whose chains fall short; the columns that keep their own
        # eigenvectors rank by their own eigenvalues, so every row's
        # frequency rank is still its spectral index.
        rng = np.random.default_rng(9)
        g = make_random_digraph(rng, int(rng.integers(2, 15)))
        graph = tmp_path / "g.txt"
        graph.write_text(edge_list(g))
        signal = tmp_path / "f.json"
        signal.write_text(json.dumps({"n": g.n, "values": list(range(g.n))}))
        code, out, _ = run_cli(
            capsys, "gft", str(graph), "--signal", str(signal), "--tol-cluster", "0.01"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[-1] for r in rows] == [r[0] for r in rows] == [str(k) for k in range(g.n)]

    def test_dimension_mismatch_exits_3(self, capsys, tmp_path):
        short = tmp_path / "short.json"
        short.write_text('{"n": 2, "values": [1, 2]}')
        code, _, err = run_cli(capsys, "gft", DEMO, "--signal", str(short))
        assert code == 3
        assert "5 nodes" in err

    def test_signal_value_too_large_for_a_double_exits_2(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"n": 5, "values": [1, 2, 3, 4, 1%s]}' % ("0" * 400))
        code, out, err = run_cli(capsys, "gft", DEMO, "--signal", str(big))
        assert code == 2
        assert out == ""
        assert "values[4]" in err

    def test_malformed_graph_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nodes 2\n1 5 1.0\n")
        code, _, err = run_cli(capsys, "gft", str(bad), "--signal", SIGNAL)
        assert code == 2
        assert "line 2" in err


class TestIgft:
    def test_round_trip_through_files(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.csv"
        out_path = tmp_path / "back.json"
        assert run_cli(capsys, "gft", DEMO, "--signal", SIGNAL, "-o", str(spec_path))[0] == 0
        # rows out of index order, and a blank line, load all the same
        header, *rows = spec_path.read_text().splitlines()
        shuffled = [rows[3], rows[0], "", rows[4], rows[2], rows[1]]
        spec_path.write_text("\n".join([header, *shuffled]) + "\n")
        assert (
            run_cli(capsys, "igft", DEMO, "--spectrum", str(spec_path), "-o", str(out_path))[0]
            == 0
        )
        back = load_signal(out_path)
        assert np.allclose(
            back.values, np.array([0.12, 0.38, 0.81, 0.24, 0.88]), atol=1e-8
        )

    def test_json_spectrum_accepted(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        run_cli(capsys, "gft", DEMO, "--signal", SIGNAL, "--format", "json", "-o", str(spec_path))
        doc = json.loads(spec_path.read_text())
        doc["entries"] = [doc["entries"][k] for k in (2, 4, 0, 1, 3)]  # out of index order
        spec_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "igft", DEMO, "--spectrum", str(spec_path))
        assert code == 0
        values = [
            complex(v, 0) if isinstance(v, (int, float)) else complex(v[0], v[1])
            for v in json.loads(out)["values"]
        ]
        assert np.allclose(values, [0.12, 0.38, 0.81, 0.24, 0.88], atol=1e-8)

    def test_wrong_size_spectrum_exits_3(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.csv"
        run_cli(capsys, "gft", "--ring", "4", "--signal", str(_ring_signal(tmp_path)), "-o", str(spec_path))
        code, _, _ = run_cli(capsys, "igft", DEMO, "--spectrum", str(spec_path))
        assert code == 3

    def test_non_finite_csv_value_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.csv"
        run_cli(capsys, "gft", DEMO, "--signal", SIGNAL, "-o", str(spec_path))
        lines = spec_path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "nan"
        lines[2] = ",".join(fields)
        spec_path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "igft", DEMO, "--spectrum", str(spec_path))
        assert code == 2
        assert out == ""
        assert "line 3" in err

    def test_json_declared_n_mismatch_exits_2(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        run_cli(capsys, "gft", DEMO, "--signal", SIGNAL, "--format", "json", "-o", str(spec_path))
        doc = json.loads(spec_path.read_text())
        doc["n"] = 9  # the file holds the demo graph's 5 entries
        spec_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "igft", DEMO, "--spectrum", str(spec_path))
        assert code == 2
        assert out == ""
        assert "declared n=9" in err

    def _json_spectrum(self, capsys, tmp_path, entry0) -> str:
        spec_path = tmp_path / "spec.json"
        run_cli(capsys, "gft", DEMO, "--signal", SIGNAL, "--format", "json", "-o", str(spec_path))
        doc = json.loads(spec_path.read_text())
        doc["entries"][0].update(entry0)
        spec_path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 400))
        return str(spec_path)

    def test_json_value_too_large_for_a_double_exits_2(self, capsys, tmp_path):
        spec_path = self._json_spectrum(capsys, tmp_path, {"coefficient": "BIG"})
        code, out, err = run_cli(capsys, "igft", DEMO, "--spectrum", spec_path)
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("index", [None, [0], 0.7, True, "0"])
    def test_json_spectral_index_not_an_integer_exits_2(self, capsys, tmp_path, index):
        spec_path = self._json_spectrum(capsys, tmp_path, {"spectral_index": index})
        code, out, err = run_cli(capsys, "igft", DEMO, "--spectrum", spec_path)
        assert code == 2
        assert out == ""
        assert "spectral_index" in err


def _ring_signal(tmp_path):
    p = tmp_path / "ring4.json"
    p.write_text('{"n": 4, "values": [1, 2, 3, 4]}')
    return p


class TestFilter:
    def test_vertex_domain_matches_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", "1,-0.5"
        )
        assert code == 0
        got = json.loads(out)["values"]
        expected = apply_vertex_domain(
            demo_graph(), [1.0, -0.5], np.array([0.12, 0.38, 0.81, 0.24, 0.88])
        )
        for g_val, e_val in zip(got, expected):
            g_c = complex(g_val, 0) if isinstance(g_val, (int, float)) else complex(*g_val)
            assert abs(g_c - e_val) < 1e-12

    def test_spectral_domain_agrees_with_vertex(self, capsys):
        _, out_v, _ = run_cli(capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", "1,-0.5")
        _, out_s, _ = run_cli(
            capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", "1,-0.5", "--domain", "spectral"
        )
        to_vec = lambda text: np.array(
            [
                complex(v, 0) if isinstance(v, (int, float)) else complex(v[0], v[1])
                for v in json.loads(text)["values"]
            ]
        )
        assert np.allclose(to_vec(out_v), to_vec(out_s), atol=1e-8)

    def test_complex_taps_parse(self, capsys):
        code, out, _ = run_cli(
            capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", "1+0i, 0-0.5i"
        )
        assert code == 0

    def test_bad_taps_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", "1,zork"
        )
        assert code == 2
        assert "bad tap" in err

    @pytest.mark.parametrize("tap", ["1 +2i", "1+ 2i", "1+2 i", "1\t+2i", "1 +2i"])
    def test_inner_whitespace_exits_2(self, capsys, tmp_path, tap):
        code, _, err = run_cli(capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", f"1,{tap}")
        assert (code, "bad tap" in err) == (2, True)
        graph = tmp_path / "g.txt"
        graph.write_text(f"nodes 2\n1 2 {tap}\n")
        code, _, err = run_cli(capsys, "laplacian", str(graph))
        assert (code, "line 2" in err) == (2, True)

    def test_negative_first_tap_in_the_equals_form(self, capsys):
        # After a space argparse reads "-1,1" as an option, so a negative
        # first tap is written --taps=-1,1.
        code, out, _ = run_cli(capsys, "filter", "--ring", "5", "--signal", SIGNAL, "--taps=-1,1")
        assert code == 0
        expected = apply_vertex_domain(ring_graph(5), [-1.0, 1.0], load_signal(SIGNAL))
        assert json.loads(out)["values"] == expected.tolist()

    def test_empty_taps_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "filter", DEMO, "--signal", SIGNAL, "--taps", ",")
        assert code == 2

    def test_short_signal_exits_3(self, capsys, tmp_path):
        short = tmp_path / "short.json"
        short.write_text('{"n": 2, "values": [1, 2]}')
        code, out, err = run_cli(capsys, "filter", DEMO, "--signal", str(short), "--taps", "1,0.5")
        assert (code, out) == (3, "")
        assert "5 nodes" in err


class TestAnalyze:
    def test_report_structure(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", DEMO)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 5
        assert doc["diagonalizable"] is True
        assert doc["undirected"] is False
        assert doc["lsi_preconditions"]["polynomials_span_commutant"] is True
        assert len(doc["eigenvalues"]) == 5
        assert doc["frequency_order"] == [0, 1, 2, 3, 4]
        assert doc["tie_groups"] == [[2, 3]]
        assert doc["reconstruction_residual"] < 1e-10

    def test_defective_graph_report(self, capsys, tmp_path):
        p = tmp_path / "chain.txt"
        p.write_text("nodes 3\n1 2 1\n2 3 1\n")
        code, out, _ = run_cli(capsys, "analyze", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["diagonalizable"] is False
        sizes = sorted(b["size"] for b in doc["blocks"])
        assert sizes == [1, 2]

    def test_undirected_with_negative_weight(self, capsys, tmp_path):
        # a negative weight keeps the Laplacian real symmetric
        p = tmp_path / "signed.txt"
        p.write_text("nodes 3\n1 2 2\n2 1 2\n2 3 -0.5\n3 2 -0.5\n")
        code, out, _ = run_cli(capsys, "analyze", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["undirected"] is True
        assert doc["unitary_basis"] is True

    def test_complex_symmetric_weights_are_not_undirected(self, capsys, tmp_path):
        p = tmp_path / "complex.txt"
        p.write_text("nodes 3\n1 2 1+1i\n2 1 1+1i\n2 3 2\n3 2 2\n")
        assert load_graph(p).is_undirected is False
        code, out, _ = run_cli(capsys, "analyze", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["undirected"] is False
        assert doc["unitary_basis"] is False

    def test_tiny_weights_keep_the_jordan_structure(self, capsys, tmp_path):
        # Every threshold is relative to L, so a path weighted 2^-30 has the
        # unit path's blocks; the parent read five 1x1 blocks off a basis
        # whose residual was about 70% of ||L||_F, and exited 0.
        p = tmp_path / "path.txt"
        p.write_text("nodes 5\n" + "".join(f"{k} {k + 1} {2.0**-30!r}\n" for k in range(1, 5)))
        code, out, _ = run_cli(capsys, "analyze", str(p))
        assert code == 0
        doc = json.loads(out)
        assert [b["size"] for b in doc["blocks"]] == [1, 4]
        assert doc["diagonalizable"] is False

    def test_tiny_weights_keep_a_digraph_directed(self, capsys, tmp_path):
        # Symmetry is exact, not within an absolute 1e-12: the parent called
        # this digraph undirected and certified a unitary basis 23% off.
        g = make_random_digraph(np.random.default_rng(0), 50)
        p = tmp_path / "tiny.txt"
        p.write_text(edge_list(Graph(n=g.n, weights=g.weights * 1e-12)))
        code, out, _ = run_cli(capsys, "analyze", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["undirected"] is False
        assert doc["unitary_basis"] is False

    def test_ring_basis_condition_is_n(self, capsys):
        # the DFT basis has unit columns of equal-magnitude entries, so
        # kappa_1 = n up to the rounding in the computed eigenvectors
        code, out, _ = run_cli(capsys, "analyze", "--ring", "4")
        assert code == 0
        assert json.loads(out)["basis_condition"] == pytest.approx(4.0, rel=1e-12)

    def test_reported_residual_is_the_library_residual(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", DEMO)
        assert code == 0
        assert json.loads(out)["reconstruction_residual"] == decompose(load_graph(DEMO)).residual

    def test_tol_recon_refusal_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "analyze", DEMO, "--tol-recon", "1e-30")
        assert code == 4
        assert out == ""
        assert "ReconstructionError" in err

    def test_variation_identity_reported(self, capsys):
        _, out, _ = run_cli(capsys, "analyze", DEMO)
        doc = json.loads(out)
        for entry in doc["proper_vector_variation"]:
            assert entry["tv"] == pytest.approx(entry["lambda_times_l1"], abs=1e-8)


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "laplacian", "no_such_file.txt")
        assert code == 1
        assert "error" in err

    def test_numeric_failure_maps_to_4(self, capsys, monkeypatch, tmp_path):
        import dgft.cli as cli_mod
        from dgft.errors import ReconstructionError

        def boom(g, args):
            raise ReconstructionError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_checked_decompose", boom)
        code, _, err = run_cli(capsys, "analyze", DEMO)
        assert code == 4
        assert "synthetic failure" in err
        assert "ReconstructionError" in err

    def test_tol_cluster_reaches_both_paths_and_env_is_ignored(self, capsys, monkeypatch, tmp_path):
        # --tol-cluster is the one way to set the clustering tolerance, on
        # the Jordan path (the demo digraph) and the unitary path (a ring,
        # an undirected graph) alike; a DGFT_TOL_CLUSTER variable in the
        # environment has no effect.
        undirected = tmp_path / "undirected.txt"
        undirected.write_text(UNDIRECTED)
        monkeypatch.setenv("DGFT_TOL_CLUSTER", "not-a-number")
        for source in ([DEMO], ["--ring", "6"], [str(undirected)]):
            code, out, _ = run_cli(capsys, "analyze", *source, "--tol-cluster", "1e-5")
            assert code == 0
            assert json.loads(out)["cluster_tol"] == 1e-5, source

    @pytest.mark.parametrize("weight", ["1e300", "1e154"])
    def test_overflowing_weight_exits_4(self, capsys, tmp_path, weight):
        # ||L||_F overflows, so no residual can be certified: the parent
        # printed a spectrum of 3.3e299s (1e300) and exited 0.
        graph = tmp_path / "big.txt"
        graph.write_text(f"nodes 3\n1 2 {weight}\n2 3 1\n3 1 1\n")
        signal = tmp_path / "signal.json"
        signal.write_text('{"n": 3, "values": [1, 2, 3]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow note comes first
            code, out, err = run_cli(capsys, "gft", str(graph), "--signal", str(signal))
        assert code == 4
        assert out == ""
        assert err.startswith("dgft: error: ReconstructionError")
        assert len(err.splitlines()) == 1
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dgft.cli", "gft", str(graph), "--signal", str(signal)],
            capture_output=True, text=True, env=_env_importing_dgft(),
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [err.rstrip("\n")]

    @pytest.mark.parametrize("weight", ["5e-324", "1e-310", "1e-305", "1e-200", "1e-162"])
    def test_underflowing_weight_exits_4(self, capsys, tmp_path, weight):
        # ||L||_F underflows to 0, so no residual can be certified: the
        # parent reported three 1x1 blocks with residual 0.0 and exited 0.
        graph = tmp_path / "tiny.txt"
        graph.write_text(f"nodes 3\n1 2 {weight}\n2 3 {weight}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "analyze", str(graph))
        assert code == 4
        assert out == ""
        assert err.startswith("dgft: error: ReconstructionError")
        assert "underflows" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "abc"])
    @pytest.mark.parametrize("flag", ["--tol", "--tol-cluster", "--tol-recon"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "analyze", DEMO, f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert flag in err

    def test_ring_too_small_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "laplacian", "--ring", "1")
        assert code == 2


def _env_importing_dgft() -> dict:
    """Environment in which a child interpreter imports this dgft."""
    src = str(Path(dgft.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_smoke():
    # the installed console script when it is on PATH, else the same
    # entry point as a module, importable from wherever dgft was found
    if shutil.which("dgft") is not None:
        cmd, env = ["dgft"], None
    else:
        cmd, env = [sys.executable, "-m", "dgft.cli"], _env_importing_dgft()
    proc = subprocess.run(
        [*cmd, "laplacian", "--ring", "3"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1,0,-1"


def test_commands_never_import_scipy(tmp_path):
    # numpy alone serves every command; importing scipy.linalg would
    # dominate CLI start-up. Undirected, random directed and defective
    # directed inputs cover both decomposition paths and the Jordan chains.
    rng = np.random.default_rng(0)
    digraph = [
        f"{s + 1} {d + 1} {rng.uniform(0.1, 1.0)!r}"
        for s in range(8)
        for d in range(8)
        if s != d and rng.random() < 0.3
    ]
    graphs = {
        "undirected": UNDIRECTED,
        "digraph": "nodes 8\n" + "\n".join(digraph) + "\n",
        "defective": "nodes 3\n1 2 1\n2 3 1\n",
    }
    runs = []
    for name, text in graphs.items():
        graph = tmp_path / f"{name}.txt"
        graph.write_text(text)
        n = int(text.split()[1])
        signal = tmp_path / f"{name}.json"
        signal.write_text(json.dumps({"n": n, "values": [float(k % 3) - 0.5 for k in range(n)]}))
        spectrum = tmp_path / f"{name}.csv"
        out = str(tmp_path / f"{name}.out")
        g, f = str(graph), str(signal)
        runs += [
            ["laplacian", g, "-o", out],
            ["gft", g, "--signal", f, "-o", str(spectrum)],
            ["igft", g, "--spectrum", str(spectrum), "-o", out],
            ["filter", g, "--signal", f, "--taps", "1,0.5", "-o", out],
            ["filter", g, "--signal", f, "--taps", "1,0.5", "--domain", "spectral", "-o", out],
            ["analyze", g, "-o", out],
        ]
    script = f"""
import sys
import dgft
assert "scipy" not in sys.modules, "import dgft"
import dgft.cli
assert "scipy" not in sys.modules, "import dgft.cli"
for argv in {runs!r}:
    assert dgft.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_env_importing_dgft()
    )
    assert proc.returncode == 0, proc.stderr


def test_no_source_module_imports_scipy():
    # The subprocess test above sees only the branches it runs; a deferred
    # import in a rarely taken branch would otherwise return unseen.
    for path in sorted(Path(dgft.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] != "scipy", f"{path.name}:{node.lineno} imports {name}"
