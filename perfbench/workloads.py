"""The three benchmark workloads: set-up, one operation, and its check.

A workload is built from a seed (its set-up), then driven by the runner
in a closed loop: ``op(i, tracer)`` is the timed operation and
``check(i, output)`` runs outside the timed span. ``check`` returns None
or the name of the violated check. An exception out of ``op`` is a
failure of that operation; ``failure_kind`` names it. The runner stops
only after whole passes of ``cycle`` operations, so every input runs
equally often and the failure share does not depend on run length.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dgft
import corpus
import tracing

N = 200

# Relative bounds from the CLI's defaults and the transforms' contract.
RECON_TOL = 1e-6
ROUND_TRIP_TOL = 1e-8
FILTER_TOL = 1e-8

HERE = Path(__file__).resolve().parent


def failure_kind(exc: BaseException) -> str:
    kind = getattr(exc, "kind", None) or type(exc).__name__
    return f"DgftError.{kind}" if isinstance(exc, dgft.DgftError) else kind


def _rel_err(got, want) -> float:
    want = np.asarray(want)
    return float(np.linalg.norm(np.asarray(got) - want) / max(np.linalg.norm(want), 1e-300))


def _residual_ok(dec, lap_matrix) -> bool:
    scale = max(1.0, float(np.linalg.norm(lap_matrix)))
    return float(np.linalg.norm(dec.reconstruct() - lap_matrix)) <= RECON_TOL * scale


class JordanDecompose:
    """build_graph, directed_laplacian, decompose, gft and igft at n = 200.

    One 20-operation cycle holds the member kinds in fixed proportions
    (``MIX``). Their latencies do not overlap (digraph < ring < chain <
    delta = 1e-6 chain), so the median lands inside the digraphs and the
    90th percentile inside the chains. The corpus holds ``CYCLES``
    distinct such cycles.
    """

    REFERENCE = "lapack"
    MIX = (("digraph", 12), ("ring", 2), ("chain", 3), ("chain-1e-8", 2), ("chain-1e-6", 1))
    CYCLES = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.members = []
        for _ in range(self.CYCLES):
            for kind, count in self.MIX:
                for _ in range(count):
                    lengths = None
                    if kind == "digraph":
                        edges = corpus.random_digraph(rng, N)
                    elif kind == "ring":
                        edges = corpus.ring(rng, N)
                    else:
                        delta = float(kind.split("-", 1)[1]) if "-" in kind else 0.0
                        edges, lengths = corpus.chain_union(rng, N, delta)
                        if delta:
                            lengths = None  # known blocks only for exact chains
                    self.members.append((edges, corpus.signal(rng, N), lengths))
        self.cycle = len(self.members)

    def op(self, i, tracer):
        edges, f, _ = self.members[i % len(self.members)]
        g = dgft.build_graph(N, edges)
        lap = dgft.directed_laplacian(g)
        dec = dgft.decompose(lap)
        back = dgft.igft(dec, dgft.gft(dec, f))
        return lap, dec, back

    def check(self, i, out):
        lap, dec, back = out
        _, f, lengths = self.members[i % len(self.members)]
        if not _residual_ok(dec, lap.matrix):
            return "residual"
        if _rel_err(back, f) > ROUND_TRIP_TOL:
            return "round_trip"
        if lengths is not None:
            at_one = sorted(b.size for b in dec.blocks if abs(b.eigenvalue - 1) <= 1e-6)
            if at_one != sorted(length - 1 for length in lengths):
                return "jordan_blocks"
        return None


class SymmetricTransform:
    """decompose of an undirected graph, then 16 signals through gft, igft
    and both filter domains with 4 taps."""

    REFERENCE = "lapack"
    GRAPHS = 32
    SIGNALS = 16
    TAPS = 4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.members = []
        for _ in range(self.GRAPHS):
            lap = dgft.directed_laplacian(dgft.build_graph(N, corpus.random_undirected(rng, N)))
            signals = [corpus.signal(rng, N) for _ in range(self.SIGNALS)]
            taps = rng.uniform(-1.0, 1.0, self.TAPS)
            self.members.append((lap, signals, taps))
        self.cycle = len(self.members)

    def op(self, i, tracer):
        lap, signals, taps = self.members[i % len(self.members)]
        dec = dgft.decompose(lap)
        outs = []
        for f in signals:
            back = dgft.igft(dec, dgft.gft(dec, f))
            vertex = dgft.apply_vertex_domain(lap, taps, f)
            spectral = dgft.apply_spectral_domain(dec, taps, f)
            outs.append((back, vertex, spectral))
        return dec, outs

    def check(self, i, out):
        dec, outs = out
        lap, signals, _ = self.members[i % len(self.members)]
        if not _residual_ok(dec, lap.matrix):
            return "residual"
        for f, (back, vertex, spectral) in zip(signals, outs):
            if _rel_err(back, f) > ROUND_TRIP_TOL:
                return "round_trip"
            if _rel_err(spectral, vertex) > FILTER_TOL:
                return "filter_domains"
        return None


class CliFailure(Exception):
    def __init__(self, code: int, stderr: str):
        super().__init__(stderr.strip().splitlines()[-1] if stderr.strip() else f"exit {code}")
        self.kind = f"exit_{code}"


ENTRY = "import sys; from dgft.cli import main; sys.exit(main())"
COMMANDS = ("laplacian", "gft", "igft", "filter-vertex", "filter-spectral", "analyze")


class CliMixed:
    """One ``dgft`` subprocess per operation on files written at set-up.

    A cycle runs every command in ``COMMANDS`` on a directed and on an
    undirected graph; igft reads the spectrum that the cycle's gft wrote.
    """

    REFERENCE = "spawn"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        self.workdir = workdir
        path = [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        self.graphs = []
        inputs = {
            "directed": corpus.random_digraph(rng, N),
            "undirected": corpus.random_undirected(rng, N),
        }
        for label, edges in inputs.items():
            paths = {k: workdir / f"{label}.{k}" for k in ("edges", "signal", "spectrum")}
            corpus.write_edge_list(paths["edges"], N, edges)
            f = corpus.signal(rng, N)
            corpus.write_signal(paths["signal"], f)
            taps = rng.uniform(-1.0, 1.0, 4)
            lap = dgft.directed_laplacian(dgft.build_graph(N, edges))
            dec = dgft.decompose(lap)
            ref = {
                "laplacian": lap.matrix,
                "signal": f,
                "eigenvalues": dec.eigenvalues,
                "coefficients": dgft.gft(dec, f),
                "filtered": dgft.apply_vertex_domain(lap, taps, f),
                "diagonalizable": dec.is_diagonalizable,
                "taps": ",".join(repr(float(t)) for t in taps),
            }
            self.graphs.append((paths, ref))
        self.cycle = len(COMMANDS) * len(self.graphs)

    def _graph(self, i):
        """(file paths, in-process references) of operation i's graph."""
        return self.graphs[(i % self.cycle) // len(COMMANDS)]

    def _argv(self, i):
        paths, ref = self._graph(i)
        command = COMMANDS[i % len(COMMANDS)]
        edges, sig = str(paths["edges"]), str(paths["signal"])
        if command == "laplacian":
            return command, ["laplacian", edges]
        if command == "gft":
            return command, ["gft", edges, "--signal", sig]
        if command == "igft":
            return command, ["igft", edges, "--spectrum", str(paths["spectrum"])]
        if command == "analyze":
            return command, ["analyze", edges]
        domain = command.split("-")[1]
        taps = f"--taps={ref['taps']}"  # "=" keeps a leading minus from reading as an option
        return command, ["filter", edges, "--signal", sig, taps, "--domain", domain]

    def op(self, i, tracer):
        command, argv = self._argv(i)
        if command == "gft":  # igft must read this cycle's spectrum or none
            self._graph(i)[0]["spectrum"].unlink(missing_ok=True)
        run = dict(cwd=HERE.parent, env=self.env, capture_output=True, text=True)
        if tracer is None:
            proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], **run)
        else:
            proc = self._traced(argv, tracer, run)
        if proc.returncode != 0:
            raise CliFailure(proc.returncode, proc.stderr)
        return proc.stdout

    def _traced(self, argv, tracer, run):
        record_path = self.workdir / "trace.json"
        record_path.unlink(missing_ok=True)
        spawn = tracing.now_ns()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(HERE / "launch.py"), str(record_path), *argv],
            **run,
        )
        stderr = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
        imports = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
        proc.stderr = "\n".join(stderr)
        if record_path.exists():
            record = json.loads(record_path.read_text())
            tracer.spans.append(("cli.spawn", -1, spawn, record["start_ns"]))
            for pkg in ("numpy", "scipy"):
                ns = int(import_us(imports, pkg) * 1000)
                tracer.spans.append((f"cli.import_{pkg}", -1, 0, ns))
            tracer.add_record(record)
        tracer.counts["cli.exit_nonzero"] += int(proc.returncode != 0)
        return proc

    def check(self, i, stdout):
        command, _ = self._argv(i)
        paths, ref = self._graph(i)
        if command == "laplacian":
            rows = [[_parse_complex(t) for t in line.split(",")] for line in stdout.splitlines()]
            ok = _rel_err(np.array(rows), ref["laplacian"]) <= 1e-12
        elif command == "gft":
            table = list(csv.reader(io.StringIO(stdout)))[1:]
            eig = np.array([complex(float(r[1]), float(r[2])) for r in table])
            coeff = np.array([complex(float(r[3]), float(r[4])) for r in table])
            err = max(_rel_err(eig, ref["eigenvalues"]), _rel_err(coeff, ref["coefficients"]))
            ok = err <= ROUND_TRIP_TOL
            if ok:
                paths["spectrum"].write_text(stdout)
        elif command == "igft":
            ok = _rel_err(_signal(stdout), ref["signal"]) <= ROUND_TRIP_TOL
        elif command.startswith("filter"):
            ok = _rel_err(_signal(stdout), ref["filtered"]) <= FILTER_TOL
        else:
            doc = json.loads(stdout)
            eig = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
            scale = max(1.0, float(np.linalg.norm(ref["laplacian"])))
            ok = (
                doc["n"] == N
                and doc["diagonalizable"] == ref["diagonalizable"]
                and _rel_err(eig, ref["eigenvalues"]) <= ROUND_TRIP_TOL
                and doc["reconstruction_residual"] <= RECON_TOL * scale
            )
        return None if ok else command


def _parse_complex(token: str) -> complex:
    return complex(token.strip().replace("i", "j"))


def _signal(stdout: str) -> np.ndarray:
    values = json.loads(stdout)["values"]
    return np.array([complex(*v) if isinstance(v, list) else complex(v) for v in values])


def import_us(lines, pkg: str) -> float:
    """Cumulative microseconds of the outermost ``-X importtime`` entries of pkg."""
    entries = []
    for line in lines:
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        name = parts[2].strip()
        if name == pkg or name.startswith(pkg + "."):
            entries.append((depth, float(parts[1])))
    if not entries:
        return 0.0
    top = min(depth for depth, _ in entries)
    return sum(us for depth, us in entries if depth == top)


WORKLOADS = {
    "jordan-decompose": JordanDecompose,
    "symmetric-transform": SymmetricTransform,
    "cli-mixed": CliMixed,
}
