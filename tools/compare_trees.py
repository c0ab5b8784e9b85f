"""Compare two dgft source trees in one process: per-member timings and bit identity.

    python3 tools/compare_trees.py PARENT [CHANGE] [--workload W] [--seed N] [-k K]
    python3 tools/compare_trees.py PARENT [CHANGE] --check [--seed N ...]
    python3 tools/compare_trees.py PARENT [CHANGE] --startup [--seed N ...] [-k K]

PARENT and CHANGE are dgft checkouts (CHANGE defaults to the tree this
file sits in). Each tree's ``src/dgft`` is loaded under its own package
name; the package imports only relatively, so both live side by side in
one interpreter, on one BLAS, with the same warm caches. Each side builds
its own workload objects from ``perfbench/workloads.py`` (of the CHANGE
tree, imported as it is): a Laplacian of one package is not an instance
of the other's class.

Timing mode runs every member of the in-process workloads
(``jordan-decompose``, ``symmetric-transform``). The two sides take turns
call by call, the first side alternating member by member, and the min of
``k`` calls per member and side is kept for the workload's ``op`` and for
``decompose`` alone. It prints the medians over the members, their ratio,
the median over the members of the change's time minus the parent's
(``paired``, which cancels the spread between members) and how many
members the change ran faster. The row ``op - decompose`` is the
difference of those per-member mins and shows where a gain sits.

``--check`` asserts, for every member of the given seeds (default 7 and
401), that both trees return bit-identical ``v``, ``eigenvalues``,
``proper_indices``, ``v_inv``, ``reconstruct()``, ``residual``,
``basis_condition``, ``blocks``, ``is_unitary_basis``, ``gft``,
``igft(gft)`` and both filter domains' outputs, the same warnings (by
category, message, and the basename of the file each names with the text
of its line), and equal typed refusals (class name and message). On
``cli-mixed`` it runs every command of each seed's cycle against both
trees and compares stdout, stderr and the exit code byte for byte, except
``analyze``'s stdout: its two reports must be equal after ``json.loads``,
but for the ``tv`` and ``lambda_times_l1`` of each proper vector ``v``,
which are sums whose order may change, and may differ by
``VARIATION_TOL * ||L||_F * ||v||_1`` (``L`` and ``v`` from the change's
own decomposition of the graph file). It
compares the inputs of ``EXTREME`` the same way, once, after the seeds:
far from unit scale, where a change to how a matrix's size is measured
shows first. Last it runs a fixed list of front-end commands against
both trees, byte for byte (stdout, stderr and exit code): ``dgft --help``,
each subcommand's ``--help`` and a bad value of one of its own options
(``laplacian --matrix=x``, ``--tol=0`` elsewhere), every ``laplacian
--matrix`` and ``--format`` on a directed, an undirected and a
complex-weight file, ``gft --format json``, ``filter`` in both domains,
``analyze --ring 6``, and a malformed file, a non-UTF-8 file and a file
that starts with a UTF-8 byte-order mark for each reader. Each difference of
an array or a float prints with its size, ``max|x - y| / max|x|``. The exit
code is 1 on any difference.

``--startup`` times what the in-process modes cannot: the start of every
``dgft`` process, as ``cli-mixed`` pays it. For ``import dgft.cli`` alone
and for every command of each seed's ``cli-mixed`` cycle, it starts ``k``
fresh interpreters per tree, the trees taking turns run by run (the first
side alternating), each with ``PYTHONDONTWRITEBYTECODE=1`` so that it
compiles its ``src/dgft`` as a benchmark run does. A ``python -c pass`` runs
before the first process and after each one, and each process's wall time
is scaled, as ``perfbench/reference.py``'s spawn reference scales
``cli-mixed``, to nominal milliseconds: the spawn reference's nominal time
over the mean of its two neighbouring ``pass`` timings. Per row it prints
both sides' medians, their ratio, the median of the pairs' differences
(``paired``) and how many pairs the change ran faster. Beside them, the
``main`` columns give each side's median of ``dgft.cli.main()`` alone, timed
inside the process after its imports (unscaled ms), and their ``paired``
median: free of the spawn and import spread, they resolve a change of a few
milliseconds that the wall times cannot. A process that exits nonzero is
reported and makes the exit code 1.

Set ``OPENBLAS_NUM_THREADS`` to 1 before numpy loads (this script does,
unless it is set already) and keep the box otherwise idle. Every mode
first prints the numpy version, the BLAS build and that thread count, as
``numpy 2.4.6, scipy-openblas 0.3.31.188.0, OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.dont_write_bytecode = True  # leave no bytecode cache in either tree

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import linecache  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
IN_PROCESS = ("jordan-decompose", "symmetric-transform")
# Taps for the filters of the jordan-decompose members, which carry none.
JORDAN_TAPS = np.array([0.5, -0.25, 0.125, -1.0])
SIDES = ("parent", "change")
# workloads.ENTRY with main() timed after the imports: ns on stderr's last line.
TIMED_ENTRY = (
    "import sys, time; from dgft.cli import main; t = time.perf_counter_ns(); code = main(); "
    "print(time.perf_counter_ns() - t, file=sys.stderr); sys.exit(code)"
)
# Relative bound, against ||L||_F ||v||_1, on analyze's variation sums.
VARIATION_TOL = 1e-12
# (name, n, edges) of the inputs far from unit scale that --check adds: the
# 3- and 4-node directed paths at weights 1e-300 and 1e300, and a unit 5-ring
# beside a 3-node path at 1e-200.
EXTREME = [
    (f"{k}-path at {w:g}", k, [(i, i + 1, w) for i in range(k - 1)])
    for k in (3, 4) for w in (1e-300, 1e300)
] + [("5-ring and 3-path at 1e-200", 8,
      [(i, (i + 1) % 5, 1.0) for i in range(5)] + [(5, 6, 1e-200), (6, 7, 1e-200)])]


# The files the front-end commands of --check read, by name, as bytes.
FRONT_FILES = {
    "directed.txt": b"nodes 5\n5 1 3\n1 2 1\n3 2 2\n4 3 3\n1 4 2\n2 4 4\n5 4 1\n1 5 3\n2 5 3\n",
    "undirected.txt": b"nodes 3\n1 2 1\n2 1 1\n2 3 2\n3 2 2\n",
    "complex.txt": b"nodes 3\n1 2 1+1i\n2 1 1-0.5i\n2 3 2\n3 2 2\n",
    "signal.json": b'{"n": 5, "values": [0.12, [0.38, -1], 0.81, 0.24, 0.88]}\n',
    "bad-graph.txt": b"nodes 3\n1 2 1\n2 x 1\n",
    "bad-signal.json": b'{"n": 5, "values": [1, 2, true, 4, 5]}\n',
    "bad-spectrum.csv": b"spectral_index,eig_re\n0,1\n",
    "utf16.txt": "nodes 2\n".encode("utf-16"),  # starts with the bytes ff fe
}
# Each reader's input again, after a UTF-8 byte-order mark.
FRONT_FILES.update({
    "bom-graph.txt": b"\xef\xbb\xbf" + FRONT_FILES["directed.txt"],
    "bom-signal.json": b"\xef\xbb\xbf" + FRONT_FILES["signal.json"],
    "bom-spectrum.csv": b"\xef\xbb\xbfspectral_index,eig_re,eig_im,coeff_re,coeff_im,magnitude,"
    b"frequency_rank\n" + b"".join(b"%d,%d,0,0.5,-1,%d,%d\n" % (k, k, k, k) for k in range(5)),
})


def front_end_commands(files: dict) -> list:
    """The fixed front-end argv lists of --check; ``files`` maps FRONT_FILES' names to paths."""
    graph, signal = files["directed.txt"], ["--signal", files["signal.json"]]
    taps = "--taps=0.5,-1,0.25"
    return (
        [["--help"]]
        + [[name, flag] for name in ("laplacian", "gft", "igft", "filter", "analyze")
           for flag in ("--help", "--matrix=x" if name == "laplacian" else "--tol=0")]
        + [["laplacian", files[name], "--matrix", matrix, "--format", fmt]
           for name in ("directed.txt", "undirected.txt", "complex.txt")
           for matrix in ("w", "din", "l") for fmt in ("csv", "json")]
        + [
            ["gft", graph, *signal, "--format", "json"],
            ["filter", graph, *signal, taps],
            ["filter", graph, *signal, taps, "--domain", "spectral"],
            ["analyze", "--ring", "6"],
            ["laplacian", files["bad-graph.txt"]],
            ["gft", graph, "--signal", files["bad-signal.json"]],
            ["igft", graph, "--spectrum", files["bad-spectrum.csv"]],
            ["laplacian", files["utf16.txt"]],
            ["gft", graph, "--signal", files["utf16.txt"]],
            ["igft", graph, "--spectrum", files["utf16.txt"]],
            ["laplacian", files["bom-graph.txt"]],
            ["gft", files["bom-graph.txt"], "--signal", files["bom-signal.json"]],
            ["igft", graph, "--spectrum", files["bom-spectrum.csv"]],
            ["filter", graph, *signal, "--taps=1,,0.5"],
        ]
    )


def load_side(tree: Path, side: str):
    """(package, workloads module) of one tree, each under its own name."""
    init = tree / "src" / "dgft" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        f"dgft_{side}", init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    # workloads.py does ``import dgft``: bind that name to this side while it loads.
    saved = sys.modules.get("dgft")
    sys.modules["dgft"] = pkg
    try:
        spec = importlib.util.spec_from_file_location(
            f"workloads_{side}", PERFBENCH / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["dgft"]
        else:
            sys.modules["dgft"] = saved
    return pkg, workloads


def members(pkg, workloads, name: str, seed: int, workdir: Path) -> tuple:
    """(workload object, [(Laplacian, signals, taps)]) built with one side's package."""
    w = workloads.WORKLOADS[name](seed, workdir)
    if name == "symmetric-transform":
        return w, [(lap, signals, taps) for lap, signals, taps in w.members]
    n = workloads.N
    return w, [
        (pkg.directed_laplacian(pkg.build_graph(n, edges)), [f], JORDAN_TAPS)
        for edges, f, _ in w.members
    ]


def call_ms(fn, refused) -> float:
    start = time.perf_counter()
    try:
        fn()
    except refused:  # a typed refusal is timed like any other outcome
        pass
    return (time.perf_counter() - start) * 1e3


def timing(sides, name: str, seed: int, k: int, workdir: Path) -> None:
    built = [members(pkg, wl, name, seed, workdir) for pkg, wl in sides]
    count = len(built[0][1])
    ms = {key: [[], []] for key in ("op", "decompose")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(count):
            calls = [(s, key, built[s][0].op if key == "op" else sides[s][0].decompose)
                     for key in ms for s in ((0, 1) if i % 2 == 0 else (1, 0))]
            best = {(s, key): float("inf") for s, key, _ in calls}
            for _ in range(k):  # the two sides take turns call by call
                for s, key, fn in calls:
                    arg = (i, None) if key == "op" else (built[s][1][i][0],)
                    t = call_ms(lambda: fn(*arg), sides[s][0].DgftError)
                    best[s, key] = min(best[s, key], t)
            for s, key, _ in calls:
                ms[key][s].append(best[s, key])
    rows = {
        "op": ms["op"],
        "decompose": ms["decompose"],
        "op - decompose": [np.subtract(o, d) for o, d in zip(ms["op"], ms["decompose"])],
    }
    print(f"\n{name}, seed {seed}: {count} members, min of {k} per member and side (ms)")
    print(f"{'':20} {'parent':>9} {'change':>9} {'ratio':>7} {'paired':>8} {'wins':>7}")
    for label, (p, c) in rows.items():
        mp, mc = statistics.median(p), statistics.median(c)
        paired = statistics.median(np.subtract(c, p))  # member by member, change - parent
        wins = int(np.sum(np.asarray(c) < np.asarray(p)))
        print(f"{label:20} {mp:9.3f} {mc:9.3f} {mc / mp:7.3f} {paired:8.3f} {wins:>3}/{count}")


def bits(x):
    """A value reduced to something ``==`` compares bit for bit."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (complex, np.complexfloating)):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, (list, tuple)):
        return tuple(bits(e) for e in x)
    return x


def outputs(pkg, lap, signals, taps) -> dict:
    """Every compared output of one member on one side, as it was returned."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dec = pkg.decompose(lap)
        except pkg.DgftError as exc:
            out = {"refused": (type(exc).__name__, str(exc))}
        else:
            out = {name: getattr(dec, name) for name in (
                "v", "eigenvalues", "proper_indices", "v_inv", "residual", "basis_condition",
                "is_unitary_basis",
            )}
            out["reconstruct()"] = dec.reconstruct()
            out["blocks"] = [(b.eigenvalue, b.size, b.start) for b in dec.blocks]
            for s, f in enumerate(signals):
                f_hat = pkg.gft(dec, f)
                out[f"gft[{s}]"] = f_hat
                out[f"igft[{s}]"] = pkg.igft(dec, f_hat)
                out[f"vertex[{s}]"] = pkg.apply_vertex_domain(lap, taps, f)
                out[f"spectral[{s}]"] = pkg.apply_spectral_domain(dec, taps, f)
    # A warning's place is its file's basename and the text of its line: a line number
    # inside either tree moves with every edit above it, the statement does not.
    out["warnings"] = [(w.category.__name__, str(w.message), Path(w.filename).name,
                        linecache.getline(w.filename, w.lineno).strip()) for w in caught]
    return out


def dgft(tree: Path, workloads, argv: list) -> subprocess.CompletedProcess:
    """One ``dgft`` process of ``tree``, started as ``cli-mixed`` starts it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", workloads.ENTRY, *argv],
                          cwd=tree, env=env, capture_output=True)


def cli_runs(tree: Path, workloads, seed: int, workdir: Path) -> list:
    """(argv, exit code, stdout, stderr) of every command of a cli-mixed cycle."""
    w = workloads.CliMixed(seed, workdir)
    runs = []
    for i in range(w.cycle):
        command, argv = w._argv(i)
        spectrum = w._graph(i)[0]["spectrum"]
        if command == "gft":
            spectrum.unlink(missing_ok=True)
        proc = dgft(tree, workloads, argv)
        if command == "gft" and proc.returncode == 0:
            spectrum.write_bytes(proc.stdout)  # the cycle's igft reads it
        runs.append((argv, proc.returncode, proc.stdout, proc.stderr))
    return runs


def startup(trees, workloads, seed: int, k: int, workdir: Path) -> int:
    """Nominal wall times of fresh ``dgft`` processes, the trees taking turns."""
    import reference  # perfbench's spawn reference

    w = workloads.CliMixed(seed, workdir)
    rows = [("import dgft.cli", ["-c", "import dgft.cli"], None)]
    for i in range(w.cycle):
        command, argv = w._argv(i)
        label = f"{command} {'directed' if i < len(workloads.COMMANDS) else 'undirected'}"
        spectrum = w._graph(i)[0]["spectrum"] if command == "gft" else None
        rows.append((label, ["-c", TIMED_ENTRY, *argv], spectrum))  # igft reads gft's output
    envs = [dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
            for tree in trees]
    ref = reference.Reference("spawn")
    ref.sample()
    failures = 0
    print(f"\ncli start-up, seed {seed}: {k} fresh processes per row and side, "
          f"scaled to {reference.NOMINAL_MS['spawn']:g} ms per python -c pass (nominal ms)")
    print(f"{'':28} {'parent':>9} {'change':>9} {'ratio':>7} {'paired':>8} {'wins':>7}"
          f" {'main p':>8} {'main c':>8} {'paired':>8}")
    for label, args, spectrum in rows:
        ms, main_ms = [[], []], [[], []]
        for r in range(k):
            for s in (0, 1) if r % 2 == 0 else (1, 0):
                start = time.perf_counter_ns()
                proc = subprocess.run([sys.executable, *args], cwd=trees[s], env=envs[s],
                                      capture_output=True)
                elapsed = time.perf_counter_ns() - start
                ref.sample()
                ms[s].append(elapsed * ref.scale(len(ref.times) - 2) / 1e6)
                if proc.returncode != 0:
                    failures += 1
                    print(f"EXIT {proc.returncode} {SIDES[s]} {label}: {proc.stderr[-200:]!r}")
                    continue
                if args[1] == TIMED_ENTRY:
                    main_ms[s].append(int(proc.stderr.split()[-1]) / 1e6)
                if spectrum is not None:
                    spectrum.write_bytes(proc.stdout)
        (p, c), paired = map(statistics.median, ms), statistics.median(np.subtract(*ms[::-1]))
        wins = int(np.sum(np.asarray(ms[1]) < np.asarray(ms[0])))
        main = ""
        if all(main_ms) and len(main_ms[0]) == len(main_ms[1]):
            mp, mc = map(statistics.median, main_ms)
            main = f" {mp:8.2f} {mc:8.2f} {statistics.median(np.subtract(*main_ms[::-1])):8.2f}"
        print(f"{label:28} {p:9.2f} {c:9.2f} {c / p:7.3f} {paired:8.2f} {wins:>3}/{k}{main}")
    return 1 if failures else 0


def relative_difference(x, y) -> str:
    """`` (max|x - y| / max|x|)`` for two numeric arrays or floats of one shape,
    else nothing: the size of a difference, so that a last-digit move reads apart
    from a changed basis."""
    if not all(isinstance(value, (np.ndarray, float)) for value in (x, y)):
        return ""
    try:
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape or x.dtype.kind not in "fc" or y.dtype.kind not in "fc":
            return ""
        with np.errstate(all="ignore"):
            return f" ({float(np.max(np.abs(x - y), initial=0.0) / np.max(np.abs(x))):.1e})"
    except (TypeError, ValueError):
        return ""


# A number as dgft prints one: %.17g, with an optional imaginary part's sign.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|[-+]?(?:inf|nan)")


def text_difference(x: bytes, y: bytes) -> str:
    """:func:`relative_difference` of the numbers in two outputs that differ only
    in them (the same text between the same count of numbers), else nothing."""
    if NUMBER.split(x) != NUMBER.split(y):
        return ""
    return relative_difference(*(np.array(NUMBER.findall(t), dtype=float) for t in (x, y)))


def differing(sides, pair) -> list:
    """The keys of :func:`outputs` on which the sides differ for one member, each
    with its :func:`relative_difference`."""
    got = [outputs(pkg, *member) for (pkg, _), member in zip(sides, pair)]
    return [key + relative_difference(got[0].get(key), got[1].get(key))
            for key in sorted(set(got[0]) | set(got[1]))
            if bits(got[0].get(key)) != bits(got[1].get(key))]


def json_numbers(value):
    """A JSON value as a float array (``null`` as NaN), or as it is when it is not all numbers."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError):
        return value


def report_differences(pkg, path: str, stdouts) -> list:
    """The keys on which two ``analyze`` reports of one graph file differ."""
    docs = [json.loads(text) for text in stdouts]
    rows = [doc.pop("proper_vector_variation") for doc in docs]
    keys = [k + relative_difference(*(json_numbers(d.get(k)) for d in docs))
            for k in sorted(docs[0].keys() | docs[1].keys()) if docs[0].get(k) != docs[1].get(k)]
    lap = pkg.directed_laplacian(importlib.import_module(f"{pkg.__name__}.io").load_graph(path))
    v, norm = pkg.decompose(lap).v, float(np.linalg.norm(lap.matrix))
    indices = [[r["spectral_index"] for r in side] for side in rows]
    if indices[0] != indices[1]:
        return keys + ["proper_vector_variation"]
    for p, c in zip(*rows):
        bound = VARIATION_TOL * norm * float(np.abs(v[:, p["spectral_index"]]).sum())
        for field in ("tv", "lambda_times_l1"):
            x, y = p[field], c[field]  # null where a value overflowed
            if x != y and (None in (x, y) or not abs(x - y) <= bound):
                keys.append(f"proper_vector_variation[{p['spectral_index']}].{field}")
    return keys


def check(sides, trees, seeds, workdir: Path) -> int:
    failures = compared = 0
    for seed in seeds:
        for name in IN_PROCESS:
            built = [members(pkg, wl, name, seed, workdir)[1] for pkg, wl in sides]
            for i, pair in enumerate(zip(*built)):
                compared += 1
                for key in differing(sides, pair):
                    failures += 1
                    print(f"DIFFERS {name} seed {seed} member {i}: {key}")
        runs = []
        for tree, (_, wl) in zip(trees, sides):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir()
            runs.append(cli_runs(tree, wl, seed, workdir))
        for (argv, *p), (_, *c) in zip(*runs):
            compared += 1
            labels = ["exit code", "stdout", "stderr"]
            shown = " ".join(map(str, argv)).replace(f"{workdir}/", "")
            if argv[0] == "analyze" and p[0] == c[0] == 0:
                labels[1] = None
                for key in report_differences(sides[1][0], argv[1], (p[1], c[1])):
                    failures += 1
                    print(f"DIFFERS cli-mixed seed {seed} {shown}: {key}")
            for label, x, y in zip(labels, p, c):
                if label and x != y:
                    failures += 1
                    size = text_difference(x, y) if label == "stdout" else ""
                    print(f"DIFFERS cli-mixed seed {seed} {shown}: {label}{size}")
    print(f"{compared} members and commands compared, {failures} differences")
    extreme = 0
    for name, n, edges in EXTREME:
        pair = [(pkg.directed_laplacian(pkg.build_graph(n, edges)), [np.cos(np.arange(n))],
                 JORDAN_TAPS) for pkg, _ in sides]
        for key in differing(sides, pair):
            extreme += 1
            print(f"DIFFERS extreme {name}: {key}")
    print(f"{len(EXTREME)} extreme-scale inputs compared, {extreme} differences")
    front = front_end(trees, sides[1][1], workdir)
    return 1 if failures or extreme or front else 0


def front_end(trees, workloads, workdir: Path) -> int:
    """The number of differences between the trees on :func:`front_end_commands`."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    files = {name: str(workdir / name) for name in FRONT_FILES}
    for name, text in FRONT_FILES.items():
        Path(files[name]).write_bytes(text)
    commands, failures = front_end_commands(files), 0
    for argv in commands:
        p, c = (dgft(tree, workloads, argv) for tree in trees)
        shown = " ".join(argv).replace(f"{workdir}/", "")
        for label in ("returncode", "stdout", "stderr"):
            if getattr(p, label) != getattr(c, label):
                failures += 1
                size = text_difference(p.stdout, c.stdout) if label == "stdout" else ""
                print(f"DIFFERS front end {shown}: {label}{size}")
    print(f"{len(commands)} front-end commands compared, {failures} differences")
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path, nargs="?", default=HERE.parent)
    p.add_argument("--workload", choices=IN_PROCESS + ("all",), default="all")
    p.add_argument("--seed", type=int, action="append", help="repeatable; default 7 and 401")
    p.add_argument("-k", type=int, default=15,
                   help="calls per member and side (timing), processes per row and side (--startup)")
    p.add_argument("--check", action="store_true", help="bit identity instead of timing")
    p.add_argument("--startup", action="store_true", help="cold cli-mixed processes (timing)")
    args = p.parse_args(argv)
    seeds = args.seed or [7, 401]
    trees = [args.parent.resolve(), args.change.resolve()]
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports corpus and tracing
    sides = [load_side(tree, side) for tree, side in zip(trees, SIDES)]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    root = Path(tempfile.mkdtemp(prefix="compare_trees_"))
    try:
        if args.check:
            return check(sides, trees, seeds, root / "work")
        if args.startup:
            return max(startup(trees, sides[1][1], seed, args.k, root) for seed in seeds)
        names = IN_PROCESS if args.workload == "all" else (args.workload,)
        for seed in seeds:
            for name in names:
                timing(sides, name, seed, args.k, root)
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
