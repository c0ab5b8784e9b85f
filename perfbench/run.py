"""dgft benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep [--seed N]

Runs from the root of a dgft checkout and imports the library from its
``src/``. One process, the BLAS pinned to one thread, a closed loop with
one caller. The last stdout line is the JSON result; the lines before it
record the environment and print every metric with its unit. See
``perfbench/README.md`` for the metrics and what each should move.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Must precede the first numpy import; child processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run holds at least this many operations, so ten lie beyond the p90.
MIN_OPS = 100
SETUP_PROBES = 2
SETUP_REFERENCE_SAMPLES = 5
SWEEP_SIZES = (50, 200, 800)
SWEEP_REPEATS = 3
WORKLOADS = ("jordan-decompose", "symmetric-transform", "cli-mixed")
OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",  # numpy's 64-bit-integer build
    "scipy_openblas_get_num_threads",  # scipy's build
    "openblas_get_num_threads",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--sweep", action="store_true", help="per-stage table over the ROADMAP corpus")
    args = p.parse_args(argv)
    if not args.sweep and args.workload is None:
        p.error("--workload is required")
    return args


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Pass:
    """Latencies, failures by kind and trace records of one timed loop.

    ``latencies_ns`` are wall times as measured. ``scaled_ns`` are the same
    latencies taken to the nominal CPU speed by the reference kernel timed
    around each operation (see ``reference.py``); the percentiles are
    over those.
    """

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.reference_ns: list[int] = []
        self.failures: Counter = Counter()
        self.wrong = 0
        self.records: list[dict] = []

    def finish(self, ref) -> None:
        self.scaled_ns = [ns * ref.scale(k) for k, ns in enumerate(self.latencies_ns)]
        self.reference_ns = list(ref.times)

    def p50_ms(self) -> float:
        return statistics.median(self.scaled_ns) / 1e6

    def p90_ms(self) -> float:
        return statistics.quantiles(self.scaled_ns, n=10)[8] / 1e6

    def measured_ms(self) -> dict:
        return {
            "measured_op_p50_ms": (statistics.median(self.latencies_ns) / 1e6, "ms"),
            "measured_op_p90_ms": (statistics.quantiles(self.latencies_ns, n=10)[8] / 1e6, "ms"),
            "reference_ms": (statistics.median(self.reference_ns) / 1e6, "ms"),
        }


def measure(workload, seconds, min_ops, tracer=None) -> Pass:
    """Closed loop in whole cycles until ``seconds`` and ``min_ops`` are met.

    The reference kernel runs before the first operation and after each
    one, outside their timed spans and outside the tracer.
    """
    import reference
    import tracing
    import workloads

    result = Pass()
    ref = reference.Reference(workload.REFERENCE)
    ref.sample()
    start = tracing.now_ns()
    i = 0
    while i == 0 or i % workload.cycle or i < min_ops or tracing.now_ns() - start < seconds * 1e9:
        if tracer is not None:
            tracer.begin()
        t0 = tracing.now_ns()
        try:
            out = workload.op(i, tracer)
        except Exception as exc:  # every failure is counted by kind
            result.latencies_ns.append(tracing.now_ns() - t0)
            result.failures[workloads.failure_kind(exc)] += 1
        else:
            result.latencies_ns.append(tracing.now_ns() - t0)
            try:
                wrong = workload.check(i, out)
            except Exception as exc:  # output the check cannot even read is wrong
                wrong = f"unreadable_{type(exc).__name__}"
            if wrong is not None:
                result.failures[f"wrong_{wrong}"] += 1
                result.wrong += 1
        if tracer is not None:
            result.records.append(tracer.end())
        ref.sample()
        i += 1
    result.finish(ref)
    return result


def set_up(name, seed, workdir):
    """Corpus generation plus one warm-up operation; returns the workload."""
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        workload.check(0, workload.op(0, None))
    except Exception:  # a failing warm-up member is still a warm-up
        pass
    return workload


def setup_seconds() -> tuple[float, float]:
    """Set-up time so far, as measured and taken to the nominal CPU speed.

    Set-up runs in this process, so the in-process reference kernel,
    timed right after it, gives the CPU's speed.
    """
    import reference

    measured = time.perf_counter() - T0
    ref = reference.Reference("lapack")
    for _ in range(SETUP_REFERENCE_SAMPLES):
        ref.sample()
    return measured, measured * ref.nominal_ns / statistics.median(ref.times)


def probe_setup_seconds(name, seed) -> float:
    argv = ["--workload", name, "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), *argv],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def fmt(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_workload(args, workdir) -> int:
    import tracing

    workload = set_up(args.workload, args.seed, workdir)
    measured_setup_s, setup_s = setup_seconds()
    if args.setup_probe:
        print(setup_s)
        return 0
    print("env:", json.dumps(environment()))

    if args.trace == 0:
        timed = measure(workload, args.seconds, MIN_OPS)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-mixed" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        probes = [probe_setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        setups = [setup_s] + probes
        passes = [timed]
        attempted = len(timed.latencies_ns)
        failed = sum(timed.failures.values())
        metrics = {
            "op_p50_ms": (timed.p50_ms(), "ms"),
            "op_p90_ms": (timed.p90_ms(), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "ok_share": (1.0 - failed / attempted, "ratio"),
        }
        extra = {
            "fail_share": (failed / attempted, "ratio"),
            "setup_samples_s": (setups, "s"),
            "measured_setup_s": (measured_setup_s, "s"),
            **timed.measured_ms(),
        }
    else:
        # Untraced half first, then the wrappers go in for the traced half.
        plain = measure(workload, args.seconds / 2, 0)
        tracer = tracing.Tracer()
        tracer.install()
        traced = measure(workload, args.seconds / 2, 0, tracer)
        passes = [plain, traced]
        attempted = sum(len(p.latencies_ns) for p in passes)
        failed = sum(sum(p.failures.values()) for p in passes)
        metrics = tracing.layer_metrics(traced.records)
        metrics["trace.overhead_ms"] = (traced.p50_ms() - plain.p50_ms(), "ms")
        extra = {
            "untraced_op_p50_ms": (plain.p50_ms(), "ms"),
            "traced_op_p50_ms": (traced.p50_ms(), "ms"),
        }

    failures = sum((p.failures for p in passes), Counter())
    wrong = sum(p.wrong for p in passes)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
        f"  operations {attempted}  failed {failed}"
    )
    print("failures by kind:", json.dumps(dict(sorted(failures.items()))))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {value!s:>24} {unit}")
    if wrong:
        print(f"ERROR: {wrong} operation(s) returned wrong output", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed}
    print(json.dumps({**result, "metrics": fmt(metrics)}))
    return 0 if wrong == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined result, metrics prefixed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), *argv, "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 and not lines:
            return proc.returncode
        code = code or proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def sweep(seed) -> int:
    """Per-stage minimum times over the ROADMAP corpus, traced."""
    import numpy as np

    import corpus
    import dgft
    import tracing

    kinds = {
        "digraph": corpus.random_digraph,
        "ring": corpus.ring,
        "undirected": corpus.random_undirected,
        "near-defective": lambda rng, n: corpus.chain_union(rng, n, 1e-6)[0],
    }
    stages = {
        "decompose": "spectral.decompose",
        "eig": "linalg.eig",
        "eigh": "linalg.eigh",
        "cond": "linalg.cond",
        "invert": "linalg.invert",
        "cluster": "linalg.cluster_eigenvalues",
        "reconstruct": "linalg.reconstruct",
    }
    tracer = tracing.Tracer()
    tracer.install()
    print("env:", json.dumps(environment()))
    print(f"min of {SWEEP_REPEATS}, ms; '-' where the stage did not run")
    print(f"{'graph':16s}{'n':>5s}" + "".join(f"{s:>12s}" for s in stages) + "  outcome")
    rows = []
    for n in SWEEP_SIZES:
        for kind, make in kinds.items():
            rng = np.random.default_rng([seed, n])
            lap = dgft.directed_laplacian(dgft.build_graph(n, make(rng, n)))
            best: dict[str, float] = {}
            outcome = "ok"
            for _ in range(SWEEP_REPEATS):
                tracer.begin()
                try:
                    dgft.decompose(lap).reconstruct()
                except Exception as exc:  # report the failure, keep sweeping
                    outcome = type(exc).__name__
                incl, _, _ = tracing.op_times(tracer.end()["spans"])
                for stage, span in stages.items():
                    if span in incl:
                        best[stage] = min(best.get(stage, float("inf")), incl[span] / 1e6)
            cells = "".join(f"{best[s]:12.2f}" if s in best else f"{'-':>12s}" for s in stages)
            print(f"{kind:16s}{n:5d}{cells}  {outcome}", flush=True)
            rows.append({"graph": kind, "n": n, "outcome": outcome, "ms": best})
    print(json.dumps({"sweep": rows}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dgft" / "__init__.py").is_file():
        print(f"error: no dgft sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.sweep:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import dgft

    # Each result carries the flag and the tracer counts it; stderr stays quiet.
    warnings.simplefilter("ignore", dgft.IllConditionedBasisWarning)
    if args.sweep:
        return sweep(args.seed)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
