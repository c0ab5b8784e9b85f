"""Spans and counts around dgft's public callables, recorded from outside.

``Tracer.install`` wraps every public function of the dgft layer modules,
``SpectralDecomposition.reconstruct``, and the numpy/scipy kernels that
``dgft.linalg`` reaches through attribute lookup. Each wrapped name is
re-bound in every dgft module that holds it, so ``from ... import ...``
copies are traced too. Wrappers record nothing outside ``begin``/``end``.

A span is ``(name, parent index or -1, start_ns, end_ns)`` on the
CLOCK_MONOTONIC clock, which every process on the machine shares, so a
child process can report spans that the parent lines up with its own.
The module imports nothing outside the standard library at load time, so
``launch.py`` can import it before timing ``import dgft.cli``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter

LAYERS = ("graph", "linalg", "spectral", "filters", "io", "cli")

# (module, attribute, span name) for the LAPACK-backed kernels.
KERNELS = (
    ("numpy.linalg", "eig", "linalg.eig"),
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "svd", "linalg.svd"),
    ("numpy.linalg", "cond", "linalg.cond"),
    ("scipy.linalg", "lu_factor", "linalg.lu_factor"),
    ("scipy.linalg", "lu_solve", "linalg.lu_solve"),
)


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Spans and counts of one operation at a time, between begin and end."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []
        self.active = True

    def end(self) -> dict:
        self.active = False
        return {"spans": self.spans, "counts": dict(self.counts)}

    def add_record(self, record: dict) -> None:
        """Append another process's spans and counts to this operation."""
        offset = len(self.spans)
        for name, up, start, end in record["spans"]:
            self.spans.append((name, up + offset if up >= 0 else -1, start, end))
        self.counts.update(record["counts"])

    def parent_name(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            parent_name = tracer.parent_name()
            index = len(tracer.spans)
            tracer.spans.append((name, parent, now_ns(), 0))
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name.startswith("linalg.") and not parent_name.startswith("linalg."):
                    kind = "typed" if _is_dgft_error(exc) else "untyped"
                    tracer.counts[f"linalg.{kind}_errors"] += 1
                raise
            finally:
                tracer._stack.pop()
                tracer.spans[index] = (name, parent, tracer.spans[index][2], now_ns())
            if observe is not None:
                observe(tracer.counts, parent_name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import dgft.linalg

        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"dgft.{layer}")
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                public = inspect.isfunction(fn) and not attr.startswith("_")
                if public and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    inner = _counting_bytes(self, fn) if attr.startswith("dump_") else fn
                    wrapped[fn] = self.wrap(name, inner, OBSERVERS.get(name))
        kernel_modules = []
        for modname, attr, name in KERNELS:
            mod = importlib.import_module(modname)
            kernel_modules.append(mod)
            fn = getattr(mod, attr)
            wrapped[fn] = self.wrap(name, fn, _flops_observer(attr))
        cls = dgft.linalg.SpectralDecomposition
        cls.reconstruct = self.wrap("linalg.reconstruct", cls.reconstruct)

        dgft_modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "dgft"]
        for mod in dgft_modules + kernel_modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])


def _is_dgft_error(exc: BaseException) -> bool:
    errors = sys.modules.get("dgft.errors")
    return errors is not None and isinstance(exc, errors.DgftError)


class _CountingWriter:
    """Text stream proxy that counts the UTF-8 bytes written through it."""

    def __init__(self, stream, counts):
        self._stream, self._counts = stream, counts

    def write(self, text):
        self._counts["io.bytes_written"] += len(text.encode("utf-8"))
        return self._stream.write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def _counting_bytes(tracer: Tracer, fn):
    """Wrap an io ``dump_*(obj, dst, ...)`` to count the bytes it writes."""

    @functools.wraps(fn)
    def dump(obj, dst, *args, **kwargs):
        if not tracer.active:
            return fn(obj, dst, *args, **kwargs)
        if hasattr(dst, "write"):
            return fn(obj, _CountingWriter(dst, tracer.counts), *args, **kwargs)
        result = fn(obj, dst, *args, **kwargs)
        tracer.counts["io.bytes_written"] += os.path.getsize(dst)
        return result

    return dump


# ---------------------------------------------------------------------------
# Counts taken at layer boundaries


def _observe_clusters(counts, parent, args, kwargs, result):
    n = len(args[0])
    counts["linalg.cluster_pairs_computed"] += n * (n - 1) // 2
    if parent == "linalg.jordan_decompose":
        multi = [c for c in result if len(c) > 1]
        counts["linalg.multi_clusters"] += len(multi)
        counts["linalg.multi_cluster_members"] += sum(len(c) for c in multi)


def _observe_decomposition(counts, parent, args, kwargs, result):
    big = [b.size for b in result.blocks if b.size > 1]
    counts["linalg.nontrivial_blocks"] += len(big)
    counts["linalg.chain_columns"] += sum(big)
    counts["linalg.ill_conditioned"] += int(result.ill_conditioned)


def _observe_vertex_filter(counts, parent, args, kwargs, result):
    taps = args[1]
    counts["filters.matvecs"] += len(getattr(taps, "taps", taps)) - 1


def _observe_build(counts, parent, args, kwargs, result):
    counts["graph.edges"] += len(args[1])


OBSERVERS = {
    "linalg.cluster_eigenvalues": _observe_clusters,
    "linalg.jordan_decompose": _observe_decomposition,
    "linalg.symmetric_eigen_decompose": _observe_decomposition,
    "filters.apply_vertex_domain": _observe_vertex_filter,
    "graph.build_graph": _observe_build,
}


def lapack_flops(kernel: str, args, kwargs) -> float:
    """Standard LAPACK operation counts (Golub & Van Loan, 4th ed.).

    Real-arithmetic counts; complex input costs four times as much.
    eig with vectors 25n^3; eigh with vectors 9n^3; full SVD of an m x n
    matrix (m >= n) 4m^2n + 8mn^2 + 9n^3, singular values only
    4mn^2 - 4n^3/3 (also what cond uses); LU 2n^3/3; LU solve 2n^2k.
    """
    import numpy as np

    a = args[0][0] if kernel == "lu_solve" else args[0]
    a = np.asarray(a)
    m, n = a.shape[-2], a.shape[-1]
    m, n = max(m, n), min(m, n)
    if kernel == "eig":
        flops = 25.0 * n**3
    elif kernel == "eigh":
        flops = 9.0 * n**3
    elif kernel == "svd":
        if kwargs.get("compute_uv", args[2] if len(args) > 2 else True) is False:
            flops = 4.0 * m * n**2 - 4.0 * n**3 / 3
        else:
            flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    elif kernel == "cond":
        flops = 4.0 * m * n**2 - 4.0 * n**3 / 3
    elif kernel == "lu_factor":
        flops = 2.0 * n**3 / 3
    else:
        rhs = np.asarray(args[1])
        flops = 2.0 * n * n * (rhs.shape[1] if rhs.ndim == 2 else 1)
    return flops * (4.0 if np.iscomplexobj(a) else 1.0)


def _flops_observer(kernel: str):
    def observe(counts, parent, args, kwargs, result):
        counts["linalg.flops_computed"] += lapack_flops(kernel, args, kwargs)

    return observe


# ---------------------------------------------------------------------------
# Reduction of per-operation records to per-layer metrics

# Timing metrics: name -> (inclusive or self time, span-name predicate).
TIMINGS = {
    "linalg.eig_ms": ("incl", "linalg.eig"),
    "linalg.eigh_ms": ("incl", "linalg.eigh"),
    "linalg.svd_ms": ("incl", "linalg.svd"),
    "linalg.cond_ms": ("incl", "linalg.cond"),
    "linalg.lu_ms": ("incl", ("linalg.lu_factor", "linalg.lu_solve")),
    "linalg.invert_ms": ("incl", "linalg.invert"),
    "linalg.cluster_eigenvalues_ms": ("incl", "linalg.cluster_eigenvalues"),
    "linalg.order_with_ties_ms": ("incl", "linalg.order_with_ties"),
    "linalg.reconstruct_ms": ("incl", "linalg.reconstruct"),
    "linalg.jordan_decompose.self_ms": ("self", "linalg.jordan_decompose"),
    "linalg.symmetric_eigen_decompose.self_ms": ("self", "linalg.symmetric_eigen_decompose"),
    "filters.filter_response_ms": ("incl", "filters.filter_response"),
    "filters.apply_spectral_domain_ms": ("incl", "filters.apply_spectral_domain"),
    "filters.apply_vertex_domain_ms": ("incl", "filters.apply_vertex_domain"),
    "filters.check_lsi_preconditions_ms": ("incl", "filters.check_lsi_preconditions"),
    "spectral.decompose.self_ms": ("self", "spectral.decompose"),
    "spectral.gft_ms": ("incl", "spectral.gft"),
    "spectral.igft_ms": ("incl", "spectral.igft"),
    "spectral.spectrum_ms": ("incl", "spectral.spectrum"),
    "spectral.order_frequencies_ms": ("incl", "spectral.order_frequencies"),
    "spectral.total_variation_ms": ("incl", "spectral.total_variation"),
    "graph.build_graph_ms": ("incl", "graph.build_graph"),
    "graph.directed_laplacian_ms": ("incl", "graph.directed_laplacian"),
    "io.load_graph_ms": ("incl", "io.load_graph"),
    "io.load_signal_ms": ("incl", "io.load_signal"),
    "io.load_spectrum_ms": ("incl", "io.load_spectrum"),
    "io.dump_ms": ("incl", "io.dump_"),
    "cli.spawn_ms": ("incl", "cli.spawn"),
    "cli.import_ms": ("incl", "cli.import"),
    "cli.import_numpy_ms": ("incl", "cli.import_numpy"),
    "cli.import_scipy_ms": ("incl", "cli.import_scipy"),
    "cli.main_ms": ("incl", "cli.main"),
}

# Count metrics, reported per operation over the traced pass.
COUNTS = (
    "linalg.svd_calls",
    "linalg.multi_clusters",
    "linalg.nontrivial_blocks",
    "linalg.typed_errors",
    "linalg.untyped_errors",
    "linalg.ill_conditioned",
    "linalg.cluster_pairs_computed",
    "linalg.flops_computed",
    "filters.matvecs",
    "graph.edges",
    "io.bytes_written",
    "cli.exit_nonzero",
)

COUNT_UNITS = {
    "linalg.flops_computed": "flop/op",
    "io.bytes_written": "B/op",
    "linalg.cluster_pairs_computed": "pairs/op",
}


def _matches(name: str, pattern) -> bool:
    if isinstance(pattern, tuple):
        return name in pattern
    return name.startswith(pattern) if pattern.endswith("_") else name == pattern


def op_times(spans) -> tuple[Counter, Counter, Counter]:
    """Inclusive ns, self ns and call count per span name for one operation."""
    child = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    incl, own, calls = Counter(), Counter(), Counter()
    for k, (name, parent, start, end) in enumerate(spans):
        incl[name] += end - start
        own[name] += end - start - child[k]
        calls[name] += 1
    return incl, own, calls


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from per-operation records.

    A timing is the median, over the operations that reached the callable,
    of its per-operation total (0 when none did). A count is its total
    over the pass divided by the number of operations.
    """
    per_op = [op_times(r["spans"]) for r in records]
    out: dict[str, tuple[float, str]] = {}
    for metric, (kind, pattern) in TIMINGS.items():
        values = []
        for incl, own, _ in per_op:
            source = incl if kind == "incl" else own
            hits = [v for name, v in source.items() if _matches(name, pattern)]
            if hits:
                values.append(sum(hits) / 1e6)
        out[metric] = (statistics.median(values) if values else 0.0, "ms")
    ops = max(len(records), 1)
    totals: Counter = Counter()
    for r, (_, _, calls) in zip(records, per_op):
        totals.update(r["counts"])
        totals["linalg.svd_calls"] += calls["linalg.svd"]
    for metric in COUNTS:
        out[metric] = (totals[metric] / ops, COUNT_UNITS.get(metric, "count/op"))
    members = totals["linalg.multi_cluster_members"]
    yield_ = totals["linalg.chain_columns"] / members if members else 0.0
    out["linalg.chain_yield"] = (yield_, "ratio")
    return out
