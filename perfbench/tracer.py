"""Span tracer installed around seqform's functions from outside the package.

The tracer replaces functions and methods by wrappers that time each call
and remember the span that caused it. Nothing under src/ changes: every
module attribute that refers to a wrapped function is rebound, so
`from .sparse import spectral_norm` in solver.py is traced too.

High-frequency spans (a solver step, a sparse product, the residual) are
kept only as count, total, self time and per-call arrays. Every other span
is also kept as one record (id, parent id, name, start, end, self), which
is what the set-up and per-layer sums are computed from.
"""

from __future__ import annotations

import builtins
import importlib
import inspect
import itertools
import json
import sys
import time
from array import array

import numpy as np

MODULES = ("cli", "treeplex", "sparse", "solver", "games")

# Private functions that are the only boundary around a layer metric.
PRIVATE_BOUNDARIES = {"solver": ("_trace_point",)}

HIGH_FREQUENCY = frozenset({
    "solver.step", "solver.residual",
    "sparse.SparseMatrix.matvec", "sparse.SparseMatrix.transpose_matvec",
})

# The once-per-solve calls whose top-level spans make up set-up time.
SETUP_SPANS = frozenset({
    "json.load", "treeplex.SequenceFormGame.from_dict",
    "solver.init", "treeplex.build_treeplex_index",
})

PRODUCTS = ("sparse.SparseMatrix.matvec", "sparse.SparseMatrix.transpose_matvec")


class Stat:
    """Calls of one span name under one parent name."""

    __slots__ = ("count", "total", "self_total", "durations", "selfs", "starts")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations = array("d")
        self.selfs = array("d")
        self.starts = array("d")


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # frame: [name, time covered by children, span id]
        self.stack = [["<root>", 0.0, 0]]
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[tuple] = []
        self.captured: dict[str, list] = {}
        # per-call product times by (parent, name, matrix id), and each matrix's shape and nnz
        self.products: dict[tuple, array] = {}
        self.matrices: dict[int, tuple] = {}
        self.io = {"bytes_read": 0, "bytes_written": 0}
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        stack, clock, stats, spans, ids = self.stack, self.clock, self.stats, self.spans, self._ids
        individual = name not in HIGH_FREQUENCY
        capture = _CAPTURES.get(name)
        captured = self.captured
        product = name in PRODUCTS
        products, matrices = self.products, self.matrices

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                # a recursive call (render_json) stays inside its outer span
                return fn(*args, **kwargs)
            frame = [name, 0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                parent[1] += dur
                key = (parent[0], name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.count += 1
                st.total += dur
                st.self_total += own
                st.durations.append(dur)
                st.selfs.append(own)
                st.starts.append(t0)
                if individual:
                    spans.append((frame[2], parent[2], name, t0, t1, own))
                elif product:
                    mkey = (parent[0], name, id(args[0]))
                    per = products.get(mkey)
                    if per is None:
                        per = products[mkey] = array("d")
                        matrices[id(args[0])] = (args[0].shape, args[0].nnz)
                    per.append(dur)
            if capture is not None:
                captured.setdefault(name, []).append(capture(out))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counting_open(self):
        """An open() that counts the bytes a module reads and writes."""
        io = self.io
        wrap = self.wrap

        class Counted:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()
                return False

            def read(self, *args):
                data = self._fh.read(*args)
                io["bytes_read"] += _nbytes(data)
                return data

            def write(self, data):
                io["bytes_written"] += _nbytes(data)
                return timed_write(self._fh, data)

            def __iter__(self):
                for line in self._fh:
                    io["bytes_read"] += _nbytes(line)
                    yield line

            def __getattr__(self, attr):
                return getattr(self._fh, attr)

        timed_write = wrap("io.write", lambda fh, data: fh.write(data))

        def opener(*args, **kwargs):
            return Counted(builtins.open(*args, **kwargs))

        return opener


def _nbytes(data) -> int:
    return len(data.encode("utf-8")) if isinstance(data, str) else len(data)


def product_bytes(name: str, shape: tuple, nnz: int) -> int:
    """Computed bytes one CSR product moves: values, column indices, row pointers, in and out vectors.

    A transposed product is counted on a transposed CSR copy, as SparseMatrix keeps one.
    """
    rows, cols = shape
    if name.endswith("transpose_matvec"):
        rows, cols = cols, rows
    return nnz * (8 + 4) + (rows + 1) * 4 + cols * 8 + rows * 8


def _norm_capture(est):
    return {"iterations": int(est.iterations), "converged": bool(est.converged),
            "value": float(est.value)}


_CAPTURES = {"sparse.spectral_norm": _norm_capture}


def _seqform_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "seqform" or n.startswith("seqform."))]


def install(tracer: Tracer, only=None) -> None:
    """Wrap seqform's public functions (or only the names given) and json.load.

    Must run before the call being traced. Traced in full, cli's open() also
    counts the bytes read and written.
    """
    mods = {short: importlib.import_module(f"seqform.{short}") for short in MODULES}
    replaced = {}

    def want(name):
        return only is None or name in only

    for short, mod in mods.items():
        private = PRIVATE_BOUNDARIES.get(short, ())
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr in private):
                name = f"{short}.{attr}"
                if want(name):
                    replaced[obj] = tracer.wrap(name, obj)
            elif inspect.isclass(obj):
                for mattr, raw in list(vars(obj).items()):
                    if mattr.startswith("_"):
                        continue
                    name = f"{short}.{attr}.{mattr}"
                    if not want(name):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        setattr(obj, mattr, type(raw)(tracer.wrap(name, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, mattr, tracer.wrap(name, raw))
    for mod in _seqform_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    if want("json.load"):
        json.load = tracer.wrap("json.load", json.load)
    if only is None:
        mods["cli"].open = tracer.counting_open()


# ---------------------------------------------------------------- summaries

def tail_percentile(n: int) -> tuple[float, str]:
    """The highest of a few percentiles with at least ten samples beyond it."""
    for q, label in ((99.9, "p99.9"), (99.0, "p99"), (95.0, "p95"), (90.0, "p90")):
        if n * (100.0 - q) / 100.0 >= 10:
            return q, label
    return 100.0, "max"


def distribution(values, scale: float = 1.0) -> dict:
    """Sample count, median and tail of values, times scale."""
    arr = np.asarray(values, dtype=np.float64) * scale
    if arr.size == 0:
        return {"n": 0, "median": 0.0, "tail": 0.0, "tail_label": "none"}
    q, label = tail_percentile(arr.size)
    return {"n": int(arr.size), "median": float(np.median(arr)),
            "tail": float(np.percentile(arr, q)), "tail_label": label}


def top_level_total(spans, group) -> float:
    """Sum of spans named in group that are not nested inside another one of them."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, parent, name, t0, t1, _ in spans:
        if name not in group:
            continue
        nested = False
        while parent:
            p = by_id.get(parent)
            if p is None:
                break
            if p[2] in group:
                nested = True
                break
            parent = p[1]
        if not nested:
            total += t1 - t0
    return total


def setup_seconds(tracer: Tracer) -> float:
    return top_level_total(tracer.spans, SETUP_SPANS)


def _merged(tracer: Tracer, name: str, parent=None):
    """Count, total, self and per-call arrays of a name, over one or all parents."""
    out = Stat()
    for (p, n), st in tracer.stats.items():
        if n == name and (parent is None or p == parent):
            out.count += st.count
            out.total += st.total
            out.self_total += st.self_total
            out.durations.extend(st.durations)
            out.selfs.extend(st.selfs)
            out.starts.extend(st.starts)
    return out


def _norm_rounds_ms(tracer: Tracer) -> list[float]:
    """Per-round times of the norm estimate: from one forward product to the next."""
    ends = [s[4] for s in tracer.spans if s[2] == "sparse.spectral_norm"]
    starts = sorted(_merged(tracer, "sparse.SparseMatrix.matvec", "sparse.spectral_norm").starts)
    rounds = []
    end = ends[0] if ends else None
    for a, b in zip(starts, starts[1:] + ([end] if end is not None else [])):
        rounds.append((b - a) * 1e3)
    return rounds


def layer_metrics(tracer: Tracer, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced solve, and the distributions behind them."""
    spans = tracer.spans
    m = {}
    dists = {}

    def med(name, scale, key, selfs=False):
        st = _merged(tracer, name)
        dists[key] = distribution(st.selfs if selfs else st.durations, scale)
        return dists[key]

    m["cli.parse_s"] = top_level_total(spans, {"json.load", "treeplex.SequenceFormGame.from_dict"})
    m["cli.bytes_read"] = tracer.io["bytes_read"]
    m["cli.write_s"] = top_level_total(spans, {"cli.render_json", "cli.write_trace_csv", "io.write"})
    m["cli.bytes_written"] = tracer.io["bytes_written"]

    m["treeplex.validate_s"] = _merged(tracer, "treeplex.validate_sequence_form").total
    index_s = _merged(tracer, "treeplex.build_treeplex_index").total
    m["treeplex.index_s"] = index_s
    m["treeplex.normalize_ms"] = med("treeplex.normalize_to_polytope", 1e3, key="treeplex.normalize_ms")["median"]
    m["treeplex.best_response_ms"] = med("treeplex.best_response", 1e3, key="treeplex.best_response_ms")["median"]
    m["treeplex.duality_gap_ms"] = med("treeplex.duality_gap", 1e3, key="treeplex.duality_gap_ms")["median"]
    m["treeplex.calls"] = sum(st.count for (_, n), st in tracer.stats.items() if n.startswith("treeplex."))

    # assembly of K without the validation it calls
    names = {s[0]: s[2] for s in spans}
    m["sparse.build_K_self_s"] = sum(
        (t1 - t0) if name == "sparse.build_K" else -(t1 - t0)
        for _, parent, name, t0, t1, _ in spans
        if name == "sparse.build_K" or (names.get(parent) == "sparse.build_K" and name.startswith("treeplex.")))
    m["sparse.norm_s"] = _merged(tracer, "sparse.spectral_norm").total
    m["sparse.norm_rounds"] = sum(c["iterations"] for c in tracer.captured.get("sparse.spectral_norm", []))
    rounds = distribution(_norm_rounds_ms(tracer))  # already in ms
    dists["sparse.norm_ms_per_round"] = rounds
    m["sparse.norm_ms_per_round"] = rounds["median"]
    m["sparse.norm_ms_per_round_tail"] = rounds["tail"]

    steps = _merged(tracer, "solver.step")
    in_step = {(name, mid): per for (parent, name, mid), per in tracer.products.items()
               if parent == "solver.step"}
    for name, metric in zip(PRODUCTS, ("sparse.matvec_us", "sparse.transpose_matvec_us")):
        # the product on the matrix with the most nonzeros sets the step's kernel time
        mine = [(tracer.matrices[mid][1], mid, per) for (n, mid), per in in_step.items() if n == name]
        dists[metric] = distribution(max(mine)[2] if mine else [], 1e6)
        m[metric] = dists[metric]["median"]
    for (name, mid), per in sorted(in_step.items(), key=lambda kv: (kv[0][0], -tracer.matrices[kv[0][1]][1])):
        shape, nnz = tracer.matrices[mid]
        label = f"{name.rsplit('.', 1)[1]}_us[{shape[0]}x{shape[1]} nnz={nnz}]"
        while label in dists:  # E1 and E2 can have the same shape
            label += "'"
        dists[label] = distribution(per, 1e6)
    products = sum(len(per) for per in in_step.values())
    moved = sum(len(per) * product_bytes(name, *tracer.matrices[mid]) for (name, mid), per in in_step.items())
    m["sparse.products_per_step"] = products / steps.count if steps.count else 0.0
    m["sparse.bytes_per_step_computed"] = moved / steps.count if steps.count else 0.0

    m["solver.step_us"] = med("solver.step", 1e6, key="solver.step_us")["median"]
    m["solver.step_self_us"] = med("solver.step", 1e6, key="solver.step_self_us", selfs=True)["median"]
    residual = med("solver.residual", 1e6, key="solver.residual_us")
    m["solver.residual_us"] = residual["median"]
    m["solver.residual_us_tail"] = residual["tail"]
    trace_points = _merged(tracer, "solver._trace_point")
    m["solver.trace_point_ms"] = med("solver._trace_point", 1e3, key="solver.trace_point_ms")["median"]
    init_s = _merged(tracer, "solver.init").total
    loop = _merged(tracer, "solver.solve").total - init_s - index_s
    m["solver.trace_share"] = (trace_points.total - index_s) / loop if loop > 0 and trace_points.count else 0.0
    m["solver.init_s"] = init_s
    m["solver.steps"] = steps.count

    uncovered = _merged(tracer, "cli.main").self_total + _merged(tracer, "solver.solve").self_total
    m["trace.coverage"] = 1.0 - uncovered / wall if wall > 0 else 0.0
    return m, dists


def stats_table(tracer: Tracer) -> list[dict]:
    """Count, total, self and median per (parent, name), largest total first."""
    rows = []
    for (parent, name), st in tracer.stats.items():
        d = distribution(st.durations, 1e6)
        rows.append({"parent": parent, "name": name, "count": st.count,
                     "total_s": st.total, "self_s": st.self_total,
                     "median_us": d["median"], "tail_us": d["tail"], "tail_label": d["tail_label"]})
    rows.sort(key=lambda r: -r["total_s"])
    return rows
