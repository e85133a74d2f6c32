"""Span tracing of qchan from outside the package.

The tracer replaces module attributes at the import sites the CLI calls
through (``qchan.dephasing.integrate_adaptive``, ``qchan.classical_field.
realization_normals``, ...) with wrappers that record a span per call:
(id, name, start, end, parent id, thread id, count).  Spans stay in memory
and are written out at the end of a run; per-layer metrics are derived from
them.  Nothing under ``src/`` knows about the tracer, and with the wrappers
removed the program runs untouched.

Self time of a span is its duration minus the part of it that its children
cover.  Chunks of the Monte Carlo thread pool run concurrently, so their busy
times can add up to more than the wall time they cover; each chunk subtree is
therefore scaled by (wall time covered by the pool's chunks) / (sum of chunk
durations).  With that, the self times of all spans of one pass add up to the
pass's time inside ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name, counted argument).  The counted argument is
# stored with the span: an int, or the length of a TimeSeries.
TARGETS = (
    ("qchan.classical_field", "realization_normals", "rng.normals", None),
    ("qchan.dephasing", "realization_normals", "rng.normals", None),
    ("qchan.classical_field", "accumulate_chunks", "rng.pool", None),
    ("qchan.dephasing", "accumulate_chunks", "rng.pool", None),
    ("qchan.classical_field", "monte_carlo_polarization", "classical_field.mc", "realizations"),
    ("qchan.classical_field", "polarization_factor", "classical_field.closed", None),
    ("qchan.classical_field", "classical_decay_rate", "classical_field.closed", None),
    ("qchan.dephasing", "monte_carlo_coherence", "dephasing.mc", "realizations"),
    ("qchan.dephasing", "gamma_continuum", "dephasing.continuum", None),
    ("qchan.dephasing", "gamma_discrete", "dephasing.closed", None),
    ("qchan.dephasing", "gamma_classical", "dephasing.closed", None),
    ("qchan.dephasing", "load_tabulated", "dephasing.load", None),
    ("qchan.dephasing", "integrate_adaptive", "quadrature.integrate", None),
    ("qchan.damping", "solve_amplitude", "damping.solve", "steps"),
    ("qchan.spin_bath", "bloch_factor", "spin_bath.closed", None),
    ("qchan.spin_bath", "decay_rate", "spin_bath.closed", None),
    ("qchan.rates", "rate_from_series", "rates.extract", "series"),
    ("qchan.rates", "classify", "rates.classify", None),
    ("qchan.cli", "read_series_csv", "cli.read", None),
)

# Which per-layer self-time metric each span's self time belongs to.  A pool
# chunk runs the Monte Carlo kernel, so its self time goes to the Monte Carlo
# span that started the pool; the integrand is dephasing code called back by
# the quadrature.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.read": "cli.read_s",
    "rng.normals": "rng.self_s",
    "rng.pool": "rng.pool_self_s",
    "classical_field.mc": "classical_field.mc_self_s",
    "classical_field.closed": "classical_field.closed_s",
    "dephasing.mc": "dephasing.mc_self_s",
    "dephasing.continuum": "dephasing.continuum_self_s",
    "dephasing.integrand": "dephasing.continuum_self_s",
    "dephasing.closed": "dephasing.closed_s",
    "dephasing.load": "dephasing.load_s",
    "quadrature.integrate": "quadrature.self_s",
    "damping.solve": "damping.solve_s",
    "spin_bath.closed": "spin_bath.s",
    "rates.extract": "rates.extract_s",
    "rates.classify": "rates.classify_s",
}
SELF_TIMES = tuple(sorted(set(SELF_METRIC.values())))
MC_SPANS = ("classical_field.mc", "dephasing.mc")

# The end-to-end metric each per-layer metric should move, and on which
# workload (wall_rel is wall_s in units of the reference computation; the
# single workloads are measured inside the pairs mc-quad and march-io):
#   rng.* (draws, chunks, workers, pool)           wall_rel and cpu_rel on mc
#   classical_field.mc_self_s, .realizations,
#   dephasing.mc_self_s                            wall_rel on mc
#   dephasing.continuum_*, quadrature.*            wall_rel on quad
#   damping.solve_s, damping.march_steps           wall_rel on march
#   spin_bath.*, classical_field.closed_s          wall_rel on closed-io
#   rates.*, cli.self_s, cli.read_s, cli.rows,
#   cli.write_bytes                                wall_rel on closed-io and march
#   trace.overhead_s                               none: the cost of tracing itself

COUNT_METRICS = (
    "rng.calls", "rng.chunks", "rng.workers", "classical_field.realizations",
    "dephasing.continuum_calls", "quadrature.calls", "quadrature.evals",
    "quadrature.panels", "quadrature.bisections", "damping.march_steps",
    "spin_bath.calls", "rates.points",
)
BUSY_METRICS = ("rng.pool_s", "rng.chunk_busy_s")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs=None, count=None, parent=None, sid=None):
        """Run ``fn(*args, **kwargs)`` inside a span.  ``count(args, kwargs)``
        is evaluated after the call and stored with the span; a count that
        cannot be taken is stored as None and never fails the call."""
        stack = self._stack()
        sid = next(self._ids) if sid is None else sid
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            try:
                n = count(args, kwargs or {}) if count else None
            except (TypeError, KeyError, AttributeError, ValueError):
                n = None
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), n))

    def _wrap(self, name, fn, counted):
        count = None
        if counted is not None:
            signature = inspect.signature(fn)

            def count(args, kwargs):
                value = signature.bind(*args, **kwargs).arguments[counted]
                return int(value.times.size) if hasattr(value, "times") else int(value)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return wrapper

    def _wrap_pool(self, fn):
        @functools.wraps(fn)
        def wrapper(n, chunk_fn, *args, **kwargs):
            sid = next(self._ids)

            def chunk(*chunk_args):
                return self.call("rng.chunk", chunk_fn, chunk_args, parent=sid)

            return self.call("rng.pool", fn, (n, chunk, *args), kwargs, sid=sid)

        return wrapper

    def _wrap_quadrature(self, fn):
        @functools.wraps(fn)
        def wrapper(f, edges, *args, **kwargs):
            calls = [0, 0]  # integrand calls, integrand points

            def integrand(w):
                calls[0] += 1
                calls[1] += int(np.size(w))
                return self.call("dephasing.integrand", f, (w,))

            return self.call(
                "quadrature.integrate", fn, (integrand, edges, *args), kwargs,
                count=lambda a, k: (calls[0], calls[1], int(np.size(edges)) - 1),
            )

        return wrapper

    def install(self):
        """Wrap every target that exists; a later version of the program may
        drop one (its metrics then read 0)."""
        for module_name, attr, name, counted in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            if name == "rng.pool":
                wrapped = self._wrap_pool(original)
            elif name == "quadrature.integrate":
                wrapped = self._wrap_quadrature(original)
            else:
                wrapped = self._wrap(name, original, counted)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapped)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path, origin: float):
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write('["id","name","start_s","end_s","parent","thread","count"]\n')
            for sid, name, start, end, parent, tid, n in self.spans:
                row = [sid, name, round(start - origin, 9), round(end - origin, 9), parent, tid, n]
                fh.write(json.dumps(row) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pass from its spans (see the module docstring)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)

    pool_scale = {}
    for s in spans:
        if s[1] == "rng.pool":
            chunks = [(c[2], c[3]) for c in children[s[0]] if c[1] == "rng.chunk"]
            busy = sum(end - start for start, end in chunks)
            pool_scale[s[0]] = _covered(chunks) / busy if busy > 0 else 1.0

    def ancestry(s):
        """(scale of the chunk subtree holding s, nearest Monte Carlo span name)."""
        scale, owner = None, None
        while s is not None:
            if s[1] == "rng.chunk" and scale is None:
                scale = pool_scale.get(s[4], 1.0)
            if s[1] in MC_SPANS and owner is None:
                owner = s[1]
            s = by_id.get(s[4])
        return (1.0 if scale is None else scale), owner

    metrics = dict.fromkeys((*SELF_TIMES, *COUNT_METRICS, *BUSY_METRICS), 0.0)
    for s in spans:
        sid, name, start, end, parent, tid, n = s
        duration = end - start
        own = duration - _covered((c[2], c[3]) for c in children[sid])
        scale, owner = ancestry(s)
        if name == "rng.chunk":
            metric = SELF_METRIC[owner] if owner else "rng.pool_self_s"
        else:
            metric = SELF_METRIC[name]
        metrics[metric] += own * scale

        if name == "rng.normals":
            metrics["rng.calls"] += 1
        elif name == "rng.chunk":
            metrics["rng.chunks"] += 1
            metrics["rng.chunk_busy_s"] += duration
        elif name == "rng.pool":
            metrics["rng.pool_s"] += duration
            threads = {c[5] for c in children[sid] if c[1] == "rng.chunk"}
            metrics["rng.workers"] = max(metrics["rng.workers"], len(threads))
        elif name == "classical_field.mc":
            metrics["classical_field.realizations"] += n or 0
        elif name == "dephasing.continuum":
            metrics["dephasing.continuum_calls"] += 1
        elif name == "quadrature.integrate":
            calls, points, initial = n
            # each panel batch calls the integrand twice (7- and 15-point rules)
            bisections = max(calls // 2 - 1, 0)
            metrics["quadrature.calls"] += 1
            metrics["quadrature.evals"] += points
            metrics["quadrature.bisections"] += bisections
            metrics["quadrature.panels"] += initial + bisections
        elif name == "damping.solve":
            metrics["damping.march_steps"] += n or 0
        elif name == "spin_bath.closed":
            metrics["spin_bath.calls"] += 1
        elif name == "rates.extract":
            metrics["rates.points"] += n or 0
    return metrics
