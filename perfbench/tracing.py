"""Spans and counts for the traced benchmark run.

The tracer wraps public functions of ``leslie_sim`` by replacing module and
class attributes while it is installed; nothing under ``src/`` knows about
it.  Every call of a wrapped function records a span (name, start, end,
parent span, run id) in memory.  The ``numpy.fft`` n-dimensional transforms
are counted, not spanned, so an FFT's time stays in the self time of the
solve that asked for it.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: Traced functions: (span name, owner path, attribute).  A module-level
#: function is replaced in every ``leslie_sim`` module that holds it, so
#: names imported with ``from .x import f`` are traced too.
SPANNED = (
    ("config.parse_config", "config", "parse_config"),
    ("tensor.ElasticTensor.from_entries", "tensor.ElasticTensor", "from_entries"),
    ("tensor.ElasticTensor.apply", "tensor.ElasticTensor", "apply"),
    ("initial.make_initial_state", "initial", "make_initial_state"),
    ("dynamics.run", "dynamics", "run"),
    ("dynamics.step", "dynamics.Stepper", "step"),
    ("dynamics.solve_director_implicit", "dynamics", "solve_director_implicit"),
    ("dynamics.solve_helmholtz", "dynamics", "solve_helmholtz"),
    ("dynamics.project_divfree", "dynamics", "project_divfree"),
    ("dynamics.leslie_stress", "dynamics", "leslie_stress"),
    ("dynamics.ericksen_force", "dynamics", "ericksen_force"),
    ("grid.gradient_vec", "grid", "gradient_vec"),
    ("grid.divergence_tensor", "grid", "divergence_tensor"),
    ("grid.divergence_vec", "grid", "divergence_vec"),
    ("grid.advect", "grid", "advect"),
    ("grid.laplacian_lambda", "grid", "laplacian_lambda"),
    ("energetics.free_energy", "energetics", "free_energy"),
    ("energetics.variational_derivative", "energetics", "variational_derivative"),
    ("energetics.dissipation_channels", "energetics", "dissipation_channels"),
    ("energetics.relative_energy", "energetics", "relative_energy"),
    ("energetics.relative_dissipation", "energetics", "relative_dissipation"),
    ("energetics.gronwall_K", "energetics", "gronwall_K"),
    ("experiments.energy_monitor", "experiments", "energy_monitor"),
    ("experiments.weak_strong_experiment", "experiments", "weak_strong_experiment"),
    ("snapshot.write_snapshot", "snapshot", "write_snapshot"),
    ("snapshot.write_trace_csv", "snapshot", "write_trace_csv"),
)

#: numpy.fft n-dimensional transforms counted as ``dynamics.fft``.
FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")
FFT = "dynamics.fft"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for a root
    run_id: str


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Install with ``with tracer:``; set ``run_id`` to tag the spans and
    counts of each job."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, run_id] while open
        self.counts = defaultdict(float)  # (run_id, metric) -> value
        self.run_id = "setup"
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original value)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, func, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            spans.append(record)
            stack.append(idx)
            record[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(counts, self.run_id, args, kwargs)

        return wrapper

    def _fft_wrapper(self, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(a, *args, **kwargs):
            counts[(self.run_id, FFT + ".calls")] += 1
            counts[(self.run_id, FFT + ".bytes_computed")] += np.asarray(a).nbytes
            return func(a, *args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import leslie_sim

        modules = [m for k, m in sys.modules.items()
                   if k == "leslie_sim" or k.startswith("leslie_sim.")]
        for name, owner_path, attr in SPANNED:
            owner = _resolve(leslie_sim, owner_path)
            after = _snapshot_bytes if name == "snapshot.write_snapshot" else None
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._span_wrapper(name, raw.__func__, after))
                else:
                    wrapped = self._span_wrapper(name, raw, after)
                self._patch(owner, attr, wrapped)
                continue
            func = getattr(owner, attr)
            wrapped = self._span_wrapper(name, func, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, key, wrapped)
        for attr in FFT_FUNCS:
            self._patch(np.fft, attr, self._fft_wrapper(getattr(np.fft, attr)))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results -----------------------------------------------------------

    def finished_spans(self) -> list:
        return [Span(*rec) for rec in self.spans]

    def per_run(self) -> dict:
        """run_id -> {metric: value} with ``<span>.calls``, ``<span>.self_s``
        and the counters."""
        spans = self.finished_spans()
        out = defaultdict(lambda: defaultdict(float))
        for s, own in zip(spans, self_times(spans)):
            out[s.run_id][s.name + ".calls"] += 1
            out[s.run_id][s.name + ".self_s"] += own
        for (run_id, metric), value in self.counts.items():
            out[run_id][metric] += value
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start", "end", "parent", "run_id"))
            for i, s in enumerate(self.finished_spans()):
                out.writerow((i, s.name, repr(s.start), repr(s.end), s.parent, s.run_id))


def _snapshot_bytes(counts, run_id, args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is not None and os.path.exists(path):
        counts[(run_id, "snapshot.write_snapshot.bytes")] += os.path.getsize(path)
