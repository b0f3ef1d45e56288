"""Per-layer tracing of the frameness package from outside it.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
wrappers that record a span (name, start, end, parent span, job id) and, for
some layers, a computed work or byte figure.  A module-level function is
replaced in every ``frameness`` module that imported it by name, because the
CLI calls the names it imported, not the defining module's attribute.
Nothing in the package itself changes.

Spans stay in memory and are written as JSONL when the run ends.  A span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import MANY_COPY_TAGS, scaling_job_id

_TINY = np.finfo(float).tiny


def _linalg_before(tracer, args, kwargs):
    a = np.asarray(args[0])
    d = a.shape[-1]
    batch = a.size // (d * d) if d else 0
    tracer.add("linalg.eigh.work", batch * d**3)
    tracer.peak("linalg.eigh.dim_max", d)
    key = (a.shape, a.dtype.str, hashlib.blake2b(np.ascontiguousarray(a), digest_size=16).digest())
    tracer.add("linalg.eigh.solves", 1)
    if key in tracer.solved:
        tracer.add("linalg.eigh.repeats", 1)
    tracer.solved.add(key)


def _twirl_before(tracer, args, kwargs):
    tracer.peak("asymmetry.twirl.bytes_max", np.asarray(args[1]).nbytes)


def _superop_before(tracer, args, kwargs):
    tracer.peak("channels.superoperator.bytes_max", 16 * args[0].dim ** 4)


def _json_read_before(tracer, args, kwargs):
    tracer.add("states.json_read.bytes", os.path.getsize(args[0]))


def _convolve_after(tracer, args, kwargs, profile):
    n = profile.copies
    w = profile.convolved.weights
    tracer.add("scaling.convolve.work", n * w.size)
    best = tracer.largest_convolution.get(tracer.job)
    if best is None or n >= best[0]:
        subnormal = int(np.count_nonzero((w > 0) & (w < _TINY)))
        tracer.largest_convolution[tracer.job] = (n, subnormal, w.size)


# (module, attribute path, span name, before hook, after hook)
TARGETS = [
    ("frameness.states", "DensityOperator.__init__", "states.validate", None, None),
    ("frameness.states", "von_neumann_entropy", "states.entropy", None, None),
    ("frameness.states", "shannon_entropy", "states.entropy", None, None),
    ("frameness.states", "relative_entropy", "states.relative_entropy", None, None),
    # the CLI's file read: json.load of the whole input, before any *_from_json
    ("frameness.cli", "_load_json", "states.json_read", _json_read_before, None),
    ("frameness.states", "density_from_json", "states.json_read", None, None),
    ("frameness.states", "pure_state_from_json", "states.json_read", None, None),
    ("frameness.groups", "charge_grading_from_json", "states.json_read", None, None),
    ("frameness.groups", "finite_rep_from_json", "states.json_read", None, None),
    ("frameness.states", "density_to_json", "states.json_write", None, None),
    ("frameness.states", "pure_state_to_json", "states.json_write", None, None),
    ("frameness.groups", "build_collective_spin_rep", "groups.schur_build", None, None),
    ("frameness.groups", "validate_finite_rep", "groups.finite_validate", None, None),
    ("frameness.groups", "finite_group_from_unitaries", "groups.finite_validate", None, None),
    ("frameness.asymmetry", "TwirlOperation.apply_matrix", "asymmetry.twirl", _twirl_before, None),
    ("frameness.asymmetry", "g_asymmetry", "asymmetry.g_asymmetry", None, None),
    ("frameness.asymmetry", "maximal_asymmetry_state", "asymmetry.maximal_state", None, None),
    ("frameness.channels", "KrausChannel.__init__", "channels.kraus_init", None, None),
    ("frameness.channels", "KrausChannel.apply", "channels.apply", None, None),
    ("frameness.channels", "KrausChannel.apply_matrix", "channels.apply", None, None),
    ("frameness.channels", "KrausChannel.superoperator", "channels.superoperator",
     _superop_before, None),
    ("frameness.channels", "KrausChannel.is_idempotent", "channels.superoperator",
     _superop_before, None),
    ("frameness.scaling", "convolve_copies", "scaling.convolve", None, _convolve_after),
    ("frameness.scaling", "u1_ncopy_asymmetry", "scaling.convolve", None, None),
    ("frameness.scaling", "finite_group_bound_check", "scaling.finite_bound", None, None),
    ("frameness.entanglement", "optimize_two_qubit_bound", "entanglement.optimize", None, None),
    ("frameness.entanglement", "optimize_dephasing_bound", "entanglement.optimize", None, None),
    ("frameness.entanglement", "dephasing_upper_bound", "entanglement.objective", None, None),
    ("frameness.estimation", "holevo_bound_check", "estimation.holevo", None, None),
    ("frameness.estimation", "square_root_measurement", "estimation.srm", None, None),
    ("frameness.estimation", "mutual_information", "estimation.mutual_info", None, None),
    ("frameness.sampling", "random_density_operator", "sampling", None, None),
    ("frameness.sampling", "haar_unitary", "sampling", None, None),
    ("frameness.estimation", "random_povm", "sampling", None, None),
    ("numpy.linalg", "eigvalsh", "linalg.eigh", _linalg_before, None),
    ("numpy.linalg", "eigh", "linalg.eigh", _linalg_before, None),
]

# Job spans: one per CLI subcommand the workloads run, and one for the library jobs.
JOB_SPANS = ["cli.asymmetry", "cli.extremal", "cli.bounds", "cli.scaling", "cli.ree",
             "cli.estimate", "cli.verify", "library.channels"]

# Per-layer metrics: (name, unit).  Additive figures are per pass of the job list.
METRICS = [
    ("states.validate.calls", "count"), ("states.validate.self_s", "s"),
    ("states.entropy.calls", "count"), ("states.entropy.self_s", "s"),
    ("states.relative_entropy.calls", "count"), ("states.relative_entropy.self_s", "s"),
    ("states.json_read.self_s", "s"), ("states.json_read.bytes", "B"),
    ("states.json_write.self_s", "s"),
    ("groups.schur_build.calls", "count"), ("groups.schur_build.self_s", "s"),
    ("groups.finite_validate.self_s", "s"),
    ("asymmetry.twirl.calls", "count"), ("asymmetry.twirl.self_s", "s"),
    ("asymmetry.twirl.bytes_max", "B"),
    ("asymmetry.g_asymmetry.self_s", "s"), ("asymmetry.maximal_state.self_s", "s"),
    ("channels.kraus_init.calls", "count"), ("channels.apply.calls", "count"),
    ("channels.apply.self_s", "s"),
    ("channels.superoperator.calls", "count"), ("channels.superoperator.self_s", "s"),
    ("channels.superoperator.bytes_max", "B"),
    ("scaling.convolve.calls", "count"), ("scaling.convolve.self_s", "s"),
    ("scaling.convolve.work", "count"),
    ("scaling.subnormal_frac", "fraction"),
] + [(f"scaling.subnormal_frac.{tag}", "fraction") for tag in MANY_COPY_TAGS] + [
    ("scaling.finite_bound.self_s", "s"),
    ("entanglement.optimize.calls", "count"), ("entanglement.optimize.self_s", "s"),
    ("entanglement.objective.calls", "count"),
    ("estimation.holevo.self_s", "s"), ("estimation.srm.self_s", "s"),
    ("estimation.mutual_info.calls", "count"),
    ("sampling.self_s", "s"),
] + [(f"{span}.total_s", "s") for span in JOB_SPANS] + [
    ("linalg.eigh.calls", "count"), ("linalg.eigh.self_s", "s"),
    ("linalg.eigh.dim_max", "count"), ("linalg.eigh.work", "count"),
    ("linalg.eigh.repeat_frac", "fraction"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "fraction"),
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Spans and counters for one worker process; inert until ``install``."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, job id]
        self.stack = []
        self.job = None
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self.solved = set()
        self.largest_convolution = {}
        self._undo = []

    def add(self, key, value):
        self.counters[key] += value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.job]
            tracer.spans.append(span)
            tracer.stack.append(len(tracer.spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "frameness" or n.startswith("frameness.")]
        for module_name, path, name, before, after in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, before, after)
            holders = [owner] if isinstance(owner, type) or module_name == "numpy.linalg" else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def job_span(self, name: str, job_id: str):
        """The root span of one job; eigensolver repeats are counted within it."""
        self.job, self.solved = job_id, set()
        span = [name, time.perf_counter(), 0.0, -1, job_id]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.job = None

    def write_jsonl(self, path: str):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")

    def summary(self, passes: int) -> dict:
        """Per-layer figures, additive ones divided by the number of traced passes."""
        covered = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls, total = defaultdict(float), defaultdict(int), defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            total[name] += end - start
            # a span directly inside another of the same name (u1_ncopy_asymmetry
            # around convolve_copies, apply around apply_matrix) is one call
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] += 1
        out = {}
        for metric, _unit in METRICS:
            layer, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s[layer] / passes
            elif field == "calls":
                out[metric] = calls[layer] / passes
            elif field == "total_s":
                out[metric] = total[layer] / passes
        for key in ("linalg.eigh.work", "states.json_read.bytes", "scaling.convolve.work"):
            out[key] = self.counters[key] / passes
        for key in ("linalg.eigh.dim_max", "asymmetry.twirl.bytes_max",
                    "channels.superoperator.bytes_max"):
            out[key] = self.maxima[key]
        solves = self.counters["linalg.eigh.solves"]
        out["linalg.eigh.repeat_frac"] = self.counters["linalg.eigh.repeats"] / solves if solves else 0.0
        # subnormal share of each many-copy job's largest convolution, and of all of them
        largest = self.largest_convolution
        for tag in MANY_COPY_TAGS:
            _, sub, size = largest.get(scaling_job_id(tag), (0, 0, 0))
            out[f"scaling.subnormal_frac.{tag}"] = sub / size if size else 0.0
        size = sum(v[2] for v in largest.values())
        out["scaling.subnormal_frac"] = sum(v[1] for v in largest.values()) / size if size else 0.0
        return out
