"""Span recorder and layer probes for the traced benchmark run.

The probes wrap public functions and methods of ``repro`` from outside: the
program under test is never edited.  Each probe opens a span named after the
layer it times (``fdfd.engine.factorize``, ``data.shards.write``, ...); a span
records its name, start, end, parent span and thread, and spans stay in memory
until the run ends.  A layer's self time is the summed duration of its spans
minus the part covered by their direct child spans.

Shard workers forked by the dataset generator inherit the installed probes.
Each worker writes the spans of every shard it ran to its own file in the
trace directory, and the parent reads those files back when the run ends.

Install with :func:`install`, remove with :meth:`Probes.remove`; a traced run
does both around every traced window.  Nothing is patched while no probes are
installed, so untraced windows measure the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across forked processes


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self, trace_dir: Path):
        #: Where forked shard workers leave their spans for the parent.
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []  # (pid, span id, parent id, name, start, end, thread id)
        self.counters: dict[str, float] = defaultdict(float)
        #: Largest ``FactorizationCache.stats.current_bytes`` seen in any process.
        self.peak_factor_bytes = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent_name(self) -> str | None:
        """Name of the innermost open span of the calling thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        return (span_id, parent, name, _clock())

    def end(self, token: tuple) -> float:
        span_id, parent, name, start = token
        finish = _clock()
        self._stack().pop()
        self.spans.append((self.pid, span_id, parent, name, start, finish, threading.get_ident()))
        return finish - start

    # -- counters ------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    # -- forked shard workers --------------------------------------------------
    def adopt_child(self) -> bool:
        """Start an empty buffer if this is a forked copy; True in a child."""
        if os.getpid() == self.pid:
            return False
        self.pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(float)
        self.peak_factor_bytes = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        return True

    def flush_child(self) -> None:
        """Write this worker's buffer to its own file and empty it."""
        path = self.trace_dir / f"spans-{self.pid}-{next(self._ids)}.json"
        payload = {"spans": self.spans, "counters": dict(self.counters), "peak_factor_bytes": self.peak_factor_bytes}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        self.spans = []
        self.counters = defaultdict(float)

    def collect_children(self) -> int:
        """Merge every worker file into this buffer; returns the files read."""
        files = sorted(self.trace_dir.glob("spans-*.json"))
        for path in files:
            payload = json.loads(path.read_text())
            self.spans.extend(tuple(span) for span in payload["spans"])
            for name, value in payload["counters"].items():
                self.counters[name] += value
            self.peak_factor_bytes = max(self.peak_factor_bytes, payload["peak_factor_bytes"])
            path.unlink()
        return len(files)


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Self time per span name: durations minus direct children's durations."""
    names = {(span[0], span[1]): span[3] for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for pid, _, parent, name, start, finish, _ in spans:
        duration = finish - start
        totals[name] += duration
        if (pid, parent) in names:
            totals[names[(pid, parent)]] -= duration
    return dict(totals)


# --------------------------------------------------------------------------- #
# probes
# --------------------------------------------------------------------------- #
_ACTIVE: Tracer | None = None
_ORIGINAL_RUN_SHARD = None


def traced_run_shard(task):
    """Worker-side stand-in for ``repro.data.shards.run_shard``.

    Module level so process pools can pickle it by reference.  In a forked
    worker it empties the inherited buffer first and writes the shard's spans
    to the trace directory afterwards.
    """
    tracer = _ACTIVE
    in_child = tracer.adopt_child()
    token = tracer.begin("data.shards.run_shard")
    try:
        return _ORIGINAL_RUN_SHARD(task)
    finally:
        tracer.end(token)
        if in_child:
            tracer.flush_child()


def _span_wrapper(tracer: Tracer, name: str, fn, only_under: str | None = None):
    if only_under is None:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(token)

    else:
        # Only the top-level call made directly inside ``only_under`` is a
        # span: nested module calls and calls from other layers pass through.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.parent_name() != only_under:
                return fn(*args, **kwargs)
            token = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(token)

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn):
    """Time every ``next`` of a generator method as one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            token = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                tracer.end(token)
            yield item

    return wrapper


class Probes:
    """The set of patches one :func:`install` made; ``remove`` undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patches: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str, make_wrapper) -> None:
        """Replace a module function at every loaded module binding it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = make_wrapper(original)
        for loaded in list(sys.modules.values()):
            for name, value in list(getattr(loaded, "__dict__", {}).items()):
                if value is original:
                    self._set(loaded, name, wrapper)

    def method(self, module: str, cls: str, attr: str, make_wrapper) -> None:
        owner = getattr(importlib.import_module(module), cls)
        self._set(owner, attr, make_wrapper(owner.__dict__[attr]))

    def span(self, name: str, only_under: str | None = None):
        return lambda fn: _span_wrapper(self.tracer, name, fn, only_under)

    def remove(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None


def install(tracer: Tracer) -> Probes:
    """Patch every layer boundary the benchmark reports on."""
    global _ACTIVE, _ORIGINAL_RUN_SHARD
    probes = Probes(tracer)
    span = probes.span

    # fdfd.engine: operator assembly, factorization (the cache's build
    # callable), solves (self time = back-substitution and refinement).
    probes.function("repro.fdfd.engine", "assemble_system_matrix", span("fdfd.engine.assemble"))
    probes.function("repro.fdfd.engine", "update_system_diagonal", span("fdfd.engine.assemble"))

    def cache_probe(get_or_build):
        @functools.wraps(get_or_build)
        def wrapper(self, grid, omega, fingerprint, build, *args, **kwargs):
            built = []

            def timed_build():
                token = tracer.begin("fdfd.engine.factorize")
                try:
                    return build()
                finally:
                    tracer.end(token)
                    built.append(True)

            entry = get_or_build(self, grid, omega, fingerprint, timed_build, *args, **kwargs)
            tracer.count("fdfd.engine.cache_calls")
            tracer.count("fdfd.engine.factorizations" if built else "fdfd.engine.cache_hits")
            tracer.peak_factor_bytes = max(tracer.peak_factor_bytes, self.stats.current_bytes)
            return entry

        return wrapper

    probes.method("repro.fdfd.engine", "FactorizationCache", "get_or_build", cache_probe)

    def solve_probe(name, prefix):
        """Span ``name`` around an engine's ``solve_batch``, with per-RHS counters under ``prefix``."""

        def probe(solve_batch):
            @functools.wraps(solve_batch)
            def wrapper(self, grid, omega, eps_r, rhs, *args, **kwargs):
                token = tracer.begin(name)
                try:
                    return solve_batch(self, grid, omega, eps_r, rhs, *args, **kwargs)
                finally:
                    seconds = tracer.end(token)
                    count = rhs.shape[0] if getattr(rhs, "ndim", 0) == 3 else 1
                    tracer.count(f"{prefix}.solve_calls")
                    tracer.count(f"{prefix}.rhs", count)
                    tracer.count(f"{prefix}.rhs_seconds", count * seconds)

            return wrapper

        return probe

    for engine in ("DirectEngine", "IterativeEngine", "RefinedEngine", "RecycledEngine"):
        probes.method("repro.fdfd.engine", engine, "solve_batch", solve_probe("fdfd.engine.solve", "fdfd.engine"))

    # fdfd.modes / fdfd.monitors
    probes.function("repro.fdfd.modes", "solve_slab_modes", span("fdfd.modes.solve"))
    probes.function("repro.fdfd.modes", "solve_slab_modes_batch", span("fdfd.modes.solve"))
    probes.function("repro.fdfd.monitors", "poynting_flux_through_port", span("fdfd.monitors.measure"))
    probes.function("repro.fdfd.monitors", "mode_overlap", span("fdfd.monitors.measure"))

    # invdes: batched spec evaluation, adjoint solves, gradient assembly, and
    # the optimizer (its self time is the Adam step and bookkeeping).
    probes.function("repro.invdes.adjoint", "evaluate_specs", span("invdes.adjoint.evaluate"))
    probes.method("repro.invdes.adjoint", "NumericalFieldBackend", "adjoint_fields", span("invdes.adjoint.adjoint"))
    probes.method("repro.fdfd.solver", "FdfdSolver", "permittivity_gradient", span("invdes.adjoint.gradient"))
    probes.method("repro.invdes.optimizer", "AdjointOptimizer", "run", span("invdes.optimizer.step_self"))
    probes.method("repro.invdes.problem", "InverseDesignProblem", "evaluate", span("invdes.problem.evaluate"))

    # data: label extraction, shard artifacts, the task fabric.
    probes.function("repro.data.labels", "extract_labels_batch", span("data.labels.extract"))

    def save_probe(save_shard):
        timed = _span_wrapper(tracer, "data.shards.write", save_shard)

        @functools.wraps(save_shard)
        def wrapper(*args, **kwargs):
            path = timed(*args, **kwargs)
            tracer.count("data.shards.write_bytes", os.path.getsize(path))
            return path

        return wrapper

    probes.function("repro.data.shards", "save_shard", save_probe)
    probes.function("repro.data.shards", "load_shard", span("data.shards.read"))

    def executor_probe(execute_tasks):
        @functools.wraps(execute_tasks)
        def wrapper(fn, tasks, workers=None, *args, **kwargs):
            from repro.utils.parallel import effective_workers

            tasks = list(tasks)
            token = tracer.begin("utils.executor.execute_tasks")
            try:
                report = execute_tasks(fn, tasks, workers, *args, **kwargs)
            finally:
                seconds = tracer.end(token)
                tracer.count("utils.executor.slot_seconds", seconds * effective_workers(workers, len(tasks)))
            tracer.count("utils.executor.retries", report.retries)
            return report

        return wrapper

    probes.function("repro.utils.executor", "execute_tasks", executor_probe)
    _ORIGINAL_RUN_SHARD = importlib.import_module("repro.data.shards").run_shard
    probes._set(importlib.import_module("repro.data.generator"), "run_shard", traced_run_shard)

    # data.loader: every batch handed to the trainer, and direct gathers.
    generator_span = lambda name: lambda fn: _generator_wrapper(tracer, name, fn)  # noqa: E731
    probes.method("repro.data.loader", "ShardDataLoader", "batches", generator_span("data.loader.batch"))
    probes.method("repro.data.loader", "ShardDataLoader", "stream", generator_span("data.loader.batch"))
    probes.method("repro.data.loader", "ShardDataLoader", "gather", span("data.loader.batch"))

    # train: forward, backward and optimizer steps made by Trainer.train
    # itself (autograd elsewhere, e.g. inverse-design parametrizations, is
    # not training).
    probes.method("repro.train.trainer", "Trainer", "train", span("train.fit"))
    probes.method("repro.nn.module", "Module", "__call__", span("train.forward", only_under="train.fit"))
    probes.method("repro.autograd.tensor", "Tensor", "backward", span("train.backward", only_under="train.fit"))
    probes.method("repro.nn.optim", "Adam", "step", span("train.optim", only_under="train.fit"))

    # surrogate: checkpoint promotion and neural-engine predictions.
    probes.function("repro.surrogate.checkpoint", "save_checkpoint", span("surrogate.promote"))
    probes.function("repro.surrogate.checkpoint", "promote_to_engine", span("surrogate.promote"))
    probes.method(
        "repro.surrogate.neural_solver", "NeuralEngine", "solve_batch", solve_probe("surrogate.predict", "surrogate")
    )

    _ACTIVE = tracer
    return probes
