"""One benchmark run: set up a workload, measure it, check its outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload invdes-recycled --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no probe installed.
``--trace 1`` alternates untraced windows with windows that have the layer
probes of :mod:`tracer` installed, and reports per-layer metrics from the
traced windows plus the tracing overhead (untraced against traced rate).  The
last line of standard output is one JSON object; the lines before it are the
same figures for people.  The command exits 1 when an output check fails and 2
when the sources are missing.

Metrics, workloads and the layer map are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """What the numbers were measured on; thread settings exactly as found."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{name: os.environ.get(name, "unset") for name in thread_vars},
    }


def forked_setup_seconds(workload_cls, seed: int, workdir: Path) -> float:
    """Set-up time of a forked copy of this process, which starts as cold as it."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            workload = workload_cls(seed, workdir)
            start = time.perf_counter()
            workload.setup()
            os.write(write_fd, repr(time.perf_counter() - start).encode())
            workload.close()
            status = 0
        except BaseException:  # noqa: BLE001 - reported through the exit status
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        reply = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not reply:
        raise RuntimeError(f"set-up failed in a forked copy (status {status})")
    return float(reply)


def peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def rate(window) -> float:
    return window.rate_count / window.rate_seconds if window.rate_seconds > 0 else 0.0


def end_to_end(window, setup_seconds: list[float]) -> dict:
    attempted = max(window.attempted, 1)
    return {
        "throughput": (rate(window), "1/s"),
        "latency_p50_ms": (percentile_ms(window.latencies, 50), "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "success_ratio": ((window.attempted - window.failed) / attempted, "ratio"),
    }


# Per-layer time shares: span name -> metric.  A share is the layer's self
# time as a percentage of the traced window's wall time, summed over every
# process and thread, so parallel layers can add up to more than 100.
SHARE_METRICS = {
    "fdfd.engine.assemble": "fdfd.engine.assemble_pct",
    "fdfd.engine.factorize": "fdfd.engine.factorize_pct",
    "fdfd.engine.solve": "fdfd.engine.solve_pct",
    "fdfd.modes.solve": "fdfd.modes.solve_pct",
    "fdfd.monitors.measure": "fdfd.monitors.measure_pct",
    "invdes.adjoint.evaluate": "invdes.adjoint.evaluate_pct",
    "invdes.adjoint.adjoint": "invdes.adjoint.adjoint_pct",
    "invdes.adjoint.gradient": "invdes.adjoint.gradient_pct",
    "invdes.optimizer.step_self": "invdes.optimizer.step_self_pct",
    "data.labels.extract": "data.labels.extract_pct",
    "data.shards.write": "data.shards.write_pct",
    "data.shards.read": "data.shards.read_pct",
    "data.loader.batch": "data.loader.batch_pct",
    "train.forward": "train.forward_pct",
    "train.backward": "train.backward_pct",
    "train.optim": "train.optim_pct",
    "surrogate.promote": "surrogate.promote_pct",
    "surrogate.predict": "surrogate.predict_pct",
}


def per_layer(tracer, traced, untraced) -> dict:
    from tracer import self_times

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    times = self_times(tracer.spans)
    counters, work = tracer.counters, traced.counters
    wall, items = traced.wall, traced.rate_count
    metrics = {metric: (100.0 * ratio(times.get(name, 0.0), wall), "%") for name, metric in SHARE_METRICS.items()}

    # The task fabric's cost is the worker-slot time not spent running shards:
    # pool start-up, pickling, result transport and idle slots.
    slot = counters.get("utils.executor.slot_seconds", 0.0)
    shard_busy = sum(span[5] - span[4] for span in tracer.spans if span[3] == "data.shards.run_shard")
    metrics["utils.executor.overhead_pct"] = (100.0 * ratio(slot - shard_busy, wall), "%")
    metrics["utils.executor.busy_ratio"] = (ratio(shard_busy, slot), "ratio")
    metrics["utils.executor.retries"] = (counters.get("utils.executor.retries", 0.0), "count")

    # A served request waits from submit until the engine call that serves it
    # starts; that call lasts as long as its batch's solve, exact or neural.
    queue_wait = 0.0
    if work.get("requests") and traced.latencies:
        mean_latency = statistics.fmean(traced.latencies)
        in_engine = ratio(
            sum(counters.get(f"{engine}.rhs_seconds", 0.0) for engine in ("fdfd.engine", "surrogate")),
            sum(counters.get(f"{engine}.rhs", 0.0) for engine in ("fdfd.engine", "surrogate")),
        )
        queue_wait = 100.0 * (mean_latency - in_engine) / mean_latency
    metrics["service.queue_wait_pct"] = (queue_wait, "%")
    metrics["service.rhs_per_batch"] = (ratio(work.get("rhs_in", 0), work.get("batches", 0)), "count")

    metrics["fdfd.engine.factorizations"] = (ratio(counters.get("fdfd.engine.factorizations", 0.0), items), "1/item")
    metrics["fdfd.engine.cache_hit_ratio"] = (
        ratio(counters.get("fdfd.engine.cache_hits", 0.0), counters.get("fdfd.engine.cache_calls", 0.0)),
        "ratio",
    )
    metrics["fdfd.engine.rhs_per_call"] = (
        ratio(counters.get("fdfd.engine.rhs", 0.0), counters.get("fdfd.engine.solve_calls", 0.0)),
        "count",
    )
    metrics["fdfd.engine.refinement_sweeps"] = (ratio(work.get("refinement_sweeps", 0), items), "1/item")
    metrics["fdfd.engine.recycled_solves"] = (ratio(work.get("recycled_solves", 0), items), "1/item")
    metrics["fdfd.engine.factor_mb"] = (tracer.peak_factor_bytes / 1e6, "MB")
    metrics["data.shards.write_mb"] = (ratio(counters.get("data.shards.write_bytes", 0.0), items) / 1e6, "MB/item")
    metrics["data.loader.shard_hit_ratio"] = (
        ratio(work.get("cache_hits", 0), work.get("cache_hits", 0) + work.get("shard_loads", 0)),
        "ratio",
    )
    metrics["trace.overhead_pct"] = (100.0 * (ratio(rate(untraced), rate(traced)) - 1.0), "%")
    return metrics, times


def traced_windows(workload, seconds: float, tracer):
    """Alternate untraced and traced windows until ``seconds`` have passed.

    Windows come in pairs whose order flips from pair to pair (untraced
    first, then traced first) and the run ends after an even number of
    pairs, so warm-up and drift of the host fall on both sides alike and the
    overhead is read from paired rates.  Returns the untraced and the traced
    windows, each merged into one.
    """
    from tracer import install
    from workloads import Window

    untraced, traced = Window(), Window()
    start = time.perf_counter()
    pair = 0
    while pair % 2 or time.perf_counter() - start < seconds:
        for with_probes in (False, True) if pair % 2 == 0 else (True, False):
            if not with_probes:
                untraced.merge(workload.run(workload.trace_slice))
                continue
            probes = install(tracer)
            try:
                traced.merge(workload.run(workload.trace_slice))
            finally:
                probes.remove()
        pair += 1
    return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return measure(args, workload_cls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workload_cls, workdir: Path) -> int:
    env = environment()
    setup_seconds = []
    if not args.trace:
        # Forked copies start from this process's cold state, so every
        # repeat pays the full set-up; the last one is kept and measured.
        for repeat in range(workload_cls.setup_repeats - 1):
            setup_seconds.append(forked_setup_seconds(workload_cls, args.seed, workdir / f"setup-{repeat}"))
    workload = workload_cls(args.seed, workdir / "run")
    start = time.perf_counter()
    workload.setup()
    setup_seconds.append(time.perf_counter() - start)
    try:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(workdir / "spans")
            tracer.trace_dir.mkdir()
            untraced, traced = traced_windows(workload, args.seconds, tracer)
            worker_files = tracer.collect_children()
            windows = (untraced, traced)
            metrics, times = per_layer(tracer, traced, untraced)
        else:
            windows = (workload.run(args.seconds),)
            metrics = end_to_end(windows[0], setup_seconds)
        checks = workload.check()
    finally:
        workload.close()

    attempted = sum(window.attempted for window in windows)
    failed = sum(window.failed for window in windows)
    correct = all(ok for _, ok, _ in checks)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  setup runs (s): {', '.join(f'{s:.3f}' for s in setup_seconds)}")
    for label, window in zip(("untraced", "traced") if args.trace else ("measured",), windows):
        item = workload.item
        print(
            f"  {label} window: {window.attempted} attempted, {window.failed} failed, wall {window.wall:.2f} s; "
            f"{workload.rate_name} {rate(window):.4f} 1/s; "
            f"{item}_p50_ms {percentile_ms(window.latencies, 50):.3f} ms, "
            f"{item}_p95_ms {percentile_ms(window.latencies, 95):.3f} ms ({len(window.latencies)} samples); "
            f"program counters {window.counters}"
        )
    print(f"  error_rate: {failed / max(attempted, 1):.6f} (failed / attempted)")
    if args.trace:
        print(f"  traced spans: {len(tracer.spans)} ({worker_files} worker span files)")
        print("  self time by span (s, traced window; the parent's execute_tasks includes waiting):")
        for name, seconds in sorted(times.items(), key=lambda item: -item[1]):
            print(f"    {name:32s} {seconds:9.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for name, ok, detail in checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name} ({detail})")

    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
