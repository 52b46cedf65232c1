"""Solver-engine throughput: sequential per-RHS solves vs. batched engines.

The architectural claim of the engine layer is factorize-once/solve-many:
a device with N excitation specs (plus their adjoint and normalization
right-hand sides) should cost one factorization and N cheap back-
substitutions, not N factorizations.  This benchmark measures, across grid
sizes:

* ``sequential`` — the seed behaviour: every right-hand side pays a fresh
  factorization (what independent throwaway solvers per call site did),
* ``direct_batched`` — one :class:`~repro.fdfd.engine.DirectEngine`
  factorization, all RHS stacked into a single multi-RHS solve,
* ``iterative`` — the ILU-preconditioned low-fidelity tier.

A second table compares :class:`~repro.fdfd.engine.CondensedEngine` (the
dataset generator's default: the operator outside the design box factored
once, one box-sized factorization per design) with the plain direct LU on
``bending`` at dl=0.03.  It gates on structure, not time: the fields must
agree to 1e-10 and the per-design factor must hold at most 0.35x the plain
LU's nonzeros.  The factorization-time ratio is printed, not gated.

Run directly (``python benchmarks/bench_engines.py``) or through pytest.
Emits the standard ``BENCH_engines.json`` record.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table, write_bench_record  # noqa: E402

from repro.constants import wavelength_to_omega  # noqa: E402
from repro.devices.factory import make_device  # noqa: E402
from repro.fdfd.engine import (  # noqa: E402
    CondensedEngine,
    DirectEngine,
    FactorizationCache,
    IterativeEngine,
)

NUM_RHS = 6
REPEATS = 3
DOMAINS = (3.0, 4.5)
#: Gates of the condensed-vs-direct row.
CONDENSED_RTOL = 1e-10
CONDENSED_MAX_FILL = 0.35


def _bend_problem(domain: float):
    """A bend device permittivity plus NUM_RHS mode/dipole right-hand sides."""
    device = make_device("bending", fidelity="low", domain=domain, design_size=domain / 2)
    return _point_source_problem(device)


def _point_source_problem(device):
    density = np.clip(
        0.5 + 0.2 * np.random.default_rng(0).normal(size=device.design_shape), 0, 1
    )
    eps = device.eps_with_design(density)
    grid = device.grid
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rng = np.random.default_rng(1)
    rhs = np.zeros((NUM_RHS, *grid.shape), dtype=complex)
    for index in range(NUM_RHS):
        ix = rng.integers(grid.npml + 2, grid.nx - grid.npml - 2)
        iy = rng.integers(grid.npml + 2, grid.ny - grid.npml - 2)
        rhs[index, ix, iy] = 1j * omega
    return grid, omega, eps, rhs


def _time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(domains=DOMAINS, num_rhs=NUM_RHS) -> dict:
    """Time the three solve strategies and return the record dict."""
    results = []
    for domain in domains:
        grid, omega, eps, rhs = _bend_problem(domain)
        rhs = rhs[:num_rhs]

        def sequential():
            # Fresh cache per RHS: every solve pays its own factorization,
            # mimicking the seed's throwaway solver per call site.
            for single in rhs:
                engine = DirectEngine(cache=FactorizationCache())
                engine.solve_batch(grid, omega, eps, single[None])

        def batched():
            DirectEngine(cache=FactorizationCache()).solve_batch(grid, omega, eps, rhs)

        def iterative():
            IterativeEngine(cache=FactorizationCache()).solve_batch(grid, omega, eps, rhs)

        t_seq = _time(sequential)
        t_bat = _time(batched)
        t_itr = _time(iterative)
        results.append(
            {
                "grid": list(grid.shape),
                "n_points": grid.n_points,
                "num_rhs": len(rhs),
                "sequential_s": t_seq,
                "direct_batched_s": t_bat,
                "iterative_s": t_itr,
                "speedup_batched_vs_sequential": t_seq / t_bat,
                "speedup_iterative_vs_sequential": t_seq / t_itr,
            }
        )

    rows = [
        [
            f"{r['grid'][0]}x{r['grid'][1]}",
            r["num_rhs"],
            f"{r['sequential_s'] * 1e3:.1f}",
            f"{r['direct_batched_s'] * 1e3:.1f}",
            f"{r['iterative_s'] * 1e3:.1f}",
            f"{r['speedup_batched_vs_sequential']:.1f}x",
        ]
        for r in results
    ]
    print_table(
        "Engine throughput (6 RHS per operator)",
        ["grid", "#rhs", "seq [ms]", "batched [ms]", "iterative [ms]", "speedup"],
        rows,
    )
    record = {"results": results, "condensed": run_condensed_comparison()}
    path = write_bench_record("engines", record)
    print(f"wrote {path}")
    return record


def run_condensed_comparison(dl: float = 0.03, designs: int = 3) -> dict:
    """Per-design factorization of the condensed engine against the plain LU.

    The exterior factor is built (and timed) once; each of ``designs``
    random designs is then factorized by both engines on private caches.
    """
    device = make_device("bending", dl=dl)
    grid, omega, _, rhs = _point_source_problem(device)
    rhs = rhs[:2]
    condensed = CondensedEngine.for_device(device, cache=FactorizationCache())
    start = time.perf_counter()
    condensed._exterior(grid, omega)
    exterior_s = time.perf_counter() - start
    rng = np.random.default_rng(2)
    condensed_s, direct_s, fill, error = [], [], [], 0.0
    for _ in range(designs):
        eps = device.eps_with_design(rng.uniform(0.0, 1.0, device.design_shape))
        direct = DirectEngine(cache=FactorizationCache())
        start = time.perf_counter()
        box = condensed.factorize(grid, omega, eps)
        condensed_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        full = direct.factorize(grid, omega, eps)
        direct_s.append(time.perf_counter() - start)
        fill.append(box.interior.nnz / full.nnz)
        fields = condensed.solve_batch(grid, omega, eps, rhs)
        expected = direct.solve_batch(grid, omega, eps, rhs)
        error = max(error, float(np.linalg.norm(fields - expected) / np.linalg.norm(expected)))
    result = {
        "grid": list(grid.shape),
        "design_shape": list(device.design_shape),
        "exterior_s": exterior_s,
        "condensed_factorize_s": min(condensed_s),
        "direct_factorize_s": min(direct_s),
        "factorize_speedup": min(direct_s) / min(condensed_s),
        "fill_ratio": max(fill),
        "max_relative_error": error,
    }
    print_table(
        "Condensed vs direct factorization (bending, dl=%g)" % dl,
        ["grid", "box", "exterior [ms]", "condensed [ms]", "direct [ms]", "speedup", "fill",
         "rel err"],
        [[
            f"{grid.nx}x{grid.ny}",
            f"{device.design_shape[0]}x{device.design_shape[1]}",
            f"{exterior_s * 1e3:.0f}",
            f"{result['condensed_factorize_s'] * 1e3:.0f}",
            f"{result['direct_factorize_s'] * 1e3:.0f}",
            f"{result['factorize_speedup']:.1f}x",
            f"{result['fill_ratio']:.2f}",
            f"{error:.1e}",
        ]],
    )
    if error > CONDENSED_RTOL:
        raise AssertionError(
            f"condensed fields differ from direct by {error:.2e} > {CONDENSED_RTOL:g}"
        )
    if result["fill_ratio"] > CONDENSED_MAX_FILL:
        raise AssertionError(
            f"condensed factor holds {result['fill_ratio']:.2f}x the plain LU fill "
            f"> {CONDENSED_MAX_FILL}x"
        )
    return result


def test_batched_direct_engine_speedup():
    """Factorize-once/solve-many beats per-RHS factorization by >= 2x."""
    record = run_benchmark(domains=(3.0,), num_rhs=4)
    speedup = record["results"][0]["speedup_batched_vs_sequential"]
    assert speedup >= 2.0, f"batched speedup only {speedup:.2f}x"


def test_condensed_engine_agrees_with_less_fill():
    """Condensed solves match direct to 1e-10 with <= 0.35x the LU fill."""
    run_condensed_comparison(designs=1)


if __name__ == "__main__":
    run_benchmark()
