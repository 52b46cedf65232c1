"""The benchmark workloads: one per MAPS workflow.

Every workload draws its inputs from the seed it is given, prepares its state
in ``setup``, runs whole units of work in ``run`` until the time is up, and
checks its outputs in ``check`` against solves it makes itself.  Units of work
that raise, time out or come back missing count as failed.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.constants import wavelength_to_omega
from repro.data.generator import DatasetGenerator, GeneratorConfig, ShardExecutionError
from repro.data.loader import ShardDataLoader
from repro.data.shards import load_shard
from repro.devices.factory import make_device
from repro.fdfd.engine import DirectEngine, FactorizationCache, RecycledEngine
from repro.fdfd.simulation import clear_result_cache
from repro.invdes import AdjointOptimizer, InverseDesignProblem
from repro.service import SolveService
from repro.surrogate import CheckpointMeta, dataset_fingerprint, promote_to_engine, save_checkpoint
from repro.train import Trainer, make_model


@dataclass
class Window:
    """What one measured window did."""

    attempted: int = 0
    failed: int = 0
    #: Headline rate = rate_count / rate_seconds (items per second).
    rate_count: float = 0.0
    rate_seconds: float = 0.0
    #: Latency of every completed item, in seconds.
    latencies: list = field(default_factory=list)
    wall: float = 0.0
    #: The program's own counters over the window (engine, loader, service stats).
    counters: dict = field(default_factory=dict)

    def merge(self, other: "Window") -> None:
        """Add another window's work to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.rate_count += other.rate_count
        self.rate_seconds += other.rate_seconds
        self.latencies.extend(other.latencies)
        self.wall += other.wall
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def fail(self, count: int = 1, error: BaseException | None = None) -> None:
        self.failed += count
        if error is not None and self.failed <= 3:
            traceback.print_exception(error)


def units(seconds: float):
    """Yield once per unit of work while the window is not over.

    Units are not cut short, so the window ends at the unit boundary nearest
    to ``seconds``: a new unit starts only if at least half of one fits.
    """
    start = last = time.perf_counter()
    while True:
        yield
        now = time.perf_counter()
        if now - start + (now - last) / 2 >= seconds:
            return
        last = now


#: ``ServiceStats`` fields a serving window reports as program counters.
SERVICE_COUNTERS = ("requests", "rhs_in", "batches", "coalesced_rhs")


def _relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(value - reference) / max(np.linalg.norm(reference), 1e-300))


class Workload:
    name = ""
    #: Name of the headline rate and of the unit of work, for the report.
    rate_name = ""
    item = ""
    #: Set-ups timed per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Length of each alternating window of a traced run; 0 means one unit.
    trace_slice = 0.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(self.seed)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Window:
        raise NotImplementedError

    def check(self) -> list[tuple[str, bool, str]]:
        raise NotImplementedError

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------- #
# MAPS-Data: gradient labels at dl=0.02 (260 x 260 grid)
# --------------------------------------------------------------------------- #
class Labels(Workload):
    """``DatasetGenerator.generate`` of forward + adjoint labels for random designs.

    Each call labels ``designs_per_call`` fresh designs, one design per shard,
    and writes the shards to the work directory.
    """

    rate_name = "labels_per_s"
    item = "label"
    workers = 1
    designs_per_call = 1
    warm_up = True

    def setup(self) -> None:
        self.shard_dir = self.workdir / "shards"
        self.config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=self.designs_per_call,
            with_gradient=True,
            device_kwargs=dict(dl=0.02),
            workers=self.workers,
            shard_size=1,
            shard_dir=str(self.shard_dir),
            seed=self.seed * 10_000,
        )
        self.calls = 0
        if self.warm_up:
            # The first label of a process builds operator templates and the
            # port normalization; every later label reuses them.
            self._generate()

    def _generate(self):
        self.calls += 1
        return DatasetGenerator(replace(self.config, seed=self.config.seed + self.calls)).generate()

    def run(self, seconds: float) -> Window:
        window = Window()
        start = time.perf_counter()
        for _ in units(seconds):
            call_start = time.perf_counter()
            window.attempted += self.designs_per_call
            try:
                dataset = self._generate()
            except ShardExecutionError as error:
                window.fail(len(error.shard_failures), error)
                continue
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                window.fail(self.designs_per_call, error)
                continue
            elapsed = time.perf_counter() - call_start
            done = len(dataset)
            window.fail(self.designs_per_call - done)
            window.rate_count += done
            window.latencies.extend([elapsed / max(done, 1)] * done)
        window.wall = window.rate_seconds = time.perf_counter() - start
        return window

    def check(self):
        shards = sorted(self.shard_dir.glob("shard_*.npz"))
        if not shards:
            return [("label matches a direct Simulation solve", False, "no shard written")]
        labels, _ = load_shard(shards[int(self.rng.integers(len(shards)))])
        label = labels[0]
        device = make_device("bending", dl=0.02)
        spec = device.specs[label.spec_index]
        clear_result_cache()
        sim = device.simulation(label.density, engine=DirectEngine(cache=FactorizationCache()))
        result = sim.solve(
            source_port=spec.source_port,
            mode_index=spec.source_mode,
            monitor_ports=spec.monitored_ports(),
        )
        field_error = _relative_error(label.ez, result.ez)
        transmission_error = max(
            abs(label.transmissions[port] - value) for port, value in result.transmissions.items()
        )
        ok = field_error <= 1e-8 and transmission_error <= 1e-8
        detail = f"|dEz|/|Ez| = {field_error:.2e}, max |dT| = {transmission_error:.2e}"
        return [("label matches a direct Simulation solve", ok, detail)]


class LabelsSerial(Labels):
    """MAPS-Data in one process: the steady configuration of label generation."""

    name = "labels-serial"


class LabelsSharded(Labels):
    """MAPS-Data over two forked workers with the thread environment as found.

    Each worker's BLAS threads compete with the other worker's on the same
    cores; this workload is where that oversubscription shows.  Workers are
    forked per call from a parent that has solved nothing, so every call pays
    cold per-worker caches.
    """

    name = "labels-sharded"
    workers = 2
    designs_per_call = 2
    warm_up = False


# --------------------------------------------------------------------------- #
# MAPS-InvDes: adjoint optimization with the recycled engine
# --------------------------------------------------------------------------- #
class InvdesRecycled(Workload):
    """Adam optimization of ``bending`` at dl=0.02 with ``engine="recycled"``.

    Each optimization runs 16 steps from the waveguide initialization plus a
    seeded perturbation, on a fresh engine.  From the unperturbed start the
    trajectory is deterministic: FoM 0.57541 after 16 steps.
    """

    name = "invdes-recycled"
    rate_name = "iters_per_s"
    item = "iteration"
    iterations = 16
    learning_rate = 0.02

    def setup(self) -> None:
        self.device = make_device("bending", dl=0.02)
        # The first evaluation of a process solves the port normalization;
        # every optimization after it reuses the result.
        problem = InverseDesignProblem(self.device, engine=RecycledEngine(cache=FactorizationCache()))
        problem.evaluate(problem.initial_theta("waveguide"), compute_gradient=False)
        self.theta_base = problem.initial_theta("waveguide")
        self.last = None

    def run(self, seconds: float) -> Window:
        window = Window()
        stats = {"factorizations": 0, "recycled_solves": 0, "refinement_sweeps": 0}
        start = time.perf_counter()
        for _ in units(seconds):
            engine = RecycledEngine(cache=FactorizationCache())
            problem = InverseDesignProblem(self.device, engine=engine)
            theta0 = self.theta_base + 0.05 * self.rng.standard_normal(self.theta_base.shape)
            marks = [time.perf_counter()]

            def step(iteration, evaluation):
                now = time.perf_counter()
                window.latencies.append(now - marks[-1])
                marks.append(now)

            window.attempted += self.iterations
            try:
                trajectory = AdjointOptimizer(problem, learning_rate=self.learning_rate).run(
                    theta0=theta0, iterations=self.iterations, callback=step
                )
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                window.fail(self.iterations - (len(marks) - 1), error)
                continue
            window.rate_count += self.iterations
            stats["factorizations"] += engine.stats.factorizations
            stats["recycled_solves"] += engine.stats.recycled_solves
            stats["refinement_sweeps"] += engine.stats.krylov_iterations
            self.last = (problem, trajectory[-1])
        window.wall = window.rate_seconds = time.perf_counter() - start
        window.counters.update(stats)
        return window

    def check(self):
        if self.last is None:
            return [("optimization completed", False, "no optimization finished")]
        problem, final = self.last
        clear_result_cache()
        direct = InverseDesignProblem(self.device, engine=DirectEngine(cache=FactorizationCache()))
        exact = direct.evaluate(final.theta, compute_gradient=True)
        recycled = problem.evaluate(final.theta, compute_gradient=True)
        fom_error = abs(final.fom - exact.fom) / abs(exact.fom)
        a, b = recycled.grad_theta.ravel(), exact.grad_theta.ravel()
        cosine = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        # The recycled engine converges each solve to a 1e-6 relative
        # residual and the FoM is quadratic in the field, so perturbed starts
        # land a little above 1e-6 (1.3e-6 measured); 1e-5 leaves headroom.
        return [
            ("final FoM matches a fresh direct engine", fom_error <= 1e-5,
             f"FoM {final.fom:.6f} vs {exact.fom:.6f}, relative error {fom_error:.2e}"),
            ("gradient cosine against direct >= 0.999", cosine >= 0.999, f"cosine {cosine:.6f}"),
        ]


# --------------------------------------------------------------------------- #
# serving: closed loop of blocking clients on a hot set of four designs
# --------------------------------------------------------------------------- #
class ServeHot(Workload):
    """Two client threads, each waiting for its reply before the next request.

    Requests are random point sources on four ``bending`` designs at dl=0.03
    (173 x 173); the designs are factorized during set-up, so every timed
    request hits the factorization cache.
    """

    name = "serve-hot"
    rate_name = "serve_rps"
    item = "request"
    clients = 2
    designs = 4
    timeout = 30.0
    samples_per_client = 4
    # Set-up is four factorizations, short enough that host noise moves a
    # single one by a quarter; seven set-ups steady the median.
    setup_repeats = 7
    trace_slice = 1.0

    def setup(self) -> None:
        device = make_device("bending", dl=0.03)
        self.grid = device.grid
        self.omega = wavelength_to_omega(device.specs[0].wavelength)
        self.eps = [
            device.eps_with_design(self.rng.random(device.design_shape)) for _ in range(self.designs)
        ]
        npml = self.grid.npml
        self.interior = (npml, self.grid.nx - npml, npml, self.grid.ny - npml)
        self.service = SolveService(engine=DirectEngine(cache=FactorizationCache()))
        for eps in self.eps:
            self.service.solve(self.grid, self.omega, eps, self._point_source(self.rng))
        self.samples: list[tuple[int, np.ndarray, np.ndarray]] = []
        self.windows = 0

    def _point_source(self, rng) -> np.ndarray:
        x0, x1, y0, y1 = self.interior
        rhs = np.zeros(self.grid.shape, dtype=complex)
        rhs[rng.integers(x0, x1), rng.integers(y0, y1)] = 1j * self.omega
        return rhs

    def run(self, seconds: float) -> Window:
        window = Window()
        self.windows += 1
        lock = threading.Lock()
        before = self.service.stats.as_dict()
        deadline = time.perf_counter() + seconds

        def client(index: int) -> None:
            rng = np.random.default_rng([self.seed, self.windows, index])
            latencies, failed, attempted, kept = [], 0, 0, []
            while time.perf_counter() < deadline:
                design = int(rng.integers(self.designs))
                rhs = self._point_source(rng)
                attempted += 1
                sent = time.perf_counter()
                try:
                    reply = self.service.submit(self.grid, self.omega, self.eps[design], rhs).result(
                        timeout=self.timeout
                    )
                except Exception as error:  # noqa: BLE001 - counted, the client goes on
                    failed += 1
                    if failed <= 3:
                        traceback.print_exception(error)
                    continue
                latencies.append(time.perf_counter() - sent)
                if len(kept) < self.samples_per_client and rng.random() < 0.05:
                    kept.append((design, rhs, reply))
            with lock:
                window.latencies.extend(latencies)
                window.attempted += attempted
                window.failed += failed
                self.samples.extend(kept)

        start = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.wall = window.rate_seconds = time.perf_counter() - start
        window.rate_count = len(window.latencies)
        after = self.service.stats.as_dict()
        window.counters.update({key: after[key] - before[key] for key in SERVICE_COUNTERS})
        return window

    def check(self):
        if not self.samples:
            return [("sampled replies match DirectEngine.solve_batch", False, "no reply sampled")]
        reference = DirectEngine(cache=FactorizationCache())
        worst = max(
            _relative_error(reply, reference.solve_batch(self.grid, self.omega, self.eps[design], rhs[None])[0])
            for design, rhs, reply in self.samples
        )
        return [(
            "sampled replies match DirectEngine.solve_batch",
            worst <= 1e-9,
            f"{len(self.samples)} replies, worst relative error {worst:.2e}",
        )]

    def close(self) -> None:
        self.service.close()


# --------------------------------------------------------------------------- #
# MAPS-Train: stream shards, train, promote, serve the surrogate
# --------------------------------------------------------------------------- #
class SurrogateLoop(Workload):
    """Train an FNO from streamed two-fidelity shards, promote it, serve it.

    Set-up labels 16 designs at two fidelities (iterative and direct solves on
    the dl=0.1 grid) into shards.  Each timed cycle streams them through
    ``ShardDataLoader``, trains a fresh FNO, saves and promotes its
    checkpoint, and serves single-design solves of the promoted neural engine
    through a ``SolveService`` that lives as long as the workload, one
    blocking request at a time.
    """

    name = "surrogate-loop"
    rate_name = "train_samples_per_s"
    item = "neural"
    designs = 16
    epochs = 3
    solves_per_cycle = 200
    # The repository's default ("fast") benchmark scale in
    # ``benchmarks/common.py``: the model the trainer and checkpoint docs
    # use, trained with its batch size.
    model_kwargs = dict(width=16, modes=(6, 6), depth=3)
    batch_size = 6
    timeout = 30.0
    # Set-up takes about 1 s and the host switches speed modes for seconds
    # at a time; the median of three moved by 30% between two sets of seeds.
    setup_repeats = 7

    def setup(self) -> None:
        self.shard_dir = self.workdir / "shards"
        DatasetGenerator(
            GeneratorConfig(
                device_name="bending",
                strategy="random",
                num_designs=self.designs,
                fidelities=("low", "high"),
                with_gradient=False,
                device_kwargs=dict(dl=0.1),
                engine={"low": "iterative", "high": "direct"},
                shard_size=4,
                shard_dir=str(self.shard_dir),
                seed=self.seed,
            )
        ).generate()
        self.device = make_device("bending", dl=0.1)
        self.omega = wavelength_to_omega(self.device.specs[0].wavelength)
        sim = self.device.simulation(np.full(self.device.design_shape, 0.5))
        # The port cross-section lies outside the design region, so one mode
        # source serves every design.
        self.rhs = (1j * self.omega * sim.mode_source(self.device.specs[0].source_port))[None]
        self.service = SolveService()
        self.cycles = 0
        self.losses: list[tuple[float, float]] = []
        self.nonfinite = 0

    def run(self, seconds: float) -> Window:
        window = Window()
        loader_stats = {"shard_loads": 0, "cache_hits": 0}
        before = self.service.stats.as_dict()
        start = time.perf_counter()
        for _ in units(seconds):
            self.cycles += 1
            loader = ShardDataLoader.from_directory(self.shard_dir, fidelities=("low", "high"))
            model = make_model("fno", rng=self.seed * 1000 + self.cycles, **self.model_kwargs)
            trainer = Trainer(model, data=loader, epochs=self.epochs, batch_size=self.batch_size, seed=self.cycles)
            samples = len(loader) * self.epochs
            window.attempted += samples
            train_start = time.perf_counter()
            try:
                history = trainer.train()
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                window.fail(samples, error)
                continue
            window.rate_seconds += time.perf_counter() - train_start
            window.rate_count += samples
            loss = history.curve("train_loss")
            self.losses.append((float(loss[0]), float(loss[-1])))
            for key in loader_stats:
                loader_stats[key] += getattr(loader.stats, key)

            path = self.workdir / "surrogate.npz"
            meta = CheckpointMeta(
                model_name="fno",
                model_kwargs=dict(self.model_kwargs),
                field_scale=loader.field_scale,
                dataset_fingerprint=dataset_fingerprint(loader),
            )
            engine = promote_to_engine(save_checkpoint(path, model, meta))

            window.attempted += self.solves_per_cycle
            for _ in range(self.solves_per_cycle):
                eps = self.device.eps_with_design(self.rng.random(self.device.design_shape))
                sent = time.perf_counter()
                try:
                    field_ = self.service.submit(self.device.grid, self.omega, eps, self.rhs, engine=engine).result(
                        timeout=self.timeout
                    )
                except Exception as error:  # noqa: BLE001 - counted, the run goes on
                    window.fail(1, error)
                    continue
                window.latencies.append(time.perf_counter() - sent)
                if not np.isfinite(field_).all():
                    self.nonfinite += 1
                    window.fail(1)
        window.wall = time.perf_counter() - start
        after = self.service.stats.as_dict()
        window.counters.update(loader_stats)
        window.counters.update({key: after[key] - before[key] for key in SERVICE_COUNTERS})
        return window

    def check(self):
        falling = [last < first for first, last in self.losses]
        return [
            ("training loss falls in every cycle", bool(falling) and all(falling),
             ", ".join(f"{first:.3f}->{last:.3f}" for first, last in self.losses)),
            ("neural fields are finite", self.nonfinite == 0, f"{self.nonfinite} non-finite predictions"),
        ]

    def close(self) -> None:
        self.service.close()


WORKLOADS = {
    workload.name: workload
    for workload in (LabelsSerial, LabelsSharded, InvdesRecycled, ServeHot, SurrogateLoop)
}
