"""CondensedEngine: exact solves through a design-box Schur complement.

The engine factors the operator outside a device's design box once and each
design's condensed box system per permittivity.  These tests pin that it
agrees with the plain LU on every device, that it steps aside wherever the
exterior is not the device background, and that its two cache entries
(``"exterior"`` and ``"condensed"``) behave like every other factorization
under eviction, a cross-process store and thread churn.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.devices import available_devices, make_device
from repro.fdfd.engine import (
    CondensedEngine,
    DirectEngine,
    FactorizationCache,
    default_factorization_cache,
    eps_fingerprint,
)
from repro.invdes.adjoint import NumericalFieldBackend, evaluate_specs
from repro.service import FileFactorizationStore

from tests.helpers.threads import hits_during_churn

DL = 0.05


def _sources(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, *grid.shape)) + 1j * rng.standard_normal(
        (count, *grid.shape)
    )


def _relative(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _tags(cache):
    return sorted(key[3] for key in cache._entries)


@pytest.fixture(scope="module")
def bending():
    return make_device("bending", dl=DL)


def _design(device, seed):
    density = np.random.default_rng(seed).uniform(0.0, 1.0, device.design_shape)
    return device.eps_with_design(density)


class TestAgreement:
    @pytest.mark.parametrize("name", available_devices())
    def test_matches_direct_on_every_device(self, name):
        device = make_device(name, dl=DL)
        cache = FactorizationCache()
        engine = CondensedEngine.for_device(device, cache=cache)
        direct = DirectEngine(cache=FactorizationCache())
        rhs = _sources(device.grid, 2)
        eps_design = _design(device, seed=1)
        for spec in device.specs:
            eps = device.apply_state(eps_design, spec.state)
            omega = constants.wavelength_to_omega(spec.wavelength)
            fields = engine.solve_batch(device.grid, omega, eps, rhs)
            expected = direct.solve_batch(device.grid, omega, eps, rhs)
            assert _relative(fields, expected) <= 1e-10
        # Every state of the zoo edits at most the design box, so each
        # solve went through the condensed path.
        assert "condensed" in _tags(cache) and "direct" not in _tags(cache)

    def test_kerr_fixed_point_matches_direct(self):
        from repro.data.labels import extract_labels_batch
        from repro.fdfd.nonlinear import KerrNonlinearity

        device = make_device("kerr_limiter", dl=DL)
        density = np.random.default_rng(4).uniform(0.3, 0.7, device.design_shape)
        kerr = KerrNonlinearity()
        cache = FactorizationCache()
        condensed = extract_labels_batch(
            device, density, with_gradient=False, nonlinearity=kerr,
            engine=CondensedEngine.for_device(device, cache=cache),
        )
        direct = extract_labels_batch(
            device, density, with_gradient=False, nonlinearity=kerr,
            engine=DirectEngine(cache=FactorizationCache()),
        )
        for got, want in zip(condensed, direct):
            assert _relative(got.ez, want.ez) <= 1e-10
        assert "condensed" in _tags(cache)


class TestFallback:
    def test_normalization_geometry_solves_the_full_operator(self, bending):
        cache = FactorizationCache()
        engine = CondensedEngine.for_device(bending, cache=cache)
        grid = bending.grid
        omega = constants.wavelength_to_omega(bending.wavelengths[0])
        # A straight waveguide along the input port: the exterior differs
        # from the bend's background, as in a normalization run.
        eps = np.full(grid.shape, constants.EPS_SIO2)
        eps[:, grid.ny // 2 - 3 : grid.ny // 2 + 3] = constants.EPS_SI
        rhs = _sources(grid, 1)
        fields = engine.solve_batch(grid, omega, eps, rhs)
        expected = DirectEngine(cache=FactorizationCache()).solve_batch(grid, omega, eps, rhs)
        np.testing.assert_array_equal(fields, expected)
        assert _tags(cache) == ["direct"]

    def test_exterior_postprocess_falls_back(self, bending):
        def drift(eps):
            return eps + 0.01  # touches every cell, the exterior included

        cache = FactorizationCache()
        density = np.random.default_rng(2).uniform(0.0, 1.0, bending.design_shape)
        kwargs = dict(compute_gradient=True, eps_postprocess=drift)
        condensed = evaluate_specs(
            bending, density,
            backend=NumericalFieldBackend(engine=CondensedEngine.for_device(bending, cache=cache)),
            **kwargs,
        )
        direct = evaluate_specs(
            bending, density,
            backend=NumericalFieldBackend(engine=DirectEngine(cache=FactorizationCache())),
            **kwargs,
        )
        for got, want in zip(condensed, direct):
            assert got.objective_value == want.objective_value
            np.testing.assert_array_equal(got.grad_density, want.grad_density)
        assert "condensed" not in _tags(cache) and "exterior" not in _tags(cache)

    def test_exterior_state_falls_back(self, bending):
        class ExteriorHeater(type(bending)):
            def apply_state(self, eps_r, state):
                eps = np.array(eps_r, copy=True)
                eps[:4, :] += state.get("heater", 0.0)
                return eps

        device = ExteriorHeater(dl=DL)
        cache = FactorizationCache()
        engine = CondensedEngine.for_device(device, cache=cache)
        omega = constants.wavelength_to_omega(device.wavelengths[0])
        eps = device.apply_state(_design(device, seed=3), {"heater": 0.5})
        rhs = _sources(device.grid, 1)
        fields = engine.solve_batch(device.grid, omega, eps, rhs)
        expected = DirectEngine(cache=FactorizationCache()).solve_batch(
            device.grid, omega, eps, rhs
        )
        np.testing.assert_array_equal(fields, expected)
        assert _tags(cache) == ["direct"]

    def test_failed_guard_warns_once_and_solves_exactly(self, bending, monkeypatch, caplog):
        from repro.fdfd import engine as engine_module

        monkeypatch.setattr(
            engine_module, "_PROBE_RTOL", dict.fromkeys(engine_module._PROBE_RTOL, 0.0)
        )
        cache = FactorizationCache()
        engine = CondensedEngine.for_device(bending, cache=cache)
        omega = constants.wavelength_to_omega(bending.wavelengths[0])
        rhs = _sources(bending.grid, 2)
        with caplog.at_level("WARNING", logger="repro.fdfd.engine"):
            for seed in (5, 6):
                eps = _design(bending, seed)
                fields = engine.solve_batch(bending.grid, omega, eps, rhs)
                expected = DirectEngine(cache=FactorizationCache()).solve_batch(
                    bending.grid, omega, eps, rhs
                )
                assert _relative(fields, expected) <= 1e-10
        guard = [r for r in caplog.records if "exterior factor" in r.getMessage()]
        assert len(guard) == 1, "the failed exterior is remembered, not rebuilt per design"
        assert _tags(cache) == ["direct", "direct", "exterior"]


class TestCaching:
    def test_set_permittivity_and_evict_drop_the_condensed_entry(self, bending):
        from repro.fdfd import Simulation

        cache = FactorizationCache()
        engine = CondensedEngine.for_device(bending, cache=cache)
        spec = bending.specs[0]
        eps = _design(bending, seed=7)
        sim = Simulation(
            bending.grid, eps, spec.wavelength, bending.geometry.ports, engine=engine
        )
        sim.solve(spec.source_port)
        old = eps_fingerprint(eps)
        assert cache.peek(bending.grid, sim.omega, old, tag="condensed") is not None
        sim.set_permittivity(_design(bending, seed=8))
        assert cache.peek(bending.grid, sim.omega, old, tag="condensed") is None
        assert "exterior" in _tags(cache)  # shared by every design: kept

        new = eps_fingerprint(sim.eps_r)
        sim.solve(spec.source_port)
        assert cache.peek(bending.grid, sim.omega, new, tag="condensed") is not None
        assert cache.evict(bending.grid, sim.omega, new) >= 1
        assert cache.peek(bending.grid, sim.omega, new, tag="condensed") is None

    def test_store_publishes_box_factors_and_declines_the_exterior(self, bending, tmp_path):
        grid = bending.grid
        omega = constants.wavelength_to_omega(bending.wavelengths[0])
        eps = _design(bending, seed=9)
        rhs = _sources(grid, 2)

        store = FileFactorizationStore(tmp_path)
        first = CondensedEngine.for_device(bending, cache=FactorizationCache(store=store))
        fields = first.solve_batch(grid, omega, eps, rhs)
        assert store.stats.publishes == 1  # the box system of this design
        assert store.stats.declined == 1  # the exterior is process-local

        cache = FactorizationCache(store=FileFactorizationStore(tmp_path))
        second = CondensedEngine.for_device(bending, cache=cache)
        mapped = second.solve_batch(grid, omega, eps, rhs)
        assert cache.stats.store_hits == 1
        assert cache.peek(grid, omega, eps_fingerprint(eps), tag="condensed").from_store
        expected = DirectEngine(cache=FactorizationCache()).solve_batch(grid, omega, eps, rhs)
        assert _relative(mapped, expected) <= 1e-10
        assert _relative(fields, expected) <= 1e-10

    def test_thread_churn_on_one_cold_exterior(self, tiny_bend):
        grid = tiny_bend.grid
        omega = constants.wavelength_to_omega(tiny_bend.wavelengths[0])
        cache = FactorizationCache(maxsize=4)
        engine = CondensedEngine.for_device(tiny_bend, cache=cache)
        designs = [_design(tiny_bend, seed) for seed in range(3)]
        rhs = _sources(grid, 1)
        direct = DirectEngine(cache=FactorizationCache())
        expected = [direct.solve_batch(grid, omega, eps, rhs) for eps in designs]

        def hit(index):
            k = index % len(designs)
            fields = engine.solve_batch(grid, omega, designs[k], rhs)
            assert _relative(fields, expected[k]) <= 1e-10

        def churn(index, step):
            # Drop the shared exterior so concurrent solves race its rebuild.
            cache.evict(grid, omega, engine._background, tag="exterior")
            hit(index + step)

        assert hits_during_churn(hit, churn, churn_steps=6, threads=3) == []


class TestGeneratorDefault:
    def test_default_engine_condenses_and_workers_stay_bit_identical(self, tmp_path):
        from repro.data.dataset import datasets_bit_identical

        kwargs = dict(
            device_name="bending",
            strategy="random",
            num_designs=4,
            with_gradient=True,
            seed=5,
            device_kwargs=dict(domain=3.0, design_size=1.4, dl=0.1),
            shard_size=2,
        )
        default_factorization_cache.clear()
        serial = DatasetGenerator(GeneratorConfig(**kwargs, workers=1)).generate()
        assert "condensed" in _tags(default_factorization_cache)
        parallel = DatasetGenerator(GeneratorConfig(**kwargs, workers=2)).generate()
        assert datasets_bit_identical(serial, parallel)
        direct = DatasetGenerator(GeneratorConfig(**kwargs, engine="direct")).generate()
        for got, want in zip(serial.samples, direct.samples):
            assert _relative(got.target, want.target) <= 1e-10
