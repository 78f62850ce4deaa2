"""Tests for the trace generator."""

import json

import numpy as np
import pytest

from repro.simulate.generator import SimulationConfig, TrafficSimulator
from repro.storage.catalog import DatasetCatalog


class TestConfig:
    def test_small_profile(self):
        sim = TrafficSimulator(SimulationConfig.small())
        assert 40 <= len(sim.network) <= 200

    def test_benchmark_profile(self):
        sim = TrafficSimulator(SimulationConfig.benchmark())
        assert 300 <= len(sim.network) <= 600

    def test_config_roundtrip(self):
        config = SimulationConfig.small(seed=11)
        restored = SimulationConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        )
        assert restored == config

    def test_calendar_matches_month_lengths(self):
        config = SimulationConfig.small()
        assert TrafficSimulator(config).calendar.num_days == sum(
            config.month_lengths
        )


class TestDaySimulation:
    def test_deterministic_per_day(self, small_sim):
        a = small_sim.simulate_day_matrix(3)
        b = small_sim.simulate_day_matrix(3)
        assert np.array_equal(a, b)

    def test_days_differ(self, small_sim):
        a = small_sim.simulate_day_matrix(0)
        b = small_sim.simulate_day_matrix(1)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = TrafficSimulator(SimulationConfig.small(seed=1)).simulate_day_matrix(0)
        b = TrafficSimulator(SimulationConfig.small(seed=2)).simulate_day_matrix(0)
        assert not np.array_equal(a, b)

    def test_matrix_shape(self, small_sim):
        matrix = small_sim.simulate_day_matrix(0)
        assert matrix.shape == (len(small_sim.network), 288)

    def test_severity_bounds(self, small_sim):
        matrix = small_sim.simulate_day_matrix(2)
        assert matrix.min() >= 0.0
        assert matrix.max() <= 5.0

    def test_noise_floor_applied(self, small_sim):
        matrix = small_sim.simulate_day_matrix(2)
        positive = matrix[matrix > 0]
        assert positive.min() >= 0.5

    def test_atypical_fraction_in_paper_range(self, small_sim):
        # Fig. 14 reports ~2.3 % - 4 %; weekdays of the synthetic trace
        # should land in a comparable band
        fracs = [
            float((small_sim.simulate_day_matrix(d) > 0).mean())
            for d in (0, 1, 2, 5, 6)
        ]
        # the small profile is denser than the paper's 2-4 % because the
        # same event population sits on a tenth of the sensors; the
        # benchmark profile (used for the experiments) lands at 3-6 %
        assert all(0.005 < f < 0.16 for f in fracs)

    def test_chunk_covers_all_readings(self, small_sim):
        chunk = small_sim.simulate_day(0)
        assert len(chunk) == len(small_sim.network) * 288

    def test_chunk_windows_absolute(self, small_sim):
        chunk = small_sim.simulate_day(2)
        assert chunk.windows.min() == 2 * 288
        assert chunk.windows.max() == 3 * 288 - 1

    def test_congested_speeds_slower(self, small_sim):
        chunk = small_sim.simulate_day(2)
        mask = chunk.congested >= 4.0
        if mask.any():
            assert chunk.speeds[mask].mean() < chunk.speeds[~mask].mean() - 10


class TestHotspotPopulation:
    def test_dominants_on_first_corridor(self, small_sim):
        dominant = [h for h in small_sim.hotspots if h.extent_sensors >= 8.0]
        assert {h.highway_id for h in dominant} == {0, 1}

    def test_am_pm_split(self, small_sim):
        for h in small_sim.hotspots:
            if h.extent_sensors >= 1.5:  # recurring tiers
                if h.highway_id % 2 == 0:
                    assert h.peak_minute < 12 * 60
                else:
                    assert h.peak_minute > 12 * 60

    def test_tier_hotspots_stay_clear_of_crossings(self, small_sim):
        # a recurring hotspot's capped support must not touch a crossing
        net = small_sim.network
        ns_sensors = [
            s for s in net if net.highways[s.highway_id].name[-1] in "NS"
        ]
        for spec in small_sim.hotspots:
            if spec.reach_cap_sensors > 5 or spec.extent_sensors < 1.5:
                continue  # dominants own their crossings; minors are random
            sensors = net.highway_sensors(spec.highway_id)
            lo = max(0, spec.center_ordinal - spec.reach_cap_sensors - 1)
            hi = min(len(sensors) - 1, spec.center_ordinal + spec.reach_cap_sensors + 1)
            for ordinal in range(lo, hi + 1):
                location = net.location(sensors[ordinal])
                for ns in ns_sensors:
                    assert location.distance_to(ns.location) >= 1.49


class TestMaterialization:
    def test_write_month_and_reopen(self, tmp_path):
        config = SimulationConfig.small()
        config = SimulationConfig.from_dict(
            {**config.to_dict(), "month_lengths": (3, 3)}
        )
        sim = TrafficSimulator(config)
        catalog = sim.materialize_catalog(tmp_path)
        assert len(catalog) == 2
        ds = catalog.dataset(0)
        assert ds.meta.num_days == 3
        assert ds.total_readings() == len(sim.network) * 288 * 3

    def test_stored_matches_generated(self, tmp_path):
        config = SimulationConfig.from_dict(
            {**SimulationConfig.small().to_dict(), "month_lengths": (2,)}
        )
        sim = TrafficSimulator(config)
        catalog = sim.materialize_catalog(tmp_path)
        stored = catalog.dataset(0).read_day(1)
        live = sim.simulate_day(1)
        assert np.array_equal(stored.congested, live.congested)
        assert np.array_equal(stored.sensor_ids, live.sensor_ids)

    def test_simulator_rebuild_from_catalog_dir(self, tmp_path):
        config = SimulationConfig.from_dict(
            {**SimulationConfig.small(seed=9).to_dict(), "month_lengths": (2,)}
        )
        sim = TrafficSimulator(config)
        sim.materialize_catalog(tmp_path)
        rebuilt = TrafficSimulator.from_catalog_dir(tmp_path)
        assert rebuilt.config == config
        assert len(rebuilt.network) == len(sim.network)
