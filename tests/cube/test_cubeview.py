"""Tests for the CubeView baselines (OC / MC / PR)."""

import numpy as np
import pytest

from repro.cube.cubeview import build_cube_mc, build_cube_oc, preprocess
from repro.spatial.regions import DistrictGrid
from repro.storage.codec import ReadingChunk
from repro.storage.dataset import CPSDataset, CPSDatasetWriter, DatasetMeta
from repro.temporal.hierarchy import Calendar

from tests.conftest import line_network


@pytest.fixture()
def world(tmp_path):
    net = line_network(4, spacing=1.0)
    districts = DistrictGrid(net, cols=2, rows=1)
    calendar = Calendar(month_lengths=(2,), month_names=("m",))
    wpd = 288
    path = tmp_path / "d.cps"
    meta = DatasetMeta("D", 4, 0, 2, 5)
    rng = np.random.default_rng(1)
    with CPSDatasetWriter(path, meta) as writer:
        for day in range(2):
            n = 4 * wpd
            congested = np.zeros(n, dtype=np.float32)
            hot = rng.choice(n, size=30, replace=False)
            congested[hot] = rng.uniform(1, 5, size=30).astype(np.float32)
            writer.append_day(
                ReadingChunk(
                    np.repeat(np.arange(4, dtype=np.int32), wpd),
                    np.tile(
                        np.arange(day * wpd, (day + 1) * wpd, dtype=np.int32), 4
                    ),
                    np.full(n, 60.0, dtype=np.float32),
                    congested,
                )
            )
    return CPSDataset(path), districts, calendar


class TestPreprocess:
    def test_selects_only_atypical(self, world):
        dataset, _, _ = world
        result = preprocess([dataset])
        assert result.report.records_scanned == 2 * 4 * 288
        assert result.report.records_aggregated == 60

    def test_day_subset(self, world):
        dataset, _, _ = world
        result = preprocess([dataset], days=[1])
        assert result.days == [1]

    def test_report_method_name(self, world):
        dataset, _, _ = world
        assert preprocess([dataset]).report.method == "PR"


class TestOCvsMC:
    def test_same_cube_content(self, world):
        # OC aggregates all readings (normal ones contribute 0 severity);
        # MC aggregates the PR output — the cubes must agree exactly
        dataset, districts, calendar = world
        oc_cube, oc_report = build_cube_oc([dataset], districts, calendar)
        pre = preprocess([dataset])
        mc_cube, mc_report = build_cube_mc(pre.batches, districts, calendar)
        assert np.allclose(np.asarray(oc_cube.cells()), np.asarray(mc_cube.cells()))

    def test_oc_scans_everything(self, world):
        dataset, districts, calendar = world
        _, report = build_cube_oc([dataset], districts, calendar)
        assert report.records_scanned == 2 * 4 * 288
        assert report.method == "OC"

    def test_mc_scans_only_atypical(self, world):
        dataset, districts, calendar = world
        pre = preprocess([dataset])
        _, report = build_cube_mc(pre.batches, districts, calendar)
        assert report.records_scanned == 60
        assert report.method == "MC"

    def test_model_bytes_include_sensor_hour_cuboid(self, world):
        # OC materializes the dense sensor x hour aggregates over all
        # readings, so its model dwarfs the district-day severity cube
        dataset, districts, calendar = world
        cube, report = build_cube_oc([dataset], districts, calendar)
        dense = 4 * calendar.num_days * 24 * 16  # sensors x hours x 16 B
        assert report.model_bytes == cube.storage_bytes() + dense
