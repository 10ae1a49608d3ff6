"""Bench-smoke checks: machine-independent ratios, never wall-clock bars.

A tiny run of the :mod:`repro.perf.bench` micro suite is checked for
ratios that hold on any machine (an O(1) signature read beats a full
recompute, a copy-on-write restore beats a full one), and the golden
cache is checked by counting the recordings it saves.  Campaign
throughput regressions are caught by the ``perfbench/`` benchmark's
bounds, which compare medians of several fresh-process runs.
"""

import os

import pytest

from repro.inject.campaign import CampaignConfig
from repro.perf import bench
from repro.runner import pool
from repro.runner.units import enumerate_units


@pytest.fixture(scope="module")
def metrics():
    return bench.run_bench(reps=2)


def test_signature_read_is_orders_faster_than_full(metrics):
    # The incremental signature is an O(1) read; the full recompute
    # walks every element.  The ratio is machine-independent.
    assert metrics["signature_us"] < metrics["signature_full_us"] / 5


def test_cow_restore_beats_full_restore(metrics):
    assert 0 < metrics["restore_us"] < metrics["restore_full_us"]


def test_warm_golden_cache_beats_cold(tmp_path, monkeypatch):
    # Warm contexts skip warmup, spacing, recording and verification
    # entirely: a second context on the same golden directory records
    # no golden window at all, and still runs the same trials.
    recorded = []
    record_golden = pool.record_golden

    def counting_record_golden(pipeline, checkpoint, *args, **kwargs):
        recorded.append(checkpoint)
        return record_golden(pipeline, checkpoint, *args, **kwargs)

    monkeypatch.setattr(pool, "record_golden", counting_record_golden)
    config = CampaignConfig.test(trials_per_start_point=1)
    units = enumerate_units(config)
    golden_dir = str(tmp_path / "golden")

    cold = pool.WorkerContext(config, golden_dir=golden_dir)
    cold_trials = [cold.run_unit(unit) for unit in units]
    assert len(recorded) == config.start_points_per_workload

    warm = pool.WorkerContext(config, golden_dir=golden_dir)
    warm_trials = [warm.run_unit(unit) for unit in units]
    assert len(recorded) == config.start_points_per_workload
    assert warm_trials == cold_trials


def test_write_and_reload_roundtrip(tmp_path):
    sample = {"cycles_per_sec": 123.4, "signature_us": 5.6}
    path = bench.write_bench(str(tmp_path), "abc1234", sample)
    assert os.path.basename(path) == "BENCH_abc1234.json"
    files = bench.bench_files(str(tmp_path))
    assert len(files) == 1
    assert files[0][1]["metrics"] == sample
    assert files[0][1]["rev"] == "abc1234"
    # The comparison baseline skips the current revision's own file.
    assert bench.load_previous(str(tmp_path), exclude_rev="abc1234") is None
    assert bench.load_previous(str(tmp_path))[1]["rev"] == "abc1234"
