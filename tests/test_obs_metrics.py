"""Metrics export + telemetry extension tests."""

from types import SimpleNamespace

import pytest

from repro.inject.outcome import TrialOutcome
from repro.obs import render_openmetrics
from repro.runner.journal import metrics_path, prom_path, write_metrics
from repro.runner.telemetry import Telemetry


def _fake_trial(outcome=TrialOutcome.GRAY):
    return SimpleNamespace(outcome=outcome)


def _telemetry(total=8, ticks=None):
    if ticks is None:
        ticks = [float(i) for i in range(64)]
    supply = iter(ticks)
    return Telemetry(total=total, clock=lambda: next(supply))


def test_worker_latency_percentiles():
    telemetry = _telemetry(ticks=[0.0, 1.0, 2.0, 4.0, 8.0, 100.0])
    for _ in range(4):
        telemetry.record_trial(_fake_trial(), worker_id=3)
    stats = telemetry.snapshot().worker_latency["3"]
    # Inter-completion latencies: 1, 1, 2, 4 seconds.
    assert stats["count"] == 4
    assert stats["p50"] == pytest.approx(1.5)
    assert stats["p99"] == pytest.approx(4.0, abs=0.1)
    assert stats["p50"] <= stats["p90"] <= stats["p99"]


def test_latency_tracked_per_worker():
    telemetry = _telemetry()
    telemetry.record_trial(_fake_trial(), worker_id=0)
    telemetry.record_trial(_fake_trial(), worker_id=1)
    latency = telemetry.snapshot().worker_latency
    assert set(latency) == {"0", "1"}
    assert all(stats["count"] == 1 for stats in latency.values())


def test_outcome_history_over_time():
    telemetry = _telemetry(total=4)
    for outcome in (TrialOutcome.GRAY, TrialOutcome.SDC,
                    TrialOutcome.MICRO_MATCH):
        telemetry.record_trial(_fake_trial(outcome))
    history = telemetry.snapshot().history
    assert len(history) == 3  # stride 1 at this scale
    assert [entry["done"] for entry in history] == [1, 2, 3]
    assert history[-1]["outcome_counts"][TrialOutcome.SDC.value] == 1
    # Snapshots round-trip to plain JSON types.
    as_dict = telemetry.snapshot().to_dict()
    assert as_dict["history"][0]["done"] == 1
    assert as_dict["worker_latency"]["0"]["count"] == 3


def test_eta_placeholder_before_rate_exists():
    telemetry = _telemetry(total=10)
    snapshot = telemetry.snapshot()
    assert snapshot.eta_seconds is None
    assert "ETA --:--" in snapshot.render()
    assert "None" not in snapshot.render()


def test_openmetrics_rendering():
    telemetry = _telemetry(total=4)
    telemetry.record_trial(_fake_trial(TrialOutcome.SDC), worker_id=2)
    telemetry.set_workers(1, 2)
    text = render_openmetrics(telemetry.snapshot().to_dict())
    assert text.endswith("# EOF\n")
    assert "repro_trials_total 4" in text
    assert 'repro_outcome_trials{outcome="sdc"} 1' in text
    assert 'repro_worker_trial_latency_seconds{quantile="0.5",worker="2"}' \
        in text
    assert 'repro_worker_trials{worker="2"} 1' in text
    assert "# TYPE repro_trials_done gauge" in text
    assert "repro_build_info{" in text
    assert 'journal_schema="2"' in text


def test_openmetrics_monotonic_counters_without_aliases():
    """Monotonic samples are counters named *_total; the pre-rename
    gauge aliases are gone."""
    text = render_openmetrics({"retried": 3, "io_retries": 2,
                               "fabric": {"steals": 1}})
    for family in ("repro_trials_retried", "repro_io_retries",
                   "repro_harness_errors", "repro_cache_quarantined",
                   "repro_fabric_steals", "repro_fabric_leases_granted",
                   "repro_fabric_duplicate_completions"):
        assert "# TYPE %s_total counter" % family in text
        assert "# TYPE %s gauge" % family not in text
        assert "\n%s " % family not in text
    assert "DEPRECATED" not in text
    assert "repro_trials_retried_total 3" in text
    assert "repro_fabric_steals_total 1" in text


def test_openmetrics_omits_unmeasurable_eta():
    text = render_openmetrics({"total": 10, "eta_seconds": None})
    assert "repro_eta_seconds" not in text
    assert "repro_trials_total 10" in text
    # A measurable ETA is exported.
    text = render_openmetrics({"eta_seconds": 12.5})
    assert "repro_eta_seconds 12.5" in text


def test_openmetrics_escapes_labels():
    text = render_openmetrics({
        "outcome_counts": {'we"ird\\label': 1},
    })
    assert 'outcome="we\\"ird\\\\label"' in text


def test_write_metrics_writes_json_and_prom(tmp_path):
    directory = str(tmp_path)
    telemetry = _telemetry(total=2)
    telemetry.record_trial(_fake_trial())
    write_metrics(directory, telemetry.snapshot().to_dict())
    import json
    with open(metrics_path(directory)) as handle:
        snapshot = json.load(handle)
    assert snapshot["done"] == 1
    with open(prom_path(directory)) as handle:
        prom = handle.read()
    assert prom.endswith("# EOF\n")
    assert "repro_trials_done 1" in prom
