"""Chaos smoke tests: fault the harness, demand byte-identity anyway.

The acceptance property of ``repro.chaos``: a campaign disturbed by
worker kills, transient I/O errors, a torn journal tail, golden-cache
corruption and a mid-campaign SIGTERM must converge -- across the
crash-resume loop -- to a merged journal whose canonical trial bytes
equal an undisturbed run's, with the incidents visible in telemetry.
"""

import os
import signal

import pytest

from oracles import CONFIG_DIGESTS, journal_digest, matches_digest
from repro.chaos import ChaosEvent, ChaosSchedule, run_chaos_campaign
from repro.errors import CampaignDrained, CampaignError, ConfigError
from repro.inject.campaign import CampaignConfig
from repro.inject.outcome import TrialOutcome
from repro.perf.goldencache import QUARANTINE_DIR
from repro.runner import CampaignRunner, run_campaign
from repro.runner.journal import canonical_trial_bytes, journal_path, read_journal


@pytest.fixture(scope="module")
def config():
    return CampaignConfig.test()


@pytest.fixture(scope="module")
def undisturbed_bytes(tmp_path_factory, config):
    """Canonical journal bytes of a chaos-free reference campaign."""
    directory = str(tmp_path_factory.mktemp("reference") / "campaign")
    run_campaign(config, workers=2, directory=directory)
    assert journal_digest(directory) == CONFIG_DIGESTS["smoke"]
    return canonical_trial_bytes(journal_path(directory))


class _Incidents:
    """Progress hook accumulating telemetry across chaos restarts."""

    def __init__(self):
        self.retried = 0
        self.io_retries = 0
        self.quarantined = 0

    def __call__(self, snapshot):
        self.retried = max(self.retried, snapshot.retried)
        self.io_retries = max(self.io_retries, snapshot.io_retries)
        self.quarantined = max(self.quarantined, snapshot.quarantined)


def test_chaos_torn_campaign_converges_byte_identical(
        tmp_path, config, undisturbed_bytes):
    directory = str(tmp_path / "campaign")
    chaos = ChaosSchedule([
        ChaosEvent("kill", 2),     # SIGKILL a busy worker
        ChaosEvent("io", 3),       # transient EIO on the next appends
        ChaosEvent("tear", 5),     # crash mid-append, torn tail on disk
        ChaosEvent("cache", 6),    # flip a bit of a golden-cache entry
        ChaosEvent("sigterm", 9),  # graceful drain mid-campaign
    ])
    incidents = _Incidents()
    result, restarts = run_chaos_campaign(
        config, directory, chaos, workers=2, batch_size=2,
        progress=incidents)

    assert matches_digest(result)
    assert canonical_trial_bytes(journal_path(directory)) \
        == undisturbed_bytes
    assert chaos.pending == [], \
        "unfired chaos events:\n%s" % chaos.render()
    assert restarts >= 1  # the torn append crashed at least once
    assert incidents.io_retries >= 1  # the EIO appends were retried
    # No `retried` assertion here: when the killed worker's batch
    # results were already queued before the SIGKILL landed, nothing is
    # left to requeue -- the kill still fired (pending == []) and the
    # requeue path is pinned by the worker-death and stall tests.


def test_chaos_stall_is_detected_and_absorbed(tmp_path, config):
    directory = str(tmp_path / "campaign")
    chaos = ChaosSchedule([ChaosEvent("stall", 2)])  # SIGSTOP a worker
    incidents = _Incidents()
    result, _restarts = run_chaos_campaign(
        config, directory, chaos, workers=2, batch_size=2,
        trial_timeout=1.0, progress=incidents)
    assert matches_digest(result)
    assert chaos.pending == []
    assert incidents.retried >= 1  # the stalled worker's units requeued


def test_chaos_schedule_replays_from_the_seed(config):
    spec = "kill:2,tear,io@4,cache"
    first = ChaosSchedule.from_spec(spec, config)
    second = ChaosSchedule.from_spec(spec, config)
    assert [(e.kind, e.at_done) for e in first.events] \
        == [(e.kind, e.at_done) for e in second.events]
    for event in first.events:
        assert 1 <= event.at_done <= config.total_trials
    other_seed = ChaosSchedule.from_spec(
        spec, CampaignConfig.test(seed=config.seed + 1))
    assert [(e.kind, e.at_done) for e in first.events] \
        != [(e.kind, e.at_done) for e in other_seed.events]


def test_seeded_specs_pin_their_events():
    """Both schedules share one token parser; pin what each yields.

    The literal events fix each schedule's RNG namespace, horizon and
    token order, so a seeded chaos run keeps replaying the same faults.
    """
    from repro.fabric.chaos import NetChaosSchedule

    runner = ChaosSchedule.from_spec(
        "kill:2, tear@5,io,,stall:2@7,cache", CampaignConfig.test(),
        total=1000)
    assert [(e.kind, e.at_done) for e in runner.events] == [
        ("tear", 5), ("stall", 7), ("stall", 7), ("io", 196),
        ("kill", 817), ("kill", 832), ("cache", 985)]
    fabric = NetChaosSchedule.from_spec(
        "drop:2, dup:2@3,,partition", seed=2004, horizon=50)
    assert [(e.kind, e.at_lease) for e in fabric.events] == [
        ("drop", 3), ("dup", 3), ("dup", 3), ("drop", 40),
        ("partition", 40)]
    with pytest.raises(ConfigError, match="not a trial count"):
        ChaosSchedule.from_spec("kill@soon", CampaignConfig.test())
    with pytest.raises(ConfigError, match="unknown chaos fault"):
        ChaosSchedule.from_spec("flood", CampaignConfig.test())


def test_chaos_requires_a_campaign_directory(config):
    with pytest.raises(CampaignError, match="campaign directory"):
        run_chaos_campaign(config, None, ChaosSchedule([]))


def test_sigterm_drains_to_a_resumable_journal(tmp_path, config):
    directory = str(tmp_path / "campaign")

    def send_sigterm_at_three(snapshot):
        if snapshot.done == 3:
            os.kill(os.getpid(), signal.SIGTERM)

    with pytest.raises(CampaignDrained) as excinfo:
        run_campaign(config, workers=1, directory=directory,
                     progress=send_sigterm_at_three)
    assert excinfo.value.signal_name == "SIGTERM"
    assert directory in str(excinfo.value)

    contents = read_journal(journal_path(directory))
    assert len(contents.trials) == 3  # drained cleanly after the third
    assert not contents.truncated

    resumed = run_campaign(config, workers=1, directory=directory)
    assert matches_digest(resumed)


def test_poison_unit_is_contained_as_harness_error(tmp_path, config):
    directory = str(tmp_path / "campaign")
    killed = []
    runner = CampaignRunner(config, workers=2, batch_size=3,
                            directory=directory, max_retries=0)

    def kill_one_busy_worker(snapshot):
        if snapshot.fresh >= 1 and not killed and runner.pool is not None:
            busy = [w for w in runner.pool.workers
                    if w.busy and w.alive()]
            if busy:
                os.kill(busy[0].process.pid, signal.SIGKILL)
                killed.append(busy[0].worker_id)

    runner.progress = kill_one_busy_worker
    result = runner.run()  # must NOT raise: containment, not abort
    assert killed, "test never observed a busy worker to kill"
    assert len(result.trials) == config.total_trials
    contained = [t for t in result.trials
                 if t.outcome is TrialOutcome.HARNESS_ERROR]
    assert contained, "the killed batch was not contained"
    for trial in contained:
        assert trial.element_name == "harness"
        assert not trial.outcome.is_failure
        assert not trial.outcome.is_benign
        assert "contained" in trial.detail
    assert runner.telemetry.harness_errors == len(contained)

    # The containment records are journaled and resume cleanly.
    again = run_campaign(config, workers=1, directory=directory)
    assert again.trials == result.trials


def test_poison_unit_aborts_without_containment(tmp_path, config):
    runner = CampaignRunner(config, workers=2, batch_size=3,
                            max_retries=0, contain_poison=False)
    killed = []

    def kill_one_busy_worker(snapshot):
        if snapshot.fresh >= 1 and not killed and runner.pool is not None:
            busy = [w for w in runner.pool.workers
                    if w.busy and w.alive()]
            if busy:
                os.kill(busy[0].process.pid, signal.SIGKILL)
                killed.append(busy[0].worker_id)

    runner.progress = kill_one_busy_worker
    with pytest.raises(CampaignError, match="aborting"):
        runner.run()


def test_cache_corruption_quarantined_and_regenerated(
        tmp_path, config, undisturbed_bytes):
    """Satellite: flip a byte in a golden-cache entry; the rerun must
    quarantine it, regenerate, and journal identically to a cold run."""
    directory = tmp_path / "campaign"
    run_campaign(config, workers=1, directory=str(directory))

    golden = directory / "golden"
    entries = sorted(p for p in golden.iterdir() if p.suffix == ".pkl")
    assert entries, "campaign wrote no golden-cache entries"
    victim = entries[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    victim.write_bytes(bytes(blob))

    # Warm rerun from scratch: only the (corrupt) cache carries over.
    (directory / "journal.jsonl").unlink()
    rerun = run_campaign(config, workers=1, directory=str(directory))
    assert matches_digest(rerun)
    assert canonical_trial_bytes(journal_path(str(directory))) \
        == undisturbed_bytes

    quarantine = golden / QUARANTINE_DIR
    assert quarantine.is_dir()
    assert [p.name for p in quarantine.iterdir()] == [victim.name]
    assert victim.exists(), "the corrupt entry was not regenerated"

    import json
    metrics = json.loads((directory / "metrics.json").read_text())
    assert metrics["quarantined"] == 1
    prom = (directory / "metrics.prom").read_text()
    assert "repro_cache_quarantined_total 1" in prom
