"""Fabric integration tests: coordinator + workers vs the committed digest.

The acceptance bar for the fabric is *byte-identity*: a campaign
distributed over leases and workers -- including under seeded network
chaos with dropped leases, duplicate completions and partitioned
workers -- must journal exactly the trial lines the serial runner
journals, each exactly once.  These tests run a real coordinator and
real workers in one event loop against ``CampaignConfig.test()`` (12
trials) and compare the canonical trial bytes against the smoke digest
of ``tests/oracles.py``.
"""

import asyncio
import json
import shutil

import pytest

from oracles import CONFIG_DIGESTS, journal_digest
from repro.errors import FabricError
from repro.fabric import (
    Coordinator,
    FabricWorker,
    NetChaosSchedule,
    call,
    render_status,
)
from repro.inject.campaign import CampaignConfig
from repro.inject.store import config_to_dict
from repro.runner import run_campaign
from repro.runner.journal import journal_path


@pytest.fixture(scope="module")
def config():
    return CampaignConfig.test()


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory, config):
    directory = tmp_path_factory.mktemp("fabric-serial") / "campaign"
    run_campaign(config, workers=0, directory=str(directory))
    assert journal_digest(directory) == CONFIG_DIGESTS["smoke"]
    return directory


def run_fabric(base_dir, config, workers, ttl=5.0, shard_size=3,
               submit_first=True, tenants=None, extra_configs=()):
    """One coordinator + N workers to completion; returns the status."""

    async def scenario():
        coord = Coordinator(str(base_dir), ttl=ttl, shard_size=shard_size)
        port = await coord.start()
        try:
            if submit_first:
                configs = [config] + list(extra_configs)
                names = tenants or ["default"] * len(configs)
                for tenant, cfg in zip(names, configs):
                    await call("127.0.0.1", port, "/submit",
                               {"tenant": tenant,
                                "config": config_to_dict(cfg)})
            fleet = [
                FabricWorker("127.0.0.1", port, name="w%d" % index,
                             exit_when_idle=True, poll_interval=0.05,
                             chaos=chaos)
                for index, chaos in enumerate(workers)
            ]
            stats = await asyncio.gather(*(w.run() for w in fleet))
            status = await call("127.0.0.1", port, "/status", {})
            return status, stats
        finally:
            await coord.stop()

    return asyncio.run(scenario())


def assert_byte_identical(base_dir, fingerprint):
    assert journal_digest(base_dir / fingerprint[:12]) \
        == CONFIG_DIGESTS["smoke"]


def journal_unit_keys(base_dir, fingerprint):
    path = journal_path(str(base_dir / fingerprint[:12]))
    keys = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") == "trial":
                keys.append(tuple(record["unit"]))
    return keys


def fingerprint_of(config):
    from repro.inject.store import campaign_fingerprint
    return campaign_fingerprint(config)


# -- the smoke: 2 plain workers ------------------------------------------


def test_two_worker_fabric_matches_serial_byte_for_byte(tmp_path, config):
    status, stats = run_fabric(tmp_path, config, workers=[None, None])
    fp = fingerprint_of(config)
    assert status["fabric"]["campaigns_done"] == 1
    assert status["fabric"]["campaigns_active"] == 0
    assert status["done"] == config.total_trials
    assert sum(s["trials"] for s in stats) == config.total_trials
    keys = journal_unit_keys(tmp_path, fp)
    assert len(keys) == len(set(keys)) == config.total_trials
    assert_byte_identical(tmp_path, fp)
    # The status one-liner renders without blowing up and says done.
    assert "campaigns 0 active 1 done" in render_status(status)


# -- the acceptance criterion: chaos, auto-recovery, still identical -----


def test_chaotic_fabric_recovers_and_stays_byte_identical(tmp_path, config):
    # Worker 0 drops its first lease on the floor and duplicates the
    # completion of its second; worker 1 partitions during its first
    # lease (no heartbeats, completes late after the TTL).  The short
    # TTL makes expiry + work stealing fire within the test.
    chaos = [
        NetChaosSchedule.from_spec("drop@1,dup@2", seed=2004),
        NetChaosSchedule.from_spec("partition@1", seed=2004),
    ]
    status, stats = run_fabric(tmp_path, config, workers=chaos,
                               ttl=0.6, shard_size=3)
    fp = fingerprint_of(config)
    fabric = status["fabric"]
    assert fabric["campaigns_done"] == 1
    # The dropped and partitioned leases both expired and were stolen.
    assert fabric["steals"] >= 1
    # The chaotic duplicate POST (and/or the late partition completion)
    # was absorbed idempotently, not double-journaled.
    assert fabric["duplicate_completions"] >= 1
    keys = journal_unit_keys(tmp_path, fp)
    assert len(keys) == len(set(keys)) == config.total_trials
    assert_byte_identical(tmp_path, fp)
    dropped = sum(s["dropped"] for s in stats)
    duplicates = sum(s["duplicates_sent"] for s in stats)
    partitions = sum(s["partitions"] for s in stats)
    assert (dropped, duplicates, partitions) == (1, 1, 1)


# -- resume: a partial journal is honored, not recomputed ----------------


def test_submit_resumes_partial_journal_and_converges(
        tmp_path, config, serial_dir):
    # Seed the campaign directory with the serial journal's header plus
    # its first 4 trial lines: shard 3 -> range (0,3) is fully covered
    # and pre-completed; unit 3 of range (3,6) is re-executed with the
    # rest of its range and deduped on append.
    fp = fingerprint_of(config)
    campaign_dir = tmp_path / fp[:12]
    campaign_dir.mkdir(parents=True)
    serial_lines = journal_path(str(serial_dir))
    with open(serial_lines) as handle:
        lines = handle.readlines()
    with open(journal_path(str(campaign_dir)), "w") as handle:
        handle.writelines(lines[:5])  # header + 4 trials

    async def scenario():
        coord = Coordinator(str(tmp_path), ttl=5.0, shard_size=3)
        port = await coord.start()
        try:
            reply = await call("127.0.0.1", port, "/submit",
                               {"config": config_to_dict(config)})
            worker = FabricWorker("127.0.0.1", port, name="resumer",
                                  exit_when_idle=True, poll_interval=0.05)
            stats = await worker.run()
            return reply, stats
        finally:
            await coord.stop()

    reply, stats = asyncio.run(scenario())
    assert reply["resumed_units"] == 4
    assert reply["ranges"] == 4  # 12 trials / shard 3
    # Only ranges (3,6), (6,9), (9,12) re-executed: 9 trials.
    assert stats["trials"] == 9
    keys = journal_unit_keys(tmp_path, fp)
    assert len(keys) == len(set(keys)) == config.total_trials
    assert_byte_identical(tmp_path, fp)


def test_resume_refuses_foreign_fingerprint(tmp_path, config, serial_dir):
    other = CampaignConfig.test(seed=config.seed + 1)
    campaign_dir = tmp_path / fingerprint_of(other)[:12]
    campaign_dir.mkdir(parents=True)
    # A journal for *config* squatting in *other*'s directory.
    shutil.copy(journal_path(str(serial_dir)),
                journal_path(str(campaign_dir)))

    async def scenario():
        coord = Coordinator(str(tmp_path))
        port = await coord.start()
        try:
            with pytest.raises(FabricError, match="refusing to mix"):
                await call("127.0.0.1", port, "/submit",
                           {"config": config_to_dict(other)})
        finally:
            await coord.stop()

    asyncio.run(scenario())


# -- multi-tenant: two campaigns, fair service, both converge ------------


def test_two_tenants_both_complete(tmp_path, config):
    other = CampaignConfig.test(seed=config.seed + 7)
    status, _stats = run_fabric(
        tmp_path, config, workers=[None, None],
        tenants=["alice", "bob"], extra_configs=[other])
    fabric = status["fabric"]
    assert fabric["campaigns_done"] == 2
    assert fabric["queue_depth"] == {}
    for cfg in (config, other):
        fp = fingerprint_of(cfg)
        keys = journal_unit_keys(tmp_path, fp)
        assert len(keys) == len(set(keys)) == cfg.total_trials
    assert_byte_identical(tmp_path, fingerprint_of(config))


# -- wire-level rejections the lease table must survive ------------------


def test_corrupt_segment_is_rejected_and_the_range_recovers(tmp_path, config):
    async def scenario():
        coord = Coordinator(str(tmp_path), ttl=0.5, shard_size=3)
        port = await coord.start()
        try:
            await call("127.0.0.1", port, "/submit",
                       {"config": config_to_dict(config)})
            granted = await call("127.0.0.1", port, "/lease",
                                 {"worker": "evil"})
            lease = granted["lease"]
            with pytest.raises(FabricError, match="checksum mismatch"):
                await call("127.0.0.1", port, "/complete",
                           {"worker": "evil",
                            "campaign": lease["campaign"],
                            "lease_id": lease["lease_id"],
                            "fingerprint": granted["fingerprint"],
                            "entries": [[["gzip", 0, 0], {}]],
                            "checksum": "00000000"})
            # The range was not completed; an honest worker finishes
            # the campaign once the poisoned lease expires.
            worker = FabricWorker("127.0.0.1", port, name="honest",
                                  exit_when_idle=True, poll_interval=0.05)
            await worker.run()
            return await call("127.0.0.1", port, "/status", {})
        finally:
            await coord.stop()

    status = asyncio.run(scenario())
    assert status["fabric"]["campaigns_done"] == 1
    assert status["fabric"]["steals"] >= 1
    assert_byte_identical(tmp_path, fingerprint_of(config))


def test_submit_is_idempotent_per_fingerprint(tmp_path, config):
    async def scenario():
        coord = Coordinator(str(tmp_path))
        port = await coord.start()
        try:
            first = await call("127.0.0.1", port, "/submit",
                               {"tenant": "alice",
                                "config": config_to_dict(config)})
            second = await call("127.0.0.1", port, "/submit",
                                {"tenant": "bob",
                                 "config": config_to_dict(config)})
            return first, second
        finally:
            await coord.stop()

    first, second = asyncio.run(scenario())
    assert first["campaign"] == second["campaign"]
    assert second["tenant"] == "alice"  # original registration wins
