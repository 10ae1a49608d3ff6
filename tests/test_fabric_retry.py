"""Worker wire-call hardening: bounded, jittered retry-backoff.

The fabric's at-least-once contract only holds if a worker survives
the coordinator *blipping*: a flaky ``/complete`` POST must not throw
away a computed range, a dropped ``/lease`` poll must not kill the
loop, and a missed heartbeat must be skipped, not fatal.  These tests
drive :meth:`FabricWorker._call_retry` against a scripted flaky stub
(monkeypatched over ``repro.fabric.worker.call``) and then run a real
coordinator behind a deterministically flaky transport to show the
campaign still converges byte-for-byte.
"""

import asyncio

import pytest

from oracles import CONFIG_DIGESTS, journal_digest
from repro.errors import FabricError
from repro.fabric import Coordinator, FabricWorker
from repro.fabric.protocol import call as real_call
from repro.inject.campaign import CampaignConfig
from repro.inject.store import campaign_fingerprint, config_to_dict

import repro.fabric.worker as worker_module


class FlakyStub:
    """A scripted ``call`` replacement: fail N times, then answer."""

    def __init__(self, failures, reply=None, error=OSError):
        self.failures = failures
        self.reply = reply if reply is not None else {"ok": True}
        self.error = error
        self.calls = 0

    async def __call__(self, host, port, path, payload, timeout=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error("scripted transport failure %d" % self.calls)
        return dict(self.reply)


def _worker(**overrides):
    options = dict(name="flaky-test", retry_base=0.001, retry_attempts=4)
    options.update(overrides)
    return FabricWorker("127.0.0.1", 1, **options)


def test_call_retry_survives_transient_failures(monkeypatch):
    """Failures below the attempt cap are absorbed; the reply arrives."""
    stub = FlakyStub(failures=3, reply={"disposition": "accepted"})
    monkeypatch.setattr(worker_module, "call", stub)
    reply = asyncio.run(_worker().
                        _call_retry("/complete", {"worker": "w"}))
    assert reply == {"disposition": "accepted"}
    assert stub.calls == 4  # 3 failures + the success


def test_call_retry_exhaustion_raises_fabric_error(monkeypatch):
    """A coordinator that never answers surfaces a bounded FabricError."""
    stub = FlakyStub(failures=10 ** 6)
    monkeypatch.setattr(worker_module, "call", stub)
    with pytest.raises(FabricError, match="after 4 attempts"):
        asyncio.run(_worker()._call_retry("/lease", {"worker": "w"}))
    assert stub.calls == 4  # bounded: exactly retry_attempts calls


def test_call_retry_does_not_retry_coordinator_errors(monkeypatch):
    """A FabricError *reply* is an answer, not an outage: one call."""
    stub = FlakyStub(failures=10 ** 6, error=FabricError)
    monkeypatch.setattr(worker_module, "call", stub)
    with pytest.raises(FabricError, match="scripted transport failure 1"):
        asyncio.run(_worker()._call_retry("/complete", {"worker": "w"}))
    assert stub.calls == 1


def test_backoff_delays_bounded_and_jittered(monkeypatch):
    """Sleeps follow base * 2^k scaled by jitter in [0.5, 1.5)."""
    stub = FlakyStub(failures=3)
    monkeypatch.setattr(worker_module, "call", stub)
    slept = []

    async def fake_sleep(seconds):
        slept.append(seconds)

    monkeypatch.setattr(worker_module.asyncio, "sleep", fake_sleep)
    asyncio.run(_worker(retry_base=0.1)._call_retry("/lease", {}))
    assert len(slept) == 3
    for index, seconds in enumerate(slept):
        base = 0.1 * (2 ** index)
        assert 0.5 * base <= seconds < 1.5 * base


def test_backoff_jitter_is_per_worker_deterministic(monkeypatch):
    """Two same-named workers sleep identically; replayable chaos."""

    def delays():
        stub = FlakyStub(failures=3)
        monkeypatch.setattr(worker_module, "call", stub)
        slept = []

        async def fake_sleep(seconds):
            slept.append(seconds)

        monkeypatch.setattr(worker_module.asyncio, "sleep", fake_sleep)
        asyncio.run(_worker()._call_retry("/lease", {}))
        return slept

    assert delays() == delays()


def test_flaky_coordinator_campaign_converges(tmp_path, monkeypatch):
    """Every 3rd wire call dies in transit; the journal still matches.

    The worker's lease, heartbeat and complete calls all ride the same
    retry helper, so a transport that deterministically drops a third
    of the traffic costs latency, never trials -- the acceptance bar
    stays byte-identity with the committed smoke digest.
    """
    config = CampaignConfig.test()

    counter = {"n": 0}

    async def flaky_call(host, port, path, payload, timeout=None):
        counter["n"] += 1
        if counter["n"] % 3 == 0:
            raise OSError("scripted flaky transport")
        return await real_call(host, port, path, payload)

    monkeypatch.setattr(worker_module, "call", flaky_call)

    async def scenario():
        coord = Coordinator(str(tmp_path / "fabric"), ttl=5.0,
                            shard_size=3)
        port = await coord.start()
        try:
            await call_submit(port, config)
            worker = FabricWorker("127.0.0.1", port, name="blippy",
                                  exit_when_idle=True, poll_interval=0.05,
                                  retry_base=0.005)
            return await worker.run()
        finally:
            await coord.stop()

    async def call_submit(port, cfg):
        await real_call("127.0.0.1", port, "/submit",
                        {"config": config_to_dict(cfg)})

    stats = asyncio.run(scenario())
    assert stats["trials"] == config.total_trials
    fingerprint = campaign_fingerprint(config)
    assert journal_digest(tmp_path / "fabric" / fingerprint[:12]) \
        == CONFIG_DIGESTS["smoke"]


def test_heartbeats_stop_when_their_cancel_is_swallowed(monkeypatch):
    """A lease's heartbeats end with its execution, even when the cancel
    lands just as a heartbeat reply arrives: ``asyncio.wait_for`` before
    Python 3.12 swallows such a cancel, and a loop ended only by the
    cancel would keep the lease alive -- and the worker stuck -- forever.
    """
    beats = []

    async def scenario():
        in_call = asyncio.Event()

        async def swallowing_call(host, port, path, payload, timeout=None):
            in_call.set()
            try:
                await asyncio.sleep(0.05)
            except asyncio.CancelledError:
                pass  # the reply was already in hand
            beats.append(path)
            return {"ok": True}

        async def execute(config, fingerprint, lo, hi):
            await in_call.wait()  # finish while a heartbeat is in flight
            return []

        async def complete(lease, fingerprint, entries):
            return "ok"

        monkeypatch.setattr(worker_module, "call", swallowing_call)
        worker = _worker()
        worker._execute = execute
        worker._complete = complete
        reply = {"lease": {"lease_id": "c:0-3#g1", "campaign": "c",
                           "lo": 0, "hi": 3},
                 "ttl": 0.15, "fingerprint": "f",
                 "config": config_to_dict(CampaignConfig.test())}
        await asyncio.wait_for(worker._serve_lease(reply, 1), 5)

    asyncio.run(scenario())
    assert beats == ["/heartbeat"]
