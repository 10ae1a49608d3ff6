"""Fabric worker: executes leased trial ranges with the runner machinery.

A worker is a loop around four wire calls -- lease, heartbeat,
complete, repeat -- wrapped over the *existing* execution machinery:
:class:`repro.runner.pool.WorkerContext` inline (``processes=1``, the
default) or a :class:`repro.runner.pool.WorkerPool` of local processes
(``processes>1``).  Either way each trial's bytes are produced by
exactly the code the serial runner uses, from RNG streams named only
by ``(seed, workload, start_point, trial_index)`` -- which is why any
assignment of ranges to workers, including chaotic reassignment after
steals, converges to the serial run's journal.

Trial execution is CPU-bound synchronous code, so it runs in the
default executor while the event loop keeps the heartbeat task
breathing (the REP007 contract: nothing blocking inside ``async
def``).  Completions are spooled through
:func:`repro.runner.journal.write_segment` before transmission, so a
worker crash after computing a range loses at most the unsent wire
message, never silently corrupts one.

Network chaos (:mod:`repro.fabric.chaos`) hooks three points of the
loop: a granted lease may be *dropped* on the floor, a completion may
be *duplicated*, and a *partitioned* worker suppresses heartbeats and
sits out the lease TTL before completing late.  All are seeded and
replayable; the fabric smoke test drives all three and still demands a
byte-identical journal.
"""

import asyncio
import os
import random
from collections import deque

from repro.errors import CampaignError, FabricError
from repro.fabric.protocol import call, segment_checksum
from repro.inject.campaign import _KINDS
from repro.inject.store import (
    campaign_fingerprint,
    config_from_dict,
    inventory_to_dict,
    trial_to_dict,
)
from repro.runner.journal import segment_header, write_segment
from repro.runner.pool import WorkerContext, WorkerPool
from repro.runner.units import auto_batch_size, batch_units, enumerate_units
from repro.uarch.config import PipelineConfig
from repro.uarch.core import Pipeline
from repro.workloads import get_workload

__all__ = ["FabricWorker"]

# Transport failures tolerated per wire call before the worker gives
# up on the coordinator.  Backoff doubles from ``retry_base`` up to
# ``_RETRY_CAP`` seconds, and every sleep is scaled by a jitter in
# [0.5, 1.5) drawn from a per-worker seeded stream, so a fleet whose
# coordinator blips never thunders back in lockstep.
_MAX_TRANSPORT_FAILURES = 10
_RETRY_CAP = 5.0
# Consecutive empty lease polls before an --exit-when-idle worker stops.
_IDLE_POLLS_BEFORE_EXIT = 3
# A partitioned worker sits out this many TTLs before completing late
# -- comfortably past expiry, so the steal path provably engages.
_PARTITION_TTLS = 1.6


class FabricWorker:
    """One lease-pulling worker process (inline or pool-backed)."""

    def __init__(self, host, port, name=None, processes=1, chaos=None,
                 poll_interval=None, max_leases=None, exit_when_idle=False,
                 spool_dir=None, echo=None, retry_base=0.1,
                 retry_attempts=_MAX_TRANSPORT_FAILURES):
        self.host = host
        self.port = port
        self.name = name or "worker-%d" % os.getpid()
        self.processes = max(1, processes)
        self.chaos = chaos
        self.poll_interval = poll_interval
        self.max_leases = max_leases
        self.exit_when_idle = exit_when_idle
        self.spool_dir = spool_dir
        self.echo = echo
        self.retry_base = retry_base
        self.retry_attempts = max(1, retry_attempts)
        # Jitter only -- never trial bytes -- so a fixed per-worker
        # seed keeps runs replayable without coupling to wall clock.
        self._backoff_rng = random.Random("backoff/%s" % self.name)
        self._contexts = {}  # fingerprint -> WorkerContext (inline path)
        self._pools = {}  # fingerprint -> WorkerPool (processes > 1)
        # fingerprint -> (eligible_bits, inventory, inventory dict)
        self._machine = {}
        self.stats = {"leases": 0, "trials": 0, "dropped": 0,
                      "duplicates_sent": 0, "partitions": 0, "steals_lost": 0}

    # -- main loop ------------------------------------------------------

    async def run(self):
        """Pull and execute leases until idle/limits; returns stats."""
        idle_polls = 0
        lease_number = 0
        try:
            while True:
                if self.max_leases is not None \
                        and self.stats["leases"] >= self.max_leases:
                    break
                reply = await self._call_retry("/lease",
                                               {"worker": self.name})
                lease = reply.get("lease")
                if lease is None:
                    # Only count as idle when no campaign is live at all:
                    # an active campaign with nothing leasable right now
                    # may still re-queue a stolen range this worker must
                    # stay around to pick up.
                    if reply.get("campaigns_active", 0) == 0:
                        idle_polls += 1
                        if self.exit_when_idle \
                                and idle_polls >= _IDLE_POLLS_BEFORE_EXIT:
                            break
                    else:
                        idle_polls = 0
                    await asyncio.sleep(self._pace())
                    continue
                idle_polls = 0
                lease_number += 1
                self.stats["leases"] += 1
                await self._serve_lease(reply, lease_number)
        finally:
            for pool in self._pools.values():
                pool.shutdown()
            self._pools.clear()
        return dict(self.stats)

    def _pace(self):
        if self.poll_interval is not None:
            return self.poll_interval
        return 0.5

    async def _call_retry(self, path, payload, attempts=None):
        """One wire call with bounded, jittered exponential backoff.

        Transport failures (socket errors, timeouts) are retried up to
        ``attempts`` times (default ``retry_attempts``), then surfaced
        as a :class:`~repro.errors.FabricError`.  Coordinator-level
        :class:`~repro.errors.FabricError` replies are *not* retried:
        those are answers (bad checksum, unknown lease), not outages,
        and retrying them can only duplicate work.
        """
        attempts = self.retry_attempts if attempts is None else attempts
        delay = self.retry_base
        for attempt in range(1, attempts + 1):
            try:
                return await call(self.host, self.port, path, payload)
            except (OSError, asyncio.TimeoutError) as error:
                if attempt >= attempts:
                    raise FabricError(
                        "worker %s: %s to coordinator %s:%d failed "
                        "after %d attempts: %s"
                        % (self.name, path, self.host, self.port,
                           attempt, error))
                await asyncio.sleep(
                    delay * (0.5 + self._backoff_rng.random()))
                delay = min(delay * 2.0, _RETRY_CAP)

    def _say(self, text):
        if self.echo is not None:
            self.echo("[%s] %s" % (self.name, text))

    # -- one lease ------------------------------------------------------

    async def _serve_lease(self, reply, lease_number):
        lease = reply["lease"]
        ttl = float(reply.get("ttl") or 30.0)
        chaos = self.chaos
        if chaos is not None and chaos.fire("drop", lease_number):
            # Simulated lost grant: no heartbeat, no work.  The
            # coordinator's expiry sweep re-leases the range.
            self.stats["dropped"] += 1
            self._say("chaos: dropped lease %s" % lease["lease_id"])
            return
        partitioned = chaos is not None \
            and chaos.fire("partition", lease_number)
        if partitioned:
            self.stats["partitions"] += 1
            self._say("chaos: partitioned during lease %s"
                      % lease["lease_id"])
        config = config_from_dict(reply["config"])
        fingerprint = reply.get("fingerprint") \
            or campaign_fingerprint(config)
        heartbeats = None
        executed = asyncio.Event()
        if not partitioned:
            heartbeats = asyncio.ensure_future(
                self._heartbeat_loop(lease, ttl, executed))
        try:
            entries = await self._execute(config, fingerprint,
                                          lease["lo"], lease["hi"])
        finally:
            if heartbeats is not None:
                # The event, not only the cancel, ends the beats: before
                # Python 3.12, asyncio.wait_for swallows a cancel that
                # lands just as a heartbeat reply arrives, and the loop
                # would then keep this lease alive forever.
                executed.set()
                heartbeats.cancel()
                try:
                    await heartbeats
                except asyncio.CancelledError:
                    pass
        if partitioned:
            # Heal the partition only after the lease is provably dead.
            await asyncio.sleep(ttl * _PARTITION_TTLS)
        disposition = await self._complete(lease, fingerprint, entries)
        if disposition in ("late", "duplicate"):
            self.stats["steals_lost"] += 1
        self.stats["trials"] += len(entries)
        self._say("lease %s -> %s (%d trials)"
                  % (lease["lease_id"], disposition, len(entries)))
        if chaos is not None and chaos.fire("dup", lease_number):
            # Simulated retried POST whose first copy did arrive.
            self.stats["duplicates_sent"] += 1
            second = await self._complete(lease, fingerprint, entries)
            self._say("chaos: duplicate completion of %s -> %s"
                      % (lease["lease_id"], second))

    async def _heartbeat_loop(self, lease, ttl, executed):
        interval = max(0.05, ttl / 3.0)
        while not executed.is_set():
            await asyncio.sleep(interval)
            try:
                # A couple of quick in-beat retries; a beat that still
                # fails is skipped, not fatal -- the lease may survive
                # to the next one.
                reply = await self._call_retry(
                    "/heartbeat",
                    {"worker": self.name,
                     "campaign": lease["campaign"],
                     "lease_id": lease["lease_id"]},
                    attempts=3)
            except FabricError:
                continue  # transient; the lease may still be alive
            if not reply.get("ok"):
                # Superseded or completed elsewhere: keep computing --
                # at-least-once means our result is still mergeable
                # (it will land as "late" or "duplicate").
                return

    async def _complete(self, lease, fingerprint, entries):
        # A computed range is the expensive thing the worker holds;
        # retry-backoff here means one flaky POST no longer throws
        # away minutes of trial execution (the coordinator dedupes a
        # double delivery as "duplicate", so at-least-once is safe).
        reply = await self._call_retry(
            "/complete",
            {"worker": self.name,
             "campaign": lease["campaign"],
             "lease_id": lease["lease_id"],
             "fingerprint": fingerprint,
             "entries": entries,
             "checksum": segment_checksum(entries),
             "eligible_bits": self._machine[fingerprint][0],
             "inventory": self._machine[fingerprint][2]})
        return reply.get("disposition")

    # -- execution (runs in the default executor) -----------------------

    async def _execute(self, config, fingerprint, lo, hi):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self._execute_sync, config, fingerprint, lo, hi)

    def _execute_sync(self, config, fingerprint, lo, hi):
        units = enumerate_units(config)[lo:hi]
        if fingerprint not in self._machine:
            self._machine[fingerprint] = _machine_info(config)
        if self.processes == 1:
            context = self._contexts.get(fingerprint)
            if context is None:
                context = WorkerContext(config)
                self._contexts[fingerprint] = context
            pairs = [(unit, trial_to_dict(context.run_unit(unit)))
                     for unit in units]
        else:
            pairs = self._execute_pool(config, fingerprint, units)
        entries = [[unit.key(), trial] for unit, trial in pairs]
        self._spool(config, fingerprint, lo, hi, pairs)
        return entries

    def _execute_pool(self, config, fingerprint, units):
        """Run ``units`` on this worker's local process pool."""
        pool = self._pools.get(fingerprint)
        if pool is None:
            pool = WorkerPool(config, PipelineConfig.paper(config.protection),
                              self.processes)
            self._pools[fingerprint] = pool
        batches = deque()
        next_id = 0
        for batch in batch_units(units,
                                 auto_batch_size(len(units),
                                                 self.processes)):
            batches.append((next_id, batch))
            next_id += 1
        remaining = {}  # batch_id -> units not yet reported
        results = {}
        while len(results) < len(units):
            for worker in pool.idle_workers():
                if not batches:
                    break
                batch_id, batch = batches.popleft()
                remaining.setdefault(batch_id, set(batch.units()))
                pool.assign(worker, batch_id, batch, 0.0)
            message = pool.next_message(timeout=0.2)
            if message is None:
                for worker in list(pool.workers):
                    if worker.busy and not worker.alive():
                        # Requeue the dead worker's unreported units as
                        # fresh batches; precise requeue mirrors the
                        # engine's recovery.
                        lost = sorted(remaining.get(worker.batch_id, ()))
                        for batch in batch_units(
                                lost, auto_batch_size(max(1, len(lost)),
                                                      self.processes)):
                            batches.append((next_id, batch))
                            next_id += 1
                        pool.replace(worker)
                continue
            kind, worker_id, batch_id, payload = message
            if kind == "trial":
                unit, trial = payload
                results[unit] = trial_to_dict(trial)
                if batch_id in remaining:
                    remaining[batch_id].discard(unit)
            elif kind == "done":
                worker = pool.by_id(worker_id)
                if worker is not None:
                    worker.batch_id = None
            elif kind == "error":
                raise CampaignError(
                    "fabric worker %s pool: %s" % (self.name, payload))
        return [(unit, results[unit]) for unit in units]

    def _spool(self, config, fingerprint, lo, hi, pairs):
        """Durably spool the finished segment before transmitting it."""
        if self.spool_dir is None:
            return
        os.makedirs(self.spool_dir, exist_ok=True)
        eligible_bits, inventory, _inventory_dict = self._machine[fingerprint]
        header = segment_header(config, eligible_bits, inventory)
        path = os.path.join(
            self.spool_dir,
            "%s-%d-%d.jsonl" % (fingerprint[:12], lo, hi))
        write_segment(path, header, pairs)


def _machine_info(config):
    """eligible-bit count + Table 1 inventory, as the engine derives them."""
    workload = get_workload(config.workloads[0], scale=config.scale)
    pipeline = Pipeline(workload.program,
                        PipelineConfig.paper(config.protection))
    inventory = pipeline.space.inventory()
    return (pipeline.eligible_bits(_KINDS[config.kinds]), inventory,
            inventory_to_dict(inventory))
