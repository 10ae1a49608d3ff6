"""Worker-side trial execution and the process pool.

:class:`WorkerContext` does a campaign's per-start-point preparation
-- warm up the workload, space forward, checkpoint, record the golden
trace -- and caches the most recent ``(workload, start_point)`` so
every trial of that start point shares one golden trace instead of
re-deriving it per shard.  The same context runs both
in-process (the engine's inline path) and inside pool workers, so the
two paths cannot drift apart.

Determinism: a worker derives each trial's RNG purely from the named
splits ``workload/<name> -> sp/<n> -> trial/<n>`` of the campaign seed
-- never from worker identity, scheduling order, or the clock -- so any
assignment of units to workers produces byte-identical trials.

:class:`WorkerPool` gives each worker its *own* task queue (the engine
assigns batches to specific workers), which is what makes crash
recovery precise: when a worker dies the engine knows exactly which
batch it held and requeues only the units that have not already been
reported back.  Each worker also reports on its own pipe, with no lock
shared between processes: a worker killed while it reports can block
no other worker's reports, because its pipe simply reads as EOF.
"""

import multiprocessing
from multiprocessing.connection import wait

from repro.errors import CampaignError, ReproError
from repro.faultlib import parse_fault_model
from repro.inject.campaign import _KINDS
from repro.inject.golden import record_golden, workload_page_sets
from repro.inject.trial import run_trial
from repro.obs import observer_from_config
from repro.perf.batch import run_batch_group
from repro.perf.goldencache import GoldenCache
from repro.uarch.config import PipelineConfig
from repro.uarch.core import Pipeline
from repro.utils.rng import SplitRng
from repro.workloads import get_workload

__all__ = ["WorkerContext", "WorkerPool"]


class _WorkloadState:
    """One workload's pipeline, positioned at its latest start point."""

    def __init__(self, pipeline, insn_pages, data_pages, wl_rng):
        self.pipeline = pipeline
        self.insn_pages = insn_pages
        self.data_pages = data_pages
        self.wl_rng = wl_rng
        self.warmed = False  # warmup cycles run (skipped on cache hits)
        self.start_point = -1  # last checkpointed start point
        self.checkpoint = None
        self.golden = None
        self.sp_rng = None


class WorkerContext:
    """Runs trial units, caching per-start-point preparation."""

    def __init__(self, config, pipeline_config=None, page_sets=None,
                 observer=None, golden_dir=None, on_event=None,
                 batch_lanes=1):
        self.config = config
        # Bit-plane batching width (``--batch N``): same-(workload,
        # start point) units run through repro.perf.batch in groups of
        # up to this many lanes.  Purely a scheduling knob -- results
        # are byte-identical to the scalar path -- so it is *not* part
        # of the campaign fingerprint.
        self.batch_lanes = max(1, batch_lanes or 1)
        self.batched_resolved = 0
        self.batched_laneout = 0
        self.pipeline_config = pipeline_config or PipelineConfig.paper(
            config.protection)
        self.kinds = _KINDS[config.kinds]
        # Parsed once per context; None for the default model keeps the
        # legacy single-bit injection path (and its bytes) untouched.
        model = parse_fault_model(config.fault_model)
        self.fault_model = None if model.is_default else model
        self._rng_root = SplitRng(config.seed)
        self._workloads = {}
        # The repro.obs observer attached to every trial this context
        # runs; explicit override for replay, else config-driven
        # (provenance/profile flags), else None -- zero overhead.
        self.observer = observer if observer is not None \
            else observer_from_config(config)
        # (insn_pages, data_pages) per workload.  The engine precomputes
        # these once and shares them with every worker: they come from a
        # deterministic fault-free functional run, so who computes them
        # cannot matter, and recomputing per worker is pure waste.
        self._page_sets = dict(page_sets) if page_sets else {}
        # Shared golden-window memoization (campaign directory runs):
        # checkpoints and golden traces are recorded once per
        # (workload, start point) across all workers and runs.
        self.golden_cache = None
        if golden_dir is not None:
            self.golden_cache = GoldenCache(
                golden_dir, config, self.pipeline_config,
                on_event=on_event)
        # In-memory (workload, start point) -> (checkpoint, golden,
        # sp_rng) held across start-point switches, so revisiting one
        # (engine affinity miss, retry, alternating batch groups) costs
        # a checkpoint restore instead of a disk-cache load or a
        # re-simulation.  Bounded FIFO; entries are exactly what the
        # disk cache would return, so trial bytes are unchanged.
        self._prepared = {}
        self._prepared_cap = 8

    def run_unit(self, unit):
        """Execute one :class:`TrialUnit`; returns a ``TrialResult``."""
        state = self._prepare(unit.workload, unit.start_point)
        trial_rng = state.sp_rng.split("trial/%d" % unit.trial_index)
        return run_trial(
            state.pipeline, state.checkpoint, state.golden, trial_rng,
            self.kinds, unit.workload, unit.start_point,
            horizon=self.config.horizon,
            locked_multiplier=self.config.locked_multiplier,
            trial_index=unit.trial_index, obs=self.observer,
            model=self.fault_model)

    def run_batch(self, batch):
        """Execute a :class:`UnitBatch`; yields ``(unit, TrialResult)``.

        Results come in ``batch.trial_indices`` order, byte-identical
        to running each unit through :meth:`run_unit`.  With
        ``batch_lanes > 1``, no observer attached, a batchable fault
        model, and more than one unit, the whole batch runs through the
        bit-plane engine (:mod:`repro.perf.batch`); provenance/profiling
        campaigns force the scalar path, because observation hooks
        single-lane pipeline internals and must stay exact, and so do
        multi-element or persistent fault models (burst, stuck-at,
        intermittent), whose disturbances the plane walk cannot carry.
        """
        if (self.batch_lanes <= 1 or len(batch) <= 1
                or self.observer is not None
                or (self.fault_model is not None
                    and not self.fault_model.batchable)):
            for unit in batch.units():
                yield unit, self.run_unit(unit)
            return
        state = self._prepare(batch.workload, batch.start_point)
        outcome = run_batch_group(
            state.pipeline, state.checkpoint, state.golden, state.sp_rng,
            self.kinds, batch.workload, batch.start_point,
            batch.trial_indices, horizon=self.config.horizon,
            locked_multiplier=self.config.locked_multiplier,
            cache=self.golden_cache, model=self.fault_model)
        self.batched_resolved += outcome.resolved
        self.batched_laneout += outcome.laned_out
        for unit, trial in zip(batch.units(), outcome.trials):
            yield unit, trial

    def take_batch_stats(self):
        """``(resolved, laned_out)`` lane counts since the last take."""
        stats = (self.batched_resolved, self.batched_laneout)
        self.batched_resolved = 0
        self.batched_laneout = 0
        return stats if stats != (0, 0) else None

    def take_profile(self):
        """The per-stage profile accumulated since the last take, or None."""
        if self.observer is None or self.observer.profile is None:
            return None
        return self.observer.profile.take()

    # ------------------------------------------------------------------

    def _prepare(self, workload_name, start_point):
        """Position ``workload_name`` at ``start_point`` (cached).

        The checkpoint at start point *n* is always
        ``warmup + (n + 1) * spacing`` fault-free cycles from reset,
        regardless of which trials ran in between (every trial
        restores the checkpoint first).  Moving backwards
        -- a retried unit landing on a worker that has advanced past it
        -- rebuilds the workload from reset.

        With a golden cache attached, a start point another worker (or
        a previous run) already prepared is loaded instead of
        simulated: the cached checkpoint/golden pair is the exact data
        the simulation path would deterministically recompute, so trial
        bytes are unchanged -- only the fault-free warmup, spacing, and
        recording work is skipped.
        """
        state = self._workloads.get(workload_name)
        if (state is not None and state.start_point == start_point
                and state.golden is not None):
            return state
        held = self._prepared.get((workload_name, start_point))
        if held is not None:
            # A checkpoint restore is position-independent, so a held
            # start point never needs the pipeline rebuilt or re-run.
            if state is None:
                state = self._fresh(workload_name)
                self._workloads[workload_name] = state
            state.checkpoint, state.golden, state.sp_rng = held
            state.pipeline.restore(state.checkpoint)
            state.warmed = True
            state.start_point = start_point
            return state
        if state is None or state.start_point > start_point:
            state = self._fresh(workload_name)
            self._workloads[workload_name] = state
        config = self.config
        pipeline = state.pipeline
        cache = self.golden_cache
        if cache is not None:
            cached = cache.load(workload_name, start_point)
            if cached is not None:
                state.checkpoint, state.golden = cached
                pipeline.restore(state.checkpoint)
                state.warmed = True
                state.start_point = start_point
                state.sp_rng = state.wl_rng.split("sp/%d" % start_point)
                self._hold(workload_name, start_point, state)
                return state
        if not state.warmed:
            pipeline.run(config.warmup_cycles, stop_on_halt=True)
            state.warmed = True
        while state.start_point < start_point:
            if state.checkpoint is not None:
                pipeline.restore(state.checkpoint)
                pipeline.tlb_insn_pages = None
                pipeline.tlb_data_pages = None
            pipeline.run(config.spacing_cycles, stop_on_halt=True)
            if pipeline.halted:
                raise CampaignError(
                    "workload %r finished before start point %d; use a "
                    "larger scale" % (workload_name, state.start_point + 1))
            state.start_point += 1
            state.checkpoint = pipeline.checkpoint()
            state.golden = None
        if state.golden is None:
            state.golden = record_golden(
                pipeline, state.checkpoint, config.horizon, config.margin,
                state.insn_pages, state.data_pages,
                verify_replay=config.verify_golden and start_point == 0)
            state.sp_rng = state.wl_rng.split("sp/%d" % start_point)
            if cache is not None:
                cache.store(workload_name, start_point, state.checkpoint,
                            state.golden)
        self._hold(workload_name, start_point, state)
        return state

    def _hold(self, workload_name, start_point, state):
        """Keep a prepared start point in memory (bounded FIFO)."""
        prepared = self._prepared
        prepared[(workload_name, start_point)] = (
            state.checkpoint, state.golden, state.sp_rng)
        if len(prepared) > self._prepared_cap:
            prepared.pop(next(iter(prepared)))

    def _fresh(self, workload_name):
        """A reset-state pipeline; warmup is deferred to ``_prepare``
        so a golden-cache hit never simulates a cycle."""
        workload = get_workload(workload_name, scale=self.config.scale)
        pages = self._page_sets.get(workload_name)
        if pages is None:
            pages = workload_page_sets(workload.program)
            self._page_sets[workload_name] = pages
        insn_pages, data_pages = pages
        pipeline = Pipeline(workload.program, self.pipeline_config)
        wl_rng = self._rng_root.split("workload/%s" % workload_name)
        return _WorkloadState(pipeline, insn_pages, data_pages, wl_rng)


# -- Pool ----------------------------------------------------------------------


def _worker_main(worker_id, config, pipeline_config, page_sets, golden_dir,
                 batch_lanes, tasks, results):
    """Worker process loop: run assigned batches, report each trial."""

    def on_event(kind, detail):
        # Integrity incidents (e.g. a quarantined golden-cache entry)
        # ride the results pipe so the engine's telemetry sees them;
        # batch_id None marks them as out-of-band.
        results.send(("event", worker_id, None, (kind, detail)))

    context = WorkerContext(config, pipeline_config, page_sets=page_sets,
                            golden_dir=golden_dir, on_event=on_event,
                            batch_lanes=batch_lanes)
    while True:
        try:
            task = tasks.get()
        except (EOFError, OSError):
            return
        if task is None:
            return
        batch_id, batch = task
        try:
            for unit, trial in context.run_batch(batch):
                results.send(("trial", worker_id, batch_id, (unit, trial)))
            stats = context.take_batch_stats()
            if stats is not None:
                results.send(("event", worker_id, batch_id,
                              ("batch_stats", stats)))
            # The "done" payload carries the batch's per-stage profile
            # delta (or None when profiling is off).
            results.send(("done", worker_id, batch_id,
                          context.take_profile()))
        except KeyboardInterrupt:
            return
        except ReproError as error:
            # Deterministic model/config failure: retrying cannot help,
            # so surface it to the engine verbatim.
            results.send(("error", worker_id, batch_id,
                          "%s: %s" % (type(error).__name__, error)))
            return
        except Exception as error:  # unexpected -- still report, not hang
            results.send(("error", worker_id, batch_id,
                          "%s: %s" % (type(error).__name__, error)))
            return


class _Worker:
    """Engine-side handle for one worker process."""

    def __init__(self, worker_id, process, tasks, results):
        self.worker_id = worker_id
        self.process = process
        self.tasks = tasks
        self.results = results  # read end of its pipe; None after EOF
        self.batch_id = None  # currently assigned batch, None when idle
        self.last_progress = None  # engine clock of the last message
        self.group = None  # last (workload, start_point) this worker prepared

    @property
    def busy(self):
        return self.batch_id is not None

    def alive(self):
        return self.process.is_alive()


class WorkerPool:
    """A pool of trial workers with per-worker task queues."""

    def __init__(self, config, pipeline_config, workers, page_sets=None,
                 golden_dir=None, batch_lanes=1):
        self._mp = multiprocessing.get_context()
        self._config = config
        self._pipeline_config = pipeline_config
        self._page_sets = page_sets or {}
        self._golden_dir = golden_dir
        self._batch_lanes = batch_lanes
        self._next_id = 0
        self.workers = []
        for _ in range(workers):
            self.workers.append(self._spawn())

    def _spawn(self):
        worker_id = self._next_id
        self._next_id += 1
        tasks = self._mp.Queue()
        results, writer = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_worker_main,
            args=(worker_id, self._config, self._pipeline_config,
                  self._page_sets, self._golden_dir, self._batch_lanes,
                  tasks, writer),
            daemon=True)
        process.start()
        # The worker holds the only write end, so its exit reads as EOF.
        writer.close()
        return _Worker(worker_id, process, tasks, results)

    def by_id(self, worker_id):
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def idle_workers(self):
        return [w for w in self.workers if not w.busy and w.alive()]

    def busy_count(self):
        return sum(1 for w in self.workers if w.busy)

    def assign(self, worker, batch_id, batch, now):
        worker.batch_id = batch_id
        worker.last_progress = now
        worker.group = (batch.workload, batch.start_point)
        worker.tasks.put((batch_id, batch))

    def next_message(self, timeout):
        """The next worker message, or None after ``timeout`` seconds.

        A pipe at EOF (its worker exited, possibly mid-message) is
        closed and skipped; :meth:`replace` or :meth:`retire` then
        deals with the worker itself.
        """
        by_pipe = {w.results: w for w in self.workers
                   if w.results is not None}
        for pipe in wait(list(by_pipe), timeout):
            try:
                return pipe.recv()
            except (EOFError, OSError):
                # EOFError at a message boundary; an OSError ("got end
                # of file during message") when the worker died mid-send.
                pipe.close()
                by_pipe[pipe].results = None
        return None

    def _reap(self, worker):
        """Make ``worker``'s process exit, escalating SIGTERM -> SIGKILL.

        A *stopped* process (SIGSTOP -- the stall the watchdog detects)
        never handles SIGTERM: the signal stays pending and a plain
        ``terminate + join`` would hang here forever.  SIGKILL cannot be
        blocked or deferred, so escalate after a short grace period.
        """
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=2.0)
        worker.tasks.close()
        if worker.results is not None:
            worker.results.close()

    def replace(self, worker):
        """Kill ``worker`` (if needed) and swap in a fresh process."""
        self._reap(worker)
        replacement = self._spawn()
        self.workers[self.workers.index(worker)] = replacement
        return replacement

    def retire(self, worker):
        """Kill ``worker`` without spawning a replacement (drain path)."""
        self._reap(worker)
        self.workers.remove(worker)

    def shutdown(self):
        """Stop every worker; idempotent and safe mid-failure."""
        for worker in self.workers:
            if worker.alive():
                try:
                    worker.tasks.put(None)
                except (ValueError, OSError):
                    pass
        for worker in self.workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.tasks.close()
            if worker.results is not None:
                worker.results.close()
