"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public functions of the program at the names their
callers look up (``install``) and records one span per call: name,
start, end, parent span and a few attributes naming the trial or batch
the call serves.  ``Pipeline.cycle``, ``restore`` and ``checkpoint``
run far too often to be spans; each call is instead counted, with its
host time, on the innermost open span (its *enclosing* span), so every
simulated cycle is attributed to the layer that asked for it.

Pool workers are forked from the traced process and inherit the
wrappers.  Each worker clears the spans it inherited when it starts and
writes its own at exit; the traced process writes its spans at the end
of the run.  :func:`layer_metrics` turns the span files of one run into
the benchmark's per-layer metrics.

Nothing here changes what the program computes: every wrapper calls
the original function with the original arguments and returns its
result unchanged.
"""

import functools
import json
import os
import time
import zlib

# Uarch calls counted on their enclosing span instead of being spans.
LEAF_KINDS = ("cycle", "restore", "checkpoint")


class Span:
    """One traced call; ``dur`` is host seconds spent inside it."""

    __slots__ = ("id", "parent", "name", "start", "end", "dur", "attrs",
                 "leaf_n", "leaf_s")

    def __init__(self, span_id, parent, name, start, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.dur = 0.0
        self.attrs = attrs
        self.leaf_n = dict.fromkeys(LEAF_KINDS, 0)
        self.leaf_s = dict.fromkeys(LEAF_KINDS, 0.0)

    def to_dict(self):
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "dur": self.dur,
                "attrs": self.attrs, "leaf_n": self.leaf_n,
                "leaf_s": self.leaf_s}


class Tracer:
    """Span stack and span list of one process."""

    def __init__(self, out_dir, clock=time.perf_counter):
        self.out_dir = out_dir
        self.clock = clock
        self.role = "main"
        self.reset("main")

    def reset(self, role):
        """Forget every span; a forked worker starts from here."""
        self.role = role
        self.spans = []
        self.stack = []
        # Leaf calls made outside any span land on this pseudo-span.
        self.root = Span(0, None, "<root>", self.clock(), None)

    def open(self, name, attrs=None):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans) + 1, parent, name, self.clock(), attrs)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        span.dur = span.end - span.start
        self.pop(span)

    def pop(self, span):
        # Spans leave the stack in LIFO order unless an exception
        # unwound several wrappers at once; pop down to it either way.
        while self.stack:
            if self.stack.pop() is span:
                break

    def leaf(self, kind, seconds):
        span = self.stack[-1] if self.stack else self.root
        span.leaf_n[kind] += 1
        span.leaf_s[kind] += seconds

    def dump(self):
        """Write this process's spans to ``spans-<pid>.json``."""
        path = os.path.join(self.out_dir, "spans-%d.json" % os.getpid())
        record = {"pid": os.getpid(), "role": self.role,
                  "spans": [span.to_dict()
                            for span in [self.root] + self.spans]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


# -- Wrappers ------------------------------------------------------------------


def _span_wrapper(tracer, name, fn, attrs=None, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, attrs(args, kwargs) if attrs else None)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, result)
            return result
        finally:
            tracer.close(span)
    return wrapper


def _leaf_wrapper(tracer, kind, fn):
    clock = tracer.clock
    leaf = tracer.leaf

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = clock()
        result = fn(*args, **kwargs)
        leaf(kind, clock() - started)
        return result
    return wrapper


def _generator_wrapper(tracer, name, fn, attrs=None):
    """A span around a generator that counts only time spent inside it.

    Between two items the consumer runs (in the inline engine, that is
    the journal append); the span is off the stack then, so that work
    is neither its child nor its duration.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        span = tracer.open(name, attrs(args, kwargs) if attrs else None)
        tracer.stack.pop()
        while True:
            resumed = tracer.clock()
            tracer.stack.append(span)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                span.end = tracer.clock()
                span.dur += span.end - resumed
                tracer.pop(span)
            yield item
    return wrapper


def _patch(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer):
    """Wrap the program's public calls; returns the tracer."""
    import repro.analysis.report as report
    import repro.cli as cli
    import repro.inject.campaign as campaign
    import repro.inject.golden as golden
    import repro.perf.batch as batch
    import repro.runner.engine as engine
    import repro.runner.journal as journal
    import repro.runner.pool as pool
    from repro.perf.goldencache import GoldenCache
    from repro.uarch.core import Pipeline

    span = functools.partial(_span_wrapper, tracer)

    for kind in LEAF_KINDS:
        _patch(Pipeline, kind,
               lambda fn, kind=kind: _leaf_wrapper(tracer, kind, fn))
    _patch(Pipeline, "run", lambda fn: span("uarch.run", fn))

    page_sets = span("arch.page_sets", golden.workload_page_sets)
    for module in (golden, campaign, pool, engine):
        module.workload_page_sets = page_sets

    def where(args, kwargs):
        # A start point is named by its program and checkpoint cycle,
        # which every process computes identically.
        pipeline, checkpoint = args[0], args[1]
        return {"program": zlib.crc32(pipeline.program.source.encode()),
                "cycle": checkpoint[1]["scalars"][0]}

    record = span("inject.golden.record", golden.record_golden, attrs=where)
    campaign.record_golden = pool.record_golden = record
    golden.verify_golden_replay = span(
        "inject.golden.verify", golden.verify_golden_replay)

    def trial_attrs(args, kwargs):
        return {"workload": args[5], "start_point": args[6],
                "trial": kwargs.get("trial_index")}

    run_trial = span("inject.trial.run_trial", campaign.run_trial,
                     attrs=trial_attrs)
    campaign.run_trial = pool.run_trial = run_trial
    _patch(campaign.Campaign, "run",
           lambda fn: span("inject.campaign.run", fn))

    def group_attrs(args, kwargs):
        return {"workload": args[5], "start_point": args[6],
                "lanes": len(args[7])}

    def group_result(group, args, outcome):
        group.attrs["laned_out"] = outcome.laned_out

    pool.run_batch_group = span("perf.batch.group", pool.run_batch_group,
                                attrs=group_attrs, on_result=group_result)
    batch.classify_window = span("perf.batch.suffix", batch.classify_window)
    batch.record_activity = span("perf.batch.activity",
                                 batch.record_activity)

    def cache_attrs(args, kwargs):
        return {"workload": args[1], "start_point": args[2]}

    def load_result(load, args, result):
        if result is not None:
            load.attrs["bytes"] = os.path.getsize(args[0]._path(*args[1:3]))

    def store_result(store, args, result):
        path = args[0]._path(*args[1:3])
        store.attrs["bytes"] = (os.path.getsize(path)
                                if os.path.exists(path) else 0)

    _patch(GoldenCache, "load", lambda fn: span(
        "perf.goldencache.load", fn, attrs=cache_attrs,
        on_result=load_result))
    _patch(GoldenCache, "store", lambda fn: span(
        "perf.goldencache.store", fn, attrs=cache_attrs,
        on_result=store_result))

    _patch(journal.JournalWriter, "append_trial",
           lambda fn: span("runner.journal.append", fn))
    engine.write_metrics = span("runner.journal.metrics",
                                engine.write_metrics)

    _patch(pool.WorkerPool, "_spawn",
           lambda fn: span("runner.pool.spawn", fn))
    _patch(pool.WorkerPool, "next_message",
           lambda fn: span("runner.pool.wait", fn))
    _patch(engine.CampaignRunner, "_run_pool",
           lambda fn: span("runner.pool.run", fn))

    def batch_attrs(args, kwargs):
        return {"workload": args[1].workload,
                "start_point": args[1].start_point, "units": len(args[1])}

    _patch(pool.WorkerContext, "run_batch",
           lambda fn: _generator_wrapper(tracer, "runner.context.batch", fn,
                                         attrs=batch_attrs))

    worker_main = pool._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args, **kwargs):
        tracer.reset("worker")
        try:
            return worker_main(*args, **kwargs)
        finally:
            tracer.dump()

    pool._worker_main = traced_worker_main

    for name in dir(report):
        if name.startswith("render_"):
            wrapped = span("analysis.render", getattr(report, name))
            setattr(report, name, wrapped)
            if hasattr(cli, name):
                setattr(cli, name, wrapped)
    return tracer


# -- Analysis ------------------------------------------------------------------


def load_span_files(out_dir):
    """Every ``spans-<pid>.json`` of one traced run, as records."""
    records = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                records.append(json.load(fh))
    return records


def self_times(spans):
    """Span id -> duration minus what its child spans and leaf calls cover."""
    covered = {}
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] = (covered.get(span["parent"], 0.0)
                                       + span["dur"])
    return {span["id"]: span["dur"] - covered.get(span["id"], 0.0)
            - sum(span["leaf_s"].values())
            for span in spans}


def inclusive_cycles(spans):
    """Span id -> cycles simulated inside it, its descendants included."""
    total = {span["id"]: span["leaf_n"]["cycle"] for span in spans}
    # Children always get higher ids than their parent, so one pass in
    # descending id order folds every subtree into its root.
    for span in sorted(spans, key=lambda span: -span["id"]):
        if span["parent"] is not None:
            total[span["parent"]] += total[span["id"]]
    return total


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(records, run_metrics=None, workers=1):
    """Per-layer metrics of one traced run.

    ``records`` are the span files of every process of the run,
    ``run_metrics`` the campaign's ``metrics.json`` (None for a run
    without a campaign directory) and ``workers`` the pool size.
    """
    run_metrics = run_metrics or {}
    sums = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    groups = set()
    for record in records:
        spans = record["spans"]
        own = self_times(spans)
        cycles = inclusive_cycles(spans)
        names = {span["id"]: span["name"] for span in spans}
        for span in spans:
            name = span["name"]
            for kind in LEAF_KINDS:
                add(kind + "_n", span["leaf_n"][kind])
                add(kind + "_s", span["leaf_s"][kind])
            add("count:" + name, 1)
            add("dur:" + name, span["dur"])
            add("self:" + name, own[span["id"]])
            add("cycles:" + name, cycles[span["id"]])
            add("own_cycles:" + name, span["leaf_n"]["cycle"])
            attrs = span["attrs"] or {}
            if name == "inject.golden.record":
                groups.add((attrs.get("program"), attrs.get("cycle")))
            if name == "perf.batch.group":
                add("lanes", attrs.get("lanes", 0))
                add("laned_out", attrs.get("laned_out", 0))
            if name.startswith("perf.goldencache."):
                add("bytes", attrs.get("bytes", 0))
                if name.endswith(".load") and "bytes" in attrs:
                    add("hits", 1)
            if name == "perf.batch.suffix" \
                    and names.get(span["parent"]) == "perf.batch.group":
                add("suffix_s", span["dur"])
                add("suffix_cycles", cycles[span["id"]])
            if name == "analysis.render" \
                    and names.get(span["parent"]) != "analysis.render":
                add("render_s", span["dur"])
            if name == "runner.context.batch" and record["role"] == "worker":
                add("busy_s", span["dur"])

    def get(key):
        return sums.get(key, 0)

    records_n = get("count:inject.golden.record")
    cycles_n = get("cycle_n")
    lanes = get("lanes")
    pool_s = get("dur:runner.pool.run")
    metrics = {
        "uarch.cycles": cycles_n,
        "uarch.cycle_us": 1e6 * _ratio(get("cycle_s"), cycles_n),
        "uarch.run_s": get("dur:uarch.run"),
        "uarch.restores": get("restore_n"),
        "uarch.restore_us": 1e6 * _ratio(get("restore_s"),
                                         get("restore_n")),
        "uarch.checkpoints": get("checkpoint_n"),
        "uarch.checkpoint_us": 1e6 * _ratio(get("checkpoint_s"),
                                            get("checkpoint_n")),
        "arch.page_sets": get("count:arch.page_sets"),
        "arch.page_sets_s": get("dur:arch.page_sets"),
        "inject.golden.records": records_n,
        "inject.golden.record_s": (get("dur:inject.golden.record")
                                   - get("dur:inject.golden.verify")),
        "inject.golden.verify_s": get("dur:inject.golden.verify"),
        "inject.golden.prep_cycles": get("cycles:inject.golden.record"),
        "inject.golden.useful_ratio": _ratio(len(groups), records_n),
        "inject.trial.scalar_trials": get("count:inject.trial.run_trial"),
        "inject.trial.scalar_s": get("dur:inject.trial.run_trial"),
        "inject.trial.scalar_cycles": get("cycles:inject.trial.run_trial"),
        "inject.campaign.run_s": get("dur:inject.campaign.run"),
        "perf.batch.groups": get("count:perf.batch.group"),
        "perf.batch.group_s": get("dur:perf.batch.group"),
        "perf.batch.walk_s": get("self:perf.batch.group"),
        "perf.batch.replay_cycles": get("own_cycles:perf.batch.group"),
        "perf.batch.suffix_s": get("suffix_s"),
        "perf.batch.suffix_cycles": get("suffix_cycles"),
        "perf.batch.lanes": lanes,
        "perf.batch.laned_out": get("laned_out"),
        "perf.batch.laneout_ratio": _ratio(get("laned_out"), lanes),
        "perf.batch.activity_records": get("count:perf.batch.activity"),
        "perf.batch.activity_s": get("dur:perf.batch.activity"),
        "perf.goldencache.loads": get("count:perf.goldencache.load"),
        "perf.goldencache.hits": get("hits"),
        "perf.goldencache.load_s": get("dur:perf.goldencache.load"),
        "perf.goldencache.stores": get("count:perf.goldencache.store"),
        "perf.goldencache.store_s": get("dur:perf.goldencache.store"),
        "perf.goldencache.bytes": get("bytes"),
        "perf.goldencache.quarantined": run_metrics.get("quarantined", 0),
        "runner.journal.appends": get("count:runner.journal.append"),
        "runner.journal.append_us": 1e6 * _ratio(
            get("dur:runner.journal.append"),
            get("count:runner.journal.append")),
        "runner.journal.metrics_s": get("dur:runner.journal.metrics"),
        "runner.io_retries": run_metrics.get("io_retries", 0),
        "runner.pool.spawn_s": get("dur:runner.pool.spawn"),
        "runner.pool.wait_s": get("dur:runner.pool.wait"),
        "runner.pool.busy_s": get("busy_s"),
        "runner.pool.utilization": _ratio(get("busy_s"), workers * pool_s),
        "runner.retries": run_metrics.get("retried", 0),
        "runner.harness_errors": run_metrics.get("harness_errors", 0),
        "analysis.render_s": get("render_s"),
    }
    return metrics
