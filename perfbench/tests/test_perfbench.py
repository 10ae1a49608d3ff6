"""Self-tests of the campaign benchmark (no wall-clock assertions).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402


def _journal_line(record):
    from repro.runner.journal import encode_line
    return encode_line(record) + "\n"


def _trial(index, outcome="uarch_match"):
    return {"outcome": outcome, "workload": "gzip", "start_point": 0,
            "trial_index": index}


# -- End-to-end metric derivation ------------------------------------------------


def test_metrics_from_synthetic_journal(tmp_path):
    path = tmp_path / "journal.jsonl"
    lines = [_journal_line({"type": "header", "config": {}})]
    stamps = [103.0, 103.5, 104.0, 105.0, 107.0]
    for index, ts in enumerate(stamps):
        lines.append(_journal_line({"type": "trial", "ts": ts,
                                    "unit": ["gzip", 0, index],
                                    "trial": _trial(index)}))
    path.write_text("".join(lines))

    times, harness_errors = run.journal_trial_times(str(path))
    assert times == stamps
    assert harness_errors == 0
    launch = {"epoch": 100.0, "wall_s": 9.0, "cpu_s": 12.0,
              "peak_rss_mb": 40.0}
    metrics = run.timing_metrics(launch, min(times), max(times), len(times))
    assert metrics == {"wall_s": 9.0, "setup_s": 3.0, "trials_per_s": 1.0,
                       "cpu_s": 12.0, "peak_rss_mb": 40.0}


def test_journal_counts_harness_error_trials(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text("".join(
        _journal_line({"type": "trial", "ts": 1.0 + index,
                       "unit": ["gzip", 0, index],
                       "trial": _trial(index, outcome)})
        for index, outcome in enumerate(
            ["sdc", "harness_error", "gray", "harness_error"])))
    assert run.journal_trial_times(str(path)) == ([1.0, 2.0, 3.0, 4.0], 2)


def test_one_trial_gives_no_rate():
    launch = {"epoch": 0.0, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}
    assert run.timing_metrics(launch, 0.5, 0.5, 1)["trials_per_s"] == 0.0


# -- Failed-operation accounting ---------------------------------------------------


def _run(digest="aa", code=0, harness_errors=0):
    return {"digest": digest, "code": code, "harness_errors": harness_errors}


def test_digest_mismatch_fails_every_trial_of_the_run():
    runs = [_run(), _run("bb"), _run()]
    assert run.account(runs, 100, recorded_digest="aa") == (300, 100)


def test_nonzero_exit_fails_every_trial_of_the_run():
    runs = [_run(), _run(None, code=1)]
    assert run.account(runs, 50, recorded_digest="aa") == (100, 50)


def test_harness_error_trial_fails_one():
    runs = [_run(), _run(harness_errors=1), _run(harness_errors=2)]
    assert run.account(runs, 10, recorded_digest="aa") == (30, 3)


def test_unrecorded_seed_must_give_one_digest():
    assert run.account([_run("cc"), _run("cc")], 10) == (20, 0)
    assert run.account([_run(None, code=1), _run("cc"), _run("dd")],
                       10) == (30, 20)


# -- Spans -------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans(tmp_path):
    clock = FakeClock()
    trace = tracer.Tracer(str(tmp_path), clock=clock)
    outer = trace.open("outer")
    clock.now = 1.0
    inner = trace.open("inner")
    trace.leaf("cycle", 0.5)
    clock.now = 3.0
    trace.close(inner)
    clock.now = 4.0
    last = trace.open("inner")
    clock.now = 5.0
    trace.close(last)
    trace.leaf("cycle", 0.25)
    clock.now = 10.0
    trace.close(outer)
    trace.dump()

    (record,) = tracer.load_span_files(str(tmp_path))
    spans = record["spans"]
    own = tracer.self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(own[span["id"]])
    assert by_name["outer"] == [10.0 - 2.0 - 1.0 - 0.25]
    assert by_name["inner"] == [2.0 - 0.5, 1.0]
    cycles = tracer.inclusive_cycles(spans)
    assert cycles[outer.id] == 2 and cycles[inner.id] == 1


def test_generator_span_counts_only_time_inside(tmp_path):
    clock = FakeClock()
    trace = tracer.Tracer(str(tmp_path), clock=clock)

    def produce():
        clock.now += 1.0
        yield 1
        clock.now += 2.0
        yield 2

    wrapped = tracer._generator_wrapper(trace, "gen", produce)
    consumer = trace.open("consumer")
    for _item in wrapped():
        assert trace.stack == [consumer]  # consumer work is not inside
        clock.now += 10.0
    trace.close(consumer)
    gen = [span for span in trace.spans if span.name == "gen"][0]
    assert gen.dur == 3.0
    assert gen.parent == consumer.id


# -- Inventory ---------------------------------------------------------------------


def _benchmark_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {metric["name"] for metric in json.load(fh)["per_layer"]}


def test_every_benchmark_layer_name_is_derived():
    emitted = set(tracer.layer_metrics([])) | {"trace.overhead_frac",
                                               "perfbench.cache_build_s"}
    assert _benchmark_layer_names() == emitted


TRACED_SERIAL = """
import sys
import tracer
trace = tracer.install(tracer.Tracer(sys.argv[1]))
from repro.analysis import report
from repro.inject.campaign import Campaign, CampaignConfig
result = Campaign(CampaignConfig.test(trials_per_start_point=3)).run()
report.render_workload_outcomes(result.trials, "t")
trace.dump()
"""


@pytest.fixture(scope="module")
def traced_layers(tmp_path_factory):
    """Per-layer metrics of small traced runs of each engine path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]))
    base = tmp_path_factory.mktemp("traced")
    campaign = str(base / "campaign")
    cli = ["campaign", "--workloads", "gzip", "--scale", "tiny",
           "--start-points", "1", "--trials", "70", "--horizon", "300",
           "--batch", "64", "--seed", "3", "--dir", campaign]
    layers = {}
    for name, argv in (
            ("pool", cli + ["--parallel", "2"]),
            # The second run finds every trial journaled: clear the
            # journal, keep the golden cache, and run inline.
            ("warm", cli + ["--parallel", "1"]),
            ("serial", None)):
        spans = base / name
        spans.mkdir()
        if name == "warm":
            os.unlink(os.path.join(campaign, "journal.jsonl"))
        if argv is None:
            command = [sys.executable, "-c", TRACED_SERIAL, str(spans)]
        else:
            command = [sys.executable, os.path.join(HERE, "traced.py"),
                       str(spans), "cli"] + argv
        subprocess.run(command, env=env, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=300)
        metrics = None
        if argv is not None:
            with open(os.path.join(campaign, "metrics.json")) as handle:
                metrics = json.load(handle)
        layers[name] = tracer.layer_metrics(
            tracer.load_span_files(str(spans)), metrics,
            workers=2 if name == "pool" else 1)
    return layers


def test_traced_runs_reach_every_layer(traced_layers):
    pool, warm, serial = (traced_layers[name]
                          for name in ("pool", "warm", "serial"))
    for layers in (pool, warm, serial):
        assert layers["uarch.cycles"] > 0
        assert layers["uarch.restores"] > 0
        assert layers["arch.page_sets"] > 0
    assert pool["inject.golden.records"] >= 1
    assert pool["perf.batch.activity_records"] >= 1
    assert pool["perf.goldencache.stores"] >= 1
    assert pool["runner.pool.busy_s"] > 0
    assert 0 < pool["runner.pool.utilization"] <= 1
    assert pool["runner.journal.appends"] == 70
    assert warm["inject.golden.records"] == 0
    assert warm["perf.goldencache.hits"] == 1
    assert warm["perf.batch.lanes"] == 70
    assert warm["perf.batch.groups"] == 2
    assert warm["runner.pool.busy_s"] == 0
    assert serial["inject.trial.scalar_trials"] == 6
    assert serial["inject.campaign.run_s"] > 0
    assert serial["analysis.render_s"] > 0
    assert serial["perf.batch.groups"] == 0
    # Every golden record serves a distinct start point when nothing
    # is duplicated.
    assert serial["inject.golden.useful_ratio"] == 1.0
