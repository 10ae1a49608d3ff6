"""Campaign benchmark: end-to-end and per-layer timing of fault-injection runs.

Run from the root of a checkout (no install; the program is imported
from ``src/``):

    python3 perfbench/run.py --workload cold-pool --seed 2004 --seconds 40 --trace 0
    python3 perfbench/run.py --workload warm-batch --seed 7 --seconds 40 --trace 1
    python3 perfbench/run.py --steadiness --rounds 10

Each invocation runs one workload (see ``make_workloads``) as fresh
processes: one untimed warm-up run, then timed runs until ``--seconds``
of them have passed (at least two), each timed from outside.  The
median of the timed runs is reported.  With ``--trace 1`` a further
run of the same workload goes through ``traced.py`` and the per-layer
metrics come from its spans.  Every run's trials are checked against
the digest recorded for the seed in ``digests.json`` (or, for other
seeds, against each other).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--steadiness`` runs the workloads of ``BENCHMARK.json`` repeatedly in
alternating order and prints, per workload and metric, the sample count, median,
quartiles and whether the two halves of the runs agree within the
bound in ``BENCHMARK.json``; see README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NPROC = len(os.sched_getaffinity(0))

# Timed runs continue until --seconds of them have passed, and there
# are never fewer than this, so set-up is always a median of several.
MIN_REPS = 2
# One invocation must end within 180 s: no new run starts once this
# much time has gone, and a single process is killed after the timeout.
BUDGET_S = 130
PROCESS_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "trials_per_s": "trials/s",
                    "cpu_s": "s", "peak_rss_mb": "MiB"}


class CliWorkload:
    """A ``repro-faults campaign --dir`` run; metrics from its journal."""

    def __init__(self, name, args, trials, cached=False, workers=1):
        self.name = name
        self.args = list(args)
        self.trials = trials
        self.cached = cached  # runs against a prebuilt golden cache
        self.workers = workers
        self.cache = None

    def argv(self, rep_dir, seed):
        return ["cli", "campaign", "--dir", os.path.join(rep_dir, "campaign"),
                *self.args, "--seed", str(seed)]

    def prepare(self, rep_dir):
        # Every run after the cache build; a failed build fails the
        # invocation through its digest, and the runs go cold.
        if self.cache is not None and os.path.isdir(self.cache):
            shutil.copytree(self.cache,
                            os.path.join(rep_dir, "campaign", "golden"))

    def collect(self, rep_dir):
        from repro.runner.journal import canonical_trial_bytes, journal_path

        directory = os.path.join(rep_dir, "campaign")
        path = journal_path(directory)
        times, harness_errors = journal_trial_times(path)
        with open(os.path.join(directory, "metrics.json"),
                  encoding="utf-8") as handle:
            run_metrics = json.load(handle)
        return {"times": [min(times), max(times)], "trials": len(times),
                "harness_errors": harness_errors,
                "digest": hashlib.sha256(
                    canonical_trial_bytes(path)).hexdigest(),
                "run_metrics": run_metrics}


class FigureSerialWorkload:
    """``figure_serial.py``: the figure suite's serial campaign."""

    name = "figure-serial"
    cached = False
    workers = 1

    def __init__(self):
        import figure_serial
        self.trials = (len(figure_serial.KERNELS)
                       * figure_serial.FIXTURE["start_points_per_workload"]
                       * figure_serial.FIXTURE["trials_per_start_point"])

    def argv(self, rep_dir, seed):
        return ["figure-serial", "--seed", str(seed),
                "--out", os.path.join(rep_dir, "result.json")]

    def prepare(self, rep_dir):
        pass

    def collect(self, rep_dir):
        with open(os.path.join(rep_dir, "result.json"),
                  encoding="utf-8") as handle:
            result = json.load(handle)
        return {"times": result["trial_times"], "trials": result["trials"],
                "harness_errors": result["harness_errors"],
                "digest": result["digest"], "run_metrics": None}


def make_workloads():
    return {
        # Cold campaign on the pool: golden preparation dominates.  Each
        # start point gets more trials than one 64-lane batch holds.
        "cold-pool": CliWorkload(
            "cold-pool",
            ["--parallel", str(NPROC), "--batch", "64",
             "--workloads", "vpr", "perlbmk", "--start-points", "2",
             "--trials", "100", "--horizon", "800", "--scale", "small"],
            trials=2 * 2 * 100, workers=NPROC),
        # The same engine in one process against a prebuilt golden
        # cache: page sets and the lane-out suffix dominate.  The short
        # horizon caps what one laned-out trial can cost, so the run
        # time does not swing with how many lanes of a seed diverge.
        "warm-batch": CliWorkload(
            "warm-batch",
            ["--parallel", "1", "--batch", "64",
             "--workloads", "bzip2", "parser", "--start-points", "1",
             "--trials", "256", "--horizon", "400", "--scale", "small"],
            trials=2 * 256, cached=True),
        # Not in BENCHMARK.json: its spread across seeds is too wide for
        # any allowed bound (README.md).  Run it by name to measure the
        # serial path's layers.
        "figure-serial": FigureSerialWorkload(),
    }


# -- Metric derivation -----------------------------------------------------------


def journal_trial_times(path):
    """``(ts of every trial line, harness_error trial count)`` of a journal."""
    times = []
    harness_errors = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("type") != "trial":
                continue
            times.append(record["ts"])
            if record["trial"]["outcome"] == "harness_error":
                harness_errors += 1
    return times, harness_errors


def timing_metrics(launch, first_ts, last_ts, trials):
    """The end-to-end metrics of one run.

    ``launch`` holds what was timed from outside (launch epoch, wall,
    CPU and peak RSS); ``first_ts``/``last_ts`` are the completion
    times of the first and last trial.
    """
    return {
        "wall_s": launch["wall_s"],
        "setup_s": first_ts - launch["epoch"],
        "trials_per_s": ((trials - 1) / (last_ts - first_ts)
                         if trials > 1 and last_ts > first_ts else 0.0),
        "cpu_s": launch["cpu_s"],
        "peak_rss_mb": launch["peak_rss_mb"],
    }


def account(runs, trials, recorded_digest=None):
    """``(attempted, failed)`` over runs; each run is ``trials`` trials.

    A run that exited non-zero or whose digest differs from the
    reference fails all its trials; otherwise each ``harness_error``
    trial fails one.  The reference is the recorded digest of the seed,
    or else the first clean run's digest, so an unrecorded seed must
    give one digest across all its runs.
    """
    reference = recorded_digest
    attempted = failed = 0
    for run in runs:
        attempted += trials
        if reference is None and run["code"] == 0:
            reference = run["digest"]
        if run["code"] != 0 or run["digest"] != reference:
            failed += trials
        else:
            failed += run["harness_errors"]
    return attempted, failed


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


# -- Running processes ------------------------------------------------------------


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def launch(argv, log_path, traced_dir=None):
    """Run one workload process; time it and its whole tree from outside."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (SRC, HERE, env.get("PYTHONPATH")) if path)
    kind, rest = argv[0], argv[1:]
    if traced_dir is not None:
        command = [sys.executable, os.path.join(HERE, "traced.py"),
                   traced_dir, kind, *rest]
    elif kind == "cli":
        command = [sys.executable, "-m", "repro.cli", *rest]
    else:
        command = [sys.executable, os.path.join(HERE, "figure_serial.py"),
                   *rest]
    with open(log_path, "wb") as log:
        epoch = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log,
                                start_new_session=True)
        timer = threading.Timer(PROCESS_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    # Pool workers are joined by the campaign; anything left in the
    # session is a stray and is stopped here.
    _kill_group(proc.pid)
    return {"epoch": epoch, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "log": log_path}


def run_once(workload, work, label, seed, traced=False):
    """One process run of ``workload`` in a fresh directory; returns a record."""
    rep_dir = os.path.join(work, label)
    os.makedirs(rep_dir)
    workload.prepare(rep_dir)
    span_dir = None
    if traced:
        span_dir = os.path.join(rep_dir, "spans")
        os.makedirs(span_dir)
    timed = launch(workload.argv(rep_dir, seed),
                   os.path.join(work, label + ".log"), traced_dir=span_dir)
    run = dict(timed, label=label, digest=None, harness_errors=0,
               trials=0, metrics=None, spans=None, run_metrics=None)
    if timed["code"] == 0:
        try:
            collected = workload.collect(rep_dir)
        except (OSError, ValueError, KeyError) as error:
            run["code"] = -1
            run["error"] = "%s: %s" % (type(error).__name__, error)
        else:
            run.update(digest=collected["digest"],
                       harness_errors=collected["harness_errors"],
                       trials=collected["trials"],
                       run_metrics=collected["run_metrics"])
            first, last = collected["times"]
            run["metrics"] = timing_metrics(timed, first, last,
                                            collected["trials"])
            if traced:
                import tracer
                run["spans"] = tracer.load_span_files(span_dir)
    if workload.cached and label == "build":
        workload.cache = os.path.join(rep_dir, "campaign", "golden")
    else:
        shutil.rmtree(rep_dir, ignore_errors=True)
    return run


def _log_tail(run):
    try:
        with open(run["log"], "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")
    except OSError:
        return ""


def _report_run(run):
    line = "[%s] exit=%d wall=%.3fs" % (run["label"], run["code"],
                                        run["wall_s"])
    if run["metrics"]:
        line += " " + " ".join("%s=%.4g" % item
                               for item in sorted(run["metrics"].items()))
    if run["digest"]:
        line += " digest=%s" % run["digest"]
    print(line, flush=True)
    if run["code"] != 0:
        sys.stderr.write("run %s failed%s\n%s\n" % (
            run["label"], ": " + run["error"] if run.get("error") else "",
            _log_tail(run)))


def measure(workload, seed, seconds, trace, work):
    """Warm up, time, optionally trace; returns the result object."""
    started = time.perf_counter()
    runs = []
    build_s = 0.0
    if workload.cached:
        # Built once per invocation with the code under test, from the
        # exact config and seed; the build is also the warm-up run.
        build = run_once(workload, work, "build", seed)
        build_s = build["wall_s"]
        runs.append(build)
        _report_run(build)
        print("[%s] golden-cache build: %.3fs" % (workload.name, build_s))
    else:
        runs.append(run_once(workload, work, "warmup", seed))
        _report_run(runs[-1])
    timed = []
    measured = 0.0
    while len(timed) < MIN_REPS or measured < seconds:
        elapsed = time.perf_counter() - started
        if len(timed) >= MIN_REPS and \
                elapsed + max(run["wall_s"] for run in timed) > BUDGET_S:
            break
        run = run_once(workload, work, "timed%d" % len(timed), seed)
        timed.append(run)
        runs.append(run)
        measured += run["wall_s"]
        _report_run(run)
    traced_run = None
    if trace:
        traced_run = run_once(workload, work, "traced", seed, traced=True)
        runs.append(traced_run)
        _report_run(traced_run)

    recorded = load_digests().get(workload.name, {}).get(str(seed))
    attempted, failed = account(runs, workload.trials, recorded)
    good = [run["metrics"] for run in timed if run["metrics"]]
    metrics = {}
    if trace:
        if traced_run["spans"] is not None and good:
            import tracer
            layers = tracer.layer_metrics(traced_run["spans"],
                                          traced_run["run_metrics"],
                                          workers=workload.workers)
            untraced = statistics.median(m["wall_s"] for m in good)
            layers["trace.overhead_frac"] = (
                traced_run["metrics"]["wall_s"] / untraced - 1.0)
            layers["perfbench.cache_build_s"] = build_s
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in sorted(layers.items())}
    elif good:
        for name, unit in END_TO_END_UNITS.items():
            values = [m[name] for m in good]
            q1, median, q3 = quartiles(values)
            print("%s: median %.4f  q1 %.4f  q3 %.4f  n=%d %s" % (
                name, median, q1, q3, len(values), unit))
            metrics[name] = {"value": median, "unit": unit}
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_ratio", "_frac", "utilization")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def load_digests():
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _warn_if_memory_backed(path):
    """Journal fsyncs are part of the cost: warn when they cost nothing."""
    best, fstype = "", None
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if path.startswith(mount.rstrip("/") + "/") \
                        and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        return
    if fstype in ("tmpfs", "ramfs"):
        sys.stderr.write("warning: %s is on %s; journal fsyncs will not "
                         "reach a disk\n" % (path, fstype))


# -- Steadiness report -------------------------------------------------------------


def steal_seconds():
    """Cumulative steal time of all CPUs from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 \
        else 0.0


def steadiness(names, rounds, seed_base, seconds):
    """Alternate workloads over ``rounds``; print spreads and halves.

    ``names`` defaults to the workloads of ``BENCHMARK.json``.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    names = names or [w["name"] for w in benchmark["workloads"]]
    samples = {name: [] for name in names}
    for index in range(rounds):
        order = names[index % len(names):] + names[:index % len(names)]
        for name in order:
            seed = seed_base + index
            load = os.getloadavg()[0]
            steal = steal_seconds()
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                text=True)
            try:
                stdout, _ = proc.communicate()
            except BaseException:
                # SIGTERM lets the invocation stop its own workload.
                proc.terminate()
                proc.wait()
                raise
            lines = stdout.strip().splitlines()
            for line in lines[:-1]:
                print("    " + line)
            result = json.loads(lines[-1])
            steal = steal_seconds() - steal
            values = {key: item["value"]
                      for key, item in result["metrics"].items()}
            samples[name].append(values)
            print("round %d %s seed %d load %.2f steal %.2fs correct %s "
                  "failed %d %s" % (
                      index, name, seed, load, steal, result["correct"],
                      result["failed"], " ".join(
                          "%s=%.4g" % item for item in sorted(values.items()))),
                  flush=True)
    print()
    print("%-14s %-13s %3s %10s %10s %10s %7s %6s %s" % (
        "workload", "metric", "n", "median", "q1", "q3", "iqr%", "bound%",
        "halves"))
    for name in names:
        for metric, bound in bounds.items():
            values = [sample[metric] for sample in samples[name]
                      if metric in sample]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            half = len(values) // 2
            first = statistics.median(values[:half] or values)
            second = statistics.median(values[half:])
            drift = abs(second - first) / first if first else 0.0
            print("%-14s %-13s %3d %10.4f %10.4f %10.4f %7.2f %6.1f %s" % (
                name, metric, len(values), median, q1, q3,
                100 * (q3 - q1) / median if median else 0.0, 100 * bound,
                "agree (%.1f%%)" % (100 * drift) if drift <= bound
                else "DIFFER (%.1f%%)" % (100 * drift)))
    return 0


# -- Entry point ------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Campaign benchmark (see perfbench/README.md)")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true",
                        help="alternate every workload over --rounds and "
                             "print the spread of each metric")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset for --steadiness")
    args = parser.parse_args(argv)

    # A SIGTERM unwinds through launch(), which stops the workload's
    # process group before the driver exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("error: no program to benchmark: %s/repro is "
                         "missing (run from a full checkout)\n" % SRC)
        return 2
    sys.path[:0] = [SRC, HERE]
    workloads = make_workloads()
    if args.steadiness:
        names = args.workloads.split(",") if args.workloads else None
        return steadiness(names, args.rounds, args.seed, args.seconds)
    if args.workload not in workloads:
        parser.error("--workload must be one of %s" % ", ".join(workloads))

    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    _warn_if_memory_backed(work)
    try:
        result = measure(workloads[args.workload], args.seed, args.seconds,
                         args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
