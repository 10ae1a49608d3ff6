"""The fixed micro-benchmark suite behind ``repro-faults bench``.

Every run measures the same deterministic suite (fixed workload, fixed
seed, fixed cycle counts) so numbers are comparable across revisions:

* ``cycles_per_sec``       -- raw fault-free pipeline throughput;
* ``signature_us``         -- one ``StateSpace.signature()`` read (the
  incremental path trials take every cycle);
* ``signature_full_us``    -- one full recompute (the debug path);
* ``restore_us``           -- one copy-on-write trial restore (the path
  every trial takes against the live checkpoint);
* ``restore_full_us``      -- one full restore from a non-baseline
  snapshot (the slow path a start-point switch takes).

Results land in ``BENCH_<rev>.json`` at the repository root, and a run
prints its drift against the most recent committed file.  Nothing here
gates: end-to-end campaign throughput is measured, and bounded, by the
``perfbench/`` campaign benchmark, which times fresh processes from
outside and takes the median of several runs.  Timing obviously reads
the wall clock; that never touches simulation state, so the REP002
suppressions here are by design.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone

from repro.uarch.core import Pipeline
from repro.workloads import get_workload

__all__ = ["run_bench", "load_previous", "write_bench", "main", "SCHEMA"]

SCHEMA = 2

_BENCH_WORKLOAD = "gzip"
_BENCH_CYCLES = 600


# repro-lint: allow=REP002 (benchmark timing: wall clock feeds reported
# metrics only, never simulation state or trial classification)
def _best_seconds(fn, reps):
    """The fastest of ``reps`` timed calls of ``fn`` (noise floor)."""
    best = None
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


# repro-lint: allow=REP002 (benchmark timing, as above)
def _timed_restore(pipeline, snapshot_of, reps, dirty_cycles=30,
                   rounds=8):
    """Best single-restore time, dirtying the pipeline between calls."""
    best = None
    for _ in range(max(1, reps) * rounds):
        for _ in range(dirty_cycles):
            pipeline.cycle()
        snapshot = snapshot_of()
        start = time.perf_counter()
        pipeline.restore(snapshot)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def run_bench(reps=3):
    """Cycle/signature/restore micro-benchmarks on a warm pipeline."""
    workload = get_workload(_BENCH_WORKLOAD, scale="tiny")
    pipeline = Pipeline(workload.program)
    pipeline.run(200, stop_on_halt=True)
    space = pipeline.space

    def run_cycles():
        for _ in range(_BENCH_CYCLES):
            pipeline.cycle()

    cycle_seconds = _best_seconds(run_cycles, reps)

    def read_signature():
        for _ in range(2000):
            space.signature()

    signature_seconds = _best_seconds(read_signature, reps) / 2000

    def read_signature_full():
        for _ in range(20):
            space.signature(full=True)

    signature_full_seconds = _best_seconds(read_signature_full, reps) / 20

    # Fast path: restore the live checkpoint after a short burst of
    # dirtying work (the shape of every trial's reset).  Only the
    # restore call itself is inside the timed region.
    checkpoint = pipeline.checkpoint()
    restore_seconds = _timed_restore(
        pipeline, lambda: checkpoint, reps)

    # Slow path: alternate between two checkpoints so every restore
    # lands on a non-baseline snapshot.
    snap_a = pipeline.checkpoint()
    for _ in range(30):
        pipeline.cycle()
    snap_b = pipeline.checkpoint()
    snaps = [snap_a, snap_b]

    def next_slow_snapshot():
        snaps.reverse()
        return snaps[0]

    restore_full_seconds = _timed_restore(pipeline, next_slow_snapshot,
                                          reps)

    return {
        "cycles_per_sec": round(_BENCH_CYCLES / cycle_seconds, 1),
        "signature_us": round(signature_seconds * 1e6, 3),
        "signature_full_us": round(signature_full_seconds * 1e6, 1),
        "restore_us": round(restore_seconds * 1e6, 1),
        "restore_full_us": round(restore_full_seconds * 1e6, 1),
    }


# -- persistence and comparison -----------------------------------------------


def repo_root():
    """The checkout root (three levels above this package)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def revision(directory=None):
    """The short git revision of ``directory``, or ``"local"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=directory or repo_root(), capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def bench_files(directory):
    """All ``BENCH_*.json`` files in ``directory``, oldest first."""
    paths = glob.glob(os.path.join(directory, "BENCH_*.json"))
    entries = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(data, dict) and "metrics" in data \
                and data.get("schema") == SCHEMA:
            entries.append((data.get("created", ""), path, data))
    entries.sort()
    return [(path, data) for _, path, data in entries]


def load_previous(directory, exclude_rev=None):
    """The newest benchmark file, skipping ``exclude_rev``'s own."""
    found = None
    for path, data in bench_files(directory):
        if exclude_rev is not None and data.get("rev") == exclude_rev:
            continue
        found = (path, data)
    return found


def write_bench(directory, rev, metrics):
    """Write ``BENCH_<rev>.json``; returns its path."""
    path = os.path.join(directory, "BENCH_%s.json" % rev)
    payload = {
        "schema": SCHEMA,
        "rev": rev,
        "created": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"),
        "suite": {
            "workload": _BENCH_WORKLOAD,
            "cycles": _BENCH_CYCLES,
        },
        "metrics": metrics,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None):
    """``repro-faults bench`` entry point; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-faults bench",
        description="fixed micro-benchmark suite; writes "
                    "BENCH_<rev>.json and prints the drift against the "
                    "previous revision's file")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per metric (best-of)")
    parser.add_argument("--dir", default=None, metavar="PATH",
                        help="where BENCH_*.json files live (default: "
                             "the repository root)")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and compare without writing a file")
    args = parser.parse_args(argv)

    directory = args.dir or repo_root()
    rev = revision(directory)
    print("benchmarking revision %s (reps=%d) ..." % (rev, args.reps))
    metrics = run_bench(reps=args.reps)
    for key in sorted(metrics):
        print("  %-22s %s" % (key, metrics[key]))

    previous = load_previous(directory, exclude_rev=rev)
    if previous is None:
        print("no previous BENCH_*.json to compare against")
    else:
        prev_path, prev_data = previous
        print("drift vs previous %s (rev %s):"
              % (os.path.basename(prev_path), prev_data.get("rev")))
        for key in sorted(metrics):
            old = prev_data["metrics"].get(key)
            new = metrics[key]
            if old:
                print("  %-22s %.2f -> %.2f (%+.1f%%)"
                      % (key, old, new, 100.0 * (new - old) / old))

    if not args.no_write:
        path = write_bench(directory, rev, metrics)
        print("wrote %s" % os.path.relpath(path, os.getcwd()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
