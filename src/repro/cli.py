"""Command-line interface: ``repro-faults`` / ``python -m repro``.

Subcommands:

* ``inventory``  -- print the machine's Table 1 state inventory.
* ``run``        -- run a workload on the pipeline, report IPC/output.
* ``campaign``   -- run a microarchitectural injection campaign and
  print Figure 3/4-style outcome tables.
* ``software``   -- run a Section-5 software-level campaign (Figure 11).
* ``overhead``   -- print the protection-mechanism storage overheads.
* ``lint``       -- static analysis of the model itself (injectability,
  determinism, ghost isolation; see docs/LINTING.md).
* ``bench``      -- fixed micro-benchmark suite tracking the cycle rate,
  signature reads and restores across revisions (see
  docs/PERFORMANCE.md).
* ``serve`` / ``worker`` / ``submit`` -- the distributed campaign
  fabric: run a coordinator, attach pull-based workers, submit
  fingerprinted campaigns (see docs/FABRIC.md).
* ``merge``      -- merge campaign journals/segments of one fingerprint
  into a single result document.
* ``dash``       -- live web dashboard over campaign directories and/or
  a fabric coordinator (see docs/OBSERVABILITY.md).
* ``query``      -- ingest campaign journals into the SQLite results
  store and print paper-style cross-campaign comparison tables.
"""

import argparse
import sys

from repro.analysis.report import (
    render_category_outcomes,
    render_contributions,
    render_failure_modes,
    render_inventory,
    render_latency_histogram,
    render_masking_causes,
    render_workload_outcomes,
)
from repro.inject.campaign import CampaignConfig
from repro.inject.software import SoftwareCampaign, SoftwareCampaignConfig
from repro.protect import protection_overhead_report
from repro.uarch.config import PipelineConfig, ProtectionConfig
from repro.uarch.core import Pipeline
from repro.workloads import WORKLOAD_NAMES, get_workload


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded verbatim: argparse's REMAINDER cannot pass through
        # leading option tokens (e.g. ``lint --list-rules``).
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    if argv and argv[0] == "bench":
        # Same verbatim forward (e.g. ``bench --no-write``).
        from repro.perf.bench import main as bench_main
        return bench_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    return args.handler(args)


def build_parser():
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-faults",
        description="Transient-fault characterisation of a high-performance "
                    "pipeline (Wang et al., DSN 2004 reproduction)")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("inventory", help="print the Table 1 state inventory")
    p.add_argument("--protected", action="store_true",
                   help="include the Section-4 protection mechanisms")
    p.set_defaults(handler=cmd_inventory)

    p = sub.add_parser("run", help="run one workload on the pipeline")
    p.add_argument("workload", choices=WORKLOAD_NAMES)
    p.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "large"))
    p.add_argument("--max-cycles", type=int, default=2_000_000)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("campaign", help="microarchitectural injection "
                                        "campaign (Figures 3-8)")
    p.add_argument("--workloads", nargs="*", default=list(WORKLOAD_NAMES))
    p.add_argument("--kinds", default="latch+ram",
                   choices=("latch", "latch+ram"))
    p.add_argument("--fault-model", default="single_bit", metavar="SPEC",
                   help="fault-model spec (repro.faultlib): single_bit, "
                        "multi_bit:adjacent:K, burst:array:p=P, "
                        "stuck_at:V[:lifetime=N], intermittent:P,D "
                        "(default: single_bit, the paper's model)")
    p.add_argument("--trials", type=int, default=25,
                   help="trials per start point")
    p.add_argument("--start-points", type=int, default=3)
    p.add_argument("--horizon", type=int, default=1200)
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--protected", action="store_true",
                   help="enable all four protection mechanisms")
    p.add_argument("--paper-scale", action="store_true",
                   help="the paper's 25-30k trial scale (very slow)")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="schedule trial units across N worker processes")
    p.add_argument("--dir", metavar="PATH", dest="campaign_dir",
                   help="campaign directory: journal every finished trial "
                        "(crash-resumable) and write metrics.json there")
    p.add_argument("--resume", metavar="PATH",
                   help="resume a journaled campaign directory, skipping "
                        "already-completed trials")
    p.add_argument("--batch-size", type=int, default=None, metavar="N",
                   help="trials per scheduling quantum (default: auto)")
    p.add_argument("--batch", type=int, default=1, metavar="N",
                   help="bit-plane lanes per batched trial group "
                        "(execution strategy only: results and journals "
                        "are byte-identical for any N, and N is not part "
                        "of the campaign fingerprint; see "
                        "docs/PERFORMANCE.md)")
    p.add_argument("--trial-timeout", type=float, default=None, metavar="S",
                   help="kill and retry a worker stuck on one trial for "
                        "more than S seconds")
    p.add_argument("--chaos", metavar="SPEC",
                   help="harness chaos testing: fire seeded harness "
                        "faults (kill, stall, tear, io, cache, sigterm, "
                        "sigint as 'kind[:count][@at]' tokens) during the "
                        "campaign and auto-resume through each crash; "
                        "requires --dir (see docs/RUNNER.md)")
    p.add_argument("--repair", action="store_true",
                   help="repair a corrupt journal in --dir/--resume: "
                        "truncate at the last checksummed-valid line "
                        "(asks for confirmation; dropped trials are "
                        "recomputed on resume)")
    p.add_argument("--yes", action="store_true",
                   help="skip the --repair confirmation prompt")
    p.add_argument("--save", metavar="PATH",
                   help="write the trial results to a JSON file")
    p.add_argument("--provenance", action="store_true",
                   help="track fault propagation per trial (masking "
                        "causes, first-read latency; observation-only)")
    p.add_argument("--profile", action="store_true",
                   help="per-stage wall-clock profiling; prints a "
                        "campaign-wide hot-path report")
    p.set_defaults(handler=cmd_campaign)

    p = sub.add_parser("software", help="software-level campaign "
                                        "(Figure 11)")
    p.add_argument("--workloads", nargs="*", default=list(WORKLOAD_NAMES))
    p.add_argument("--trials", type=int, default=12,
                   help="trials per fault model per workload")
    p.add_argument("--seed", type=int, default=500)
    p.add_argument("--save", metavar="PATH",
                   help="write the trial results to a JSON file")
    p.set_defaults(handler=cmd_software)

    p = sub.add_parser("overhead", help="protection storage overheads "
                                        "(Section 4.3)")
    p.set_defaults(handler=cmd_overhead)

    p = sub.add_parser(
        "trace",
        help="replay one campaign trial with full event tracing "
             "(--start-point), or run a workload with occupancy tracing")
    p.add_argument("workload", choices=WORKLOAD_NAMES)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--log", type=int, default=20,
                   help="retirement-log lines to print")
    p.add_argument("--start-point", type=int, default=None, metavar="N",
                   help="replay the campaign trial injected at start "
                        "point N (switches to trial-replay mode)")
    p.add_argument("--trial-index", type=int, default=0, metavar="I",
                   help="which trial of the start point to replay")
    p.add_argument("--seed", type=int, default=2004,
                   help="campaign seed the trial belongs to")
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--kinds", default="latch+ram",
                   choices=("latch", "latch+ram"))
    p.add_argument("--fault-model", default="single_bit", metavar="SPEC",
                   help="fault-model spec of the campaign being "
                        "replayed (repro.faultlib); default single_bit")
    p.add_argument("--horizon", type=int, default=1200)
    p.add_argument("--warmup", type=int, default=1200, metavar="CYCLES")
    p.add_argument("--spacing", type=int, default=400, metavar="CYCLES")
    p.add_argument("--margin", type=int, default=400, metavar="CYCLES")
    p.add_argument("--protected", action="store_true",
                   help="replay against the protected machine")
    p.add_argument("--limit", type=int, default=80, metavar="N",
                   help="timeline events to print (most recent N)")
    p.add_argument("--events", nargs="*", default=None, metavar="KIND",
                   help="only show these event kinds (e.g. retire flush)")
    p.add_argument("--profile", action="store_true",
                   help="also print the per-stage wall-clock profile")
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("avf", help="occupancy-based AVF proxy per "
                                   "structure (cf. Section 3.3)")
    p.add_argument("--workloads", nargs="*", default=["gzip", "mcf"])
    p.add_argument("--cycles", type=int, default=2000)
    p.set_defaults(handler=cmd_avf)

    p = sub.add_parser("serve", help="run a fabric coordinator serving "
                                     "campaign leases to workers")
    p.add_argument("--dir", metavar="PATH", dest="fabric_dir", required=True,
                   help="base directory: each campaign's journal and "
                        "metrics live in <dir>/<fingerprint12>/")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100)
    p.add_argument("--ttl", type=float, default=None, metavar="S",
                   help="lease time-to-live between heartbeats "
                        "(default 30s)")
    p.add_argument("--shard-size", type=int, default=None, metavar="N",
                   help="trials per lease (default 4)")
    p.add_argument("--tenant-quota", type=int, default=None, metavar="N",
                   help="max concurrent leases per tenant (default 4)")
    p.add_argument("--status-interval", type=float, default=10.0,
                   metavar="S", help="seconds between status lines")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("worker", help="attach a fabric worker to a "
                                      "coordinator and execute leases")
    p.add_argument("--connect", metavar="HOST:PORT", required=True)
    p.add_argument("--name", default=None,
                   help="worker name in leases and telemetry "
                        "(default worker-<pid>)")
    p.add_argument("--processes", type=int, default=1, metavar="N",
                   help="local processes per leased range (1 = inline)")
    p.add_argument("--max-leases", type=int, default=None, metavar="N",
                   help="exit after serving N leases")
    p.add_argument("--exit-when-idle", action="store_true",
                   help="exit once the coordinator has no work to lease")
    p.add_argument("--spool-dir", metavar="PATH", default=None,
                   help="durably spool each completed segment here "
                        "before transmitting it")
    p.add_argument("--chaos", metavar="SPEC", default=None,
                   help="seeded network chaos: drop, dup, partition as "
                        "'kind[:count][@at]' tokens keyed to this "
                        "worker's nth lease (see docs/FABRIC.md)")
    p.add_argument("--chaos-seed", type=int, default=2004,
                   help="seed for unanchored --chaos trigger points")
    p.set_defaults(handler=cmd_worker)

    p = sub.add_parser("submit", help="submit a campaign to a fabric "
                                      "coordinator")
    p.add_argument("--connect", metavar="HOST:PORT", required=True)
    p.add_argument("--tenant", default="default")
    p.add_argument("--shard-size", type=int, default=None, metavar="N",
                   help="trials per lease for this campaign")
    p.add_argument("--watch", action="store_true",
                   help="poll the coordinator until the campaign is done")
    p.add_argument("--workloads", nargs="*", default=list(WORKLOAD_NAMES))
    p.add_argument("--kinds", default="latch+ram",
                   choices=("latch", "latch+ram"))
    p.add_argument("--fault-model", default="single_bit", metavar="SPEC",
                   help="fault-model spec (repro.faultlib); "
                        "default single_bit")
    p.add_argument("--trials", type=int, default=25,
                   help="trials per start point")
    p.add_argument("--start-points", type=int, default=3)
    p.add_argument("--horizon", type=int, default=1200)
    p.add_argument("--scale", default="small",
                   choices=("tiny", "small", "large"))
    p.add_argument("--seed", type=int, default=2004)
    p.add_argument("--protected", action="store_true",
                   help="enable all four protection mechanisms")
    p.add_argument("--paper-scale", action="store_true",
                   help="the paper's 25-30k trial scale (very slow)")
    p.set_defaults(handler=cmd_submit)

    p = sub.add_parser("merge", help="merge campaign journals/segments of "
                                     "one fingerprint into one result")
    p.add_argument("inputs", nargs="+", metavar="DIR_OR_JOURNAL",
                   help="campaign directories (their journal.jsonl) "
                        "and/or journal/segment files")
    p.add_argument("--save", metavar="PATH",
                   help="write the merged uarch-campaign JSON here")
    p.set_defaults(handler=cmd_merge)

    p = sub.add_parser("dash", help="live web dashboard over campaign "
                                    "dirs and/or a fabric coordinator")
    p.add_argument("dirs", nargs="*", metavar="DIR",
                   help="campaign directories to tail (a fabric base "
                        "directory works too: each child with a journal "
                        "is tailed)")
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="also poll this fabric coordinator's /status")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8111)
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="seconds between refresh ticks (default 2)")
    p.add_argument("--db", metavar="PATH", default=":memory:",
                   help="persist the ingested results store here "
                        "(default: in-memory, discarded on exit)")
    p.set_defaults(handler=cmd_dash)

    p = sub.add_parser("query", help="cross-campaign tables from the "
                                     "results store")
    p.add_argument("--db", metavar="PATH", default=":memory:",
                   help="results-store database (default: in-memory -- "
                        "then --ingest is how data gets in)")
    p.add_argument("--ingest", action="append", default=[],
                   metavar="DIR_OR_JOURNAL",
                   help="ingest this campaign directory (or journal/"
                        "segment file) before querying; repeatable")
    p.add_argument("--by", default="category",
                   choices=("category", "workload", "element",
                            "fault_model"),
                   help="grouping axis of the outcome tables "
                        "(default: category, the paper's per-structure "
                        "breakdown; fault_model also prints the "
                        "per-structure fault-model comparison)")
    p.add_argument("--campaigns", nargs="*", default=None,
                   metavar="PREFIX",
                   help="restrict to these campaigns (fingerprint "
                        "prefix or label); default: all ingested")
    p.add_argument("--list", action="store_true",
                   help="only print the ingested-campaign inventory")
    p.add_argument("--masking", action="store_true",
                   help="also print per-campaign masking-cause tables")
    p.add_argument("--latency", action="store_true",
                   help="also print latency-to-failure histograms")
    p.set_defaults(handler=cmd_query)

    p = sub.add_parser("lint", add_help=False,
                       help="static analysis: injectability, determinism, "
                            "ghost isolation (REP001-REP007)")
    p.add_argument("lint_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to repro.lint "
                        "(see 'repro-faults lint --help')")
    p.set_defaults(handler=cmd_lint)

    p = sub.add_parser("bench", add_help=False,
                       help="fixed micro-benchmark suite; writes "
                            "BENCH_<rev>.json (see docs/PERFORMANCE.md)")
    p.add_argument("bench_args", nargs=argparse.REMAINDER,
                   help="arguments forwarded to repro.perf.bench "
                        "(see 'repro-faults bench --help')")
    p.set_defaults(handler=cmd_bench)
    return parser


def cmd_inventory(args):
    """Print the Table 1 state inventory."""
    protection = ProtectionConfig.full() if args.protected \
        else ProtectionConfig.none()
    workload = get_workload("gzip", scale="tiny")
    pipeline = Pipeline(workload.program, PipelineConfig.paper(protection))
    print(render_inventory(pipeline.space.inventory(),
                           "State inventory (cf. paper Table 1)"))
    print("total injectable bits:", pipeline.eligible_bits())
    return 0


def cmd_run(args):
    """Run one workload on the pipeline and report IPC."""
    workload = get_workload(args.workload, scale=args.scale)
    pipeline = Pipeline(workload.program)
    pipeline.run(args.max_cycles)
    ipc = pipeline.total_retired / max(1, pipeline.cycle_count)
    print("workload : %s (%s)" % (workload.name, workload.profile))
    print("cycles   : %d" % pipeline.cycle_count)
    print("retired  : %d  (IPC %.2f)" % (pipeline.total_retired, ipc))
    print("halted   : %s" % pipeline.halted)
    print("output   : %r" % pipeline.output_text()[:200])
    return 0


def cmd_campaign(args):
    """Run a microarchitectural campaign; print tables."""
    protection = ProtectionConfig.full() if args.protected \
        else ProtectionConfig.none()
    from repro.errors import CampaignDrained, ReproError
    try:
        if args.paper_scale:
            config = CampaignConfig.paper(
                workloads=tuple(args.workloads), kinds=args.kinds,
                seed=args.seed, protection=protection,
                provenance=args.provenance, profile=args.profile,
                fault_model=args.fault_model)
        else:
            config = CampaignConfig(
                workloads=tuple(args.workloads), kinds=args.kinds,
                trials_per_start_point=args.trials,
                start_points_per_workload=args.start_points,
                horizon=args.horizon, scale=args.scale, seed=args.seed,
                protection=protection, provenance=args.provenance,
                profile=args.profile, fault_model=args.fault_model)
    except ReproError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    from repro.runner import CampaignRunner
    directory = args.resume or args.campaign_dir
    if args.repair:
        return _cmd_repair_journal(directory, assume_yes=args.yes)
    if args.chaos and not directory:
        sys.stderr.write(
            "error: --chaos requires --dir (recovery is the thing under "
            "test, and resume requires a journal)\n")
        return 2
    renderer = _ProgressRenderer()
    runner = None
    try:
        if args.chaos:
            result = _run_chaos(args, config, directory, renderer)
        else:
            runner = CampaignRunner(
                config, workers=args.parallel, directory=directory,
                batch_size=args.batch_size, batch_lanes=args.batch,
                trial_timeout=args.trial_timeout,
                progress=renderer, require_journal=bool(args.resume))
            result = runner.run()
    except CampaignDrained as drained:
        renderer.finish()
        sys.stderr.write("%s\n" % drained)
        import signal as signal_module
        return 128 + int(getattr(signal_module.Signals,
                                 drained.signal_name, 15))
    except KeyboardInterrupt:
        renderer.finish()  # complete the live line before the verdict
        if directory:
            sys.stderr.write(
                "interrupted; finished trials are journaled -- rerun with "
                "--resume %s to continue\n" % directory)
        else:
            sys.stderr.write(
                "interrupted (no --dir given: progress was not journaled)\n")
        return 130
    except ReproError as error:
        renderer.finish()
        sys.stderr.write("error: %s\n" % error)
        return 2
    renderer.finish()
    if args.save:
        from repro.inject.store import save_result
        save_result(result, args.save)
        print("results written to %s" % args.save)
    print(render_workload_outcomes(
        result.trials, "Outcomes by benchmark (cf. Figure 3)"))
    print()
    print(render_category_outcomes(
        result.trials, "Outcomes by state category (cf. Figures 4/5/9)"))
    print()
    print(render_failure_modes(
        result.trials, "Failure modes (cf. Figure 7)"))
    print()
    print(render_contributions(
        result.trials, "Failure contributions (cf. Figures 8/10)"))
    print()
    masking = render_masking_causes(
        result.trials, "Masking causes of benign trials (provenance)")
    if masking is not None:
        print(masking)
        print()
    latency = render_latency_histogram(
        result.trials, "Latency to failure detection (cycles)")
    if latency is not None:
        print(latency)
        print()
    profile = runner.profile_report() if runner is not None else None
    if profile is not None:
        print(profile)
        print()
    print("eligible bits: %d   elapsed: %.1fs"
          % (result.eligible_bits, result.elapsed_seconds))
    return 0


def _run_chaos(args, config, directory, renderer):
    """Run a campaign under ``--chaos``, printing the fault log."""
    from repro.chaos import ChaosSchedule, run_chaos_campaign
    chaos = ChaosSchedule.from_spec(args.chaos, config)
    result, restarts = run_chaos_campaign(
        config, directory, chaos, workers=args.parallel,
        batch_size=args.batch_size, batch_lanes=args.batch,
        trial_timeout=args.trial_timeout, progress=renderer)
    renderer.finish()
    sys.stderr.write("chaos: %d fault(s) scheduled, %d restart(s)\n%s\n"
                     % (len(chaos.events), restarts, chaos.render()))
    return result


def _cmd_repair_journal(directory, assume_yes=False):
    """``campaign --repair``: truncate a journal at the last valid line."""
    from repro.runner.journal import journal_path, repair_journal
    if not directory:
        sys.stderr.write("error: --repair requires --dir or --resume\n")
        return 2
    path = journal_path(directory)
    try:
        kept, dropped, offset = repair_journal(path, dry_run=True)
    except OSError as error:
        sys.stderr.write("error: cannot read %s: %s\n" % (path, error))
        return 2
    if not dropped:
        print("%s: every line passes its checksum; nothing to repair"
              % path)
        return 0
    print("%s: %d valid line(s), then %d invalid line(s)"
          % (path, kept, dropped))
    print("repair truncates the file to %d bytes; the dropped trials "
          "are recomputed on the next --resume run" % offset)
    if not assume_yes:
        answer = input("truncate? [y/N] ").strip().lower()
        if answer not in ("y", "yes"):
            print("journal left untouched")
            return 1
    repair_journal(path)
    print("truncated %s at byte %d (%d line(s) dropped)"
          % (path, offset, dropped))
    return 0


def cmd_software(args):
    """Run a Section-5 software campaign (Figure 11)."""
    config = SoftwareCampaignConfig(
        workloads=tuple(args.workloads),
        trials_per_model_per_workload=args.trials, seed=args.seed)
    result = SoftwareCampaign(config).run(progress=_progress)
    sys.stderr.write("\n")
    if args.save:
        from repro.inject.store import save_result
        save_result(result, args.save)
        print("results written to %s" % args.save)
    from repro.inject.software import ALL_FAULT_MODELS, SoftwareOutcome
    from repro.utils.tables import format_table
    headers = ["fault model", "n"] + [o.value for o in SoftwareOutcome] \
        + ["stateok_diverged%"]
    rows = []
    for model in ALL_FAULT_MODELS:
        counts = result.outcome_counts(model)
        total = sum(counts.values())
        row = [model.value, total]
        row += [100.0 * counts[o] / total if total else 0.0
                for o in SoftwareOutcome]
        row.append(100.0 * result.state_ok_divergence_rate(model))
        rows.append(row)
    print(format_table(headers, rows,
                       title="Software fault models (cf. Figure 11), %"))
    return 0


def cmd_overhead(args):
    """Print protection storage overheads (Section 4.3)."""
    workload = get_workload("gzip", scale="tiny")
    pipeline = Pipeline(workload.program,
                        PipelineConfig.paper(ProtectionConfig.full()))
    report = protection_overhead_report(pipeline)
    for key, value in report.items():
        if isinstance(value, float):
            print("%-26s %.3f" % (key, value))
        else:
            print("%-26s %d" % (key, value))
    return 0


def cmd_trace(args):
    """Trace: replay one campaign trial, or occupancy timelines."""
    if args.start_point is not None:
        return _cmd_trace_trial(args)
    from repro.uarch.trace import (
        PipelineTracer,
        retirement_log,
        rob_window,
        structure_snapshot,
    )

    workload = get_workload(args.workload, scale="small")
    pipeline = Pipeline(workload.program)
    tracer = PipelineTracer(sample_every=2).attach(pipeline)
    pipeline.run(args.cycles)
    tracer.detach()
    print(structure_snapshot(pipeline))
    for structure in ("rob", "sched", "fetchq", "lq", "sq"):
        print(tracer.occupancy_timeline(structure))
    print("window IPC: %.2f" % tracer.ipc())
    print()
    print("oldest in-flight instructions:")
    print(rob_window(pipeline, limit=8))
    print()
    print("next retirements:")
    print(retirement_log(pipeline, 200, limit=args.log))
    return 0


def _cmd_trace_trial(args):
    """Replay one campaign trial and print its propagation timeline."""
    from repro.errors import ReproError
    from repro.obs.replay import replay_trial

    protection = ProtectionConfig.full() if args.protected \
        else ProtectionConfig.none()
    try:
        result = replay_trial(
            args.workload, args.start_point,
            trial_index=args.trial_index, profile=args.profile,
            seed=args.seed, scale=args.scale, kinds=args.kinds,
            horizon=args.horizon, warmup_cycles=args.warmup,
            spacing_cycles=args.spacing, margin=args.margin,
            protection=protection, fault_model=args.fault_model)
    except ReproError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    kinds = tuple(args.events) if args.events else None
    print(result.render(limit=args.limit, kinds=kinds))
    return 0


def cmd_avf(args):
    """Print per-structure occupancy (AVF proxy, Section 3.3)."""
    from repro.analysis.avf import estimate_avf
    from repro.utils.tables import format_table

    rows = []
    for name in args.workloads:
        workload = get_workload(name, scale="small")
        pipeline = Pipeline(workload.program)
        pipeline.run(1000)
        estimate = estimate_avf(pipeline, args.cycles)
        for structure, value in sorted(estimate.occupancy.items()):
            rows.append([name, structure, value])
    print(format_table(["workload", "structure", "occupancy proxy"], rows,
                       title="AVF occupancy proxy (cf. paper Section 3.3)"))
    return 0


def _parse_connect(text):
    """``HOST:PORT`` -> ``(host, port)``; exits with code 2 on nonsense."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not port_text.isdigit():
        sys.stderr.write("error: --connect wants HOST:PORT, got %r\n"
                         % text)
        raise SystemExit(2)
    return host or "127.0.0.1", int(port_text)


def _submit_config(args):
    """The :class:`CampaignConfig` described by ``submit`` flags."""
    protection = ProtectionConfig.full() if args.protected \
        else ProtectionConfig.none()
    if args.paper_scale:
        return CampaignConfig.paper(
            workloads=tuple(args.workloads), kinds=args.kinds,
            seed=args.seed, protection=protection,
            fault_model=args.fault_model)
    return CampaignConfig(
        workloads=tuple(args.workloads), kinds=args.kinds,
        trials_per_start_point=args.trials,
        start_points_per_workload=args.start_points,
        horizon=args.horizon, scale=args.scale, seed=args.seed,
        protection=protection, fault_model=args.fault_model)


def cmd_serve(args):
    """Run a fabric coordinator until ``/shutdown`` (or Ctrl-C)."""
    import repro.fabric as fabric
    try:
        fabric.serve(
            args.fabric_dir, host=args.host, port=args.port,
            ttl=args.ttl if args.ttl is not None
            else fabric.DEFAULT_TTL_SECONDS,
            shard_size=args.shard_size if args.shard_size is not None
            else fabric.DEFAULT_SHARD_SIZE,
            quota=args.tenant_quota if args.tenant_quota is not None
            else fabric.DEFAULT_QUOTA,
            status_interval=args.status_interval)
    except KeyboardInterrupt:
        sys.stderr.write("coordinator stopped; campaign journals under "
                         "%s are resumable\n" % args.fabric_dir)
        return 130
    except OSError as error:
        sys.stderr.write("error: cannot serve on %s:%d: %s\n"
                         % (args.host, args.port, error))
        return 2
    return 0


def cmd_worker(args):
    """Attach one fabric worker to a coordinator."""
    import asyncio

    from repro.errors import ReproError
    from repro.fabric import FabricWorker, NetChaosSchedule
    host, port = _parse_connect(args.connect)
    chaos = None
    if args.chaos:
        try:
            chaos = NetChaosSchedule.from_spec(args.chaos, args.chaos_seed)
        except ReproError as error:
            sys.stderr.write("error: %s\n" % error)
            return 2
    worker = FabricWorker(
        host, port, name=args.name, processes=args.processes,
        chaos=chaos, max_leases=args.max_leases,
        exit_when_idle=args.exit_when_idle, spool_dir=args.spool_dir,
        echo=lambda text: sys.stderr.write(text + "\n"))
    try:
        stats = asyncio.run(worker.run())
    except KeyboardInterrupt:
        sys.stderr.write("worker stopped; unfinished leases expire and "
                         "are re-run elsewhere\n")
        return 130
    except ReproError as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    print("worker %s: %d lease(s), %d trial(s)"
          % (worker.name, stats["leases"], stats["trials"]))
    if chaos is not None:
        sys.stderr.write("chaos:\n%s\n" % chaos.render())
    return 0


def cmd_submit(args):
    """Submit (and optionally watch) a campaign on a coordinator."""
    import time

    from repro.errors import ReproError
    from repro.fabric import call_sync, render_status
    from repro.inject.store import config_to_dict
    host, port = _parse_connect(args.connect)
    config = _submit_config(args)
    payload = {"tenant": args.tenant, "config": config_to_dict(config)}
    if args.shard_size is not None:
        payload["shard_size"] = args.shard_size
    try:
        reply = call_sync(host, port, "/submit", payload)
    except (OSError, ReproError) as error:
        sys.stderr.write("error: submit to %s:%d failed: %s\n"
                         % (host, port, error))
        return 2
    print("campaign %s (%d trials in %d range(s)) -> tenant %s, "
          "journal %s%s"
          % (reply["fingerprint"][:12], reply["total_units"],
             reply["ranges"], reply["tenant"], reply["directory"],
             " [already complete]" if reply["done"] else ""))
    if not args.watch or reply["done"]:
        return 0
    short = reply["fingerprint"][:12]
    while True:
        # repro-lint: allow=REP002 (poll pacing for a human watcher;
        # no simulation path involved)
        time.sleep(2.0)
        try:
            status = call_sync(host, port, "/status", {})
        except (OSError, ReproError) as error:
            sys.stderr.write("error: status poll failed: %s\n" % error)
            return 2
        sys.stderr.write(render_status(status) + "\n")
        campaign = (status.get("campaigns") or {}).get(short)
        if campaign is not None and campaign.get("done"):
            print("campaign %s complete" % short)
            return 0


def cmd_merge(args):
    """Merge campaign journals/segments of one fingerprint."""
    import json
    import os

    from repro.errors import ReproError
    from repro.inject.store import campaign_from_dict, merge_campaign_dicts
    from repro.runner.journal import campaign_dict_from_journal, journal_path
    documents = []
    try:
        for given in args.inputs:
            path = journal_path(given) if os.path.isdir(given) else given
            documents.append(campaign_dict_from_journal(path))
        merged = merge_campaign_dicts(documents)
    except (OSError, ReproError) as error:
        sys.stderr.write("error: %s\n" % error)
        return 2
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(merged, handle, indent=1)
        print("merged result written to %s" % args.save)
    result = campaign_from_dict(merged)
    print("merged %d input(s): %d unique trial(s) of fingerprint %s"
          % (len(documents), len(result.trials),
             merged["fingerprint"][:12]))
    print()
    print(render_workload_outcomes(
        result.trials, "Outcomes by benchmark (merged)"))
    return 0


def cmd_dash(args):
    """Serve the live dashboard (``repro-faults dash``)."""
    from repro.dash import run_dash
    connect = _parse_connect(args.connect) if args.connect else None
    if not args.dirs and connect is None:
        sys.stderr.write("error: nothing to watch -- give campaign DIRs "
                         "to tail and/or --connect HOST:PORT\n")
        return 2
    try:
        run_dash(directories=args.dirs, connect=connect, host=args.host,
                 port=args.port, interval=args.interval, db_path=args.db)
    except OSError as error:
        sys.stderr.write("error: cannot serve on %s:%d: %s\n"
                         % (args.host, args.port, error))
        return 2
    return 0


def cmd_query(args):
    """Ingest into the results store and print comparison tables."""
    import sqlite3

    from repro.errors import ReproError
    from repro.store import (
        ResultsStore,
        render_campaign_list,
        render_store_fault_models,
        render_store_latency,
        render_store_masking,
        render_store_outcomes,
    )
    try:
        store = ResultsStore(args.db)
    except (OSError, sqlite3.Error) as error:
        sys.stderr.write("error: cannot open %s: %s\n" % (args.db, error))
        return 2
    with store:
        try:
            for source in args.ingest:
                sys.stderr.write(store.ingest(source).render() + "\n")
            if not store.campaigns():
                sys.stderr.write(
                    "error: the store is empty -- ingest campaign "
                    "directories with --ingest\n")
                return 2
            fingerprints = None
            if args.campaigns:
                fingerprints = [store.resolve(prefix)["fingerprint"]
                                for prefix in args.campaigns]
            print(render_campaign_list(store))
            if args.list:
                return 0
            print()
            print(render_store_outcomes(store, by=args.by,
                                        fingerprints=fingerprints))
            if args.by == "fault_model":
                # The headline cross-model view: failure rate per
                # structure (category), one column per fault model.
                print()
                print(render_store_fault_models(
                    store, fingerprints=fingerprints))
            if args.masking:
                masking = render_store_masking(store,
                                               fingerprints=fingerprints)
                print()
                print(masking if masking is not None else
                      "(no masking data: no selected campaign ran with "
                      "--provenance)")
            if args.latency:
                latency = render_store_latency(store,
                                               fingerprints=fingerprints)
                print()
                print(latency if latency is not None else
                      "(no latency data: no detected failures in the "
                      "selected campaigns)")
        except (OSError, ReproError) as error:
            sys.stderr.write("error: %s\n" % error)
            return 2
    return 0


def cmd_lint(args):
    """Run the repro.lint static-analysis pass over the tree."""
    from repro.lint.cli import main as lint_main
    return lint_main(args.lint_args)


def cmd_bench(args):
    """Run the fixed benchmark suite (repro.perf.bench)."""
    from repro.perf.bench import main as bench_main
    return bench_main(args.bench_args)


class _ProgressRenderer:
    """Live one-line campaign telemetry on stderr.

    Receives :class:`~repro.runner.telemetry.TelemetrySnapshot` values
    from the engine (percent, trials/sec, ETA, outcome mix) and redraws
    a single ``\\r`` status line.  :meth:`finish` terminates the line
    with a newline and flushes -- called on success *and* on SIGINT so
    an interrupt never leaves a partial line swallowing the verdict.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stderr
        self._dirty = False

    def __call__(self, snapshot):
        self._stream.write("\r" + snapshot.render() + "  ")
        self._stream.flush()
        self._dirty = True

    def finish(self):
        if self._dirty:
            self._stream.write("\n")
            self._stream.flush()
            self._dirty = False


def _progress(done, total):
    if done % 20 == 0 or done == total:
        sys.stderr.write("\r%d/%d trials" % (done, total))
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main())
