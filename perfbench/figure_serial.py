"""The ``figure-serial`` workload: the figure suite's serial campaign.

Runs ``Campaign(config).run()`` as the figure suite's
``campaign_latch_ram`` fixture does at ``full`` scale -- same kinds,
warm-up, spacing, margin and trials per start point -- over a kernel
set sized to the benchmark's run length, then renders the Figure
3/4/7/8 tables.  Writes the completion times of the first and last
trial and the sha256 of the canonical trials to ``--out`` as JSON.

The horizon is 300 cycles, not the fixture's 1500.  About one trial in
seven runs the whole horizon, so at 1500 cycles the run time is set by
how many such trials a seed draws, and it spread by 16-31 % across ten
seeds; at 300 it spreads by about 6 %.

    PYTHONPATH=src python3 perfbench/figure_serial.py --seed 2004 --out r.json
"""

import argparse
import hashlib
import json
import sys
import time

KERNELS = ("perlbmk", "twolf", "vortex", "vpr")
FIXTURE = dict(kinds="latch+ram", scale="small", trials_per_start_point=30,
               start_points_per_workload=1, warmup_cycles=1200,
               spacing_cycles=400, horizon=300, margin=500)


def trials_digest(trials):
    """sha256 of ``[[unit key, trial_to_dict(trial)], ...]`` in unit order,
    encoded as the journal's canonical trial bytes are."""
    from repro.inject.store import trial_to_dict

    blob = sorted(([[t.workload, t.start_point, t.trial_index],
                    trial_to_dict(t)] for t in trials),
                  key=lambda pair: pair[0])
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.analysis import report
    from repro.inject.campaign import Campaign, CampaignConfig

    done_at = []

    def progress(done, total):
        done_at.append(time.time())

    config = CampaignConfig(workloads=KERNELS, seed=args.seed, **FIXTURE)
    result = Campaign(config).run(progress=progress)
    trials = result.trials
    for table in (
            report.render_workload_outcomes(
                trials, "Outcomes by benchmark (cf. Figure 3)"),
            report.render_category_outcomes(
                trials, "Outcomes by state category (cf. Figure 4)"),
            report.render_failure_modes(
                trials, "Failure modes (cf. Figure 7)"),
            report.render_contributions(
                trials, "Failure contributions (cf. Figure 8)")):
        print(table)
        print()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "trial_times": [done_at[0], done_at[-1]],
            "trials": len(trials),
            "digest": trials_digest(trials),
            "harness_errors": sum(
                1 for t in trials if t.outcome.value == "harness_error"),
        }, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
