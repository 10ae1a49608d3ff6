"""Figure 9: protected-machine injection outcomes by state category.

Paper shape versus Figure 4: archfreelist/archrat/insn/regfile/
specfreelist/specrat failure rates drop sharply; ctrl/qctrl/robptr/valid
deadlocks are displaced into the Gray Area by the timeout flush; the new
ecc/parity categories are themselves nearly harmless when struck.
"""

from conftest import run_once

from repro.analysis.aggregate import outcomes_by_category
from repro.analysis.report import render_category_outcomes
from repro.inject.outcome import FailureMode, TrialOutcome


def _rates(table):
    rates = {}
    for category, counts in table.items():
        total = sum(counts.values())
        failures = sum(c for outcome, c in counts.items()
                       if outcome.is_failure)
        rates[category] = (failures / total, total)
    return rates


def test_figure9_protected_by_category(benchmark, campaign_protected,
                                       campaign_latch_ram):
    trials = campaign_protected.trials
    table = run_once(benchmark, lambda: outcomes_by_category(trials))
    print()
    print(render_category_outcomes(
        trials, "Figure 9: protected machine, latch+RAM, by category"))

    from conftest import SHAPE_ASSERTS
    if not SHAPE_ASSERTS:
        return
    protected = _rates(table)
    baseline = _rates(outcomes_by_category(campaign_latch_ram.trials))

    # The protected register-state categories collapse toward zero.
    protected_failures = 0
    protected_trials = 0
    baseline_failures = 0
    baseline_trials = 0
    for category in ("archrat", "regfile", "specrat", "specfreelist",
                     "archfreelist", "regptr"):
        if category in protected:
            rate, n = protected[category]
            protected_failures += rate * n
            protected_trials += n
        if category in baseline:
            rate, n = baseline[category]
            baseline_failures += rate * n
            baseline_trials += n
    assert protected_trials and baseline_trials
    protected_rate = protected_failures / protected_trials
    baseline_rate = baseline_failures / baseline_trials
    print("register-state failure rate: baseline %.1f%% -> protected %.1f%%"
          % (100 * baseline_rate, 100 * protected_rate))
    assert protected_rate < 0.5 * baseline_rate

    # The added ecc/parity state is nearly always benign when struck
    # (the paper's "naturally redundant" observation).
    for extra in ("ecc", "parity"):
        if extra in protected:
            rate, n = protected[extra]
            if n >= 10:
                assert rate <= 0.15, (extra, rate, n)


def test_figure9_locked_displaced_to_gray(benchmark, campaign_protected,
                                          campaign_latch_ram):
    """The timeout counter converts deadlocks into Gray-Area recoveries."""
    def locked_share(trials):
        locked = sum(1 for t in trials
                     if t.failure_mode == FailureMode.LOCKED)
        return locked / len(trials)

    protected_share = run_once(
        benchmark, lambda: locked_share(campaign_protected.trials))
    baseline_share = locked_share(campaign_latch_ram.trials)
    print()
    print("locked failures: baseline %.2f%% -> protected %.2f%%"
          % (100 * baseline_share, 100 * protected_share))

    from conftest import SHAPE_ASSERTS
    if not SHAPE_ASSERTS:
        return
    assert protected_share <= baseline_share + 0.005
