"""Campaign orchestration tests."""

import pytest

from oracles import matches_digest, tiny_config
from repro.errors import CampaignError
from repro.inject.campaign import Campaign, CampaignConfig
from repro.inject.outcome import TrialOutcome


@pytest.fixture(scope="module")
def small_result():
    config = CampaignConfig.test(trials_per_start_point=10,
                                 start_points_per_workload=2)
    return Campaign(config).run()


def test_trial_count(small_result):
    assert len(small_result.trials) == small_result.config.total_trials == 20


def test_all_outcomes_classified(small_result):
    for trial in small_result.trials:
        assert isinstance(trial.outcome, TrialOutcome)
        if trial.outcome.is_failure:
            assert trial.failure_mode is not None
        else:
            assert trial.failure_mode is None


def test_eligible_bits_and_inventory(small_result):
    assert small_result.eligible_bits > 30_000
    assert small_result.inventory


def test_rate_helpers(small_result):
    counts = small_result.outcome_counts()
    assert sum(counts.values()) == 20
    assert 0.0 <= small_result.failure_rate() <= 1.0
    assert 0.0 <= small_result.masked_rate() <= 1.0


def test_campaign_determinism():
    config = CampaignConfig.test(trials_per_start_point=6,
                                 start_points_per_workload=1)
    first = Campaign(config).run()
    second = Campaign(config).run()
    outcomes_first = [(t.element_name, t.outcome) for t in first.trials]
    outcomes_second = [(t.element_name, t.outcome) for t in second.trials]
    assert outcomes_first == outcomes_second


def test_different_seeds_differ():
    base = dict(trials_per_start_point=8, start_points_per_workload=1)
    first = Campaign(CampaignConfig.test(seed=1, **base)).run()
    second = Campaign(CampaignConfig.test(seed=2, **base)).run()
    assert [t.element_name for t in first.trials] != \
        [t.element_name for t in second.trials]


def test_latch_only_campaign():
    config = CampaignConfig.test(kinds="latch", trials_per_start_point=8,
                                 start_points_per_workload=1)
    result = Campaign(config).run()
    assert all(t.kind == "latch" for t in result.trials)
    assert result.eligible_bits < 25_000  # latches are the minority


def test_bad_kinds_rejected():
    with pytest.raises(CampaignError):
        CampaignConfig.test(kinds="flipflops")


def test_workload_too_short_rejected():
    config = CampaignConfig.test(
        workloads=("vortex",), warmup_cycles=1500, spacing_cycles=1500,
        start_points_per_workload=4)
    with pytest.raises(CampaignError):
        Campaign(config).run()


def test_progress_callback():
    calls = []
    result = Campaign(tiny_config()).run(
        progress=lambda done, total: calls.append((done, total)))
    assert calls == [(1, 3), (2, 3), (3, 3)]
    assert matches_digest(result, "tiny")


def test_paper_scale_config_shape():
    config = CampaignConfig.paper()
    assert config.horizon == 10_000
    assert config.total_trials >= 25_000
