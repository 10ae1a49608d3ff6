"""Bit-plane batched engine equivalence properties.

The whole contract of :mod:`repro.perf.batch` is *byte identity*: for
any lane width, every fault-category population and workload must
produce exactly the trials -- and exactly the journal bytes -- the
scalar path produces.  These tests pin that contract across the
``_KINDS`` populations, multiple workloads, the explicit-plans API,
journaled campaigns at several widths, and a chaos kill landing in the
middle of a batch group.
"""

import json

import pytest

from oracles import CONFIG_DIGESTS, journal_digest, matches_digest
from repro.chaos import ChaosEvent, ChaosSchedule, run_chaos_campaign
from repro.inject.campaign import _KINDS, CampaignConfig
from repro.inject.store import campaign_fingerprint, config_to_dict
from repro.inject.trial import run_trial
from repro.perf.batch import plan_lanes, run_batch_group
from repro.runner.engine import run_campaign
from repro.runner.journal import journal_path
from repro.runner.pool import WorkerContext
from repro.runner.units import batch_units, enumerate_units


def _config(kinds="latch+ram", workload="gzip", trials=8):
    return CampaignConfig(
        workloads=(workload,), scale="tiny", kinds=kinds,
        trials_per_start_point=trials, start_points_per_workload=1,
        warmup_cycles=400, spacing_cycles=150, horizon=300, margin=150)


@pytest.mark.parametrize("kinds", sorted(_KINDS))
@pytest.mark.parametrize("workload", ("gzip", "gcc"))
def test_batched_lanes_match_scalar_trials(tmp_path, kinds, workload):
    """Identical TrialResult tuples for every category kind x workload."""
    config = _config(kinds=kinds, workload=workload)
    golden_dir = str(tmp_path / "golden")
    units = enumerate_units(config)

    scalar_context = WorkerContext(config, golden_dir=golden_dir)
    scalar = [scalar_context.run_unit(unit) for unit in units]

    batched_context = WorkerContext(config, golden_dir=golden_dir,
                                    batch_lanes=8)
    batched = []
    for batch in batch_units(units, 8):
        batched.extend(trial for _unit, trial
                       in batched_context.run_batch(batch))

    assert batched == scalar
    stats = batched_context.take_batch_stats()
    assert stats is not None
    assert sum(stats) == len(units)  # every lane accounted for


class _FixedOffset:
    """An ``rng`` whose one ``randrange`` call returns a fixed offset.

    ``choose_bit`` draws exactly one ``randrange(total)`` and maps the
    offset through the cumulative-width table; feeding the inverse
    offset makes the scalar path inject a chosen ``(element, bit)``.
    """

    def __init__(self, offset):
        self.offset = offset

    def randrange(self, total):
        assert self.offset < total
        return self.offset


def _offset_for(space, kinds, element_index, bit):
    """Invert ``choose_bit``: the global offset of ``(element, bit)``."""
    indices, cumulative, _total = space._table_for(frozenset(kinds))
    position = indices.index(element_index)
    prior = cumulative[position - 1] if position else 0
    return prior + bit


@pytest.mark.parametrize("kinds", sorted(_KINDS))
def test_explicit_plans_match_scalar_injections(tmp_path, kinds):
    """``plans=`` override lanes equal scalar trials of the same bits."""
    config = _config(kinds=kinds)
    context = WorkerContext(config,
                            golden_dir=str(tmp_path / "golden"))
    state = context._prepare("gzip", 0)
    trial_indices = tuple(range(8))
    plans = plan_lanes(state.pipeline.space, state.sp_rng,
                       context.kinds, trial_indices)

    outcome = run_batch_group(
        state.pipeline, state.checkpoint, state.golden, state.sp_rng,
        context.kinds, "gzip", 0, trial_indices,
        horizon=config.horizon, plans=plans)

    for (trial_index, element_index, bit, _mask, _fault), batched \
            in zip(plans, outcome.trials):
        offset = _offset_for(state.pipeline.space, context.kinds,
                             element_index, bit)
        scalar = run_trial(
            state.pipeline, state.checkpoint, state.golden,
            _FixedOffset(offset), context.kinds, "gzip", 0,
            horizon=config.horizon, trial_index=trial_index)
        assert batched == scalar


def _journal_fingerprint(directory):
    with open(journal_path(directory), "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    return header["fingerprint"]


def test_batched_journals_byte_identical(tmp_path):
    """Serial, ``--batch 1`` and ``--batch 8`` journals match the digest."""
    config = CampaignConfig.test()
    for label, lanes in (("serial", None), ("batch1", 1), ("batch8", 8)):
        directory = str(tmp_path / label)
        run_campaign(config, workers=1, directory=directory,
                     batch_lanes=lanes)
        assert journal_digest(directory) == CONFIG_DIGESTS["smoke"], label
        assert _journal_fingerprint(directory) \
            == campaign_fingerprint(config)


def test_chaos_kill_mid_batch_requeues_and_converges(tmp_path):
    """A worker SIGKILLed mid-batch requeues and converges bytewise."""
    config = CampaignConfig.test()
    chaos_dir = str(tmp_path / "chaos")
    chaos = ChaosSchedule([ChaosEvent("kill", 2)])
    result, _restarts = run_chaos_campaign(
        config, chaos_dir, chaos, workers=2, batch_size=6,
        batch_lanes=6)
    assert matches_digest(result)
    assert journal_digest(chaos_dir) == CONFIG_DIGESTS["smoke"]
    assert chaos.pending == []


def test_batch_lanes_excluded_from_fingerprint():
    """Lane width is an execution knob, never campaign identity."""
    config = CampaignConfig.test()
    flat = config_to_dict(config)
    assert not any("batch" in key for key in flat), flat.keys()
    assert campaign_fingerprint(config) \
        == campaign_fingerprint(CampaignConfig.test())
