"""Fault-injection framework (paper Sections 2-4).

One *trial* = restore a checkpoint (start point), flip one uniformly
chosen bit of eligible pipeline state, run for up to the horizon while
comparing against the golden execution, and classify the outcome:

* ``MICRO_MATCH``  -- complete microarchitectural state match (masked);
* ``SDC``          -- silent data corruption (failure modes ``ctrl``,
  ``dtlb``, ``itlb``, ``mem``, ``regfile``);
* ``TERMINATED``   -- premature termination (``except``, ``locked``);
* ``GRAY``         -- neither within the horizon (latent or timing-shifted).

A *campaign* (paper: 25,000-30,000 trials over 250-300 start points)
sweeps trials across start points and workloads; the ``software`` module
implements the Section-5 architectural-level injections.
"""

from repro.inject.campaign import Campaign, CampaignConfig, CampaignResult
from repro.inject.golden import GoldenTrace, record_golden
from repro.inject.outcome import FailureMode, TrialOutcome, TrialResult
from repro.inject.software import (
    SoftwareCampaign,
    SoftwareCampaignConfig,
    SoftwareOutcome,
)
from repro.inject.store import load_result, save_result
from repro.inject.trial import run_trial

__all__ = [
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "GoldenTrace",
    "record_golden",
    "FailureMode",
    "TrialOutcome",
    "TrialResult",
    "SoftwareCampaign",
    "SoftwareCampaignConfig",
    "SoftwareOutcome",
    "run_trial",
    "save_result",
    "load_result",
]
