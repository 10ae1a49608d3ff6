"""Campaign execution engine: durable, trial-granular, observable.

This package is the one way a campaign executes;
:meth:`repro.inject.campaign.Campaign.run` is a single inline worker of
it without a journal:

* :mod:`repro.runner.units` -- trial-granular work decomposition
  (parallelism scales with total trials, not workload count);
* :mod:`repro.runner.pool` -- worker contexts that share one golden
  trace per ``(workload, start_point)``, and a self-healing process
  pool;
* :mod:`repro.runner.journal` -- append-only crash-durable trial
  journal plus the ``metrics.json`` snapshot;
* :mod:`repro.runner.resume` -- fingerprint-checked recovery of
  journaled trials;
* :mod:`repro.runner.telemetry` -- trials/sec, ETA, outcome mix,
  worker utilization;
* :mod:`repro.runner.engine` -- the :class:`CampaignRunner`
  orchestrator tying the above together.

The engine's contract: for a fixed config, its ``CampaignResult``
carries exactly the same trials -- in serial order, for any worker
count or batch width, with or without a crash and resume in the middle
-- and tier-1 pins them to committed digests.  See ``docs/RUNNER.md``.
"""

from repro.runner.engine import CampaignRunner, run_campaign
from repro.runner.journal import JournalWriter, read_journal
from repro.runner.resume import ResumeState, load_resume_state
from repro.runner.telemetry import Telemetry, TelemetrySnapshot
from repro.runner.units import TrialUnit, UnitBatch, enumerate_units

__all__ = [
    "CampaignRunner",
    "run_campaign",
    "JournalWriter",
    "read_journal",
    "ResumeState",
    "load_resume_state",
    "Telemetry",
    "TelemetrySnapshot",
    "TrialUnit",
    "UnitBatch",
    "enumerate_units",
]
