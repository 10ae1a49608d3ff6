"""Campaign orchestration (paper Section 2.3).

A campaign sweeps fault-injection trials over a set of workloads and
start points.  Following the paper's methodology, the injection *time*
is fixed per start point (checkpoints taken at intervals after warm-up)
while the injected *bit* is selected uniformly over all eligible state;
each experiment aggregates trials across 250-300 start points at paper
scale, scaled down by default for laptop runtimes (see
:meth:`CampaignConfig.paper` / :meth:`CampaignConfig.test`).
"""

from dataclasses import dataclass, field

from repro.errors import CampaignError
from repro.faultlib import parse_fault_model
# Not used in this module.  The layer tracer (perfbench/tracer.py)
# reads and rebinds ``repro.inject.campaign.run_trial`` when it
# installs, so the name must stay importable from here.
from repro.inject.trial import run_trial  # noqa: F401
from repro.uarch.config import ProtectionConfig
from repro.uarch.statelib import StorageKind
from repro.workloads import WORKLOAD_NAMES

# Normalized (frozenset) kind populations: resolved once here at the
# campaign boundary so the per-trial injection path never re-normalizes.
_KINDS = {
    "latch": frozenset((StorageKind.LATCH,)),
    "latch+ram": frozenset((StorageKind.LATCH, StorageKind.RAM)),
}


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one injection campaign.

    ``kinds`` selects the element population: ``"latch+ram"`` (the
    paper's l+r campaigns) or ``"latch"`` (latch-only).

    ``fault_model`` is a :mod:`repro.faultlib` spec string (e.g.
    ``"multi_bit:adjacent:2"``); it is normalized to canonical form at
    construction and folded into the campaign fingerprint -- except for
    the default ``"single_bit"``, which is omitted from serialized
    configs so existing fingerprints, journals, and golden caches stay
    byte-identical.

    ``verify_golden`` replays the first golden window of each workload
    and asserts the two fault-free runs are bit-exactly identical --
    the runtime counterpart of the ``repro.lint`` determinism rules.

    ``provenance`` and ``profile`` attach a :mod:`repro.obs` observer to
    every trial (masking-cause/latency provenance and per-stage
    wall-clock profiling).  Both are observation-only: like
    ``verify_golden`` they are excluded from the campaign fingerprint
    because they can never change a trial's bytes.
    """

    workloads: tuple = WORKLOAD_NAMES
    scale: str = "small"
    kinds: str = "latch+ram"
    trials_per_start_point: int = 25
    start_points_per_workload: int = 3
    warmup_cycles: int = 1200
    spacing_cycles: int = 400
    horizon: int = 1200
    margin: int = 400
    seed: int = 2004
    protection: ProtectionConfig = field(default_factory=ProtectionConfig)
    locked_multiplier: int = 2
    verify_golden: bool = True
    provenance: bool = False
    profile: bool = False
    fault_model: str = "single_bit"

    def __post_init__(self):
        if self.kinds not in _KINDS:
            raise CampaignError(
                "kinds must be 'latch' or 'latch+ram', got %r" % self.kinds)
        # Validate the spec here (misconfiguration should fail at
        # campaign construction, not mid-sweep) and store the canonical
        # rendering so equivalent spellings fingerprint identically.
        object.__setattr__(
            self, "fault_model", parse_fault_model(self.fault_model).spec)

    @classmethod
    def test(cls, **overrides):
        """A seconds-scale configuration for unit tests."""
        defaults = dict(
            workloads=("gzip",), scale="tiny", trials_per_start_point=6,
            start_points_per_workload=2, warmup_cycles=400,
            spacing_cycles=150, horizon=400, margin=150)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def default(cls, **overrides):
        """The minutes-scale configuration the benchmarks report."""
        return cls(**overrides)

    @classmethod
    def paper(cls, **overrides):
        """The paper's published scale (25-30k trials, 10k-cycle horizon).

        Expect multi-day runtimes in pure Python; provided for
        completeness and for running subsets on large machines.
        """
        defaults = dict(
            scale="large", trials_per_start_point=100,
            start_points_per_workload=28, warmup_cycles=5000,
            spacing_cycles=2000, horizon=10_000, margin=2000)
        defaults.update(overrides)
        return cls(**defaults)

    @property
    def total_trials(self):
        return (len(self.workloads) * self.start_points_per_workload
                * self.trials_per_start_point)


@dataclass
class CampaignResult:
    """All trials of one campaign plus machine metadata."""

    config: CampaignConfig
    trials: list
    eligible_bits: int
    inventory: dict  # category -> {latch_bits, ram_bits}
    elapsed_seconds: float

    def outcome_counts(self):
        counts = {}
        for trial in self.trials:
            counts[trial.outcome] = counts.get(trial.outcome, 0) + 1
        return counts

    def failure_rate(self):
        failures = sum(1 for t in self.trials if t.outcome.is_failure)
        return failures / len(self.trials) if self.trials else 0.0

    def masked_rate(self):
        from repro.inject.outcome import TrialOutcome
        masked = sum(1 for t in self.trials
                     if t.outcome == TrialOutcome.MICRO_MATCH)
        return masked / len(self.trials) if self.trials else 0.0


class Campaign:
    """A campaign run in-process on the execution engine."""

    def __init__(self, config, pipeline_config=None):
        self.config = config
        self.pipeline_config = pipeline_config

    def run(self, progress=None):
        """Execute the campaign; returns a :class:`CampaignResult`.

        This is one inline :class:`~repro.runner.CampaignRunner` worker
        with no journal and no signal handlers, so its trials are those
        of every other engine path.  ``progress`` is an optional
        callable invoked as ``progress(done_trials, total_trials)``.
        """
        from repro.runner.engine import CampaignRunner

        on_snapshot = None
        if progress is not None:
            def on_snapshot(snapshot):
                progress(snapshot.done, snapshot.total)
        return CampaignRunner(
            self.config, self.pipeline_config, workers=1,
            install_signal_handlers=False, progress=on_snapshot).run()
