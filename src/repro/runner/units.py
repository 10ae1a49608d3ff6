"""Trial-granular work decomposition.

A campaign nests three loops: workload -> start point -> trial.  The
execution engine flattens that nest into :class:`TrialUnit` work units
so parallelism scales with the *total trial count* rather than the
workload count, and groups consecutive units of one
``(workload, start_point)`` into :class:`UnitBatch` scheduling quanta
so a worker that has already prepared a start point's checkpoint and
golden trace amortises it over a run of trials.

Unit identity is the journal key: a unit's trial is byte-identical
across runs of one campaign fingerprint (the named-split RNG streams
depend only on ``(seed, workload, start_point, trial_index)``), which
is what makes crash recovery and cross-run merging sound.
"""

from dataclasses import dataclass

__all__ = ["TrialUnit", "UnitBatch", "enumerate_units", "batch_units",
           "auto_batch_size"]


@dataclass(frozen=True, order=True)
class TrialUnit:
    """One injection trial: the atom of scheduling and journaling."""

    workload: str
    start_point: int
    trial_index: int

    def key(self):
        """The JSON-stable journal key."""
        return [self.workload, self.start_point, self.trial_index]

    @classmethod
    def from_key(cls, key):
        workload, start_point, trial_index = key
        return cls(str(workload), int(start_point), int(trial_index))


@dataclass(frozen=True)
class UnitBatch:
    """A run of trials sharing one prepared ``(workload, start_point)``."""

    workload: str
    start_point: int
    trial_indices: tuple

    def units(self):
        return [TrialUnit(self.workload, self.start_point, index)
                for index in self.trial_indices]

    def __len__(self):
        return len(self.trial_indices)


def enumerate_units(config):
    """All units of a campaign, in serial (config) order."""
    return [
        TrialUnit(workload, start_point, trial_index)
        for workload in config.workloads
        for start_point in range(config.start_points_per_workload)
        for trial_index in range(config.trials_per_start_point)
    ]


def auto_batch_size(pending, workers):
    """A batch size that keeps every worker busy with headroom.

    Aim for several batches per worker so dynamic scheduling can absorb
    uneven trial runtimes, but cap the quantum so journal granularity
    and requeue cost after a worker death stay small.
    """
    if pending <= 0 or workers <= 0:
        return 1
    return max(1, min(32, pending // (workers * 4)))


def batch_units(units, batch_size):
    """Group *consecutive* same-start-point units into batches.

    The input order is preserved (batches never reorder trials within a
    start point), and a batch never spans two start points -- its whole
    point is one shared checkpoint/golden preparation.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    batches = []
    run = []
    for unit in units:
        if run and (unit.workload != run[0].workload
                    or unit.start_point != run[0].start_point
                    or len(run) >= batch_size):
            batches.append(_close(run))
            run = []
        run.append(unit)
    if run:
        batches.append(_close(run))
    return batches


def _close(run):
    first = run[0]
    return UnitBatch(first.workload, first.start_point,
                     tuple(unit.trial_index for unit in run))
