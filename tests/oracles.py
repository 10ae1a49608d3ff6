"""Committed trial digests: the oracle every campaign engine path answers to.

Each digest is the sha256 of a campaign's canonical trials --
``[[unit key, trial dict], ...]`` sorted by unit and encoded exactly as
:func:`repro.runner.journal.canonical_trial_bytes` encodes a journal.
They were recorded from the serial reference loop before
``Campaign.run`` became a run of the engine, so the inline, batched,
pool, resumed, chaos-disturbed and fabric paths are checked against
constants instead of against each other: a change that moves every
path the same way still fails.

``MODEL_DIGESTS`` is keyed by fault-model spec, each campaign being
:func:`model_config` of that spec.  ``test_faultmodel_inventory`` reads
it with :mod:`ast` and fails if a registered fault-model kind has no
entry, so both tables must stay literal.
"""

import hashlib

from repro.inject.campaign import CampaignConfig
from repro.inject.store import trial_to_dict
from repro.runner.journal import (
    _canonical,
    canonical_trial_bytes,
    journal_path,
)
from repro.runner.units import TrialUnit

CONFIG_DIGESTS = {
    # CampaignConfig.test(): the default-model smoke campaign (12 trials).
    "smoke": "a5ba1a1e5abf3f135a0aec6633365676"
             "baf24360178d0bdd5246f1c8983d6793",
    # tiny_config(): three trials of the smoke campaign's first start point.
    "tiny": "1a523a3bcc7ab85974097ed3ff9c4fb0"
            "6387abc745dcfa519735b530f92a8269",
    # two_workload_config(): gzip and gcc, one start point each.
    "two_workload": "1126476ec0c712c471d2c68e79e6d557"
                    "50a612c903098bdce293408d8ccfefe7",
}

MODEL_DIGESTS = {
    "single_bit": "60028cfadcc935eeb87378d56832872f"
                  "f57e345a3d556dd7fa2e9a0655237ca2",
    "multi_bit:adjacent:2": "64ef3535a53bd34ef636acca6e3b1d86"
                            "5e255cd6baa2f172f16244f2ae1a867b",
    "burst:array:p=0.5": "3a0035d11428b43cb639eb9e016b0667"
                         "17b94f92076236835881070db4707d39",
    "stuck_at:0:lifetime=60": "d3ac3cf77aecf8845c01bce1cf4e3fba"
                              "8c2de104b496548fe3329ff1b7af16ff",
    "intermittent:16,4": "1dc935186250bb73d005e7d4e650e8d5"
                         "dec018a0f5568c9662f9214815942ce8",
}

# The latch+RAM eligible-bit count of the default pipeline.
ELIGIBLE_BITS = 40209


def tiny_config():
    return CampaignConfig.test(trials_per_start_point=3,
                               start_points_per_workload=1)


def two_workload_config():
    return CampaignConfig(
        workloads=("gzip", "gcc"), scale="tiny",
        trials_per_start_point=5, start_points_per_workload=1,
        warmup_cycles=400, spacing_cycles=150, horizon=300, margin=150)


def model_config(spec):
    return CampaignConfig.test(start_points_per_workload=1,
                               horizon=300, fault_model=spec)


def trials_digest(trials):
    """The digest of in-memory ``TrialResult`` values."""
    blob = sorted(
        ([TrialUnit(t.workload, t.start_point, t.trial_index).key(),
          trial_to_dict(t)] for t in trials), key=lambda pair: pair[0])
    return hashlib.sha256(_canonical(blob).encode("utf-8")).hexdigest()


def matches_digest(result, name="smoke"):
    """Whether a ``CampaignResult`` reproduces ``CONFIG_DIGESTS[name]``."""
    return trials_digest(result.trials) == CONFIG_DIGESTS[name]


def journal_digest(directory):
    """The digest of the trials journaled in a campaign directory."""
    return hashlib.sha256(
        canonical_trial_bytes(journal_path(str(directory)))).hexdigest()
