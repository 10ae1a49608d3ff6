"""Fault-model tests: parsing, determinism, batching, journal, query.

The contract of :mod:`repro.faultlib` is that a fault model changes the
*shape* of the disturbance and nothing else: campaigns stay
deterministic and resumable, serial and batched runs stay
byte-identical, default-model artifacts stay bit-for-bit what the
pre-faultlib harness produced, and the store can compare models in one
query.  ``EQUIVALENCE_SPECS`` and ``ROUNDTRIP_SPECS`` below are
module-level literals on purpose: the REP004-style inventory test
parses them from source and fails if a registered kind is missing from
either matrix.
"""

import json

import pytest

from oracles import (
    MODEL_DIGESTS,
    journal_digest,
    model_config,
    trials_digest,
)
from repro.errors import CampaignError
from repro.faultlib import (
    DEFAULT_FAULT_MODEL,
    FaultModel,
    parse_fault_model,
)
from repro.inject.campaign import CampaignConfig
from repro.inject.outcome import TrialOutcome, TrialResult
from repro.inject.store import (
    campaign_fingerprint,
    config_from_dict,
    config_to_dict,
    trial_from_dict,
    trial_to_dict,
)
from repro.runner.engine import run_campaign
from repro.runner.journal import journal_path
from repro.runner.pool import WorkerContext
from repro.runner.units import batch_units, enumerate_units

# One spec per registered kind, exercised scalar-vs-batched (the
# inventory test asserts full kind coverage -- keep these literal).
EQUIVALENCE_SPECS = (
    "single_bit",
    "multi_bit:adjacent:2",
    "burst:array:p=0.5",
    "stuck_at:0:lifetime=60",
    "intermittent:16,4",
)

# One spec per registered kind, journal/dict round-tripped (literal,
# same inventory contract as above).
ROUNDTRIP_SPECS = (
    "single_bit",
    "multi_bit:adjacent:3",
    "burst:array:p=0.25",
    "stuck_at:1",
    "intermittent:8,2",
)


# -- spec parsing --------------------------------------------------------


@pytest.mark.parametrize("spec,canonical", [
    ("single_bit", "single_bit"),
    ("", "single_bit"),
    (None, "single_bit"),
    ("multi_bit:adjacent:02", "multi_bit:adjacent:2"),
    ("burst:array:p=0.5", "burst:array:p=0.5"),
    ("burst:array:p=.5", "burst:array:p=0.5"),
    ("stuck_at:1", "stuck_at:1"),
    ("stuck_at:0:lifetime=060", "stuck_at:0:lifetime=60"),
    ("intermittent:16,04", "intermittent:16,4"),
])
def test_parse_canonicalizes(spec, canonical):
    model = parse_fault_model(spec)
    assert model.spec == canonical
    assert isinstance(model, FaultModel)
    # Canonical specs are fixed points of the parser.
    assert parse_fault_model(model.spec).spec == canonical
    # An already-parsed model passes through unchanged.
    assert parse_fault_model(model) is model


@pytest.mark.parametrize("spec", [
    "cosmic_ray",                 # unknown kind
    "single_bit:2",               # default takes no parameters
    "multi_bit:adjacent:1",       # span 1 is single_bit
    "multi_bit:adjacent:x",       # non-integer span
    "multi_bit:rowhammer:2",      # unknown geometry
    "burst:array:p=0",            # probability out of (0, 1]
    "burst:array:p=1.5",
    "burst:array:p=maybe",
    "stuck_at:2",                 # V must be 0 or 1
    "stuck_at:1:lifetime=0",      # lifetime must be >= 1
    "stuck_at:1:ttl=5",
    "intermittent:4",             # missing duty
    "intermittent:4,4",           # duty must be < period
    "intermittent:1,0",
])
def test_parse_rejects_malformed_specs(spec):
    with pytest.raises(CampaignError, match="invalid fault model"):
        parse_fault_model(spec)


def test_default_detection():
    assert parse_fault_model("single_bit").is_default
    assert not parse_fault_model("multi_bit:adjacent:2").is_default


def test_config_validates_and_canonicalizes_fault_model():
    config = CampaignConfig.test(fault_model="stuck_at:0:lifetime=060")
    assert config.fault_model == "stuck_at:0:lifetime=60"
    with pytest.raises(CampaignError):
        CampaignConfig.test(fault_model="nope")


# -- fingerprint / journal stability of the default --------------------


def test_default_model_absent_from_config_dict():
    """Existing fingerprints, resume state and caches stay valid."""
    flat = config_to_dict(CampaignConfig.test())
    assert "fault_model" not in flat
    assert campaign_fingerprint(CampaignConfig.test()) \
        == campaign_fingerprint(
            CampaignConfig.test(fault_model=DEFAULT_FAULT_MODEL))


def test_non_default_model_changes_fingerprint():
    assert campaign_fingerprint(CampaignConfig.test()) \
        != campaign_fingerprint(
            CampaignConfig.test(fault_model="multi_bit:adjacent:2"))


def test_config_dict_roundtrip_with_model():
    config = CampaignConfig.test(fault_model="burst:array:p=0.5")
    flat = config_to_dict(config)
    assert flat["fault_model"] == "burst:array:p=0.5"
    assert config_from_dict(flat) == config


def test_legacy_trial_dict_loads_as_single_bit():
    """A pre-faultlib journal line deserializes with the default model."""
    trial = trial_to_dict(_some_trial())
    legacy = dict(trial)
    legacy.pop("fault_model", None)
    assert trial_from_dict(legacy).fault_model == "single_bit"


def _some_trial(**overrides):
    fields = dict(outcome=TrialOutcome.MICRO_MATCH, failure_mode=None,
                  workload="gzip", element_name="f", category="ctrl",
                  kind="latch", bit=0, start_point=0, trial_index=0,
                  inject_cycle=400, cycles_run=10, valid_inflight=0,
                  total_inflight=0)
    fields.update(overrides)
    return TrialResult(**fields)


@pytest.mark.parametrize("spec", ROUNDTRIP_SPECS)
def test_trial_dict_roundtrip_per_model(spec):
    trial = _some_trial(fault_model=spec)
    flat = trial_to_dict(trial)
    if spec == DEFAULT_FAULT_MODEL:
        # Default trials serialize without the key: legacy bytes.
        assert "fault_model" not in flat
    else:
        assert flat["fault_model"] == spec
    assert trial_from_dict(flat) == trial


# -- scalar vs batched equivalence per model ----------------------------


@pytest.mark.parametrize("spec", EQUIVALENCE_SPECS)
def test_scalar_vs_batched_trials_per_model(tmp_path, spec):
    """Every registered model: batched trials == scalar trials == digest.

    Batchable models ride the bit-plane engine as plane XORs;
    persistent/multi-element models take its scalar fallback -- either
    way ``run_batch`` must equal ``run_unit`` trial for trial, and both
    must reproduce the model's committed digest.
    """
    config = model_config(spec)
    golden_dir = str(tmp_path / "golden")
    units = enumerate_units(config)

    scalar_context = WorkerContext(config, golden_dir=golden_dir)
    scalar = [scalar_context.run_unit(unit) for unit in units]
    assert all(trial.fault_model == parse_fault_model(spec).spec
               for trial in scalar)
    assert trials_digest(scalar) == MODEL_DIGESTS[spec]

    batched_context = WorkerContext(config, golden_dir=golden_dir,
                                    batch_lanes=8)
    batched = []
    for batch in batch_units(units, 8):
        batched.extend(trial for _unit, trial
                       in batched_context.run_batch(batch))
    assert batched == scalar


@pytest.mark.parametrize("spec", [s for s in EQUIVALENCE_SPECS
                                  if s != DEFAULT_FAULT_MODEL])
def test_serial_vs_batch8_journals_byte_identical(tmp_path, spec):
    """Acceptance bar: serial and ``--batch 8`` journals match the digest."""
    config = model_config(spec)
    for label, lanes in (("serial", None), ("batch8", 8)):
        directory = str(tmp_path / label)
        run_campaign(config, workers=1, directory=directory,
                     batch_lanes=lanes)
        assert journal_digest(directory) == MODEL_DIGESTS[spec], label


def test_journal_lines_carry_model(tmp_path):
    """Non-default journal lines record their model; defaults do not."""
    directory = str(tmp_path / "campaign")
    run_campaign(model_config("multi_bit:adjacent:2"), workers=1,
                 directory=directory)
    lines = [json.loads(line)
             for line in open(journal_path(directory), encoding="utf-8")]
    trials = [line["trial"] for line in lines
              if line.get("type") == "trial"]
    assert trials
    assert all(t["fault_model"] == "multi_bit:adjacent:2" for t in trials)

    default_dir = str(tmp_path / "default")
    run_campaign(model_config("single_bit"), workers=1,
                 directory=default_dir)
    lines = [json.loads(line) for line
             in open(journal_path(default_dir), encoding="utf-8")]
    trials = [line["trial"] for line in lines
              if line.get("type") == "trial"]
    assert trials
    assert all("fault_model" not in t for t in trials)


# -- the cross-model query ---------------------------------------------


def test_query_by_fault_model_cli(tmp_path, capsys):
    """Mixed-model store: one CLI command renders the comparison."""
    from repro.cli import main

    dirs = []
    for spec in ("single_bit", "multi_bit:adjacent:2"):
        directory = str(tmp_path / spec.replace(":", "_"))
        run_campaign(model_config(spec), workers=1, directory=directory)
        dirs.append(directory)

    argv = ["query", "--by", "fault_model"]
    for directory in dirs:
        argv += ["--ingest", directory]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Failure-rate comparison by category x fault model" in out
    assert "multi_bit:adjacent:2" in out
    assert "single_bit" in out
