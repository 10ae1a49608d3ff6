"""Campaign-result persistence.

Fault-injection campaigns are expensive; their results should outlive
the process.  This module serialises campaign results (micro-
architectural and software-level) to a stable JSON schema and loads them
back, so analyses and figures can be regenerated without re-running
trials, and results from sharded/clustered runs can be merged.
"""

import hashlib
import json

from repro.arch.functional import SoftwareFaultKind
from repro.errors import SimulationError
from repro.inject.campaign import CampaignConfig, CampaignResult
from repro.inject.outcome import FailureMode, TrialOutcome, TrialResult
from repro.inject.software import (
    SoftwareCampaignConfig,
    SoftwareCampaignResult,
    SoftwareOutcome,
    SoftwareTrialResult,
)
from repro.uarch.config import ProtectionConfig
from repro.uarch.statelib import StateCategory, StorageKind

SCHEMA_VERSION = 1

# Version tag of the named-split RNG derivation scheme
# (root -> "workload/<name>" -> "sp/<n>" -> "trial/<n>").  Part of the
# campaign fingerprint: results derived under a different scheme are
# not mergeable/resumable even when the config matches.
RNG_SCHEME = "split-rng/v1"


# -- Microarchitectural campaigns ---------------------------------------------


def config_to_dict(config):
    """Serialise a :class:`CampaignConfig` to plain JSON types.

    The fault model is emitted only when non-default: every pre-faultlib
    campaign was implicitly single-bit, so omitting the default keeps
    their fingerprints -- and with them journal resume, merge, and
    golden-cache validity -- byte-identical.
    """
    data = {
        "workloads": list(config.workloads),
        "scale": config.scale,
        "kinds": config.kinds,
        "trials_per_start_point": config.trials_per_start_point,
        "start_points_per_workload": config.start_points_per_workload,
        "warmup_cycles": config.warmup_cycles,
        "spacing_cycles": config.spacing_cycles,
        "horizon": config.horizon,
        "margin": config.margin,
        "seed": config.seed,
        "locked_multiplier": config.locked_multiplier,
        "protection": {
            "timeout": config.protection.timeout,
            "regfile_ecc": config.protection.regfile_ecc,
            "regptr_ecc": config.protection.regptr_ecc,
            "insn_parity": config.protection.insn_parity,
        },
    }
    if config.fault_model != "single_bit":
        data["fault_model"] = config.fault_model
    return data


def config_from_dict(raw_config):
    """Inverse of :func:`config_to_dict`."""
    return CampaignConfig(
        fault_model=raw_config.get("fault_model", "single_bit"),
        workloads=tuple(raw_config["workloads"]),
        scale=raw_config["scale"],
        kinds=raw_config["kinds"],
        trials_per_start_point=raw_config["trials_per_start_point"],
        start_points_per_workload=raw_config["start_points_per_workload"],
        warmup_cycles=raw_config["warmup_cycles"],
        spacing_cycles=raw_config["spacing_cycles"],
        horizon=raw_config["horizon"],
        margin=raw_config["margin"],
        seed=raw_config["seed"],
        locked_multiplier=raw_config.get("locked_multiplier", 2),
        protection=ProtectionConfig(**raw_config["protection"]),
    )


def campaign_fingerprint(config):
    """Identity of a campaign's trial set: config + RNG scheme.

    Two runs with equal fingerprints produce byte-identical trials for
    any given ``(workload, start_point, trial_index)`` unit, so their
    partial results may be journaled, resumed, and merged
    interchangeably.  ``verify_golden``, ``provenance`` and ``profile``
    are deliberately excluded: they add fault-free self-checks or
    observation-only instrumentation and never change a trial, so runs
    with and without them stay resumable/mergeable with each other.
    """
    blob = json.dumps(
        {"config": config_to_dict(config), "rng": RNG_SCHEME},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def trial_to_dict(trial):
    """Serialise one :class:`TrialResult` to plain JSON types.

    As with :func:`config_to_dict`, the fault model is emitted only
    when non-default, so legacy (all-single-bit) journal lines
    round-trip byte-identically through load + re-encode.
    """
    data = {
        "outcome": trial.outcome.value,
        "mode": trial.failure_mode.value
        if trial.failure_mode else None,
        "workload": trial.workload,
        "element": trial.element_name,
        "category": trial.category,
        "kind": trial.kind,
        "bit": trial.bit,
        "start_point": trial.start_point,
        "trial_index": trial.trial_index,
        "inject_cycle": trial.inject_cycle,
        "cycles_run": trial.cycles_run,
        "valid_inflight": trial.valid_inflight,
        "total_inflight": trial.total_inflight,
        "detail": trial.detail,
        "first_read_cycle": trial.first_read_cycle,
        "arch_corrupt_cycle": trial.arch_corrupt_cycle,
        "detect_latency": trial.detect_latency,
        "masking_cause": trial.masking_cause,
    }
    if trial.fault_model != "single_bit":
        data["fault_model"] = trial.fault_model
    return data


def trial_from_dict(raw):
    """Inverse of :func:`trial_to_dict`.

    Tolerant of older documents: legacy journals carry no ``bit`` (the
    harness used to hardcode 0), no propagation fields, and no
    ``fault_model`` (all pre-faultlib trials are single-bit) -- they
    load with ``bit=0``, the propagation fields None, and
    ``fault_model="single_bit"``.
    """
    return TrialResult(
        fault_model=raw.get("fault_model", "single_bit"),
        outcome=TrialOutcome(raw["outcome"]),
        failure_mode=FailureMode(raw["mode"]) if raw["mode"] else None,
        workload=raw["workload"],
        element_name=raw["element"],
        category=raw["category"],
        kind=raw["kind"],
        bit=raw.get("bit", 0),
        start_point=raw["start_point"],
        trial_index=raw.get("trial_index", -1),
        inject_cycle=raw["inject_cycle"],
        cycles_run=raw["cycles_run"],
        valid_inflight=raw["valid_inflight"],
        total_inflight=raw["total_inflight"],
        detail=raw.get("detail", ""),
        first_read_cycle=raw.get("first_read_cycle"),
        arch_corrupt_cycle=raw.get("arch_corrupt_cycle"),
        detect_latency=raw.get("detect_latency"),
        masking_cause=raw.get("masking_cause"),
    )


def inventory_to_dict(inventory):
    """Serialise a category inventory to plain JSON types."""
    return {
        category.value: {
            kind.value: bits for kind, bits in cell.items()
        }
        for category, cell in inventory.items()
    }


def inventory_from_dict(data):
    """Inverse of :func:`inventory_to_dict`."""
    return {
        StateCategory(category): {
            StorageKind(kind): bits for kind, bits in cell.items()
        }
        for category, cell in data.items()
    }


def campaign_to_dict(result):
    """Serialise a :class:`CampaignResult` to plain JSON types."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "uarch-campaign",
        "fingerprint": campaign_fingerprint(result.config),
        "config": config_to_dict(result.config),
        "eligible_bits": result.eligible_bits,
        "inventory": inventory_to_dict(result.inventory),
        "elapsed_seconds": result.elapsed_seconds,
        "trials": [trial_to_dict(trial) for trial in result.trials],
    }


def campaign_from_dict(data):
    """Inverse of :func:`campaign_to_dict`."""
    if data.get("kind") != "uarch-campaign":
        raise ValueError("not a uarch-campaign document")
    return CampaignResult(
        config=config_from_dict(data["config"]),
        trials=[trial_from_dict(raw) for raw in data["trials"]],
        eligible_bits=data["eligible_bits"],
        inventory=inventory_from_dict(data["inventory"]),
        elapsed_seconds=data["elapsed_seconds"],
    )


# -- Software campaigns ----------------------------------------------------------


def software_to_dict(result):
    """Serialise a software-campaign result to plain JSON types."""
    config = result.config
    return {
        "schema": SCHEMA_VERSION,
        "kind": "software-campaign",
        "config": {
            "workloads": list(config.workloads),
            "scale": config.scale,
            "models": [model.value for model in config.models],
            "trials_per_model_per_workload":
                config.trials_per_model_per_workload,
            "seed": config.seed,
        },
        "elapsed_seconds": result.elapsed_seconds,
        "trials": [
            {
                "outcome": trial.outcome.value,
                "model": trial.model.value,
                "workload": trial.workload,
                "inject_index": trial.inject_index,
                "control_diverged": trial.control_diverged,
                "instructions_run": trial.instructions_run,
            }
            for trial in result.trials
        ],
    }


def software_from_dict(data):
    """Inverse of :func:`software_to_dict`."""
    if data.get("kind") != "software-campaign":
        raise ValueError("not a software-campaign document")
    raw_config = data["config"]
    config = SoftwareCampaignConfig(
        workloads=tuple(raw_config["workloads"]),
        scale=raw_config["scale"],
        models=tuple(SoftwareFaultKind(m) for m in raw_config["models"]),
        trials_per_model_per_workload=
        raw_config["trials_per_model_per_workload"],
        seed=raw_config["seed"],
    )
    trials = [
        SoftwareTrialResult(
            outcome=SoftwareOutcome(raw["outcome"]),
            model=SoftwareFaultKind(raw["model"]),
            workload=raw["workload"],
            inject_index=raw["inject_index"],
            control_diverged=raw["control_diverged"],
            instructions_run=raw["instructions_run"],
        )
        for raw in data["trials"]
    ]
    return SoftwareCampaignResult(
        config=config, trials=trials,
        elapsed_seconds=data["elapsed_seconds"])


# -- File I/O -------------------------------------------------------------------------


def save_result(result, path):
    """Write a campaign result (either kind) to ``path`` as JSON."""
    if isinstance(result, CampaignResult):
        document = campaign_to_dict(result)
    elif isinstance(result, SoftwareCampaignResult):
        document = software_to_dict(result)
    else:
        raise TypeError("unsupported result type %r" % type(result))
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)


def load_result(path):
    """Load a result saved by :func:`save_result`."""
    with open(path) as handle:
        document = json.load(handle)
    if document.get("kind") == "uarch-campaign":
        return campaign_from_dict(document)
    if document.get("kind") == "software-campaign":
        return software_from_dict(document)
    raise ValueError("unrecognised result document in %s" % path)


def merge_campaigns(results):
    """Merge shard results of the *same* configuration (cluster runs)."""
    results = list(results)
    if not results:
        raise ValueError("nothing to merge")
    first = results[0]
    trials = []
    elapsed = 0.0
    for result in results:
        trials.extend(result.trials)
        elapsed = max(elapsed, result.elapsed_seconds)
    return CampaignResult(
        config=first.config,
        trials=trials,
        eligible_bits=first.eligible_bits,
        inventory=first.inventory,
        elapsed_seconds=elapsed,
    )


def merge_campaign_dicts(documents):
    """Merge partial uarch-campaign documents of one fingerprint.

    Takes serialised documents (the :func:`campaign_to_dict` shape) from
    several runs of the *same* campaign -- e.g. journaled partial results
    recovered from interrupted runs on different hosts -- deduplicates
    trials on their ``(workload, start_point, trial_index)`` unit key,
    and returns one merged document with the trials in serial
    (config) order.  Mixing documents with different
    ``schema`` versions or campaign fingerprints raises
    :class:`~repro.errors.SimulationError`: their trials are not drawn
    from the same experiment and must never be aggregated.
    """
    documents = list(documents)
    if not documents:
        raise SimulationError("merge_campaign_dicts: nothing to merge")
    first = documents[0]
    first_fingerprint = None
    merged = {}
    synthetic = 0  # unique keys for legacy trials without a trial_index
    elapsed = 0.0
    for position, document in enumerate(documents):
        if document.get("kind") != "uarch-campaign":
            raise SimulationError(
                "merge_campaign_dicts: document %d is %r, not a "
                "uarch-campaign" % (position, document.get("kind")))
        if document.get("schema") != first.get("schema"):
            raise SimulationError(
                "merge_campaign_dicts: schema mismatch (document 0 has "
                "schema %r, document %d has %r)"
                % (first.get("schema"), position, document.get("schema")))
        fingerprint = campaign_fingerprint(
            config_from_dict(document["config"]))
        if first_fingerprint is None:
            first_fingerprint = fingerprint
        elif fingerprint != first_fingerprint:
            raise SimulationError(
                "merge_campaign_dicts: campaign fingerprint mismatch "
                "(document 0 is %s, document %d is %s); refusing to "
                "aggregate trials from different experiments"
                % (first_fingerprint[:12], position, fingerprint[:12]))
        elapsed = max(elapsed, document.get("elapsed_seconds", 0.0))
        for raw in document["trials"]:
            index = raw.get("trial_index", -1)
            if index < 0:
                key = ("?", synthetic)
                synthetic += 1
            else:
                key = (raw["workload"], raw["start_point"], index)
            merged.setdefault(key, raw)

    config = config_from_dict(first["config"])
    workload_order = {name: i for i, name in enumerate(config.workloads)}
    trials = sorted(
        merged.values(),
        key=lambda raw: (workload_order.get(raw["workload"],
                                            len(workload_order)),
                         raw["start_point"],
                         raw.get("trial_index", -1)))
    return {
        "schema": first["schema"],
        "kind": "uarch-campaign",
        "fingerprint": first_fingerprint,
        "config": dict(first["config"]),
        "eligible_bits": first["eligible_bits"],
        "inventory": first["inventory"],
        "elapsed_seconds": elapsed,
        "trials": trials,
    }
