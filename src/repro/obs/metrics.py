"""OpenMetrics rendering of campaign telemetry snapshots.

Campaigns already drop ``metrics.json`` (the raw
:class:`~repro.runner.telemetry.TelemetrySnapshot` dict) in the
campaign directory; this module renders the same snapshot as an
OpenMetrics / Prometheus text exposition (``metrics.prom``) so a node
exporter's textfile collector -- or a plain ``curl`` + ``promtool`` --
can scrape a long campaign without bespoke parsing.  Both files are
rewritten atomically by :func:`repro.runner.journal.write_metrics`.

Monotonic samples (lease grants, steals, retries, ...) are exposed as
OpenMetrics *counters* named ``repro_*_total`` (docs/OBSERVABILITY.md
lists the pre-rename gauge names they replaced).  ``repro_build_info``
is the conventional info-style constant-1 sample carrying schema
versions and the repo revision as labels.
"""

import os
import subprocess

__all__ = ["PROM_PREFIX", "render_openmetrics"]

PROM_PREFIX = "repro"

_REVISION = None


def _revision():
    """The repo's short git revision, cached; ``unknown`` off-tree."""
    global _REVISION
    if _REVISION is None:
        tree = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        try:
            _REVISION = subprocess.run(
                ["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5.0,
                check=True).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            _REVISION = "unknown"
    return _REVISION


def _schema_versions():
    """``(journal_schema, result_schema)``, imported lazily.

    :mod:`repro.runner.journal` imports this module for rendering, so
    the reverse import must happen at call time, not import time.
    """
    from repro.inject.store import SCHEMA_VERSION
    from repro.runner.journal import JOURNAL_SCHEMA
    return JOURNAL_SCHEMA, SCHEMA_VERSION


def _escape(value):
    """Escape a label value per the OpenMetrics text format."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _sample(name, value, labels=None):
    if labels:
        rendered = ",".join(
            '%s="%s"' % (key, _escape(labels[key])) for key in sorted(labels))
        return "%s{%s} %s" % (name, rendered, _format_value(value))
    return "%s %s" % (name, _format_value(value))


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_openmetrics(snapshot):
    """Render a telemetry snapshot dict as OpenMetrics text.

    ``snapshot`` is the :meth:`TelemetrySnapshot.to_dict` shape; absent
    keys are tolerated (older snapshots) and ``eta_seconds: None`` is
    simply not exported -- absence of the sample *is* the "no rate
    measurable yet" signal.
    """
    p = PROM_PREFIX
    lines = []

    def family(name, kind, value, help_text, labelled_samples=None):
        lines.append("# HELP %s %s" % (name, help_text))
        lines.append("# TYPE %s %s" % (name, kind))
        if labelled_samples is None:
            lines.append(_sample(name, value))
        else:
            lines.extend(labelled_samples)

    def gauge(name, value, help_text, labelled_samples=None):
        family(name, "gauge", value, help_text, labelled_samples)

    def counter(name, value, help_text):
        """A monotonic counter, exposed as ``<name>_total``."""
        family("%s_total" % name, "counter", value, help_text)

    journal_schema, result_schema = _schema_versions()
    gauge("%s_build_info" % p, None,
          "Constant 1; schema versions and repo revision as labels.",
          labelled_samples=[_sample("%s_build_info" % p, 1, {
              "journal_schema": journal_schema,
              "result_schema": result_schema,
              "revision": _revision()})])
    gauge("%s_trials_total" % p, snapshot.get("total", 0),
          "Trials in the campaign sweep.")
    gauge("%s_trials_done" % p, snapshot.get("done", 0),
          "Trials completed (journaled earlier + fresh).")
    gauge("%s_trials_fresh" % p, snapshot.get("fresh", 0),
          "Trials completed by this run.")
    gauge("%s_trials_resumed" % p, snapshot.get("resumed", 0),
          "Trials skipped because a prior run journaled them.")
    counter("%s_trials_retried" % p, snapshot.get("retried", 0),
            "Trial units requeued after a worker death or stall.")
    counter("%s_harness_errors" % p, snapshot.get("harness_errors", 0),
            "Poison trial units contained as harness_error outcomes.")
    counter("%s_cache_quarantined" % p, snapshot.get("quarantined", 0),
            "Corrupt golden-cache entries quarantined and regenerated.")
    counter("%s_io_retries" % p, snapshot.get("io_retries", 0),
            "Transient journal/cache I/O errors absorbed by retry.")
    gauge("%s_elapsed_seconds" % p, snapshot.get("elapsed_seconds", 0.0),
          "Wall-clock seconds since this run started.")
    gauge("%s_trials_per_second" % p,
          snapshot.get("trials_per_second", 0.0),
          "Fresh-trial completion rate.")
    eta = snapshot.get("eta_seconds")
    if eta is not None:
        gauge("%s_eta_seconds" % p, eta,
              "Estimated seconds to campaign completion.")
    gauge("%s_workers_busy" % p, snapshot.get("workers_busy", 0),
          "Workers currently assigned a batch.")
    gauge("%s_workers_total" % p, snapshot.get("workers_total", 0),
          "Workers in the pool.")

    outcomes = snapshot.get("outcome_counts") or {}
    gauge("%s_outcome_trials" % p, None,
          "Completed trials by outcome classification.",
          labelled_samples=[
              _sample("%s_outcome_trials" % p, outcomes[name],
                      {"outcome": name})
              for name in sorted(outcomes)])

    latency = snapshot.get("worker_latency") or {}
    samples = []
    count_samples = []
    for worker in sorted(latency, key=str):
        stats = latency[worker]
        for quantile in ("0.5", "0.9", "0.99"):
            key = {"0.5": "p50", "0.9": "p90", "0.99": "p99"}[quantile]
            if stats.get(key) is not None:
                samples.append(_sample(
                    "%s_worker_trial_latency_seconds" % p, stats[key],
                    {"worker": worker, "quantile": quantile}))
        count_samples.append(_sample(
            "%s_worker_trials" % p, stats.get("count", 0),
            {"worker": worker}))
    if samples:
        gauge("%s_worker_trial_latency_seconds" % p, None,
              "Per-worker seconds between trial completions (quantiles "
              "over a sliding window).", labelled_samples=samples)
    if count_samples:
        gauge("%s_worker_trials" % p, None,
              "Trials counted per worker in the latency window.",
              labelled_samples=count_samples)

    fabric = snapshot.get("fabric")
    if fabric is not None:
        gauge("%s_fabric_workers_active" % p,
              fabric.get("workers_active", 0),
              "Fabric workers seen by the coordinator recently.")
        gauge("%s_fabric_leases_outstanding" % p,
              fabric.get("leases_outstanding", 0),
              "Trial-range leases currently held by workers.")
        counter("%s_fabric_leases_granted" % p,
                fabric.get("leases_granted", 0),
                "Trial-range leases granted since coordinator start.")
        counter("%s_fabric_steals" % p, fabric.get("steals", 0),
                "Expired leases re-queued for another worker.")
        counter("%s_fabric_duplicate_completions" % p,
                fabric.get("duplicate_completions", 0),
                "Completions for already-completed ranges (merged to "
                "nothing).")
        gauge("%s_fabric_campaigns_active" % p,
              fabric.get("campaigns_active", 0),
              "Registered campaigns not yet fully journaled.")
        gauge("%s_fabric_campaigns_done" % p,
              fabric.get("campaigns_done", 0),
              "Registered campaigns fully journaled.")
        depths = fabric.get("queue_depth") or {}
        gauge("%s_fabric_queue_depth" % p, None,
              "Campaigns queued per tenant.",
              labelled_samples=[
                  _sample("%s_fabric_queue_depth" % p, depths[tenant],
                          {"tenant": tenant})
                  for tenant in sorted(depths)])

    lines.append("# EOF")
    return "\n".join(lines) + "\n"
