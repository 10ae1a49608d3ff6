"""OpenMetrics text-format conformance of the exporter.

A small strict parser of the exposition format (the subset the
exporter emits), then conformance assertions over real snapshots:
every sample belongs to a family with exactly one HELP and one TYPE,
family names are unique, counters are named ``*_total``, label values
are escaped, and the exposition ends with ``# EOF``.
"""

import re

import pytest

from repro.obs import render_openmetrics

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    r"^(%s)(?:\{(.*)\})? (-?(?:[0-9.]+(?:e[+-]?[0-9]+)?|inf)|NaN)$"
    % _NAME)
_LABEL_RE = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\\\|\\"|\\n|[^"\\])*)"$')


def _split_labels(text):
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts = []
    depth_quote = False
    escaped = False
    current = []
    for char in text:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            depth_quote = not depth_quote
        elif char == "," and not depth_quote:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if current:
        parts.append("".join(current))
    return parts


def _unescape(value):
    return re.sub(r"\\(.)", lambda m: {"n": "\n"}.get(
        m.group(1), m.group(1)), value)


def parse_exposition(text):
    """Parse + validate; returns ``{family: {help, type, samples}}``.

    ``samples`` is a list of ``(labels_dict, value_text)`` with label
    values unescaped.  Raises AssertionError on any conformance
    violation.
    """
    assert text.endswith("# EOF\n"), "missing # EOF terminator"
    lines = text.splitlines()
    assert lines[-1] == "# EOF"
    families = {}
    current = None
    for line in lines[:-1]:
        assert line.strip(), "blank line inside the exposition"
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            assert name not in families, "duplicate family %r" % name
            assert help_text, "empty HELP text for %r" % name
            families[name] = {"help": help_text, "type": None,
                              "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert name == current, \
                "TYPE for %r without a preceding HELP" % name
            assert families[name]["type"] is None, \
                "duplicate TYPE for %r" % name
            assert kind in ("gauge", "counter"), \
                "unexpected metric type %r" % kind
            families[name]["type"] = kind
        else:
            match = _SAMPLE_RE.match(line)
            assert match, "unparseable sample line %r" % line
            name, labels_text, value = match.groups()
            assert name == current, \
                "sample %r outside its family block" % name
            assert families[name]["type"] is not None, \
                "sample %r before its TYPE line" % name
            labels = {}
            for part in _split_labels(labels_text or ""):
                label = _LABEL_RE.match(part)
                assert label, "malformed/unescaped label %r" % part
                key = label.group(1)
                assert key not in labels, "duplicate label %r" % key
                labels[key] = _unescape(label.group(2))
            families[name]["samples"].append((labels, value))
    for name, family in families.items():
        assert family["type"] is not None, "family %r has no TYPE" % name
        if family["type"] == "counter":
            assert name.endswith("_total"), \
                "counter %r is not named *_total" % name
    return families


def _runner_snapshot():
    from types import SimpleNamespace

    from repro.inject.outcome import TrialOutcome
    from repro.runner.telemetry import Telemetry
    ticks = iter(float(i) for i in range(64))
    telemetry = Telemetry(total=6, clock=lambda: next(ticks))
    for outcome in (TrialOutcome.SDC, TrialOutcome.GRAY):
        telemetry.record_trial(SimpleNamespace(outcome=outcome),
                               worker_id=1)
    telemetry.set_workers(1, 2)
    return telemetry.snapshot().to_dict()


def test_runner_snapshot_conforms():
    families = parse_exposition(render_openmetrics(_runner_snapshot()))
    # Every family carries at least its HELP/TYPE pair; the constant
    # info-style sample is present with all its labels.
    info = families["repro_build_info"]
    assert info["type"] == "gauge"
    (labels, value), = info["samples"]
    assert value == "1"
    assert set(labels) == {"journal_schema", "result_schema", "revision"}


def test_fabric_snapshot_conforms():
    snapshot = _runner_snapshot()
    snapshot["fabric"] = {
        "workers_active": 2, "leases_outstanding": 1,
        "leases_granted": 9, "steals": 3, "duplicate_completions": 1,
        "campaigns_active": 1, "campaigns_done": 0,
        "queue_depth": {'ten"ant\\one,two': 4},
    }
    families = parse_exposition(render_openmetrics(snapshot))
    assert families["repro_fabric_steals_total"]["type"] == "counter"
    # The hostile tenant name survives the escape/unescape round-trip.
    (labels, value), = families["repro_fabric_queue_depth"]["samples"]
    assert labels["tenant"] == 'ten"ant\\one,two'
    assert value == "4"


def test_deprecated_aliases_are_absent():
    families = parse_exposition(render_openmetrics(_runner_snapshot()))
    assert families["repro_io_retries_total"]["type"] == "counter"
    for alias in ("repro_trials_retried", "repro_harness_errors",
                  "repro_cache_quarantined", "repro_io_retries"):
        assert alias not in families
    assert not any("DEPRECATED" in family["help"]
                   for family in families.values())


def test_parser_rejects_violations():
    with pytest.raises(AssertionError, match="EOF"):
        parse_exposition("# HELP a b\n# TYPE a gauge\na 1\n")
    with pytest.raises(AssertionError, match="duplicate family"):
        parse_exposition("# HELP a b\n# TYPE a gauge\na 1\n"
                         "# HELP a b\n# TYPE a gauge\na 2\n# EOF\n")
    with pytest.raises(AssertionError, match="no TYPE"):
        parse_exposition("# HELP a b\n# EOF\n")
    with pytest.raises(AssertionError, match="not named"):
        parse_exposition("# HELP a b\n# TYPE a counter\na 1\n# EOF\n")
    with pytest.raises(AssertionError, match="label"):
        parse_exposition('# HELP a b\n# TYPE a gauge\n'
                         'a{x="un"quoted"} 1\n# EOF\n')
