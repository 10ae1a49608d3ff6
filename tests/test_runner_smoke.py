"""Fast end-to-end smoke test: a tiny resumable campaign on the engine.

Kept deliberately small (three trials, two workers) so the full
journal -> resume -> verify cycle runs in seconds under ``pytest -x -q``
and gates every commit.
"""

import json

from oracles import (
    CONFIG_DIGESTS,
    ELIGIBLE_BITS,
    journal_digest,
    matches_digest,
    tiny_config,
)
from repro.runner import run_campaign
from repro.runner.journal import journal_path, metrics_path


def test_tiny_resumable_campaign_end_to_end(tmp_path):
    config = tiny_config()
    directory = str(tmp_path / "campaign")

    first = run_campaign(config, workers=2, directory=directory)
    assert len(first.trials) == 3
    assert matches_digest(first, "tiny")
    assert journal_digest(directory) == CONFIG_DIGESTS["tiny"]
    assert first.eligible_bits == ELIGIBLE_BITS

    with open(journal_path(directory)) as handle:
        records = [json.loads(line) for line in handle]
    assert records[0]["type"] == "header"
    assert [r["type"] for r in records[1:]] == ["trial"] * 3

    # Resuming a finished campaign recomputes nothing and reproduces
    # the same serial-order result.
    second = run_campaign(config, workers=2, directory=directory)
    assert second.trials == first.trials
    assert second.inventory == first.inventory
    metrics = json.loads(open(metrics_path(directory)).read())
    assert metrics["resumed"] == 3
    assert metrics["fresh"] == 0
    assert metrics["done"] == metrics["total"] == 3
