"""Journal integrity tests: checksums, repair, retry, legacy loading.

Schema 2 seals every journal line with a CRC32 over its canonical JSON
encoding.  These tests pin the failure model around that seal: a
flipped bit mid-file is a hard error naming the line and byte offset,
a flipped bit on the final line is a torn tail that resume repairs
byte-identically, ``--repair`` truncates at the last valid line after
confirmation, transient append I/O errors are retried with backoff,
and pre-checksum (schema 1) journals still load with a one-line note.
"""

import json
import shutil

import pytest

from oracles import CONFIG_DIGESTS, journal_digest, matches_digest
from repro.errors import CampaignError, SimulationError
from repro.inject.campaign import Campaign, CampaignConfig
from repro.runner import run_campaign
from repro.runner.journal import (
    JournalWriter,
    canonical_trial_bytes,
    decode_line,
    journal_path,
    read_journal,
    repair_journal,
)
from repro.runner.journal import _canonical  # canonical JSON helper
from repro.runner.resume import load_resume_state


@pytest.fixture(scope="module")
def config():
    return CampaignConfig.test()


@pytest.fixture(scope="module")
def finished_dir(tmp_path_factory, config):
    """A completed campaign directory (copied per test before editing)."""
    directory = tmp_path_factory.mktemp("journal") / "campaign"
    run_campaign(config, workers=1, directory=str(directory))
    assert journal_digest(directory) == CONFIG_DIGESTS["smoke"]
    return directory


def _copy(finished_dir, tmp_path):
    target = tmp_path / "campaign"
    shutil.copytree(finished_dir, target)
    return target


def _flip_digit(line):
    """Corrupt one line by changing a digit (stays valid JSON)."""
    for position, char in enumerate(line):
        if char.isdigit():
            replacement = "1" if char != "1" else "2"
            return line[:position] + replacement + line[position + 1:]
    raise AssertionError("no digit to flip in %r" % line)


def test_every_line_carries_a_verified_checksum(finished_dir, config):
    lines = journal_path(str(finished_dir))
    with open(lines) as handle:
        for line in handle:
            record, status = decode_line(line)
            assert status == "ok"
            assert "crc" not in record  # stripped after verification
    contents = read_journal(journal_path(str(finished_dir)))
    assert len(contents.trials) == config.total_trials
    assert contents.legacy_lines == 0
    assert not contents.truncated


def test_midfile_flip_names_line_and_byte_offset(
        finished_dir, tmp_path, config):
    directory = _copy(finished_dir, tmp_path)
    path = journal_path(str(directory))
    with open(path) as handle:
        lines = handle.read().splitlines()
    expected_offset = len(lines[0]) + 1 + len(lines[1]) + 1
    lines[2] = _flip_digit(lines[2])
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(SimulationError) as excinfo:
        run_campaign(config, workers=1, directory=str(directory))
    message = str(excinfo.value)
    assert "corrupt journal line 3" in message
    assert "byte offset %d" % expected_offset in message
    assert "--repair" in message


def test_final_line_flip_is_torn_tail_resume_byte_identical(
        finished_dir, tmp_path, config):
    directory = _copy(finished_dir, tmp_path)
    path = journal_path(str(directory))
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[-1] = _flip_digit(lines[-1])
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    contents = read_journal(path)
    assert contents.truncated
    assert len(contents.trials) == config.total_trials - 1

    resumed = run_campaign(config, workers=1, directory=str(directory))
    assert matches_digest(resumed)
    assert canonical_trial_bytes(path) \
        == canonical_trial_bytes(journal_path(str(finished_dir)))


def test_repair_cli_truncates_after_confirmation(
        finished_dir, tmp_path, config, capsys):
    from repro.cli import main as repro_main
    directory = _copy(finished_dir, tmp_path)
    path = journal_path(str(directory))
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[4] = _flip_digit(lines[4])
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    kept, dropped, _offset = repair_journal(path, dry_run=True)
    assert (kept, dropped) == (4, len(lines) - 4)
    with pytest.raises(SimulationError):
        read_journal(path)  # the dry run left the damage in place

    assert repro_main(["campaign", "--repair", "--dir", str(directory),
                       "--yes"]) == 0
    out = capsys.readouterr().out
    assert "truncated" in out
    contents = read_journal(path)
    assert len(contents.trials) == 3  # header + 3 trials kept
    resumed = run_campaign(config, workers=1, directory=str(directory))
    assert matches_digest(resumed)

    # A clean journal repairs to a no-op.
    assert repro_main(["campaign", "--repair", "--dir", str(directory),
                       "--yes"]) == 0
    assert "nothing to repair" in capsys.readouterr().out


def test_legacy_schema1_journal_loads_with_note(
        finished_dir, tmp_path, config, capsys):
    directory = _copy(finished_dir, tmp_path)
    path = journal_path(str(directory))
    rewritten = []
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("crc", None)
            if record.get("type") == "header":
                record["schema"] = 1
            rewritten.append(_canonical(record))
    with open(path, "w") as handle:
        handle.write("\n".join(rewritten) + "\n")

    state = load_resume_state(str(directory), config)
    note = capsys.readouterr().err
    assert "predate journal checksums" in note
    assert "schema 1" in note
    assert len(state.trials) == config.total_trials

    resumed = run_campaign(config, workers=1, directory=str(directory))
    assert matches_digest(resumed)


def test_unknown_schema_is_rejected(finished_dir, tmp_path, config):
    directory = _copy(finished_dir, tmp_path)
    path = journal_path(str(directory))
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    header.pop("crc", None)
    header["schema"] = 99
    lines[0] = _canonical(header)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(SimulationError, match="schema 99"):
        run_campaign(config, workers=1, directory=str(directory))


def test_transient_append_errors_are_retried(tmp_path, config):
    faults = {"remaining": 2}

    def flaky(writer, line):
        if faults["remaining"] > 0:
            faults["remaining"] -= 1
            raise OSError(5, "injected transient failure")

    retries = []
    sleeps = []
    writer = JournalWriter.open(
        str(tmp_path / "campaign"), config, eligible_bits=1, inventory={},
        fault_hook=flaky, on_retry=lambda: retries.append(1),
        sleep=sleeps.append)
    writer.close()
    assert len(retries) == 2
    assert sleeps == sorted(sleeps)  # exponential backoff never shrinks
    contents = read_journal(journal_path(str(tmp_path / "campaign")))
    assert contents.header is not None  # the retried header landed once
    assert not contents.truncated


def test_persistent_append_errors_escalate(tmp_path, config):
    def broken(writer, line):
        raise OSError(5, "disk on fire")

    with pytest.raises(CampaignError, match="failed 5 times"):
        JournalWriter.open(
            str(tmp_path / "campaign"), config, eligible_bits=1,
            inventory={}, fault_hook=broken, sleep=lambda seconds: None)


# -- segment reader/writer (shared by resume and the fabric) ------------------


def test_read_segment_slices_on_serial_unit_order(finished_dir, config):
    from repro.runner.journal import read_segment
    from repro.runner.units import enumerate_units

    units = enumerate_units(config)
    contents = read_segment(str(journal_path(finished_dir)), 2, 7)
    assert set(contents.trials) == set(units[2:7])
    unbounded = read_segment(str(journal_path(finished_dir)))
    assert set(unbounded.trials) == set(units)


def test_read_segment_without_header_cannot_slice(tmp_path):
    from repro.runner.journal import encode_line, read_segment

    path = tmp_path / "headerless.jsonl"
    path.write_text(encode_line(
        {"type": "trial", "unit": ["gzip", 0, 0], "trial": {}}) + "\n")
    assert read_segment(str(path)).trials  # unbounded read still works
    with pytest.raises(SimulationError, match="no header"):
        read_segment(str(path), 0, 1)


def test_write_segment_round_trips_checksummed(finished_dir, tmp_path,
                                               config):
    from repro.runner.journal import read_segment, write_segment

    contents = read_journal(str(journal_path(finished_dir)))
    pairs = sorted(contents.trials.items())[:5]
    path = tmp_path / "segment.jsonl"
    header = {k: v for k, v in contents.header.items() if k != "crc"}
    write_segment(str(path), header, pairs)
    back = read_segment(str(path))
    assert back.header["fingerprint"] == contents.header["fingerprint"]
    assert sorted(back.trials.items()) == pairs
    # Every line is schema-2 sealed: a flipped digit is detected.
    lines = path.read_text().splitlines()
    record, status = decode_line(lines[1])
    assert status == "ok"


def test_campaign_dict_from_journal_feeds_merge(finished_dir, config):
    from repro.inject.store import campaign_to_dict, merge_campaign_dicts
    from repro.runner.journal import campaign_dict_from_journal

    document = campaign_dict_from_journal(str(journal_path(finished_dir)))
    assert document["kind"] == "uarch-campaign"
    merged = merge_campaign_dicts(
        [document, campaign_to_dict(Campaign(config).run())])
    assert len(merged["trials"]) == config.total_trials
    assert merged["fingerprint"] == document["fingerprint"]
