"""Golden-cache tests: format handling and warm-cache page sets.

The cache is rebuildable, so anything that is not an enveloped entry of
the current format -- a format-1 entry holding hash-era signatures, or a
pre-envelope plain pickle -- must be ignored (not quarantined) and the
start point recorded again, with trials unchanged.  On a warm cache no
golden window is recorded, so no TLB page sets are computed either.
"""

import pickle
import zlib

import pytest

import repro.runner.pool as pool_module
from repro.inject.campaign import CampaignConfig
from repro.perf.goldencache import (
    _HEADER,
    _MAGIC,
    CACHE_FORMAT,
    QUARANTINE_DIR,
    GoldenCache,
)
from repro.runner import CampaignRunner, run_campaign
from repro.runner.journal import canonical_trial_bytes, journal_path
from repro.runner.units import enumerate_units
from repro.uarch.config import PipelineConfig


@pytest.fixture(scope="module")
def config():
    return CampaignConfig.test(start_points_per_workload=1)


@pytest.fixture(scope="module")
def cold(tmp_path_factory, config):
    """A cold campaign: its golden entry and its canonical trial bytes."""
    directory = tmp_path_factory.mktemp("cold")
    run_campaign(config, workers=1, directory=str(directory))
    (entry_path,) = (directory / "golden").glob("*.pkl")
    blob = entry_path.read_bytes()
    assert blob.startswith(_MAGIC)
    entry = pickle.loads(blob[_HEADER.size:])
    assert entry["tag"][0] == CACHE_FORMAT == 2
    return (entry_path.name, entry,
            canonical_trial_bytes(journal_path(str(directory))))


def _envelope(payload):
    return _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _rerun_over(tmp_path, monkeypatch, config, name, blob):
    """Run the campaign over a cache holding ``blob``; count recordings."""
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    (golden_dir / name).write_bytes(blob)
    recorded = []
    record_golden = pool_module.record_golden

    def counting_record_golden(*args, **kwargs):
        recorded.append(args)
        return record_golden(*args, **kwargs)

    monkeypatch.setattr(pool_module, "record_golden", counting_record_golden)
    run_campaign(config, workers=1, directory=str(tmp_path))
    return golden_dir, len(recorded)


def _poisoned(entry):
    """The entry with every golden signature zeroed: loading it would
    turn every μArch-Match trial into Gray Area."""
    entry = dict(entry)
    golden = pickle.loads(pickle.dumps(entry["golden"]))
    golden.sigs = [0] * len(golden.sigs)
    entry["golden"] = golden
    return entry


def test_format1_entry_is_ignored_and_rerecorded(
        tmp_path, monkeypatch, config, cold):
    name, entry, reference = cold
    stale = _poisoned(entry)
    stale["tag"] = (1,) + entry["tag"][1:]
    golden_dir, recorded = _rerun_over(
        tmp_path, monkeypatch, config, name,
        _envelope(pickle.dumps(stale)))

    assert recorded == 1
    assert canonical_trial_bytes(journal_path(str(tmp_path))) == reference
    assert not (golden_dir / QUARANTINE_DIR).exists()
    cache = GoldenCache(str(golden_dir), config,
                        PipelineConfig.paper(config.protection))
    assert cache.load("gzip", 0) is not None  # re-recorded as format 2


def test_plain_pickle_entry_is_ignored_and_rerecorded(
        tmp_path, monkeypatch, config, cold):
    name, entry, reference = cold
    # Current tag, but no envelope: the pre-envelope file framing.
    golden_dir, recorded = _rerun_over(
        tmp_path, monkeypatch, config, name,
        pickle.dumps(_poisoned(entry)))

    assert recorded == 1
    assert canonical_trial_bytes(journal_path(str(tmp_path))) == reference
    assert not (golden_dir / QUARANTINE_DIR).exists()


def test_warm_cache_computes_no_page_sets(tmp_path, monkeypatch, config):
    run_campaign(config, workers=1, directory=str(tmp_path),
                 batch_lanes=8)
    (tmp_path / "journal.jsonl").unlink()
    calls = []
    workload_page_sets = pool_module.workload_page_sets

    def counting_page_sets(program):
        calls.append(program)
        return workload_page_sets(program)

    monkeypatch.setattr(pool_module, "workload_page_sets",
                        counting_page_sets)
    run_campaign(config, workers=1, directory=str(tmp_path),
                 batch_lanes=8)
    assert calls == []

    # The pool parent shares page sets only for workloads it expects
    # to record: none on this warm cache, gzip once an entry is gone.
    runner = CampaignRunner(config, workers=2, directory=str(tmp_path))
    units = list(enumerate_units(config))
    assert runner._shared_page_sets(units) == {}
    for entry in (tmp_path / "golden").glob("*.pkl"):
        entry.unlink()
    assert sorted(runner._shared_page_sets(units)) == ["gzip"]
