"""Execution-engine tests: determinism, crash recovery, robustness.

The engine's contract is byte-identity with the serial reference
runner: for a fixed config, ``CampaignRunner`` must produce exactly the
trials of ``Campaign(config).run()`` for any worker count, with or
without an interrupt, a truncated journal, or a dead worker in the
middle.  ``TrialResult`` is a plain dataclass, so ``==`` over the trial
lists is a field-for-field (byte-identical) comparison.
"""

import json
import os
import signal

import pytest

from repro.errors import SimulationError
from repro.inject.campaign import Campaign, CampaignConfig
from repro.inject.parallel import run_parallel
from repro.runner import CampaignRunner, enumerate_units, run_campaign
from repro.runner.journal import journal_path, metrics_path
from repro.runner.pool import WorkerPool
from repro.runner.telemetry import Telemetry
from repro.runner.units import TrialUnit, auto_batch_size, batch_units
from repro.uarch.config import PipelineConfig


@pytest.fixture(scope="module")
def config():
    return CampaignConfig.test()


@pytest.fixture(scope="module")
def serial(config):
    return Campaign(config).run()


# -- Work decomposition --------------------------------------------------------


def test_units_enumerate_in_serial_order(config):
    units = enumerate_units(config)
    assert len(units) == config.total_trials
    assert units[0] == TrialUnit("gzip", 0, 0)
    assert units[config.trials_per_start_point] == TrialUnit("gzip", 1, 0)
    assert units == sorted(units)


def test_batches_never_span_start_points(config):
    units = enumerate_units(config)
    batches = batch_units(units, 4)
    assert sum(len(batch) for batch in batches) == len(units)
    for batch in batches:
        assert len(batch) <= 4
        rebuilt = batch.units()
        assert all(unit.start_point == batch.start_point for unit in rebuilt)
    flattened = [unit for batch in batches for unit in batch.units()]
    assert flattened == units


def test_auto_batch_size_bounds():
    assert auto_batch_size(0, 4) == 1
    assert auto_batch_size(10, 4) == 1  # fewer units than 4*workers
    assert auto_batch_size(30_000, 8) == 32  # capped quantum
    assert auto_batch_size(400, 4) == 25


# -- Determinism ---------------------------------------------------------------


def test_inline_engine_matches_serial(config, serial):
    result = run_campaign(config, workers=1)
    assert result.config == serial.config
    assert result.trials == serial.trials
    assert result.eligible_bits == serial.eligible_bits
    assert result.inventory == serial.inventory


def test_pool_engine_matches_serial(config, serial):
    result = run_campaign(config, workers=3)
    assert result.trials == serial.trials
    assert result.eligible_bits == serial.eligible_bits


def test_single_workload_campaign_scales_past_one_worker(config, serial):
    # The old workload-sharded runner fell back to serial whenever
    # len(workloads) <= 1; the trial-granular engine must not.
    runner = CampaignRunner(config, workers=99)
    assert runner.workers == config.total_trials  # clamped, not 1
    result = run_parallel(config, workers=4)
    assert result.trials == serial.trials


# -- Crash recovery ------------------------------------------------------------


class _Interrupt(KeyboardInterrupt):
    """Distinguishable SIGINT stand-in raised from the progress hook."""


def test_interrupt_truncation_resume_is_byte_identical(
        tmp_path, config, serial):
    directory = str(tmp_path / "campaign")
    seen = []

    def interrupt_after_four(snapshot):
        seen.append(snapshot.done)
        if snapshot.done == 4:
            raise _Interrupt()

    with pytest.raises(_Interrupt):
        CampaignRunner(config, workers=1, directory=directory,
                       progress=interrupt_after_four).run()

    path = journal_path(directory)
    with open(path) as handle:
        journaled = handle.read().splitlines()
    assert len(journaled) == 1 + 4  # header + the four completed trials

    # Simulate the crash happening mid-append: tear the last line.
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) - 15)

    resumed = run_campaign(config, workers=2, directory=directory)
    assert resumed.trials == serial.trials
    assert resumed.eligible_bits == serial.eligible_bits
    assert resumed.inventory == serial.inventory

    # The journal now holds the full campaign; a further resume
    # recomputes nothing and still reproduces the serial result.
    again = run_campaign(config, workers=1, directory=directory)
    assert again.trials == serial.trials
    metrics = json.loads(open(metrics_path(directory)).read())
    assert metrics["total"] == config.total_trials
    assert metrics["resumed"] == config.total_trials
    assert metrics["fresh"] == 0


def test_worker_death_requeues_and_matches_serial(config, serial):
    killed = []
    runner = CampaignRunner(config, workers=2, batch_size=4)

    def kill_one_busy_worker(snapshot):
        if snapshot.fresh >= 2 and not killed and runner.pool is not None:
            busy = [w for w in runner.pool.workers if w.busy and w.alive()]
            if busy:
                busy[0].process.terminate()
                killed.append(busy[0].worker_id)

    runner.progress = kill_one_busy_worker
    result = runner.run()
    assert killed, "test never observed a busy worker to kill"
    assert result.trials == serial.trials


def test_pool_shutdown_kills_a_stopped_worker(config):
    """A SIGSTOPped worker ignores the stop sentinel and SIGTERM; left
    alive, interpreter exit would join it forever."""
    pool = WorkerPool(config, PipelineConfig.paper(config.protection), 1)
    process = pool.workers[0].process
    try:
        os.kill(process.pid, signal.SIGSTOP)
        pool.shutdown()
        assert not process.is_alive()
    finally:
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def test_resume_rejects_fingerprint_mismatch(tmp_path, config):
    directory = str(tmp_path / "campaign")
    run_campaign(config, workers=1, directory=directory)
    other = CampaignConfig.test(seed=config.seed + 1)
    with pytest.raises(SimulationError, match="fingerprint"):
        run_campaign(other, workers=1, directory=directory)


def test_resume_rejects_mid_journal_corruption(tmp_path, config):
    directory = str(tmp_path / "campaign")
    run_campaign(config, workers=1, directory=directory)
    path = journal_path(directory)
    lines = open(path).read().splitlines()
    lines[2] = lines[2][:10]  # corrupt a *non-final* record
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(SimulationError, match="corrupt journal line 3"):
        run_campaign(config, workers=1, directory=directory)


def test_resume_requires_journal_when_asked(tmp_path, config):
    with pytest.raises(SimulationError, match="cannot resume"):
        run_campaign(config, directory=str(tmp_path / "missing"),
                     require_journal=True)


# -- Telemetry -----------------------------------------------------------------


def test_telemetry_rates_and_eta(serial):
    # First tick anchors _started; record_trial timestamps each
    # completion (per-worker latency), snapshot reads elapsed.
    ticks = iter([0.0] + [10.0] * 8)
    telemetry = Telemetry(total=10, resumed=2, clock=lambda: next(ticks))
    for trial in serial.trials[:4]:
        telemetry.record_trial(trial)
    telemetry.set_workers(3, 4)
    snapshot = telemetry.snapshot()
    assert snapshot.done == 6 and snapshot.fresh == 4
    assert snapshot.trials_per_second == pytest.approx(0.4)
    assert snapshot.eta_seconds == pytest.approx(10.0)
    assert snapshot.percent == pytest.approx(60.0)
    assert sum(snapshot.outcome_counts.values()) == 4
    assert snapshot.workers_busy == 3
    rendered = snapshot.render()
    assert "60.0% 6/10" in rendered and "ETA" in rendered
    assert snapshot.to_dict()["workers_total"] == 4


def test_telemetry_incident_counters_in_line_json_and_prom():
    from repro.obs.metrics import render_openmetrics

    telemetry = Telemetry(total=10, clock=lambda: 0.0)
    clean = telemetry.snapshot().render()
    for token in ("harness-err", "quarantined", "io-retries", "retried"):
        assert token not in clean  # healthy runs stay terse

    telemetry.record_retry(2)
    telemetry.record_harness_error()
    telemetry.record_quarantine()
    telemetry.record_io_retry()
    telemetry.record_io_retry(2)
    snapshot = telemetry.snapshot()

    rendered = snapshot.render()
    assert "retried:2" in rendered
    assert "harness-err:1" in rendered
    assert "quarantined:1" in rendered
    assert "io-retries:3" in rendered

    as_dict = snapshot.to_dict()
    assert as_dict["harness_errors"] == 1
    assert as_dict["quarantined"] == 1
    assert as_dict["io_retries"] == 3

    prom = render_openmetrics(as_dict)
    assert "repro_harness_errors 1" in prom
    assert "repro_cache_quarantined 1" in prom
    assert "repro_io_retries 3" in prom
