"""The campaign execution engine.

:class:`CampaignRunner` decomposes a campaign into trial-granular work
units, executes them -- inline for one worker, across a process pool
otherwise -- and reassembles the exact serial-order
:class:`~repro.inject.campaign.CampaignResult`.  Three properties are
layered on top of the plain serial loop:

* **Determinism** -- every trial's RNG comes from the same named-split
  scheme the serial :class:`~repro.inject.campaign.Campaign` uses, so
  for a fixed config the engine's result equals ``Campaign(config)
  .run()`` trial-for-trial, for any worker count, with or without an
  interrupt and resume in the middle.
* **Durability** -- with a campaign ``directory``, every completed
  trial is appended (flushed + fsynced) to an append-only journal
  before it is counted; after a crash or SIGINT a rerun skips the
  journaled units and recomputes only the rest.
* **Robustness** -- a dead worker's unfinished units are requeued onto
  a replacement process (the pool stays alive), a worker stuck on one
  trial past ``trial_timeout`` seconds is killed and its units retried,
  and retries are bounded.  A unit that *keeps* killing its workers is
  a poison unit: with ``contain_poison`` (the default) it is journaled
  as a ``harness_error`` outcome and the sweep continues; otherwise the
  campaign aborts rather than silently dropping trials.
* **Graceful drain** -- SIGTERM or SIGINT stops dispatching new work,
  lets in-flight trials finish (bounded by ``drain_timeout``), fsyncs
  the journal and raises :class:`~repro.errors.CampaignDrained`; the
  campaign directory resumes exactly where it left off.  A second
  signal skips the drain (classic KeyboardInterrupt).

Observability is a progress callback receiving
:class:`~repro.runner.telemetry.TelemetrySnapshot` values plus a
``metrics.json`` snapshot in the campaign directory.

Chaos: a :class:`~repro.chaos.ChaosSchedule` passed as ``chaos`` gets a
hook after every journaled trial plus the journal's write-fault hook,
letting the test harness inject worker kills, stalls, torn journal
tails, transient I/O errors, cache corruption and signals at seeded,
replayable points.  ``chaos=None`` (the default) is zero-overhead.
"""

import os
import signal as signal_module
import threading
import time
from collections import deque

from repro.errors import CampaignDrained, CampaignError
from repro.inject.campaign import _KINDS, CampaignResult
from repro.inject.golden import workload_page_sets
from repro.inject.outcome import TrialResult
from repro.inject.store import inventory_from_dict
from repro.obs import merge_profile, render_profile
from repro.perf.goldencache import GoldenCache
from repro.runner.journal import JournalWriter, write_metrics
from repro.runner.pool import WorkerContext, WorkerPool
from repro.runner.resume import load_resume_state
from repro.runner.telemetry import Telemetry
from repro.runner.units import (
    TrialUnit,
    UnitBatch,
    auto_batch_size,
    batch_units,
    enumerate_units,
)
from repro.uarch.config import PipelineConfig
from repro.uarch.core import Pipeline
from repro.workloads import get_workload

__all__ = ["CampaignRunner", "run_campaign"]


def run_campaign(config, pipeline_config=None, workers=None, directory=None,
                 progress=None, **options):
    """Run ``config`` on the engine; returns a ``CampaignResult``."""
    return CampaignRunner(config, pipeline_config, workers=workers,
                          directory=directory, progress=progress,
                          **options).run()


def _take_batch(queue, worker):
    """Pop the next batch for ``worker``, preferring start-point affinity.

    A worker that has already paid for a ``(workload, start_point)``
    checkpoint and golden trace should keep consuming that group's
    batches; any queued batch is still eligible for any worker, so this
    only reduces redundant preparation, never stalls the pool.
    """
    if worker.group is not None:
        for position, (batch_id, batch) in enumerate(queue):
            if (batch.workload, batch.start_point) == worker.group:
                del queue[position]
                return batch_id, batch
    return queue.popleft()


class CampaignRunner:
    """Durable, trial-granular campaign execution."""

    def __init__(self, config, pipeline_config=None, workers=None,
                 directory=None, batch_size=None, trial_timeout=None,
                 max_retries=2, progress=None, metrics_every=16,
                 poll_interval=0.05, require_journal=False, clock=None,
                 chaos=None, contain_poison=True, drain_timeout=30.0,
                 install_signal_handlers=True, journal_sleep=None,
                 batch_lanes=None):
        self.config = config
        self.pipeline_config = pipeline_config or PipelineConfig.paper(
            config.protection)
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, min(workers, config.total_trials))
        self.directory = directory
        self.batch_size = batch_size
        # Bit-plane batching width (``--batch N``).  A scheduling knob
        # only: trial results and journal bytes are identical at any
        # width, so it is deliberately NOT part of CampaignConfig and
        # never reaches the campaign fingerprint.
        self.batch_lanes = max(1, batch_lanes or 1)
        self.trial_timeout = trial_timeout
        self.max_retries = max_retries
        self.progress = progress
        self.metrics_every = metrics_every
        self.poll_interval = poll_interval
        self.require_journal = require_journal
        # The clock feeds stall detection and telemetry only -- never a
        # simulation path -- and is injectable for tests (REP002).
        self._clock = clock if clock is not None else time.monotonic
        self.chaos = chaos
        self.contain_poison = contain_poison
        self.drain_timeout = drain_timeout
        self.install_signal_handlers = install_signal_handlers
        self.journal_sleep = journal_sleep
        self._drain = None  # signal name once a graceful drain is requested
        self.pool = None  # the live WorkerPool while a pool run is active
        self.telemetry = None
        # Campaign-wide per-stage profile, merged across workers (only
        # populated when config.profile is on).
        self.profile_totals = {}
        self.profile_calls = {}

    # ------------------------------------------------------------------

    def run(self):
        """Execute (or finish) the campaign; returns a ``CampaignResult``.

        Raises :class:`~repro.errors.CampaignDrained` when a SIGTERM or
        SIGINT drained the campaign before every unit completed; the
        journal holds everything finished so far and the directory is
        resumable.
        """
        self._drain = None
        config = self.config
        units = enumerate_units(config)
        resume = load_resume_state(self.directory, config,
                                   require_journal=self.require_journal)
        results = dict(resume.trials)
        # Drop journaled units outside the current sweep (can only
        # happen with a hand-edited journal; fingerprinting already
        # rejects a different config).
        results = {unit: trial for unit, trial in results.items()
                   if unit in set(units)}
        pending = [unit for unit in units if unit not in results]

        telemetry = Telemetry(total=len(units), resumed=len(results),
                              clock=self._clock)
        self.telemetry = telemetry
        self._fresh_since_metrics = 0

        if resume.header:
            eligible_bits = resume.eligible_bits
            inventory = inventory_from_dict(resume.inventory_dict)
        else:
            eligible_bits, inventory = self._machine_inventory()

        journal = None
        if self.directory is not None:
            journal = JournalWriter.open(
                self.directory, config, eligible_bits, inventory,
                fault_hook=(self.chaos.journal_fault
                            if self.chaos is not None else None),
                on_retry=telemetry.record_io_retry,
                sleep=self.journal_sleep)
        previous_handlers = self._install_signal_handlers()
        try:
            if pending:
                if self.workers > 1:
                    self._run_pool(pending, results, telemetry, journal)
                else:
                    self._run_inline(pending, results, telemetry, journal)
        finally:
            self._restore_signal_handlers(previous_handlers)
            if journal is not None:
                journal.close()
            if self.directory is not None:
                write_metrics(self.directory, telemetry.snapshot().to_dict())

        if self._drain is not None and len(results) < len(units):
            raise CampaignDrained(self._drain, self.directory)

        return CampaignResult(
            config=config,
            trials=[results[unit] for unit in units],
            eligible_bits=eligible_bits,
            inventory=inventory,
            elapsed_seconds=telemetry.elapsed(),
        )

    # ------------------------------------------------------------------

    def _install_signal_handlers(self):
        """Install the graceful-drain SIGTERM/SIGINT handlers.

        Returns the previous handlers for restoration, or None when
        installation is disabled or impossible (signal handlers can
        only be set from the main thread).  The first signal requests a
        drain; a second one raises KeyboardInterrupt (the classic
        hard-stop escape hatch).
        """
        if not self.install_signal_handlers:
            return None
        if threading.current_thread() is not threading.main_thread():
            return None

        def handler(signum, frame):
            if self._drain is not None:
                raise KeyboardInterrupt
            self._drain = signal_module.Signals(signum).name

        previous = {}
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            previous[signum] = signal_module.signal(signum, handler)
        return previous

    def _restore_signal_handlers(self, previous):
        if previous:
            for signum, old in previous.items():
                signal_module.signal(signum, old)

    def _on_cache_event(self, kind, detail):
        """Integrity incidents surfaced by the inline golden cache."""
        if kind == "cache_quarantined" and self.telemetry is not None:
            self.telemetry.record_quarantine()

    def _machine_inventory(self):
        """The campaign's eligible-bit count and Table 1 inventory.

        Matches the serial runner, which reads both off the first
        workload's freshly constructed pipeline (the state space is a
        function of the pipeline config alone, so any workload works).
        """
        workload = get_workload(self.config.workloads[0],
                                scale=self.config.scale)
        pipeline = Pipeline(workload.program, self.pipeline_config)
        return (pipeline.eligible_bits(_KINDS[self.config.kinds]),
                pipeline.space.inventory())

    def profile_report(self):
        """The merged per-stage hot-path table, or None when not profiled."""
        if not self.profile_totals:
            return None
        return render_profile(
            self.profile_totals, self.profile_calls,
            title="Per-stage wall-clock profile (campaign-wide)")

    def _merge_profile(self, delta):
        if delta is not None:
            merge_profile(self.profile_totals, self.profile_calls, delta)

    def _record(self, unit, trial, results, telemetry, journal,
                worker_id=0):
        """Count one completed trial: journal first, then observe."""
        results[unit] = trial
        if journal is not None:
            journal.append_trial(unit, trial)
        telemetry.record_trial(trial, worker_id=worker_id)
        self._fresh_since_metrics += 1
        if self.directory is not None \
                and self._fresh_since_metrics >= self.metrics_every:
            self._fresh_since_metrics = 0
            write_metrics(self.directory, telemetry.snapshot().to_dict())
        if self.progress is not None:
            self.progress(telemetry.snapshot())
        if self.chaos is not None:
            # After the trial is safely journaled: chaos fires on the
            # done-trial-count axis, which is monotonic across resumes.
            self.chaos.on_trial(len(results), self)

    def _shared_page_sets(self, pending):
        """TLB-preload page sets for every workload that records golden.

        Computed once in the parent (the serial runner's total cost) and
        shared with all workers instead of being re-derived per process;
        the sets come from a deterministic fault-free functional run, so
        sharing cannot change any trial.  Only recording a golden window
        needs them (trials read the golden trace's copy), so workloads
        whose pending start points all have golden-cache entries are
        skipped; a worker that finds such an entry unloadable computes
        the sets itself.
        """
        golden_dir = self._golden_dir()
        cache = None if golden_dir is None else GoldenCache(
            golden_dir, self.config, self.pipeline_config)
        names = sorted({
            unit.workload for unit in pending
            if cache is None
            or not cache.has(unit.workload, unit.start_point)})
        page_sets = {}
        for name in names:
            workload = get_workload(name, scale=self.config.scale)
            page_sets[name] = workload_page_sets(workload.program)
        return page_sets

    def _golden_dir(self):
        """The shared golden-cache directory (campaign-directory runs)."""
        if self.directory is None:
            return None
        return os.path.join(self.directory, "golden")

    def _run_inline(self, pending, results, telemetry, journal):
        """Single-worker path: same context code, no processes."""
        context = WorkerContext(self.config, self.pipeline_config,
                                golden_dir=self._golden_dir(),
                                on_event=self._on_cache_event,
                                batch_lanes=self.batch_lanes)
        telemetry.set_workers(1, 1)
        try:
            for batch in batch_units(pending, self.batch_lanes):
                if self._drain is not None:
                    break  # drain: the current batch was the in-flight one
                for unit, trial in context.run_batch(batch):
                    self._record(unit, trial, results, telemetry, journal)
                stats = context.take_batch_stats()
                if stats is not None:
                    telemetry.record_batch(*stats)
        finally:
            self._merge_profile(context.take_profile())

    # ------------------------------------------------------------------

    def _run_pool(self, pending, results, telemetry, journal):
        """Dynamic scheduling across the worker pool."""
        batch_size = self.batch_size or max(
            auto_batch_size(len(pending), self.workers), self.batch_lanes)
        queue = deque()
        next_batch_id = 0
        for batch in batch_units(pending, batch_size):
            queue.append((next_batch_id, batch))
            next_batch_id += 1

        outstanding = set(pending)
        retries = {}
        assignments = {}  # worker_id -> [batch_id, batch, received indices]
        pool = WorkerPool(self.config, self.pipeline_config, self.workers,
                          page_sets=self._shared_page_sets(pending),
                          golden_dir=self._golden_dir(),
                          batch_lanes=self.batch_lanes)
        self.pool = pool
        drain_deadline = None
        try:
            while outstanding:
                now = self._clock()
                if self._drain is None:
                    idle = pool.idle_workers()
                    while idle and queue:
                        worker = idle.pop(0)
                        batch_id, batch = _take_batch(queue, worker)
                        assignments[worker.worker_id] = \
                            [batch_id, batch, set()]
                        pool.assign(worker, batch_id, batch, now)
                elif drain_deadline is None:
                    drain_deadline = now + self.drain_timeout
                telemetry.set_workers(pool.busy_count(), len(pool.workers))

                if self._drain is not None and not assignments:
                    break  # drained: nothing in flight remains

                message = pool.next_message(self.poll_interval)
                now = self._clock()
                if message is not None:
                    kind, worker_id, batch_id, payload = message
                    worker = pool.by_id(worker_id)
                    if kind == "trial":
                        unit, trial = payload
                        if worker is not None:
                            worker.last_progress = now
                        assignment = assignments.get(worker_id)
                        if assignment is not None \
                                and assignment[0] == batch_id:
                            assignment[2].add(unit.trial_index)
                        if unit in outstanding:
                            outstanding.discard(unit)
                            self._record(unit, trial, results, telemetry,
                                         journal, worker_id=worker_id)
                    elif kind == "done":
                        self._merge_profile(payload)
                        assignment = assignments.get(worker_id)
                        if assignment is not None \
                                and assignment[0] == batch_id:
                            assignments.pop(worker_id)
                            if worker is not None:
                                worker.batch_id = None
                    elif kind == "event":
                        event_kind, detail = payload
                        if event_kind == "cache_quarantined":
                            telemetry.record_quarantine()
                        elif event_kind == "batch_stats":
                            telemetry.record_batch(*detail)
                    elif kind == "error":
                        raise CampaignError(
                            "campaign worker %d failed: %s"
                            % (worker_id, payload))

                if drain_deadline is not None and now > drain_deadline:
                    # In-flight batches did not finish inside the
                    # drain window: give up on them (they stay
                    # unjournaled, hence resumable) and stop.
                    for worker in list(pool.workers):
                        if worker.busy:
                            assignments.pop(worker.worker_id, None)
                            pool.retire(worker)
                    break

                next_batch_id = self._reap(
                    pool, now, queue, next_batch_id, assignments,
                    outstanding, retries, results, telemetry, journal)

                if outstanding and not queue and not assignments \
                        and self._drain is None \
                        and pool.next_message(self.poll_interval) is None:
                    raise CampaignError(
                        "engine inconsistency: %d units outstanding with "
                        "no queued or assigned work" % len(outstanding))
        finally:
            self.pool = None
            pool.shutdown()

    def _reap(self, pool, now, queue, next_batch_id, assignments,
              outstanding, retries, results, telemetry, journal):
        """Requeue work held by dead or stalled workers; respawn them.

        A unit that has already burned through ``max_retries`` workers
        is *poison*: with ``contain_poison`` it is journaled as a
        ``harness_error`` outcome (quarantined from the sweep's
        statistics, which exclude that outcome) instead of aborting the
        whole campaign.  During a drain, dead workers are simply
        retired -- their units stay unjournaled and resume later.
        """
        for worker in list(pool.workers):
            dead = not worker.alive()
            stalled = (not dead and self.trial_timeout is not None
                       and worker.busy and worker.last_progress is not None
                       and now - worker.last_progress > self.trial_timeout)
            if not dead and not stalled:
                continue
            cause = "stall" if stalled else "worker death"
            assignment = assignments.pop(worker.worker_id, None)
            if self._drain is not None:
                pool.retire(worker)
                continue
            if assignment is not None:
                batch_id, batch, received = assignment
                remaining = [
                    index for index in batch.trial_indices
                    if index not in received
                    and TrialUnit(batch.workload, batch.start_point,
                                  index) in outstanding]
                requeue = []
                for index in remaining:
                    unit = TrialUnit(batch.workload, batch.start_point,
                                     index)
                    count = retries.get(unit, 0) + 1
                    retries[unit] = count
                    if count <= self.max_retries:
                        requeue.append(index)
                        continue
                    if not self.contain_poison:
                        raise CampaignError(
                            "trial unit %s/sp%d/#%d failed %d times "
                            "(worker %s, last cause: %s); aborting "
                            "rather than dropping trials"
                            % (unit.workload, unit.start_point,
                               unit.trial_index, count,
                               worker.worker_id, cause))
                    # Poison containment: the unit repeatedly took its
                    # worker down; journal the fact and move on.
                    trial = TrialResult.harness_error(
                        unit.workload, unit.start_point, unit.trial_index,
                        "unit failed %d worker(s); last cause: %s; "
                        "contained as harness_error" % (count, cause))
                    outstanding.discard(unit)
                    self._record(unit, trial, results, telemetry, journal,
                                 worker_id=worker.worker_id)
                    telemetry.record_harness_error()
                if requeue:
                    telemetry.record_retry(len(requeue))
                    queue.append((next_batch_id,
                                  UnitBatch(batch.workload,
                                            batch.start_point,
                                            tuple(requeue))))
                    next_batch_id += 1
            pool.replace(worker)
        return next_batch_id
