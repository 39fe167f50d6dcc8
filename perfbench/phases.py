"""The benchmark's workloads and the phases one run is made of.

Every workload is one injection campaign in the ``quick`` shape of
``benchmarks/conftest.py`` (three kernels at ``tiny`` scale, two start
points each), run on the inline engine -- ``run_campaign(config,
workers=1, directory=...)``, no process pool, no fabric -- so one
process measures one engine path:

* ``batched-campaign``: single-bit faults through the bit-plane batch
  engine (64 lanes), the path users get with ``--batch``;
* ``scalar-campaign``: the same faults on one lane, the path of
  ``Campaign.run``, observed campaigns and unbatchable fault models.

A run has two timed phases.  **Set-up** prepares every (kernel, start
point) into an empty golden cache through the public
``WorkerContext.run_batch``, with the smallest batch that takes the
workload's path.  The **measured phase** runs the whole campaign on
that warm cache into a fresh journal directory.  Both are timed on a
:class:`refclock.ReferenceClock`.  Each journal is then
checked, untimed, against a reference digest from a cold run of the
same campaign (see :func:`reference_digest`).
"""

import gc
import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from repro.inject.campaign import CampaignConfig
from repro.inject.outcome import TrialOutcome
from repro.inject.store import trial_to_dict
from repro.runner.engine import run_campaign
from repro.runner.journal import (
    canonical_trial_bytes,
    journal_path,
    read_journal,
    segment_header,
    write_segment,
)
from repro.runner.pool import WorkerContext
from repro.runner.units import TrialUnit, UnitBatch

from layers import (
    LAYER_METRICS,
    check_repeats,
    layer_tracer,
    phase_metrics,
    setup_metrics,
    summarise,
)
from refclock import ReferenceClock

# The ``quick`` campaign shape of benchmarks/conftest.py.
SHAPE = dict(
    workloads=("gzip", "mcf", "gcc"), scale="tiny", kinds="latch+ram",
    start_points_per_workload=2, warmup_cycles=600, spacing_cycles=250,
    horizon=600, margin=250)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign size and an engine path."""

    name: str
    trials_per_start_point: int
    batch_lanes: int
    reference_lanes: int  # lanes of the reference run

    def config(self, seed):
        """The campaign this workload runs for ``seed``."""
        return CampaignConfig(
            seed=seed, trials_per_start_point=self.trials_per_start_point,
            **SHAPE)

    @property
    def batched(self):
        """Whether the campaign takes the bit-plane batch path."""
        return self.batch_lanes > 1


# Trial counts follow from how much a campaign's work varies with its
# seed (see README.md, "Noise"): most faults are masked within a few
# dozen cycles, but the few trials that run on to the horizon -- and,
# on the batched engine, the few lanes that lane out and then never
# reconverge -- carry much of the time, so batched-campaign needs many
# more trials than scalar-campaign to be as steady.  Trial streams
# depend only on (seed, kernel, start point, trial index), so
# scalar-campaign's trials are the first COMMON_TRIALS of each start
# point of batched-campaign's, and the two journals must agree on them.
COMMON_TRIALS = 96

WORKLOADS = {
    workload.name: workload for workload in (
        Workload("batched-campaign", trials_per_start_point=256,
                 batch_lanes=64, reference_lanes=32),
        Workload("scalar-campaign", trials_per_start_point=COMMON_TRIALS,
                 batch_lanes=1, reference_lanes=64),
    )
}


def digest(data):
    """Short hex digest of canonical journal bytes."""
    return hashlib.sha256(data).hexdigest()[:32]


def set_up(workload, config, golden_dir):
    """Prepare every (kernel, start point) into ``golden_dir``.

    ``golden_dir`` must not exist yet.  Runs the smallest batch that
    takes the workload's path through ``WorkerContext.run_batch``: two
    trials when batched (which records the activity trace), one
    otherwise.  Returns the stopped :class:`ReferenceClock`.
    """
    if os.path.exists(golden_dir):
        raise RuntimeError("set-up needs an empty cache: %s" % golden_dir)
    indices = (0, 1) if workload.batched else (0,)
    clock = ReferenceClock()
    clock.start()
    context = WorkerContext(config, golden_dir=golden_dir,
                            batch_lanes=workload.batch_lanes)
    for name in config.workloads:
        for start_point in range(config.start_points_per_workload):
            for _unit, _trial in context.run_batch(
                    UnitBatch(name, start_point, indices)):
                clock.tick()
    clock.stop()
    return clock


@dataclass
class Measured:
    """One measured campaign: wall time, journal digests, trial tally."""

    seconds: float  # wall time, calibration left out
    reference_seconds: float
    trials: int
    harness_errors: int
    digest: str
    common_digest: str  # of the trials with index < COMMON_TRIALS
    journal_bytes: int
    cache_bytes: int


def measure(workload, config, directory):
    """Run the campaign into ``directory`` (holding a warm ``golden/``).

    Only the ``run_campaign`` call is timed, on a
    :class:`ReferenceClock` that calibrates from the engine's progress
    callback; the journal is read back afterwards for the output check.
    """
    clock = ReferenceClock()
    clock.start()
    result = run_campaign(config, workers=1, directory=directory,
                          batch_lanes=workload.batch_lanes,
                          progress=clock.tick)
    clock.stop()
    path = journal_path(directory)
    harness_errors = sum(1 for trial in result.trials
                         if trial.outcome == TrialOutcome.HARNESS_ERROR)
    full = digest(canonical_trial_bytes(path))
    if config.trials_per_start_point > COMMON_TRIALS:
        common = common_digest(path, os.path.join(directory, "common.jsonl"))
    else:
        common = full
    return Measured(seconds=clock.wall_s,
                    reference_seconds=clock.reference_s,
                    trials=len(result.trials),
                    harness_errors=harness_errors, digest=full,
                    common_digest=common,
                    journal_bytes=os.path.getsize(path),
                    cache_bytes=cache_bytes(os.path.join(directory, "golden")))


def common_digest(path, scratch_path):
    """Digest of the journal's trials with index < ``COMMON_TRIALS``."""
    contents = read_journal(path)
    write_segment(scratch_path, contents.header, [
        (unit, trial) for unit, trial in contents.trials.items()
        if unit.trial_index < COMMON_TRIALS])
    return digest(canonical_trial_bytes(scratch_path))


def reference_digest(workload, config, directory):
    """The digest the workload's journal must have for ``config``.

    Runs the campaign again on the inline engine from a cold start --
    no golden cache, no journal -- with ``workload.reference_lanes``:
    the bit-plane engine checks the scalar path, and 32-lane groups
    check 64-lane ones.  (A scalar reference for batched-campaign would
    take longer than a run may; scalar-campaign's check covers the two
    paths on their common trials.)  The result is journaled canonically
    into ``directory``.
    """
    result = run_campaign(config, workers=1,
                          batch_lanes=workload.reference_lanes)
    os.makedirs(directory)
    path = os.path.join(directory, "reference.jsonl")
    header = segment_header(config, result.eligible_bits, result.inventory)
    write_segment(path, header, [
        (TrialUnit(trial.workload, trial.start_point, trial.trial_index),
         trial_to_dict(trial)) for trial in result.trials])
    return digest(canonical_trial_bytes(path))


def cache_bytes(golden_dir):
    """Bytes of the golden-cache entries in ``golden_dir``."""
    return sum(entry.stat().st_size for entry in os.scandir(golden_dir)
               if entry.is_file() and entry.name.endswith(".pkl"))


def move_cache(source_dir, target_dir):
    """Move a warm ``golden/`` from one campaign directory to another."""
    os.makedirs(target_dir)
    os.replace(os.path.join(source_dir, "golden"),
               os.path.join(target_dir, "golden"))
    shutil.rmtree(source_dir)


# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 2

END_TO_END = (("trials_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def with_units(values, names):
    """``{name: value}`` -> ``{name: {"value", "unit"}}`` for ``names``."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names}


class Run:
    """One benchmark run: its scratch directories, phases and tally."""

    def __init__(self, workload, seed, seconds, work_dir):
        self.workload = workload
        self.config = workload.config(seed)
        self.seconds = seconds
        self.work_dir = work_dir
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.measured = []
        self.wall = {}
        self._dirs = 0

    def untraced(self):
        """Set up SETUP_REPS times, measure, check; end-to-end metrics."""
        setups = []
        warm_dir = None
        for _ in range(SETUP_REPS):
            if warm_dir is not None:
                shutil.rmtree(warm_dir)
            clock, warm_dir = self._set_up()
            setups.append(clock)
        started = time.perf_counter()
        while not self.measured or self._next_fits(started,
                                                   len(self.measured)):
            _measured, warm_dir = self._measure(warm_dir)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._check()
        # Wall-clock figures go on the run record, next to the digests.
        self.wall = {
            "setup_s": statistics.median(c.wall_s for c in setups),
            "trials_per_s": statistics.median(
                m.trials / m.seconds for m in self.measured),
        }
        return with_units({
            "trials_per_s": statistics.median(
                m.trials / m.reference_seconds for m in self.measured),
            "setup_s": statistics.median(c.reference_s for c in setups),
            "peak_rss_mb": peak_kib / 1024.0,
        }, END_TO_END)

    def traced(self):
        """Traced set-up and campaigns, checked; per-layer metrics."""
        tracer = layer_tracer()
        with tracer.installed():
            clock, warm_dir = self._set_up()
        setup = setup_metrics(tracer, clock.wall_s)
        untraced_s = []
        traced = []
        # One untraced campaign, then two traced ones, so the exact
        # counts can be compared; then alternate while time remains.
        plan = [False, True, True]
        started = time.perf_counter()
        while plan or self._next_fits(started,
                                      len(traced) + len(untraced_s)):
            if plan.pop(0) if plan else len(untraced_s) >= len(traced):
                tracer.reset()
                with tracer.installed():
                    measured, warm_dir = self._measure(warm_dir)
                traced.append(phase_metrics(tracer, measured))
            else:
                measured, warm_dir = self._measure(warm_dir)
                untraced_s.append(measured.seconds)
        check_repeats(traced)
        self._check()
        metrics = summarise(traced, untraced_s)
        metrics.update(setup)
        return with_units(metrics, LAYER_METRICS)

    def record(self):
        """Digests and wall-clock figures for the line before the result."""
        return {
            "reference": self.reference,
            "digests": sorted({m.digest for m in self.measured}),
            "common_digests": sorted({m.common_digest
                                      for m in self.measured}),
            "wall": self.wall,
        }

    # ------------------------------------------------------------------

    def _next_fits(self, started, done):
        """Whether one more campaign is expected to end in time."""
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / done <= self.seconds

    def _fresh_dir(self):
        self._dirs += 1
        return os.path.join(self.work_dir, "c%03d" % self._dirs)

    def _set_up(self):
        """One set-up into an empty cache: (its clock, campaign dir)."""
        directory = self._fresh_dir()
        gc.collect()
        clock = set_up(self.workload, self.config,
                       os.path.join(directory, "golden"))
        return clock, directory

    def _measure(self, warm_dir):
        """One measured campaign on the cache in ``warm_dir``.

        Returns the :class:`Measured` and the directory that now holds
        the cache.
        """
        directory = self._fresh_dir()
        move_cache(warm_dir, directory)
        gc.collect()
        measured = measure(self.workload, self.config, directory)
        self.attempted += measured.trials
        self.failed += measured.harness_errors
        self.measured.append(measured)
        return measured, directory

    def _check(self):
        """Compare every measured journal with the reference digest."""
        self.reference = reference_digest(self.workload, self.config,
                                          self._fresh_dir())
        for measured in self.measured:
            if measured.digest != self.reference:
                self.failed += measured.trials - measured.harness_errors
