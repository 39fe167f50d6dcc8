"""Per-layer spans and metrics of the traced run.

Each layer is traced at the public call the engine makes into it,
wrapped from here, so the program itself is not edited:

* arch: ``workload_page_sets`` as bound in ``repro.runner.pool``
  (span ``arch.page_sets``);
* uarch: ``Pipeline.cycle`` and ``Pipeline.restore``
  (``uarch.cycle``, ``uarch.restore``);
* inject: ``record_golden`` and ``run_trial`` as bound in
  ``repro.runner.pool`` (``inject.record_golden``, ``inject.trial``);
* perf.batch: ``run_batch_group`` as bound in ``repro.runner.pool``
  (``perf.batch_group``), ``record_activity`` and ``classify_window``
  as bound in ``repro.perf.batch`` (``perf.record_activity``,
  ``perf.suffix``);
* perf.goldencache: ``GoldenCache.load`` and ``GoldenCache.store``;
* runner.journal: ``JournalWriter.append_trial``, and ``write_metrics``
  as bound in ``repro.runner.engine``.

``classify_window`` is wrapped only where ``repro.perf.batch`` binds
it, so ``perf.suffix`` is exactly the laned-out scalar suffixes; scalar
trials reach it through ``run_trial``.  What no span covers is the
engine's own work (``engine.self_s``).
"""

import statistics

import repro.perf.batch as batch_module
import repro.runner.engine as engine_module
import repro.runner.pool as pool_module
from repro.perf.goldencache import GoldenCache
from repro.runner.journal import JournalWriter
from repro.uarch.core import Pipeline

from spans import Tracer

TARGETS = (
    (pool_module, "workload_page_sets", "arch.page_sets"),
    (Pipeline, "cycle", "uarch.cycle"),
    (Pipeline, "restore", "uarch.restore"),
    (pool_module, "record_golden", "inject.record_golden"),
    (pool_module, "run_trial", "inject.trial"),
    (pool_module, "run_batch_group", "perf.batch_group"),
    (batch_module, "record_activity", "perf.record_activity"),
    (batch_module, "classify_window", "perf.suffix"),
    (GoldenCache, "load", "goldencache.load"),
    (GoldenCache, "store", "goldencache.store"),
    (JournalWriter, "append_trial", "journal.append"),
    (engine_module, "write_metrics", "journal.write_metrics"),
)

# Counts that must repeat exactly for one seed.
EXACT = ("uarch.cycles", "perf.lanes_out", "perf.suffix_cycles",
         "journal.appends", "perf.lanes_resolved", "perf.replay_cycles",
         "uarch.restores", "arch.page_sets_calls", "inject.golden_records",
         "inject.trials_scalar", "goldencache.loads", "goldencache.bytes")

# (name, unit) of every per-layer metric, in print order: the measured
# phase's, then the set-up's.
PHASE_METRICS = (
    ("arch.page_sets_calls", "count"),
    ("arch.page_sets_s", "s"),
    ("uarch.cycles", "count"),
    ("uarch.cycles_per_trial", "count"),
    ("uarch.cycle_us", "us"),
    ("uarch.restores", "count"),
    ("uarch.restore_us", "us"),
    ("inject.golden_records", "count"),
    ("inject.trials_scalar", "count"),
    ("inject.trial_self_s", "s"),
    ("perf.lanes_resolved", "count"),
    ("perf.lanes_out", "count"),
    ("perf.lane_out_rate", "ratio"),
    ("perf.replay_cycles", "count"),
    ("perf.suffix_cycles", "count"),
    ("perf.suffix_s", "s"),
    ("perf.walk_self_s", "s"),
    ("goldencache.loads", "count"),
    ("goldencache.load_s", "s"),
    ("goldencache.bytes", "B"),
    ("journal.appends", "count"),
    ("journal.append_s", "s"),
    ("journal.bytes_per_trial", "B"),
    ("journal.write_metrics_s", "s"),
    ("engine.self_s", "s"),
    ("trace.coverage", "ratio"),
)
SETUP_METRICS = (
    ("setup.uarch.cycles", "count"),
    ("setup.arch.page_sets_s", "s"),
    ("setup.inject.record_golden_s", "s"),
    ("inject.record_golden_self_s", "s"),
    ("setup.perf.record_activity_s", "s"),
    ("perf.record_activity_self_s", "s"),
    ("goldencache.stores", "count"),
    ("goldencache.store_s", "s"),
    ("setup.trace.coverage", "ratio"),
)
LAYER_METRICS = PHASE_METRICS + (("trace.overhead", "ratio"),) \
    + SETUP_METRICS


class BenchmarkBug(Exception):
    """A count that must repeat exactly did not."""


def _count_lanes(tracer, outcome):
    tracer.counts["perf.lanes_resolved"] += outcome.resolved
    tracer.counts["perf.lanes_out"] += outcome.laned_out


def layer_tracer():
    """A :class:`spans.Tracer` over every layer call."""
    return Tracer(TARGETS, on_result={"perf.batch_group": _count_lanes})


def setup_metrics(tracer, wall_s):
    """Metrics of one traced set-up that took ``wall_s`` seconds."""
    t = tracer
    return {
        "setup.uarch.cycles": t.calls("uarch.cycle"),
        "setup.arch.page_sets_s": t.total_s("arch.page_sets"),
        "setup.inject.record_golden_s": t.total_s("inject.record_golden"),
        "inject.record_golden_self_s": t.self_s("inject.record_golden"),
        "setup.perf.record_activity_s": t.total_s("perf.record_activity"),
        "perf.record_activity_self_s": t.self_s("perf.record_activity"),
        "goldencache.stores": t.calls("goldencache.store"),
        "goldencache.store_s": t.total_s("goldencache.store"),
        "setup.trace.coverage": t.self_s() / wall_s,
    }


def phase_metrics(tracer, measured):
    """Metrics of one traced campaign (a ``phases.Measured``)."""
    t = tracer
    wall = measured.seconds
    cycles = t.calls("uarch.cycle")
    restores = t.calls("uarch.restore")
    resolved = t.counts["perf.lanes_resolved"]
    lanes_out = t.counts["perf.lanes_out"]
    appends = t.calls("journal.append")
    traced_s = t.self_s()
    return {
        "arch.page_sets_calls": t.calls("arch.page_sets"),
        "arch.page_sets_s": t.total_s("arch.page_sets"),
        "uarch.cycles": cycles,
        "uarch.cycles_per_trial": cycles / measured.trials,
        "uarch.cycle_us": _per_call_us(t.total_s("uarch.cycle"), cycles),
        "uarch.restores": restores,
        "uarch.restore_us": _per_call_us(t.total_s("uarch.restore"),
                                         restores),
        "inject.golden_records": t.calls("inject.record_golden"),
        "inject.trials_scalar": t.calls("inject.trial"),
        "inject.trial_self_s": t.self_s("inject.trial"),
        "perf.lanes_resolved": resolved,
        "perf.lanes_out": lanes_out,
        "perf.lane_out_rate": (lanes_out / (resolved + lanes_out)
                               if resolved + lanes_out else 0.0),
        "perf.replay_cycles": t.calls("uarch.cycle", "perf.batch_group"),
        "perf.suffix_cycles": t.calls("uarch.cycle", "perf.suffix"),
        "perf.suffix_s": t.total_s("perf.suffix"),
        "perf.walk_self_s": t.self_s("perf.batch_group"),
        "goldencache.loads": t.calls("goldencache.load"),
        "goldencache.load_s": t.total_s("goldencache.load"),
        "goldencache.bytes": measured.cache_bytes,
        "journal.appends": appends,
        "journal.append_s": t.total_s("journal.append"),
        "journal.bytes_per_trial": (measured.journal_bytes / appends
                                    if appends else 0.0),
        "journal.write_metrics_s": t.total_s("journal.write_metrics"),
        "engine.self_s": wall - traced_s,
        "trace.coverage": traced_s / wall,
        "wall_s": wall,
    }


def check_repeats(phases):
    """Raise :class:`BenchmarkBug` unless the exact counts hold.

    Every exact count must be equal across the traced campaigns of one
    run, and the measured phase must record no golden window.
    """
    first = phases[0]
    for later in phases[1:]:
        drift = {name: (first[name], later[name]) for name in EXACT
                 if later[name] != first[name]}
        if drift:
            raise BenchmarkBug(
                "exact counts drifted between traced campaigns of one "
                "seed: %r" % drift)
    if first["inject.golden_records"] != 0:
        raise BenchmarkBug(
            "the measured phase recorded %d golden windows: set-up did "
            "not warm the cache the campaign reads"
            % first["inject.golden_records"])


def summarise(phases, untraced_s):
    """Median of each metric over traced campaigns, plus the overhead."""
    metrics = {name: statistics.median(phase[name] for phase in phases)
               for name, _unit in PHASE_METRICS}
    traced_wall = statistics.median(phase["wall_s"] for phase in phases)
    metrics["trace.overhead"] = (
        traced_wall / statistics.median(untraced_s) - 1.0)
    return metrics


def _per_call_us(seconds, calls):
    return seconds / calls * 1e6 if calls else 0.0
