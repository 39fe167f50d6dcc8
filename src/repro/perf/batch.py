"""Bit-plane batched trial engine: N faulty lanes per cycle loop.

The paper's headline result -- most single-bit faults are masked -- is
also a performance theorem: a masked trial's pipeline behaves
*cycle-for-cycle identically* to the golden run, because its one
corrupted element is either never read before being overwritten, or
matches golden's keyed state signature once cleared.  Paying a full
Python cycle loop per such trial simulates nothing new.

This module therefore never simulates the common case at all.  For a
group of trials sharing a ``(workload, start_point)`` checkpoint it:

1. records (once, cached with the golden trace) an **activity trace**
   of the fault-free window: per cycle, the bit-plane of elements read
   and written on *first access*, the retirement/drain counts, and --
   at committed-view re-hash boundaries -- the plane of elements the
   view digest reads;
2. packs the group's fault plans into **lanes** (lane *i* = trial *i*;
   a lane mask is one Python big int, so set algebra over all lanes is
   a single C-speed bitwise op);
3. **walks** the activity trace instead of the pipeline: a lane stays
   provably golden-identical until the golden run first *reads* its
   corrupted element (or exposes it through the committed view), so
   the walk classifies masked/locked/gray lanes outright and "lanes
   out" only genuinely diverging trials;
4. replays the shared pipeline forward exactly once, handing each
   laned-out trial to the scalar classification loop
   (:func:`repro.inject.trial.classify_window`) *mid-window*, with the
   golden prefix counters it would have accumulated itself.

Correctness argument, per lane with fault in element ``e``:

* Until ``e`` is read, every other element equals golden, so the lane's
  pipeline would execute the same reads/writes/retirements as golden
  -- the activity trace *is* the lane's trace.
* The signature differs from golden's by the constant
  ``(v' - v) * k_e`` (:mod:`repro.uarch.statelib`'s keyed linear sum)
  until ``e`` is written.  That delta is never 0: every plan's mask is
  nonzero within ``e``'s width (``plan_lanes`` draws in-width bits,
  explicit plans are checked) and ``k_e`` is odd.  So a lane cannot
  signature-match while dirty, and a golden-value write (first access
  = write) clears the fault exactly, making the signature match at
  that cycle's boundary (MICRO_MATCH) -- unless the deadlock check
  fires first, in scalar check order.
* First-access stamping resolves same-cycle read/write races with the
  right semantics: a write-before-read clears the fault before any
  consumer sees it (no lane-out), a read-before-write diverges (lane
  out); only the *first* access is recorded.
* The committed-view check only re-hashes when the retirement count
  changed (see ``classify_window``), so view exposure is recorded only
  at those boundaries; elsewhere the memoized hash -- equal to
  golden's while the fault is invisible -- is what the scalar compares.

Everything a lane does after leaving the batch goes through the same
scalar code path as ``run_trial``, so batched campaigns are
byte-identical to serial ones (a tier-1 test asserts it on journal
bytes); ``--batch`` is a scheduling knob, excluded from the campaign
fingerprint.

Provenance observation hooks single-lane pipeline internals, so
observed campaigns force the scalar path (see
``WorkerContext.run_batch``).
"""

from dataclasses import dataclass
from typing import List

from repro.errors import SimulationError
from repro.inject.outcome import FailureMode, TrialOutcome, TrialResult
from repro.inject.trial import classify_window
from repro.uarch.statelib import Field

__all__ = ["ActivityTrace", "BatchOutcome", "record_activity",
           "plan_lanes", "run_batch_group", "ACTIVITY_VERSION"]

ACTIVITY_VERSION = 1

# Golden mid-window checkpoint spacing (cycles).  Lane-outs resume the
# scalar model from the nearest recorded checkpoint at or before the
# divergence cycle, so the shared replay costs at most
# ``_CHECKPOINT_EVERY - 1`` cycles per distinct lane-out cycle instead
# of O(divergence cycle).  Divergences cluster near the injection
# cycle (the frontend re-reads most injectable state within a few
# cycles), so the spacing is deliberately coarse: checkpoints mostly
# insure against *late* first reads, and each one adds a full pipeline
# snapshot to the cached golden entry.
_CHECKPOINT_EVERY = 100

# Functions held to the bit-plane kernel contract by lint rule REP008:
# no per-lane Python loops, no full signature recomputes.  The rule
# reads this tuple from the module source, so kernel status is
# declared here, next to the code it governs.
_HOT_KERNELS = ("_walk_planes",)


@dataclass
class ActivityTrace:
    """Fault-free access activity over one start point's trial window.

    All planes are element-indexed big ints (bit ``i`` = element index
    ``i``), one per cycle:

    * ``reads`` / ``writes`` -- elements whose *first* access that
      cycle was a read / a write (an element appears in at most one of
      the two per cycle);
    * ``visible`` -- elements read by the committed-view digest at that
      cycle's boundary; zero on cycles where the scalar loop reuses
      its memoized view hash (no retirement since the last re-hash);
    * ``retires`` / ``drains`` -- per-cycle retirement and store-drain
      counts (drive the deadlock check and the prefix counters handed
      to laned-out trials).

    ``checkpoints`` maps cycle ``c`` (a multiple of
    ``_CHECKPOINT_EVERY``) to the full fault-free pipeline checkpoint
    at the *start* of cycle ``c``, letting lane-out replay jump close
    to any divergence cycle.

    Attached lazily to :class:`repro.inject.golden.GoldenTrace` (the
    ``activity`` field) and persisted through the golden cache.
    """

    version: int
    horizon: int
    reads: List[int]
    writes: List[int]
    visible: List[int]
    retires: List[int]
    drains: List[int]
    checkpoints: dict


@dataclass
class BatchOutcome:
    """Result of one batched group run.

    ``trials`` is ordered like the input ``trial_indices``.
    ``resolved`` counts lanes classified entirely from the activity
    walk; ``laned_out`` counts lanes that diverged and finished on the
    scalar path.
    """

    trials: List[TrialResult]
    resolved: int
    laned_out: int


class _ActivityRecorder:
    """Per-cycle first-access collector armed behind ``_TrackedField``."""

    __slots__ = ("stamp", "token", "reads", "writes", "probing",
                 "probe_plane")

    def __init__(self, n_elements):
        self.stamp = [-1] * n_elements
        self.token = -1
        self.reads = 0
        self.writes = 0
        self.probing = False
        self.probe_plane = 0

    def begin_cycle(self, token):
        self.token = token
        self.reads = 0
        self.writes = 0

    def begin_probe(self):
        self.probing = True
        self.probe_plane = 0

    def end_probe(self):
        self.probing = False
        return self.probe_plane

    def note_read(self, index):
        if self.probing:
            self.probe_plane |= 1 << index
            return
        if self.stamp[index] != self.token:
            self.stamp[index] = self.token
            self.reads |= 1 << index

    def note_write(self, index):
        if self.probing:
            raise SimulationError(
                "state write during a committed-view probe: the view "
                "digest must be read-only for batched classification "
                "to be exact")
        if self.stamp[index] != self.token:
            self.stamp[index] = self.token
            self.writes |= 1 << index


class _TrackedField(Field):
    """A ``Field`` whose accesses notify the armed activity recorder.

    Same empty-``__slots__`` ``__class__``-swap idiom as provenance's
    ``_WatchedField``: instance layout stays identical to ``Field``,
    and the armed recorder is a class attribute (one recording per
    process at a time).
    """

    __slots__ = ()

    recorder = None

    def get(self):
        _TrackedField.recorder.note_read(self.index)
        return self._values[self.index]

    def set(self, value):
        # Record before Field.set's old == value early return: a write
        # that is redundant in the golden run still clears the fault
        # in a lane whose element holds a corrupted value.
        _TrackedField.recorder.note_write(self.index)
        Field.set(self, value)


def record_activity(pipeline, checkpoint, golden, horizon):
    """Replay the fault-free window once, recording access activity.

    Costs one extra scalar window per ``(workload, start_point)``; the
    result is cached alongside the golden trace, so campaigns pay it
    once per start point ever (per golden-cache key).  The replay
    cross-checks the rolling signature and the committed-view hash
    against the golden trace every cycle, so a recording that drifts
    from golden (a nondeterminism bug) fails loudly instead of
    silently misclassifying batched lanes.
    """
    pipeline.restore(checkpoint)
    # Same TLB environment as record_golden: membership checks are
    # None-gated before any state access, so the access sequence is
    # identical either way.
    pipeline.tlb_insn_pages = None
    pipeline.tlb_data_pages = None

    space = pipeline.space
    recorder = _ActivityRecorder(len(space.elements))
    trace = ActivityTrace(version=ACTIVITY_VERSION, horizon=horizon,
                          reads=[], writes=[], visible=[], retires=[],
                          drains=[], checkpoints={})
    handles = space.handles
    _TrackedField.recorder = recorder
    for handle in handles:
        handle.__class__ = _TrackedField
    try:
        rehash_k = None
        k = 0
        for cycle in range(horizon):
            if cycle and cycle % _CHECKPOINT_EVERY == 0:
                trace.checkpoints[cycle] = pipeline.checkpoint()
            recorder.begin_cycle(cycle)
            pipeline.cycle()
            if pipeline.failure_event is not None or pipeline.halted:
                raise SimulationError(
                    "fault-free activity replay failed at cycle %d "
                    "(event=%r halted=%r)" % (
                        cycle, pipeline.failure_event, pipeline.halted))
            retired = len(pipeline.retired_this_cycle)
            k += retired
            trace.reads.append(recorder.reads)
            trace.writes.append(recorder.writes)
            trace.retires.append(retired)
            trace.drains.append(len(pipeline.drains_this_cycle))
            if space.signature() != golden.sigs[cycle]:
                raise SimulationError(
                    "activity replay signature diverged from the "
                    "golden trace at cycle %d" % cycle)
            golden_view = golden.view_by_k.get(k)
            if golden_view is not None and k != rehash_k:
                rehash_k = k
                recorder.begin_probe()
                view_hash = hash(pipeline.committed_view())
                trace.visible.append(recorder.end_probe())
                if view_hash != golden_view:
                    raise SimulationError(
                        "activity replay committed view diverged from "
                        "the golden trace at cycle %d (k=%d)" % (cycle, k))
            else:
                trace.visible.append(0)
    finally:
        _TrackedField.recorder = None
        for handle in handles:
            handle.__class__ = Field
    return trace


def plan_lanes(space, sp_rng, kinds, trial_indices, model=None):
    """Fault plan ``(trial_index, element_index, bit, mask, fault)`` per lane.

    Consumes the per-trial split RNGs exactly as the scalar path does
    (for the default model, one ``randrange`` through ``choose_bit``
    per trial; for a batchable :class:`~repro.faultlib.FaultModel`, the
    model's own ``sample``), so lane *i* disturbs the very bits trial
    ``trial_indices[i]`` would.  ``mask`` is the XOR disturbance within
    the element; ``fault`` is the sampled instance for non-default
    models (None for the default, whose walk needs no instance).
    """
    plans = []
    for trial_index in trial_indices:
        trial_rng = sp_rng.split("trial/%d" % trial_index)
        if model is None or model.is_default:
            element_index, bit = space.choose_bit(trial_rng, kinds)
            plans.append((trial_index, element_index, bit, 1 << bit, None))
        else:
            if not model.batchable:
                raise SimulationError(
                    "fault model %r is not batchable; run the scalar "
                    "path" % model.spec)
            fault = model.sample(space, trial_rng, kinds)
            # Batchable models disturb exactly one element with one
            # XOR mask and never re-assert.
            (element_index, mask), = fault.flips
            plans.append((trial_index, element_index, fault.bit, mask,
                          fault))
    return plans


def _gather(plane, lanes_by_element):
    """OR of the lane masks of every element set in ``plane``."""
    mask = 0
    while plane:
        low = plane & -plane
        plane ^= low
        mask |= lanes_by_element[low.bit_length() - 1]
    return mask


def _walk_planes(alive, element_plane, lanes_by_element, reads, writes,
                 visible, retires, locked_threshold, horizon):
    """Classify lanes against the activity trace; the batched kernel.

    Per cycle, in the scalar loop's boundary-check order: a golden
    *read* of a lane's element diverges it (lane out, before any
    boundary check -- the read happened mid-cycle); a golden *write*
    clears it; a committed-view exposure of a still-dirty element
    diverges it; the deadlock gap terminates every remaining lane;
    cleared lanes signature-match.  Lanes surviving the horizon are
    Gray Area.

    Returns ``(laneouts, matched, locked, gray)``: the first three are
    ``(cycle, lane_mask)`` event lists, ``gray`` is the final survivor
    mask.  All lane work is big-int algebra -- nothing here iterates
    per lane (lint rule REP008 enforces that shape).
    """
    laneouts = []
    matched = []
    locked = []
    gap = 0
    cycle = 0
    while cycle < horizon and alive:
        reads_c = reads[cycle] & element_plane
        if reads_c:
            out = _gather(reads_c, lanes_by_element) & alive
            if out:
                laneouts.append((cycle, out))
                alive &= ~out
        cleared = 0
        writes_c = writes[cycle] & element_plane
        if writes_c:
            cleared = _gather(writes_c, lanes_by_element) & alive
        vis_c = visible[cycle] & element_plane
        if vis_c:
            out = _gather(vis_c, lanes_by_element) & alive & ~cleared
            if out:
                laneouts.append((cycle, out))
                alive &= ~out
        gap = 0 if retires[cycle] else gap + 1
        if gap >= locked_threshold:
            if alive:
                locked.append((cycle, alive))
                alive = 0
            break
        match = cleared & alive
        if match:
            matched.append((cycle, match))
            alive &= ~match
        cycle += 1
    return laneouts, matched, locked, alive


def run_batch_group(pipeline, checkpoint, golden, sp_rng, kinds,
                    workload_name, start_point, trial_indices,
                    horizon=None, locked_multiplier=2, cache=None,
                    cache_key=None, plans=None, model=None):
    """Run one same-``(workload, start_point)`` trial group batched.

    ``cache``/``cache_key`` (a :class:`repro.perf.goldencache.GoldenCache`
    and its ``(workload_name, start_point)`` store arguments are the
    key) let a freshly recorded activity trace be persisted onto the
    cached golden entry.  ``plans`` overrides RNG-driven lane planning
    with explicit ``(trial_index, element_index, bit, mask, fault)``
    plans -- used by equivalence tests and importance-sampling callers;
    a mask that disturbs nothing within its element is rejected.
    ``model`` is an optional *batchable*
    :class:`~repro.faultlib.FaultModel`: its single-element XOR masks
    ride the plane walk exactly like single bits (the walk is
    element-granular; a golden write still clears the whole mask, and
    the signature delta of a mask is as constant as a bit's).
    Unbatchable models (multi-element bursts, persistent
    stuck-at/intermittent) must take the scalar path --
    ``WorkerContext.run_batch`` gates on ``model.batchable``.

    Returns a :class:`BatchOutcome` with trials in ``trial_indices``
    order, byte-identical to what ``run_trial`` would produce lane by
    lane.
    """
    horizon = horizon or golden.horizon
    activity = golden.activity
    if (activity is None or activity.version != ACTIVITY_VERSION
            or activity.horizon < horizon):
        activity = record_activity(pipeline, checkpoint, golden,
                                   golden.horizon)
        golden.activity = activity
        if cache is not None:
            cache.store(workload_name, start_point, checkpoint, golden)

    space = pipeline.space
    if plans is None:
        plans = plan_lanes(space, sp_rng, kinds, trial_indices, model)
    n_lanes = len(plans)

    lanes_by_element = {}
    element_plane = 0
    for lane in range(n_lanes):
        trial_index, element_index, _bit, mask, _fault = plans[lane]
        if not mask & ((1 << space.elements[element_index].width) - 1):
            raise SimulationError(
                "plan for trial %d disturbs nothing in element %d"
                % (trial_index, element_index))
        lanes_by_element[element_index] = (
            lanes_by_element.get(element_index, 0) | (1 << lane))
        element_plane |= 1 << element_index

    locked_threshold = locked_multiplier * pipeline.config.deadlock_cycles
    laneouts, matched, locked, gray = _walk_planes(
        (1 << n_lanes) - 1, element_plane, lanes_by_element,
        activity.reads, activity.writes, activity.visible,
        activity.retires, locked_threshold, horizon)

    # The in-flight census is a function of the checkpoint alone.
    pipeline.restore(checkpoint)
    pipeline.tlb_insn_pages = golden.insn_pages
    pipeline.tlb_data_pages = golden.data_pages
    inflight = pipeline.inflight_seqs()
    valid_inflight = sum(1 for s in inflight if s in golden.retired_seqs)
    total_inflight = len(inflight)

    trials = [None] * n_lanes

    def lane_result(lane, outcome, mode, cycles):
        trial_index, element_index, bit, _mask, fault = plans[lane]
        meta = space.elements[element_index]
        trials[lane] = TrialResult(
            outcome=outcome, failure_mode=mode, workload=workload_name,
            element_name=meta.name, category=meta.category.value,
            kind=meta.kind.value, bit=bit, start_point=start_point,
            inject_cycle=golden.start_cycle, cycles_run=cycles,
            valid_inflight=valid_inflight, total_inflight=total_inflight,
            detail="", trial_index=trial_index,
            arch_corrupt_cycle=(cycles if outcome == TrialOutcome.SDC
                                else None),
            detect_latency=cycles if outcome.is_failure else None,
            fault_model=fault.model if fault is not None else "single_bit")

    for cycle, mask in matched:
        while mask:
            low = mask & -mask
            mask ^= low
            lane_result(low.bit_length() - 1, TrialOutcome.MICRO_MATCH,
                        None, cycle + 1)
    for cycle, mask in locked:
        while mask:
            low = mask & -mask
            mask ^= low
            lane_result(low.bit_length() - 1, TrialOutcome.TERMINATED,
                        FailureMode.LOCKED, cycle + 1)
    mask = gray
    while mask:
        low = mask & -mask
        mask ^= low
        lane_result(low.bit_length() - 1, TrialOutcome.GRAY, None, horizon)

    laned_out = 0
    if laneouts:
        # Golden prefix counters per boundary: value at the *start* of
        # cycle c (retirements, drains, current no-retirement gap).
        prefix_k = [0]
        prefix_d = [0]
        gap_before = [0]
        k = d = gap = 0
        for cycle in range(horizon):
            k += activity.retires[cycle]
            d += activity.drains[cycle]
            gap = 0 if activity.retires[cycle] else gap + 1
            prefix_k.append(k)
            prefix_d.append(d)
            gap_before.append(gap)

        # One shared forward replay; at each lane-out cycle, checkpoint
        # the boundary, then flip/classify/restore per diverging lane.
        # The replay jumps via the activity trace's recorded golden
        # checkpoints, so reaching a divergence cycle costs at most
        # ``_CHECKPOINT_EVERY - 1`` simulated cycles.
        checkpoints = activity.checkpoints
        laneouts.sort()
        cycles_done = 0
        for cycle, mask in laneouts:
            jump = cycle - cycle % _CHECKPOINT_EVERY
            if jump > cycles_done and jump in checkpoints:
                pipeline.restore(checkpoints[jump])
                cycles_done = jump
            while cycles_done < cycle:
                pipeline.cycle()
                cycles_done += 1
            boundary = pipeline.checkpoint()
            while mask:
                low = mask & -mask
                mask ^= low
                lane = low.bit_length() - 1
                laned_out += 1
                trial_index, element_index, bit, xor_mask, fault = \
                    plans[lane]
                meta = space.apply_fault(element_index, xor_mask)
                view_k = None if cycle == 0 else prefix_k[cycle]
                view_hash = (None if view_k is None
                             else golden.view_by_k.get(view_k))
                if view_hash is None:
                    # Unmemoized boundary: let the scalar loop re-hash
                    # (a clean-prefix lane re-hashes to golden anyway).
                    view_k = None
                trials[lane] = classify_window(
                    pipeline, golden, meta, bit, workload_name,
                    start_point, horizon=horizon,
                    locked_multiplier=locked_multiplier,
                    trial_index=trial_index,
                    valid_inflight=valid_inflight,
                    total_inflight=total_inflight,
                    first_cycle=cycle,
                    retired_count=prefix_k[cycle],
                    drain_count=prefix_d[cycle],
                    cycles_since_retire=gap_before[cycle],
                    view_k=view_k, view_hash=view_hash, fault=fault)
                pipeline.restore(boundary)

    return BatchOutcome(trials=trials, resolved=n_lanes - laned_out,
                        laned_out=laned_out)
