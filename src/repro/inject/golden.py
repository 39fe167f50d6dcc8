"""Golden-trace recording.

For each start point, the fault-free pipeline is run once for
``horizon + margin`` cycles recording everything trials compare against:

* the full microarchitectural state signature after every cycle (the
  μArch-Match criterion);
* the committed-register-file view hash per retirement count observed
  at a cycle boundary -- the timing-tolerant architectural check (the
  fault-free view is a pure function of the retirement count, recorded
  once per count and re-verified each cycle by the replay check);
* the retirement stream (pc, operation, destination, value);
* the store-drain stream (address, value, size);
* the set of sequence numbers that eventually retire (for the Figure 6
  valid-instruction occupancy metric);
* the instruction/data page sets of the complete fault-free execution
  (the paper's TLB preload), computed once per workload on the
  functional simulator.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.arch.functional import FunctionalSimulator
from repro.errors import CampaignError, SimulationError


@dataclass
class GoldenTrace:
    """Everything a trial compares against, for one start point."""

    start_cycle: int
    horizon: int
    margin: int
    sigs: List[int] = field(default_factory=list)
    view_by_k: Dict[int, int] = field(default_factory=dict)
    retired: List[tuple] = field(default_factory=list)
    drains: List[tuple] = field(default_factory=list)
    retired_seqs: Set[int] = field(default_factory=set)
    insn_pages: Set[int] = field(default_factory=set)
    data_pages: Set[int] = field(default_factory=set)
    final_snapshot: List[int] = field(default_factory=list)
    # Fault-free access-activity trace for the bit-plane batched engine
    # (:class:`repro.perf.batch.ActivityTrace`).  Attached lazily on
    # first batched use and persisted via the golden cache.
    activity: Optional[object] = None


def workload_page_sets(program, max_instructions=20_000_000):
    """The TLB-preload page sets: every page the fault-free run touches.

    Mirrors the paper's methodology of preloading both TLBs with all
    pages accessed by the workload in the absence of faults.
    """
    sim = FunctionalSimulator(program, track_pages=True)
    sim.run(max_instructions)
    return set(sim.insn_pages), set(sim.memory.touched_pages)


def record_golden(pipeline, checkpoint, horizon, margin, insn_pages,
                  data_pages, verify_replay=False):
    """Run the fault-free pipeline from ``checkpoint`` and record it.

    With ``verify_replay=True`` the fault-free window is run a second
    time and cross-checked against the recording
    (:func:`verify_golden_replay`): the whole outcome taxonomy assumes
    the golden run is bit-exactly reproducible, so any hidden
    nondeterminism (unregistered shadow state, unseeded randomness,
    iteration-order dependence) is caught here instead of surfacing as
    phantom μArch-Match failures deep inside a campaign.
    """
    pipeline.restore(checkpoint)
    pipeline.tlb_insn_pages = None
    pipeline.tlb_data_pages = None

    trace = GoldenTrace(
        start_cycle=pipeline.cycle_count,
        horizon=horizon,
        margin=margin,
        insn_pages=insn_pages,
        data_pages=data_pages,
    )
    space = pipeline.space
    k = 0
    last_view_k = 0
    trace.view_by_k[0] = hash(pipeline.committed_view())
    for _ in range(horizon + margin):
        pipeline.cycle()
        for record in pipeline.retired_this_cycle:
            trace.retired.append(record)
            trace.retired_seqs.add(record[0])
            k += 1
        trace.drains.extend(pipeline.drains_this_cycle)
        trace.sigs.append(space.signature())
        # The fault-free committed view is a pure function of the
        # retirement count, so it is hashed only when k advances (the
        # replay verification below re-checks it every cycle).
        if k != last_view_k:
            last_view_k = k
            trace.view_by_k[k] = hash(pipeline.committed_view())
        if pipeline.failure_event is not None:
            raise SimulationError(
                "golden run raised %r -- workload or model bug"
                % (pipeline.failure_event,))
        if pipeline.halted:
            raise CampaignError(
                "golden run halted inside the trace window; use a longer "
                "workload scale for injection campaigns")
    trace.final_snapshot = space.snapshot()
    if space.signature() != space.signature(full=True):
        raise SimulationError(
            "incremental state signature drifted from the full recompute "
            "over the golden window: some write bypassed the "
            "signature-maintaining Field path (see lint rule REP005)")
    if verify_replay:
        verify_golden_replay(pipeline, checkpoint, trace)
    return trace


def verify_golden_replay(pipeline, checkpoint, trace):
    """Re-run the golden window and assert it is bit-exactly identical.

    Raises :class:`SimulationError` naming the first divergent state
    element (and the first divergent cycle, when the per-cycle
    signatures differ) if the two fault-free runs do not match.
    """
    pipeline.restore(checkpoint)
    pipeline.tlb_insn_pages = None
    pipeline.tlb_data_pages = None

    space = pipeline.space
    first_bad_cycle = None
    k = 0
    window = trace.horizon + trace.margin
    for step in range(window):
        pipeline.cycle()
        k += len(pipeline.retired_this_cycle)
        signature = space.signature()
        # Cross-check the rolled signature against a full recompute
        # periodically (a full pass costs as much as a cycle, so every
        # cycle would double the replay) and always at the window end.
        if (step & 63 == 63 or step == window - 1) \
                and signature != space.signature(full=True):
            raise SimulationError(
                "incremental state signature drifted from the full "
                "recompute at cycle %d: some write bypassed the "
                "signature-maintaining Field path (see lint rule REP005)"
                % (trace.start_cycle + step + 1))
        recorded_view = trace.view_by_k.get(k)
        if recorded_view is not None \
                and hash(pipeline.committed_view()) != recorded_view:
            raise SimulationError(
                "committed register view changed between two fault-free "
                "cycles at the same retirement count (k=%d, cycle %d); "
                "the per-k view memoization is unsound for this model"
                % (k, trace.start_cycle + step + 1))
        if first_bad_cycle is None and signature != trace.sigs[step]:
            # Keep running to the end of the window: the final snapshot
            # is compared element-wise below, which names the culprit
            # instead of just pointing at a hash mismatch.
            first_bad_cycle = trace.start_cycle + step + 1
    replay_snapshot = space.snapshot()

    divergent = None
    for index, (recorded, replayed) in enumerate(
            zip(trace.final_snapshot, replay_snapshot)):
        if recorded != replayed:
            divergent = space.elements[index]
            break

    if divergent is not None:
        raise SimulationError(
            "golden run is not deterministic: element %r differs between "
            "two fault-free runs of the same window (recorded %d, replay "
            "%d%s); hidden shadow state or unseeded randomness in the "
            "model" % (
                divergent.name,
                trace.final_snapshot[divergent.index],
                replay_snapshot[divergent.index],
                "" if first_bad_cycle is None
                else ", first divergent cycle %d" % first_bad_cycle))
    if first_bad_cycle is not None:
        raise SimulationError(
            "golden run is not deterministic: state signature diverged at "
            "cycle %d but the runs reconverged by the end of the window; "
            "transient hidden state in the model" % first_bad_cycle)
