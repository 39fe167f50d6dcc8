"""Single-trial execution and outcome classification (paper Section 2.2).

The trial restores the start-point checkpoint, flips one bit, installs
the TLB page sets, and monitors the pipeline for up to ``horizon``
cycles.  Classification, in precedence order each cycle:

1. a failure event raised at retirement (``itlb`` / ``dtlb`` /
   ``except``);
2. retirement-stream divergence: wrong PC committed -> ``ctrl``; right
   PC but wrong destination/value -> ``regfile``;
3. store-drain divergence -> ``mem``;
4. committed-register-view divergence at a matching retirement count ->
   ``regfile`` (this is what catches direct hits on committed state);
5. ``deadlock`` cycles without retirement -> ``locked`` (the observation
   threshold is twice the in-pipeline timeout threshold so that a
   successful timeout-flush recovery is *not* misclassified -- it lands
   in Gray Area instead, as in paper Figure 9);
6. full microarchitectural state match with the golden signature ->
   ``MICRO_MATCH`` (masked);
7. horizon exhausted -> ``GRAY``.

The classification loop itself is :func:`classify_window`, a reusable
predicate over *any* suffix of the trace window: :func:`run_trial`
calls it from cycle 0 with zeroed counters, and the bit-plane batched
engine (:mod:`repro.perf.batch`) calls it mid-window for a lane whose
state just departed the golden run, passing the counters the scalar
loop would have accumulated over the (provably golden-identical)
prefix.  Because the prefix counters are exact, the suffix returns the
byte-identical :class:`~repro.inject.outcome.TrialResult` the full
scalar loop would.
"""

from repro.arch.memory import page_of
from repro.inject.outcome import FailureMode, TrialOutcome, TrialResult

__all__ = ["run_trial", "classify_window", "compare_retired"]

_FAILURE_BY_EVENT = {
    "itlb": FailureMode.ITLB,
    "dtlb": FailureMode.DTLB,
    "except": FailureMode.EXCEPT,
}


def run_trial(pipeline, checkpoint, golden, rng, kinds, workload_name,
              start_point, horizon=None, locked_multiplier=2,
              trial_index=-1, obs=None, model=None):
    """Run one fault-injection trial; returns a :class:`TrialResult`.

    ``obs`` is an optional :class:`repro.obs.Observer`; it is attached
    to the pipeline for the duration of the trial (and always detached,
    even on an exception) and only *observes* -- the classification is
    byte-identical with or without it.  ``model`` is an optional parsed
    :class:`~repro.faultlib.FaultModel`; None (or the default model)
    runs the legacy single-bit path unchanged.
    """
    pipeline.restore(checkpoint)
    pipeline.tlb_insn_pages = golden.insn_pages
    pipeline.tlb_data_pages = golden.data_pages

    inflight = pipeline.inflight_seqs()
    valid_inflight = sum(1 for s in inflight if s in golden.retired_seqs)

    pipeline.obs = obs
    try:
        meta, bit, fault = pipeline.inject_fault(rng, kinds, model)
        return classify_window(
            pipeline, golden, meta, bit, workload_name, start_point,
            horizon=horizon, locked_multiplier=locked_multiplier,
            trial_index=trial_index, obs=obs,
            valid_inflight=valid_inflight, total_inflight=len(inflight),
            fault=fault)
    finally:
        pipeline.obs = None
        if obs is not None:
            obs.release()


def classify_window(pipeline, golden, meta, bit, workload_name,
                    start_point, horizon=None, locked_multiplier=2,
                    trial_index=-1, obs=None, valid_inflight=0,
                    total_inflight=0, first_cycle=0, retired_count=0,
                    drain_count=0, cycles_since_retire=0, view_k=None,
                    view_hash=None, fault=None):
    """Run the classification loop from ``first_cycle`` to the horizon.

    The pipeline must already hold the faulty state the window starts
    from (checkpoint restored, TLB pages installed, bit flipped).  The
    trailing keyword arguments are the loop counters as they stand at
    the *start* of ``first_cycle``; the scalar trial passes the
    defaults, the batched engine passes the golden run's exact prefix
    counts (retirements, store drains, the current no-retirement gap,
    and the memoized committed-view hash -- equal to the golden one
    while the fault has never been architecturally visible).

    ``fault`` is the sampled :class:`~repro.faultlib.FaultInstance` for
    non-default fault models (None otherwise).  Persistent faults
    (stuck-at, intermittent) are re-asserted at the top of each window
    cycle per the instance's schedule, and the microarchitectural-match
    check is suppressed while the fault can still re-assert: a state
    match with a live fault is not masking.
    """
    horizon = horizon or golden.horizon
    locked_threshold = locked_multiplier * pipeline.config.deadlock_cycles

    def result(outcome, mode, cycles, detail=""):
        trial = TrialResult(
            outcome=outcome,
            failure_mode=mode,
            workload=workload_name,
            element_name=meta.name,
            category=meta.category.value,
            kind=meta.kind.value,
            bit=bit,
            start_point=start_point,
            inject_cycle=golden.start_cycle,
            cycles_run=cycles,
            valid_inflight=valid_inflight,
            total_inflight=total_inflight,
            detail=detail,
            trial_index=trial_index,
            # Classification-derived propagation fields: an SDC is
            # detected the cycle corruption reaches architectural
            # state, so both are the detection cycle.  Computed with or
            # without an observer (deterministic either way).
            arch_corrupt_cycle=(cycles if outcome == TrialOutcome.SDC
                                else None),
            detect_latency=cycles if outcome.is_failure else None,
            fault_model=fault.model if fault is not None else "single_bit",
        )
        if obs is not None:
            obs.trial_end(pipeline, trial)
        return trial

    space = pipeline.space
    k = retired_count
    drain_index = drain_count
    n_golden_retired = len(golden.retired)
    n_golden_drains = len(golden.drains)
    overrun = False
    forcing = fault is not None and fault.force is not None

    for cycle in range(first_cycle, horizon):
        if forcing and fault.assert_at(cycle):
            space.force_bit(*fault.force)
        pipeline.cycle()

        # 1. Retirement-raised failures.
        if pipeline.failure_event is not None:
            kind, _details = pipeline.failure_event
            mode = _FAILURE_BY_EVENT.get(kind, FailureMode.EXCEPT)
            return result(mode.outcome, mode, cycle + 1, detail=kind)

        # 2. Retirement-stream compare.
        if pipeline.retired_this_cycle:
            cycles_since_retire = 0
            for record in pipeline.retired_this_cycle:
                if k >= n_golden_retired:
                    overrun = True
                    break
                mode = compare_retired(record, golden.retired[k],
                                       golden.insn_pages)
                if mode is not None:
                    return result(mode.outcome, mode, cycle + 1,
                                  detail="retired[%d]" % k)
                k += 1
            if overrun:
                break
        else:
            cycles_since_retire += 1

        # 3. Store-drain compare.
        for drain in pipeline.drains_this_cycle:
            if drain_index >= n_golden_drains:
                overrun = True
                break
            if drain != golden.drains[drain_index]:
                return result(TrialOutcome.SDC, FailureMode.MEM, cycle + 1,
                              detail="drain[%d]" % drain_index)
            drain_index += 1
        if overrun:
            break

        # A fault-free-looking HALT cannot occur mid-window (golden does
        # not halt); a committed HALT here means wrong control flow.
        if pipeline.halted:
            return result(TrialOutcome.SDC, FailureMode.CTRL, cycle + 1,
                          detail="early halt")

        # 4. Committed-register-file view at a shared retirement count.
        # Committed state only changes when an instruction retires, so
        # the view is re-hashed once per retirement count (including the
        # injection cycle itself, where view_k is still None) instead of
        # every cycle.
        golden_view = golden.view_by_k.get(k)
        if golden_view is not None:
            if k != view_k:
                view_k = k
                view_hash = hash(pipeline.committed_view())
            if view_hash != golden_view:
                return result(TrialOutcome.SDC, FailureMode.REGFILE,
                              cycle + 1, detail="view@k=%d" % k)

        # 5. Deadlock / livelock.
        if cycles_since_retire >= locked_threshold:
            return result(TrialOutcome.TERMINATED, FailureMode.LOCKED,
                          cycle + 1)

        # 6. Complete microarchitectural state match.  Suppressed while
        # a persistent fault can still re-assert -- the match would not
        # survive the next assertion, so it is not masking.
        if space.signature() == golden.sigs[cycle] \
                and not (forcing and fault.active_after(cycle)):
            return result(TrialOutcome.MICRO_MATCH, None, cycle + 1)

    # 7. Horizon exhausted without failure or match.
    return result(TrialOutcome.GRAY, None, horizon,
                  detail="overrun" if overrun else "")


def compare_retired(record, golden_record, insn_pages):
    """Classify a retired-instruction divergence, or None when equal.

    The ghost sequence number identifies *which* fetched instruction
    committed (analysis-only; no pipeline behaviour depends on it):

    * same instruction, wrong PC label -> the architectural program
      counter is corrupted (``ctrl`` -- control-flow state violated);
    * different instruction from an unmapped page -> the processor was
      genuinely redirected to an invalid page (``itlb``);
    * different instruction from a mapped page -> an incorrect (but
      valid) instruction was fetched and committed (``ctrl``).
    """
    seq, pc, op_id, dest, value = record
    gseq, gpc, gop, gdest, gvalue = golden_record
    if pc != gpc or op_id != gop:
        if seq != gseq and page_of(pc) not in insn_pages:
            return FailureMode.ITLB
        return FailureMode.CTRL
    if dest != gdest or value != gvalue:
        return FailureMode.REGFILE
    return None
