"""Incremental-signature and copy-on-write restore equivalence.

The property under test is the one ``verify_golden`` asserts at
runtime: after *any* interleaving of field writes, bit flips,
snapshots and restores, the incremental keyed signature equals a full
recompute; no change to a single element leaves it unmoved; and a
copy-on-write (fast-path) restore leaves the pipeline bit-identical to
a from-scratch (slow-path) restore.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.uarch.core import Pipeline
from repro.uarch.statelib import (
    StateCategory,
    StateSnapshot,
    StateSpace,
    StorageKind,
)
from repro.workloads import get_workload


def make_space():
    space = StateSpace()
    fields = [
        space.field("a", 8, StateCategory.CTRL, StorageKind.LATCH),
        space.field("b", 64, StateCategory.DATA, StorageKind.RAM),
        space.field("c", 1, StateCategory.VALID, StorageKind.LATCH),
        space.field("d", 32, StateCategory.ADDR, StorageKind.LATCH),
        space.field("g", 16, StateCategory.GHOST, StorageKind.LATCH),
    ]
    space.freeze()
    return space, fields


# One randomized mutation step: (op, field index, value/bit).
_STEPS = st.lists(
    st.tuples(st.sampled_from(("set", "flip", "snapshot", "restore")),
              st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=2**64 - 1)),
    min_size=1, max_size=60)


@settings(max_examples=120, deadline=None)
@given(steps=_STEPS)
def test_incremental_signature_matches_full_recompute(steps):
    space, fields = make_space()
    snapshots = [space.snapshot()]
    for op, which, value in steps:
        field = fields[which]
        if op == "set":
            field.set(value)
        elif op == "flip":
            field.flip(value % field.width)
        elif op == "snapshot":
            snapshots.append(space.snapshot())
        else:
            space.restore(snapshots[value % len(snapshots)])
        assert space.signature() == space.signature(full=True)


@settings(max_examples=60, deadline=None)
@given(steps=_STEPS)
def test_ghost_writes_never_move_the_signature(steps):
    space, fields = make_space()
    ghost = fields[4]
    before = space.signature()
    for op, _which, value in steps:
        if op == "set":
            ghost.set(value)
        elif op == "flip":
            ghost.flip(value % ghost.width)
    assert space.signature() == before
    assert space.signature(full=True) == before


def test_flip_bit_updates_signature_incrementally():
    space, fields = make_space()
    flips = ((0, 0), (0, 7), (1, 8), (1, 63), (2, 0), (3, 31))
    for element, bit in flips:
        space.flip_bit(element, bit)
        assert space.signature() == space.signature(full=True)
    # Flipping the same bits again undoes every contribution.
    before = space.signature()
    for element, bit in flips:
        space.flip_bit(element, bit)
        space.flip_bit(element, bit)
    assert space.signature() == before
    assert space.signature() == space.signature(full=True)


@pytest.mark.parametrize("golden, faulty", [
    (7, 2**64 - 1),  # equal under CPython's modulo-(2**61 - 1) int hash
    (0, 2**61 - 1),
])
def test_regfile_values_equal_mod_hash_modulus_differ(golden, faulty):
    space = StateSpace()
    word = space.field("r", 64, StateCategory.REGFILE, StorageKind.RAM)
    space.freeze()
    word.set(golden)
    before = space.signature()
    assert before == space.signature(full=True)
    word.set(faulty)
    assert space.signature() != before
    assert space.signature(full=True) != before
    assert space.signature() == space.signature(full=True)


@settings(max_examples=300, deadline=None)
@given(width=st.integers(min_value=1, max_value=65),
       value=st.integers(min_value=0, max_value=2**65 - 1),
       mask=st.integers(min_value=1, max_value=2**65 - 1))
@example(width=64, value=7, mask=7 ^ (2**64 - 1))
@example(width=65, value=0, mask=2**61 - 1)
def test_every_in_width_fault_mask_moves_the_signature(width, value, mask):
    top = (1 << width) - 1
    mask &= top
    assume(mask)
    space = StateSpace()
    space.field("pad", 8, StateCategory.CTRL, StorageKind.LATCH, reset=3)
    field = space.field("x", width, StateCategory.REGFILE, StorageKind.RAM)
    space.freeze()
    field.set(value)
    before = space.signature()
    space.apply_fault(field.index, mask)
    assert space.signature() != before
    assert space.signature() == space.signature(full=True)
    space.undo_fault(field.index, mask)
    assert space.signature() == before


def test_snapshot_carries_signature_and_pickles(tmp_path):
    import pickle

    space, fields = make_space()
    fields[0].set(0x5A)
    fields[1].set(0xDEADBEEF)
    snap = space.snapshot()
    assert isinstance(snap, StateSnapshot)
    assert snap.sig == space.signature(full=True)

    clone = pickle.loads(pickle.dumps(snap))
    assert list(clone) == list(snap)
    assert clone.sig == snap.sig

    # A plain-list snapshot (no cached signature) still restores
    # correctly via the full-recompute fallback.
    fields[0].set(0)
    space.restore(list(snap))
    assert space.signature() == space.signature(full=True)
    assert fields[0].get() == 0x5A


# -- copy-on-write restore ----------------------------------------------------


def _state_fingerprint(pipeline):
    """Everything a trial can observe, as comparable plain data."""
    side = {name: data for name, data in pipeline.checkpoint()[1].items()}
    return (
        list(pipeline.space.snapshot()),
        pipeline.space.signature(),
        dict(pipeline.memory.quads),
        side,
        list(pipeline.output),
        hash(pipeline.committed_view()),
    )


@pytest.mark.parametrize("disturb_cycles", [0, 5, 40])
def test_cow_restore_equals_slow_restore(disturb_cycles):
    import random

    workload = get_workload("gzip", scale="tiny")

    # Reference machine: restore via the slow path (a fresh pipeline
    # that never made the checkpoint its COW baseline).
    reference = Pipeline(workload.program)
    reference.run(150, stop_on_halt=True)
    checkpoint = reference.checkpoint()

    # Fast path: same machine runs on (dirtying memory, caches,
    # predictors, BIQ, store sets, the output log) and then restores
    # its own live checkpoint.
    reference.run(disturb_cycles, stop_on_halt=True)
    reference.inject_random_fault(random.Random(7))
    reference.run(3, stop_on_halt=True)
    reference.restore(checkpoint)
    fast = _state_fingerprint(reference)

    # Slow path: a second pipeline adopts the same checkpoint cold.
    other = Pipeline(workload.program)
    other.restore(checkpoint)
    slow = _state_fingerprint(other)

    assert fast == slow

    # And both continue identically: cycle-level lockstep signatures.
    reference.restore(checkpoint)
    other.restore(checkpoint)
    for _ in range(25):
        reference.cycle()
        other.cycle()
        assert reference.space.signature() == other.space.signature()
        assert reference.space.signature() \
            == reference.space.signature(full=True)


def test_repeated_trial_restores_are_idempotent():
    """The per-trial pattern: restore, corrupt, run, restore, ..."""
    import random

    workload = get_workload("gzip", scale="tiny")
    pipeline = Pipeline(workload.program)
    pipeline.run(150, stop_on_halt=True)
    checkpoint = pipeline.checkpoint()
    baseline = _state_fingerprint(pipeline)
    rng = random.Random(2004)
    for _ in range(6):
        pipeline.restore(checkpoint)
        pipeline.inject_random_fault(rng)
        pipeline.run(rng.randrange(1, 30), stop_on_halt=True)
    pipeline.restore(checkpoint)
    assert _state_fingerprint(pipeline) == baseline
