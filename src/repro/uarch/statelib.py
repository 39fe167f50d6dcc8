"""State-element registry: the substrate of latch-accurate fault injection.

Every architected bit of pipeline state -- edge-triggered latches and
pipeline RAM cells alike -- is allocated from a :class:`StateSpace`.
Each element carries:

* a ``width`` in bits,
* a :class:`StorageKind` (``LATCH`` or ``RAM``) matching the paper's
  division of injection campaigns into latch+RAM and latch-only,
* a :class:`StateCategory` matching the paper's Table 1 functional
  taxonomy (``addr``, ``archrat``, ``data``, ``regfile``, ...),
* an ``injectable`` flag.  Ghost elements (``injectable=False``) carry
  simulator bookkeeping (sequence numbers) that exists for analysis only;
  they are excluded from injection, from the Table 1 inventory, and from
  the microarchitectural-state signature, and no pipeline *behaviour* may
  depend on them.

Values live in one flat list so snapshot/restore are single C-speed
operations, and the microarchitectural signature is maintained
*incrementally* as a keyed linear sum: every non-ghost element ``i``
has a fixed odd 61-bit key ``k_i`` (:func:`_signature_key`, a
splitmix64 mix of the index -- pure integer arithmetic, so identical in
every process and on every Python version), and the signature is the
exact integer ``sum(value_i * k_i)``.  A changing write adds
``(new - old) * k_i`` -- one subtraction, one multiplication, one
addition -- so :meth:`StateSpace.signature` is O(1) per cycle instead
of O(#elements).

Correctness: states differing in one element by ``d != 0`` -- an
injected fault before it spreads -- have signatures differing by
``d * k_i``, never 0 since ``k_i`` is odd and the sum is exact (never
reduced modulo a power of two, which would make ``d = 2**64``, bit 64
of a 65-bit regfile word, vanish).  Multi-element differences collide
only if ``sum(d_i * k_i) == 0`` for pseudo-random 61-bit keys.

The delta is applied in one place, :meth:`Field.set`; allocation,
``Field.flip``, ``flip_bit``, ``apply_fault`` and ``force_bit`` route
through it.  ``signature(full=True)`` recomputes over the same key
table; ``record_golden`` and ``verify_golden`` assert the two agree,
and lint rule REP005 rejects writes that bypass ``Field.set``.
"""

import bisect
import enum
from dataclasses import dataclass
from operator import mul

from repro.errors import SimulationError


class StorageKind(enum.Enum):
    """Physical storage style of a state element (paper Section 2.2)."""

    LATCH = "latch"
    RAM = "ram"


class StateCategory(enum.Enum):
    """Functional category of a state element (paper Table 1).

    ``ECC`` and ``PARITY`` appear only when protection mechanisms are
    configured (paper Figure 9 adds them as injectable categories).
    ``GHOST`` marks analysis-only bookkeeping.
    """

    ADDR = "addr"
    ARCHFREELIST = "archfreelist"
    ARCHRAT = "archrat"
    CTRL = "ctrl"
    DATA = "data"
    INSN = "insn"
    PC = "pc"
    QCTRL = "qctrl"
    REGFILE = "regfile"
    REGPTR = "regptr"
    ROBPTR = "robptr"
    SPECFREELIST = "specfreelist"
    SPECRAT = "specrat"
    VALID = "valid"
    ECC = "ecc"
    PARITY = "parity"
    GHOST = "ghost"


# The categories reported in the paper's Table 1 (baseline machine),
# the protection add-ons of Figure 9, and the full reporting contract.
# ``repro.lint`` (REP004) checks statically -- and :meth:`StateSpace.field`
# checks at allocation time -- that every category a structure allocates
# belongs to ``REPORTED_CATEGORIES``, so the analysis layer can never
# silently drop a category from the Table 1 / Figure 5 aggregations.
TABLE1_CATEGORIES = (
    StateCategory.ADDR,
    StateCategory.ARCHFREELIST,
    StateCategory.ARCHRAT,
    StateCategory.CTRL,
    StateCategory.DATA,
    StateCategory.INSN,
    StateCategory.PC,
    StateCategory.QCTRL,
    StateCategory.REGFILE,
    StateCategory.REGPTR,
    StateCategory.ROBPTR,
    StateCategory.SPECFREELIST,
    StateCategory.SPECRAT,
    StateCategory.VALID,
)

# Injectable categories that exist only with protection configured.
PROTECTION_CATEGORIES = (
    StateCategory.ECC,
    StateCategory.PARITY,
)

# Everything the analysis layer aggregates; GHOST is analysis-only
# bookkeeping and is excluded from inventory/injection by construction.
REPORTED_CATEGORIES = (
    TABLE1_CATEGORIES + PROTECTION_CATEGORIES + (StateCategory.GHOST,)
)

_REPORTED_SET = frozenset(REPORTED_CATEGORIES)

_MASK64 = (1 << 64) - 1


def _signature_key(index):
    """The fixed odd 61-bit signature key of element ``index``.

    splitmix64's finalizer over ``index + 1``; the top 61 bits, forced
    odd so that no nonzero value difference times the key is 0.
    """
    z = ((index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 3) | 1


@dataclass(frozen=True)
class ElementMeta:
    """Immutable description of one state element."""

    index: int
    name: str
    width: int
    category: StateCategory
    kind: StorageKind
    injectable: bool


class StateSnapshot(list):
    """A value snapshot that remembers the signature at capture time.

    Behaves exactly like the plain list it subclasses (element-wise
    compare, iteration, indexing), so every existing consumer of
    ``snapshot()`` is unaffected; ``restore()`` uses the carried ``sig``
    to reset the signature in O(1) instead of recomputing over
    every element.  Plain lists are still accepted by ``restore`` (the
    signature is then recomputed), so pickled or hand-built snapshots
    keep working.
    """

    __slots__ = ("sig",)

    def __init__(self, values, sig=None):
        list.__init__(self, values)
        self.sig = sig

    def __reduce__(self):
        # list subclasses with __slots__ need explicit pickle support;
        # the golden cache serialises checkpoints containing snapshots.
        return (StateSnapshot, (list(self), self.sig))


class Field:
    """Handle to one state element's value.

    Reads and writes are width-masked, so a corrupted value can never
    exceed its hardware width -- the defensive-simulation ground rule.

    Writes also maintain the space's signature: ``_sig`` is a shared
    one-element cell (cheaper to update than an attribute on the
    space) and ``_key`` is the element's signature key -- 0 for ghost
    elements, which are excluded from the signature.
    """

    __slots__ = ("_values", "index", "width", "_mask", "_sig", "_key")

    def __init__(self, space, index, width, key):
        self._values = space.values
        self._sig = space._sig
        self.index = index
        self.width = width
        self._mask = (1 << width) - 1
        self._key = key

    def get(self):
        return self._values[self.index]

    def set(self, value):
        """Store ``value`` (width-masked): the one signature-maintaining write.

        Other writers here call it unbound, so the batch engine's
        activity-recorder hook never sees injections.
        """
        value &= self._mask
        values = self._values
        index = self.index
        old = values[index]
        if old == value:
            return
        values[index] = value
        self._sig[0] += (value - old) * self._key

    def flip(self, bit):
        """Invert one bit (the single-event-upset fault model)."""
        Field.set(self, self._values[self.index] ^ (1 << (bit % self.width)))

    def __repr__(self):
        return "Field(#%d, %d bits, value=%d)" % (
            self.index, self.width, self.get())


class StateSpace:
    """Allocator and registry for all state elements of one pipeline."""

    def __init__(self):
        self.values = []
        self.elements = []
        self.handles = []  # Field handle per element, same order as values
        # Signature key per element (0 for ghosts), same order as values.
        self._keys = []
        # sum(value * key) over all elements, shared with every Field
        # as a one-element cell.
        self._sig = [0]
        self._frozen = False
        self._injection_tables = {}
        self._array_groups = None

    # -- Allocation -------------------------------------------------------

    def field(self, name, width, category, kind, injectable=True, reset=0):
        """Allocate one state element and return its :class:`Field`."""
        if self._frozen:
            raise SimulationError(
                "cannot allocate %r: state space is frozen" % name)
        if width <= 0:
            raise SimulationError("field %r must have positive width" % name)
        if category == StateCategory.GHOST:
            injectable = False
        if category not in _REPORTED_SET:
            raise SimulationError(
                "field %r allocates category %r which the analysis layer "
                "does not aggregate; add it to TABLE1_CATEGORIES or "
                "PROTECTION_CATEGORIES in statelib" % (name, category))
        index = len(self.values)
        self.values.append(0)
        self.elements.append(
            ElementMeta(index, name, width, category, kind, injectable))
        key = 0 if category == StateCategory.GHOST else _signature_key(index)
        self._keys.append(key)
        field = Field(self, index, width, key)
        self.handles.append(field)
        Field.set(field, reset)
        return field

    def array(self, name, count, width, category, kind, injectable=True):
        """Allocate ``count`` homogeneous elements (a RAM array or latch bank)."""
        return [
            self.field("%s[%d]" % (name, i), width, category, kind, injectable)
            for i in range(count)
        ]

    def freeze(self):
        """Finish allocation."""
        self._frozen = True

    # -- Inventory ----------------------------------------------------------

    def total_bits(self, kind=None, category=None, injectable_only=True):
        """Total bits matching the filters (the Table 1 accounting)."""
        total = 0
        for meta in self.elements:
            if injectable_only and not meta.injectable:
                continue
            if kind is not None and meta.kind != kind:
                continue
            if category is not None and meta.category != category:
                continue
            total += meta.width
        return total

    def inventory(self):
        """Mapping category -> {latch_bits, ram_bits} over injectable state."""
        table = {}
        for meta in self.elements:
            if not meta.injectable:
                continue
            row = table.setdefault(
                meta.category, {StorageKind.LATCH: 0, StorageKind.RAM: 0})
            row[meta.kind] += meta.width
        return table

    # -- Fault injection -------------------------------------------------------

    def _table_for(self, kinds):
        """Injection table for a *frozenset* of kinds (cached by it)."""
        cached = self._injection_tables.get(kinds)
        if cached is not None:
            return cached
        indices = []
        cumulative = []
        total = 0
        for meta in self.elements:
            if meta.injectable and meta.kind in kinds:
                indices.append(meta.index)
                total += meta.width
                cumulative.append(total)
        table = (indices, cumulative, total)
        self._injection_tables[kinds] = table
        return table

    def eligible_bits(self, kinds):
        """Number of injectable bits across the given storage kinds."""
        if not isinstance(kinds, frozenset):
            kinds = frozenset(kinds)
        return self._table_for(kinds)[2]

    def choose_bit(self, rng, kinds):
        """Pick a (element_index, bit) uniformly over eligible bits.

        The returned bit offset is always below the element's width.
        Campaign code normalizes ``kinds`` to a frozenset once at the
        campaign boundary; the fallback conversion here keeps ad-hoc
        callers (tests, notebooks) working with any iterable.
        """
        if not isinstance(kinds, frozenset):
            kinds = frozenset(kinds)
        indices, cumulative, total = self._table_for(kinds)
        if total == 0:
            raise SimulationError("no injectable state for kinds %r" % (kinds,))
        offset = rng.randrange(total)
        position = bisect.bisect_right(cumulative, offset)
        element_index = indices[position]
        prior = cumulative[position - 1] if position else 0
        return element_index, offset - prior

    def flip_bit(self, element_index, bit):
        """Apply a single-bit upset to an element chosen by index."""
        Field.flip(self.handles[element_index], bit)
        return self.elements[element_index]

    def apply_fault(self, element_index, mask):
        """XOR a disturbance mask into one element (multi-bit upsets).

        The mask is clamped to the element's width, so a fault can never
        widen a value past its hardware width (a mask that clamps to 0
        changes nothing).  Maintains the signature exactly like
        :meth:`flip_bit`; applying the same mask twice is the identity
        (XOR), which is what :meth:`undo_fault` relies on.
        """
        Field.set(self.handles[element_index],
                  self.values[element_index] ^ mask)
        return self.elements[element_index]

    def undo_fault(self, element_index, mask):
        """Revert a disturbance applied by :meth:`apply_fault`.

        XOR is self-inverse, so undo *is* re-apply -- the separate name
        records intent at call sites (and keeps apply/undo pairs legible
        in the property tests).
        """
        return self.apply_fault(element_index, mask)

    def force_bit(self, element_index, bit, value):
        """Force one bit of an element to ``value`` (stuck-at faults).

        Unlike :meth:`flip_bit` this is idempotent: re-asserting a
        stuck-at fault on an already-stuck bit is a no-op, including on
        the signature.  Returns True when the write changed the
        element.
        """
        handle = self.handles[element_index]
        old = self.values[element_index]
        pick = 1 << (bit % handle.width)
        new = (old | pick) if value else (old & ~pick)
        if new == old:
            return False
        Field.set(handle, new)
        return True

    def array_members(self, element_index):
        """Indices of the array the element belongs to (itself if scalar).

        Arrays are recognised by the ``name[i]`` convention that
        :meth:`array` allocates; members are returned in allocation
        order.  Used by spatially-correlated (burst) fault models, so
        only injectable members are listed.  The grouping is cached
        lazily -- the registry is frozen before injection starts.
        """
        groups = getattr(self, "_array_groups", None)
        if groups is None:
            groups = {}
            by_base = {}
            for meta in self.elements:
                if not meta.injectable:
                    continue
                name = meta.name
                base = name[:name.rindex("[")] if name.endswith("]") \
                    and "[" in name else None
                if base is None:
                    groups[meta.index] = (meta.index,)
                else:
                    by_base.setdefault(base, []).append(meta.index)
            for members in by_base.values():
                members = tuple(members)
                for index in members:
                    groups[index] = members
            self._array_groups = groups
        return groups.get(element_index, (element_index,))

    # -- Snapshot / compare ------------------------------------------------------

    def snapshot(self):
        """Copy of all element values (ghosts included, for exact restore).

        Returns a :class:`StateSnapshot` carrying the current signature
        so a later ``restore`` resets it in O(1).
        """
        return StateSnapshot(self.values, self._sig[0])

    def restore(self, snap):
        self.values[:] = snap
        sig = getattr(snap, "sig", None)
        if sig is None:
            sig = self.signature(full=True)
        self._sig[0] = sig

    def signature(self, full=False):
        """Keyed sum over non-ghost state (the μArch-Match check).

        The default path returns the incrementally-maintained sum
        (O(1)); ``full=True`` recomputes it from the values list, the
        debug/verify path ``record_golden`` and ``verify_golden`` check
        against.
        """
        if not full:
            return self._sig[0]
        return sum(map(mul, self.values, self._keys))
