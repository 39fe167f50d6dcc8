"""On-disk memoization of golden windows across workers and runs.

Recording a golden trace costs a full fault-free simulation of
``warmup + spacing`` cycles plus the ``horizon + margin`` window --
with a process pool, every worker used to pay it again for every
``(workload, start_point)`` it touched.  The cache stores each start
point's *checkpoint and golden trace* once, under
``<campaign-dir>/golden/``, so any worker (or a resumed run) loads the
pickle instead of re-simulating.

Safety comes from the key, not the file name: every entry embeds

* the campaign fingerprint (config + RNG scheme -- the same identity
  that guards journal resume), which covers workload, scale, warmup,
  spacing, horizon, margin, and protection;
* a digest of the pipeline config's ``repr`` (a custom
  ``PipelineConfig`` changes the machine without changing the campaign
  config);
* a format version.

Integrity comes from an on-disk envelope: entries are written as
``RGCK`` magic + CRC32 + pickle payload, so a bit-rotted or truncated
entry is *detected* rather than unpickled into every pool worker
identically.  A corrupt entry is quarantined to
``<dir>/quarantine/`` (kept for forensics) and transparently
re-recorded; a mismatched-but-intact entry (another campaign's data, or
an older format) is simply ignored and re-recorded over.  Files
without the envelope are ignored the same way: the cache is
rebuildable, so there is no legacy loader.

A mismatched or unreadable entry can never change what a trial
computes, only how often the deterministic preparation is repeated.
Writes go through a temp file plus ``os.replace`` so concurrent
workers racing on the same entry each land a complete file and nobody
ever reads a torn one.

The format is 2.  Format 1 cached hash-XOR state signatures, which
CPython's modulo-(2**61 - 1) int hash made collide (7 and 2**64 - 1
in one 64-bit element); format 2 caches the keyed linear signatures
of :mod:`repro.uarch.statelib`, pure integer arithmetic and therefore
portable across processes and Python versions.

The bit-plane batched engine (:mod:`repro.perf.batch`) attaches its
fault-free *activity trace* to ``GoldenTrace.activity`` and re-stores
the entry through this cache, so the one-time recording is shared like
the golden window itself.
"""

import hashlib
import os
import pickle
import struct
import tempfile
import zlib

from repro.inject.store import campaign_fingerprint

__all__ = ["GoldenCache", "QUARANTINE_DIR"]

# Bump when the cached payload's shape or meaning changes
# incompatibly (2: keyed linear state signatures).
CACHE_FORMAT = 2

# Envelope: magic + little-endian CRC32 of the payload + payload.
_MAGIC = b"RGCK"
_HEADER = struct.Struct("<4sI")

QUARANTINE_DIR = "quarantine"

_PICKLE_ERRORS = (EOFError, pickle.UnpicklingError, AttributeError,
                  ImportError, IndexError, KeyError, TypeError, ValueError)


def _pipeline_config_digest(pipeline_config):
    text = repr(pipeline_config)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class GoldenCache:
    """Shared store of ``(checkpoint, golden trace)`` per start point.

    ``on_event`` is an optional callback ``(kind, detail)`` used to
    surface integrity incidents ("cache_quarantined") to the engine's
    telemetry; the cache itself never raises for them.
    """

    def __init__(self, directory, config, pipeline_config, on_event=None):
        self.directory = directory
        self.on_event = on_event
        self._tag = (CACHE_FORMAT, campaign_fingerprint(config),
                     _pipeline_config_digest(pipeline_config))

    def _path(self, workload_name, start_point):
        return os.path.join(
            self.directory, "%s-sp%d.pkl" % (workload_name, start_point))

    def has(self, workload_name, start_point):
        """Whether an entry file exists (it may still fail to load)."""
        return os.path.exists(self._path(workload_name, start_point))

    def load(self, workload_name, start_point):
        """The cached ``(checkpoint, golden)`` pair, or None."""
        path = self._path(workload_name, start_point)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        if not blob.startswith(_MAGIC):
            return None  # not an entry this cache wrote: re-record
        if len(blob) < _HEADER.size:
            self._quarantine(path, "truncated envelope")
            return None
        _magic, expected = _HEADER.unpack_from(blob)
        payload = blob[_HEADER.size:]
        if zlib.crc32(payload) & 0xFFFFFFFF != expected:
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            entry = pickle.loads(payload)
        except _PICKLE_ERRORS:
            # The checksum held but the payload does not unpickle: the
            # entry is damaged beyond its framing (or written by an
            # incompatible pickler) -- keep it for forensics.
            self._quarantine(path, "undecodable payload")
            return None
        if not isinstance(entry, dict) or entry.get("tag") != self._tag:
            return None  # another campaign's (or format's) valid entry
        return entry["checkpoint"], entry["golden"]

    def store(self, workload_name, start_point, checkpoint, golden):
        """Persist one start point's preparation (best-effort, atomic)."""
        entry = {"tag": self._tag, "checkpoint": checkpoint,
                 "golden": golden}
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except pickle.PicklingError:
            return  # unpicklable payload costs re-recording, never correctness
        blob = _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF) \
            + payload
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, suffix=".tmp")
            committed = False
            # finally-based cleanup (not `except BaseException`): a
            # KeyboardInterrupt/SystemExit mid-write still removes the
            # temp file on its way out and is never swallowed (REP006).
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp_path, self._path(workload_name, start_point))
                committed = True
            finally:
                if not committed:
                    try:
                        os.unlink(tmp_path)
                    except OSError:
                        pass
        except OSError:
            # A full disk costs re-recording, never correctness.
            pass

    # ------------------------------------------------------------------

    def _quarantine(self, path, reason):
        """Move a corrupt entry aside so it is regenerated, not reread."""
        name = os.path.basename(path)
        quarantine = os.path.join(self.directory, QUARANTINE_DIR)
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(path, os.path.join(quarantine, name))
        except OSError:
            # Cannot move it aside: best effort is deleting it so the
            # poisoned bytes stop being loaded by every worker.
            try:
                os.unlink(path)
            except OSError:
                pass
        if self.on_event is not None:
            self.on_event("cache_quarantined", "%s: %s" % (name, reason))
