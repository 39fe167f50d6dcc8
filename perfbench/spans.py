"""In-memory span tracing around the public calls into each layer.

The benchmark never edits the program: :meth:`Tracer.installed`
replaces module or class attributes with timing wrappers for the
duration of a ``with`` block and puts the originals back on exit.
Spans are aggregated as they close, keyed by ``(name, parent)`` where
``parent`` is the name of the innermost open span (None at the top),
so a count such as "simulated cycles inside a laned-out suffix" is read
where the work happens instead of being reconstructed afterwards.

A span's *self* time is its duration minus the durations of the spans
it directly encloses, so the self times of all spans never add up to
more than the wall time of the traced region.
"""

import contextlib
import functools
import time
from collections import defaultdict

ANY = object()  # matches every name, or every parent, in the readers


class SpanStats:
    """Aggregated closed spans of one ``(name, parent)`` key."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps named attributes with spans while installed.

    ``targets`` is a sequence of ``(owner, attribute, span_name)``
    triples; ``owner`` is a module (for a function as bound in that
    module's namespace) or a class (for a method).  ``on_result`` maps
    a span name to a callable ``(tracer, result)`` run after each call
    returns, for counts that only the result carries.
    """

    def __init__(self, targets, on_result=None):
        self.targets = tuple(targets)
        self.on_result = dict(on_result or {})
        self.stats = defaultdict(SpanStats)
        self.counts = defaultdict(int)
        self._stack = []  # open spans: [name, child seconds]

    def reset(self):
        """Forget everything recorded so far (spans and counts)."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        self.stats = defaultdict(SpanStats)
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the ``with`` block, then restore them."""
        saved = []
        try:
            for owner, attribute, name in self.targets:
                original = owner.__dict__[attribute]
                setattr(owner, attribute, self._wrap(name, original))
                saved.append((owner, attribute, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def _wrap(self, name, function):
        stack = self._stack
        clock = time.perf_counter
        after = self.on_result.get(name)
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                # Read through ``tracer``: reset() swaps the dict.
                entry = tracer.stats[(name, parent)]
                entry.calls += 1
                entry.total_s += elapsed
                entry.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(tracer, result)
            return result

        return traced

    # -- aggregate readers ------------------------------------------------

    def calls(self, name, parent=ANY):
        """Closed spans called ``name`` (directly under ``parent``)."""
        return sum(entry.calls for entry in self._select(name, parent))

    def total_s(self, name, parent=ANY):
        """Inclusive seconds in spans called ``name``."""
        return sum(entry.total_s for entry in self._select(name, parent))

    def self_s(self, name=ANY):
        """Self seconds in spans called ``name`` (all spans by default)."""
        return sum(entry.self_s for entry in self._select(name, ANY))

    def _select(self, name, parent):
        return [entry for (span, outer), entry in self.stats.items()
                if (name is ANY or span == name)
                and (parent is ANY or outer == parent)]
