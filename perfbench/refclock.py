"""Wall time rescaled to a reference host speed.

On a small shared host the speed of one vCPU can swing by a factor of
up to two within seconds, as other work lands on the same core, and a
swing can last for minutes, so the wall time of a campaign says as
much about the neighbours as about the program.  A
:class:`ReferenceClock` runs a short, fixed calibration loop -- code of
the benchmark, never of the program -- at the start, at the end, and
every ``INTERVAL`` seconds of the timed region (from a callback the
region already makes), and rescales each segment of wall time by how
long the loop took around it:

    reference seconds = sum(segment wall time * REFERENCE_S / loop time)

A change to the program moves the wall time but not the loop, so it
moves reference seconds as much; a slow spell of the host slows both
and cancels.  The loop's own time is left out of both figures.
"""

import time

# One calibration slice: about REFERENCE_S seconds on the 2-vCPU Xeon
# host this benchmark was tuned on, when its sibling thread was idle.
ROUNDS = 6000
REFERENCE_S = 0.0025
INTERVAL = 0.25  # seconds between slices


class _Cell:
    __slots__ = ("value",)


def calibration_slice(rounds=ROUNDS):
    """A fixed mix of attribute, dict, tuple-hash and int work."""
    cells = [_Cell() for _ in range(64)]
    table = {}
    acc = 0
    for i in range(rounds):
        cell = cells[i & 63]
        cell.value = (acc + i) & 0xFFFF
        table[i & 255] = table.get(i & 127, 0) ^ cell.value
        acc = (acc * 31 + hash((i & 7, acc & 15))) & 0xFFFFFFFF
    return acc


class ReferenceClock:
    """Times one region in wall seconds and in reference seconds.

    Call :meth:`start`, then :meth:`tick` as often as convenient (it
    calibrates at most every ``INTERVAL`` seconds), then :meth:`stop`.
    """

    def __init__(self):
        self._samples = []  # (slice start, slice end, slice seconds)
        self.wall_s = None
        self.reference_s = None

    def start(self):
        self._calibrate()

    def tick(self, *_ignored):
        """Calibrate if ``INTERVAL`` has passed; usable as a callback."""
        if time.perf_counter() - self._samples[-1][1] >= INTERVAL:
            self._calibrate()

    def stop(self):
        """End the region; sets ``wall_s`` and ``reference_s``."""
        self._calibrate()
        wall = reference = 0.0
        for (_, begin, before), (end, _, after) in zip(self._samples,
                                                       self._samples[1:]):
            wall += end - begin
            reference += (end - begin) * REFERENCE_S * 2 / (before + after)
        self.wall_s = wall
        self.reference_s = reference

    def _calibrate(self):
        begin = time.perf_counter()
        calibration_slice()
        end = time.perf_counter()
        self._samples.append((begin, end, end - begin))
