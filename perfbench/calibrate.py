"""Machine-speed calibration for the end-to-end times.

    python3 perfbench/calibrate.py     # samples until stdin closes

The benchmark runs on shared machines whose speed for one process drifts by
a factor of up to two within minutes, which would swamp any change to
grouplab. So while run.py measures, this sampler times a fixed pure-Python
kernel, independent of grouplab, every ``INTERVAL_S`` seconds (about 2% of
one core), and run.py reports times in reference seconds:

    reference seconds = measured seconds * REFERENCE_KERNEL_S / kernel seconds

where kernel seconds is the mean of the samples taken during that pass.
A change to grouplab moves the measured time but not the kernel, so it shows
in full; a slower machine moves both and cancels out. Each sample is the
kernel's CPU time, so time the sampler waits for a core that the benchmark's
own processes hold does not count. The measured seconds are printed and
recorded beside the reference seconds.

The kernel enumerates S5 breadth-first, forty times over, by composing
``bytes`` permutation tables with ``bytes.translate`` and deduplicating them
in a set: the same kind of interpreter-bound work on a small working set
that grouplab's inner loops do.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

REFERENCE_KERNEL_S = 0.005  # one kernel call takes this long on the reference machine
INTERVAL_S = 0.2

_IDENT = bytes(range(256))
_GENS = (bytes([1, 2, 3, 4, 0]) + _IDENT[5:], bytes([1, 0, 2, 3, 4]) + _IDENT[5:])
_ROUNDS = 40


def kernel() -> None:
    for _ in range(_ROUNDS):
        seen = {_IDENT}
        queue = [_IDENT]
        for a in queue:
            for g in _GENS:
                b = a.translate(g)
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        if len(seen) != 120:
            raise RuntimeError("calibration kernel did not enumerate S5")


def sample_until_stdin_closes() -> list[tuple[float, float]]:
    """(monotonic time, kernel CPU seconds) pairs, one per interval."""
    samples = []
    while True:
        t0 = time.process_time()
        kernel()
        samples.append((time.monotonic(), time.process_time() - t0))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.read(1):
            return samples


class Sampler:
    """The sampler as a child process: start(), then stop() for its samples."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def stop(self, timeout: float = 30) -> list[tuple[float, float]]:
        out, _ = self.proc.communicate(timeout=timeout)
        return [tuple(s) for s in json.loads(out)]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def scale(samples, start: float, end: float) -> float:
    """REFERENCE_KERNEL_S over the mean kernel time sampled in [start, end];
    the nearest sample stands in when the window holds none."""
    inside = [k for t, k in samples if start <= t <= end]
    if not inside:
        inside = [min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
    return REFERENCE_KERNEL_S / statistics.fmean(inside)


if __name__ == "__main__":
    print(json.dumps(sample_until_stdin_closes()))
