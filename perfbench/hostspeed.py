"""Host-speed reference for the benchmark's timings.

The small shared hosts this benchmark runs on change speed by about
+-15% over tens of seconds, and the change moves all code alike: on a
2-vCPU VM, 30-second medians of a torus census, a single-threaded
polygon census and a pure-Python loop, timed in turn, swung together
(correlation 0.94-0.98) across a 0.27 range.  Medians within a run
cannot remove that, so every end-to-end time is reported scaled to a
reference speed (the unscaled seconds go to ``run.json``).

A fixed kernel runs in its own interpreter, which never imports the
package, and is timed between jobs (never during one).  A run's times
are multiplied by ``REF_SECONDS / mean kernel time`` over the samples
taken in the same phase of the run (set-up or jobs): they read as
seconds on a host where the kernel takes ``REF_SECONDS``.  The mean,
not the median: kernel times fall in two states a few seconds long,
and the median jumps between them.  Because the kernel process shares
nothing with the benchmarked one but the host, a slower package cannot
slow the kernel and be divided out.

Run as a script this module is the kernel process: each line on stdin
runs the kernel once and is answered with its time in seconds.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: kernel time on the 2-vCPU VM the benchmark was written on
REF_SECONDS = 0.05
#: seconds of benchmark time per kernel sample (about 5% overhead)
INTERVAL = 1.0
#: most samples taken at one point between jobs
BURST = 8


def kernel() -> float:
    """Interpreter-bound and array-bound work, as the package does."""
    acc = 0
    for i in range(360_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 8192)
    for _ in range(540):
        a = np.sqrt(a * a + 1.0) - 0.5
    return acc + float(a.sum())


class HostSpeed:
    """The kernel process, sampled between jobs."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []
        self.last = time.perf_counter()

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed kernel process ended")
        self.samples.append(float(line))
        self.last = time.perf_counter()

    def catch_up(self) -> None:
        """One sample per ``INTERVAL`` passed since the last sample, at
        most ``BURST``: a run of long jobs is sampled about as densely as
        one of short jobs."""
        due = int((time.perf_counter() - self.last) / INTERVAL)
        for _ in range(min(due, BURST)):
            self.sample()

    def factor(self, samples: slice = slice(None)) -> float:
        """Multiplier that takes seconds measured while ``samples`` were
        taken to reference seconds."""
        return REF_SECONDS / statistics.fmean(self.samples[samples])

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    kernel()  # warm-up, untimed
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        print(repr(time.perf_counter() - start), flush=True)


if __name__ == "__main__":
    serve()
