"""A reference clock: time measured against how fast the machine runs right now.

On a shared host the same Python work can take twice as long from one second
to the next, and the slow and fast spells last a few seconds, so wall times
of identical runs spread far more than the program changes that a benchmark
should see.  This clock removes that part of the spread.  A timer interrupts
the main thread every PERIOD_S and runs a fixed pure-Python probe (integer
and fraction arithmetic, small tuples and a dict); the probe's duration says how fast the machine
runs Python at that moment.  A span of work then counts in reference seconds:

    reference = (wall - probe time inside the span) * NOMINAL_S / probe

where `probe` is the median duration of the probes within WINDOW_S of the
span; a longer span is cut into pieces of at most WINDOW_S, each with its own
probes.  A reference second is a second on a machine on which one probe takes
NOMINAL_S.  Work that gets slower relative to the probe still reads slower;
only the machine's swings cancel.

A child process is measured by running it under this module (run_child),

    python3 perfbench/refclock.py OUT -m wittforge verify ...

which runs the module with the clock on and writes its probes to OUT; the
parent pauses its own timer while it waits and adopts the child's probes
(perf_counter is the system-wide monotonic clock, so the times agree).
"""

from __future__ import annotations

import bisect
import json
import math
import runpy
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

PERIOD_S = 0.05  # one probe per 50 ms of work: about 1% overhead
WINDOW_S = 0.2  # probes this close to a span set its speed
NOMINAL_S = 0.0005  # a reference machine runs one probe in 0.5 ms


def _step(a, b):
    return (a[1] + b[0], a[0] * b[1] % 97)


def _probe():
    """Big-integer arithmetic, small tuples in a dict, calls, and fractions:
    the kinds of work the program does, about 0.5 ms in all."""
    acc, d, x = 1, {}, (1, 2)
    for i in range(400):
        acc = (acc * 6364136223846793005 + i) % 340282366920938463463374607431768211507
        d[i & 63] = acc >> 64
    for i in range(150):
        x = _step(x, (i, i + 1))
        k = (x[0] & 31, x[1] & 7)
        d[k] = d.get(k, 0) + x[0]
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(1, i)
    return acc, s


class RefClock:
    def __init__(self):
        self.t = []  # start of each probe, perf_counter seconds
        self.d = []  # its duration
        self.stolen = 0.0  # total probe time, to take out of the spans
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        _probe()
        d = perf_counter() - t0
        self.t.append(t0)
        self.d.append(d)
        self.stolen += d
        self._busy = False

    def start(self):
        for _ in range(3):  # a fresh interpreter runs its first probes slower
            _probe()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._tick()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """No probes in this process meanwhile (a child runs its own)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def adopt(self, path):
        """Take in the probes a child wrote to `path`."""
        with open(path) as f:
            child = json.load(f)
        for t, d in zip(child["t"], child["d"]):
            i = bisect.bisect(self.t, t)
            self.t.insert(i, t)
            self.d.insert(i, d)
            self.stolen += d

    def mark(self):
        return perf_counter(), self.stolen

    @staticmethod
    def wall(m0, m1):
        """Wall seconds between two marks, without the probes between them."""
        return (m1[0] - m0[0]) - (m1[1] - m0[1])

    def speed(self, t0, t1):
        """NOMINAL_S over the median probe within WINDOW_S of [t0, t1]."""
        i = bisect.bisect_left(self.t, t0 - WINDOW_S)
        j = bisect.bisect_right(self.t, t1 + WINDOW_S)
        if j - i < 3:  # too few nearby: the three nearest
            k = bisect.bisect(self.t, (t0 + t1) / 2)
            i, j = max(0, k - 2), min(len(self.t), k + 1)
            i = max(0, min(i, j - 3))
        return NOMINAL_S / statistics.median(self.d[i:j])

    def reference(self, m0, m1):
        """Reference seconds between two marks."""
        t0, t1 = m0[0], m1[0]
        n = math.ceil((t1 - t0) / WINDOW_S)
        if n <= 1:
            return self.wall(m0, m1) * self.speed(t0, t1)
        total = 0.0
        edges = [t0 + (t1 - t0) * k / n for k in range(n + 1)]
        for a, b in zip(edges, edges[1:]):
            i, j = bisect.bisect_left(self.t, a), bisect.bisect_left(self.t, b)
            total += (b - a - sum(self.d[i:j])) * self.speed(a, b)
        return total


# the one clock of this process: SIGALRM has one handler per process
CLOCK = RefClock()


def run_child(out: Path, module, *args, **kwargs):
    """Run MODULE ARGS in a child under this clock; its probes are adopted.

    `out` is where the child writes its probes; keyword arguments go to
    subprocess.run.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), str(out), "-m", module, *args]
    with CLOCK.paused():
        proc = subprocess.run(cmd, **kwargs)
    CLOCK.adopt(out)
    out.unlink()
    return proc


def main(argv):
    """refclock.py OUT -m MODULE ARGS...: run MODULE as __main__ with the clock on."""
    out, flag, module, *rest = argv
    if flag != "-m":
        raise SystemExit("usage: refclock.py OUT -m MODULE [ARGS...]")
    clock = CLOCK
    clock.start()
    sys.argv = [module, *rest]
    code = 0
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as e:
        code = e.code
    finally:
        clock.stop()
        with open(out, "w") as f:
            json.dump({"t": clock.t, "d": clock.d}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
