"""Host-speed correction: a frozen reference kernel timed between the jobs.

The benchmark's host is a shared VM whose speed changes by up to 1.5x for
minutes at a time, which no statistic over a 30 s run can average away.  So a run also times ``chunk()``, a fixed piece of
pure-Python work of the kind qhcalc does (rational arithmetic, tuple-keyed
dicts, small calls), in short bursts between the jobs: after each job it runs
chunks until their time is ``SHARE`` of the job time so far.  The chunks thus
sample the host at the moments the jobs ran, weighted like the jobs.

``Speedometer.factor()`` is ``CHUNK_S`` over the mean measured chunk time.
Multiplying a time measured alongside by it gives that time at the speed the
host had when ``CHUNK_S`` was fixed.  The kernel is benchmark code and must not
change between the commits being compared; changing it or ``CHUNK_S`` starts
a new baseline.  The chunks run with the garbage collector off, so a program
that grows its heap does not slow them and so hide its own cost.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

SHARE = 0.05  # chunk time per unit of timed work
CHUNK_S = 0.00031  # one chunk on the baseline host (2.0 GHz Xeon VM, Python 3.11)


def _step(table, key, value):
    table[key] = table.get(key, 0) + value
    return table[key]


def chunk():
    """One fixed piece of work; returns a value so that none of it is skipped."""
    acc, table = Fraction(0), {}
    for i in range(1, 40):
        acc += Fraction(i, 2 * i + 3) * Fraction(3 - i, 7)
        _step(table, (i % 5, i % 3), acc.numerator % 101)
    return sorted(table.items())[0][1] + acc.denominator % 7


class Speedometer:
    """Runs and times reference chunks in step with timed work."""

    def __init__(self):
        self.work_s = 0.0
        self.ref_s = 0.0
        self.chunks = 0

    def after(self, work_s):
        """Account ``work_s`` seconds of timed work, then run chunks until
        they make up SHARE of it.  Returns the seconds the chunks took."""
        self.work_s += work_s
        spent = 0.0
        enabled = gc.isenabled()
        gc.disable()
        try:
            while self.ref_s < SHARE * self.work_s or not self.chunks:
                t = perf_counter()
                chunk()
                dt = perf_counter() - t
                self.ref_s += dt
                self.chunks += 1
                spent += dt
        finally:
            if enabled:
                gc.enable()
        return spent

    def factor(self):
        """Host speed relative to the baseline host: baseline chunk time over
        the mean chunk time measured here."""
        return CHUNK_S * self.chunks / self.ref_s
