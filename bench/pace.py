"""The host's pace: how long fixed pieces of work take right now.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets shifts by a factor of 1.5 or more, in phases that last from
milliseconds to minutes.  A median or a mean of raw wall times then moves
with the share of a run spent in slow phases, not with the program.  So a
round probes the pace all through its work, with two probes:

- `probe()`, a fixed pure-Python mix of the kind of work satkit does
  (small `Fraction`s summed into a dict keyed by integer tuples).  It runs
  inside timed tables, at most once every `INTERVAL_S`; its own time is
  taken out of the table's time.
- `start_probe()`, a bare interpreter start (`python -c pass`).  It runs
  before every CLI request.

Each timed unit is scaled by the probes of the same kind of work taken
next to it,

    wall time * reference / probe

which gives its time at a fixed reference pace.  A table is scaled by the
harmonic mean of the mix probes taken inside it: they come at even steps of
time, and work goes at the inverse of the probe time, so their harmonic
mean is the probe time averaged over the table's work.  A time that
includes an interpreter start (a CLI request, set-up) is scaled by the bare
start probed right before or after it; the phases mostly last longer than
a request and its probe, so both see the same pace.  A change to satkit
changes neither probe, so a program that gets faster or slower moves the
scaled times as it moves the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

# typical probe times on the 2-vCPU reference host; scaled times are wall
# times at this pace
REFERENCE_S = 0.003
START_REFERENCE_S = 0.07
INTERVAL_S = 0.1
_STEPS = 700


def probe():
    """Seconds for one pass of the fixed mix."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(1, _STEPS):
        key = (i % 7, i % 5, -(i % 3))
        acc[key] = acc.get(key, 0) + Fraction(i % 11 + 1, i % 13 + 1)
    sorted(acc.items())
    return time.perf_counter() - t0


def start_probe():
    """Seconds for a bare interpreter start, spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


class Pace:
    """The probes of one round, and the seconds the mix probes took."""

    def __init__(self):
        self.mix_s = []
        self.start_s = []
        self.spent_s = 0.0
        self.last = float("-inf")

    def start_now(self):
        """Probe a bare start; return its seconds."""
        self.start_s.append(start_probe())
        return self.start_s[-1]

    def now(self):
        """Probe the mix at once."""
        t0 = time.perf_counter()
        self.mix_s.append(probe())
        self.last = time.perf_counter()
        self.spent_s += self.last - t0

    def tick(self):
        """Probe if `INTERVAL_S` has passed since the last probe."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.now()
