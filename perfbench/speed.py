"""Machine-speed reference for the timed metrics.

The benchmark runs on a few cores of a shared host, where other tenants slow
the same pure-Python code by up to 1.6x, in episodes of seconds to minutes.
Neither the fastest nor the median run cancels an episode that covers a
whole run, so every timed metric is divided by the host's speed measured in
the same run:

* after each operation the runner owes a share (`SHARE`) of the time the
  operation took to a fixed reference loop (`reference_work`) and pays it in
  whole loops, so the reference samples the host's speed over the run the
  way the operations do;
* `Probe.factor()` is the mean time of one reference loop in the run over
  `REF_S`, its time on an unloaded host;
* a reported time is the mean measured time over that factor, that is, the
  time the operation takes when the reference loop takes `REF_S`.

The ratio of two means taken over the same stretch of time does not depend
on how much of that stretch the host spent slowed down, as far as the
program and the reference slow down alike.  The reference, like the
program, has the interpreter build tuples, sets, dicts and JSON text; over
25-second windows of the exact-sweep operations on a 2-core host, dividing
by the factor cut the spread of the summed mean times (quartile distance
over median) from 0.12 to 0.07.  The cancellation is not exact: operations
of a few milliseconds slow down less than the reference, so on a host
running a third slower their reported times read up to a tenth lower than
on an idle one.  The reference does not touch zfilterlab, so a change to
the program moves the reported times and not the factor.
"""

from __future__ import annotations

import json
import time

perf = time.perf_counter

# Time of one `reference_work()` call on an unloaded host (CPython 3.11,
# x86_64); it fixes the scale of the reported seconds and must not change.
REF_S = 0.004
# Reference time owed after each operation, as a share of its duration.
SHARE = 0.05

_SETS = [frozenset(range(k, k + 6)) for k in range(12)]


def reference_work() -> int:
    """Fixed interpreter work in the program's idiom: a dict keyed by tuples,
    frozenset unions, sorting, and a JSON round trip of about 40 kB."""
    table = {}
    for i in range(1000):
        table[(i % 97, i // 97, i & 7)] = _SETS[i % 12] | {i}
    rows = [[k[0], k[1], sorted(v)] for k, v in table.items() if len(v) > 6]
    text = json.dumps(rows)
    return len(text) + len(json.loads(text))


class Probe:
    """Reference loops run during one measurement, and their total time."""

    def __init__(self) -> None:
        self.loops = 0
        self.seconds = 0.0
        self.owed = 0.0

    def owe(self, seconds: float) -> None:
        """Add `seconds` of reference time, and run whole loops while any is owed."""
        self.owed += seconds
        while self.owed > 0:
            t0 = perf()
            reference_work()
            dt = perf() - t0
            self.seconds += dt
            self.loops += 1
            self.owed -= dt

    def factor(self) -> float:
        """How many times slower than the unloaded host the run went."""
        return self.seconds / self.loops / REF_S
