"""Host-speed correction: measured times rescaled to a nominal host.

The benchmark runs on shared hosts whose speed swings by up to 2x, in
bursts of seconds and in drifts over minutes and hours: other tenants
contend for the same cores and caches, so the same op costs 12 ms one
minute and 20 ms the next.  Those swings show as CPU time, not as
descheduled time, so CPU clocks do not remove them.

A fixed unit of benchmark-owned pure-Python work (dict and set lookups
and integer arithmetic over prebuilt tuples, allocating no container,
so it neither triggers nor pays for the program's garbage collection)
is timed in this thread's CPU time before and after every timed op.
The op's CPU time is then multiplied by ``NOMINAL_PROBE_S`` over the
mean of the two probes (set-up, whose builds are long next to the
host's bursts, uses the mean of all probes taken between its builds);
its waiting time (a remote lab's latency, which does not run faster
on a faster host) is kept as measured::

    host_time = wall + cpu * (scale - 1),   scale = NOMINAL / probe

For a CPU-bound op that is ``wall * scale``: the time the op would
take on a host where the probe takes ``NOMINAL_PROBE_S``.  The probe
runs in the benchmark's own code, so a change to the program cannot
change it; it is timed in thread CPU time, so the program's own
threads (which hold the GIL and would stretch the probe's wall time)
cannot hide their cost in it either.
"""

from __future__ import annotations

import statistics
from time import thread_time

#: probe CPU time on the nominal host (a 2-vCPU AMD EPYC VM at a quiet
#: moment); values are reported in that host's seconds
NOMINAL_PROBE_S = 0.8e-3

_N = 4096
_TABLE = {i: (i * 7919) % _N for i in range(_N)}
_ROWS = tuple(
    (i % 97, (i * 31) % _N, "k%d" % (i % 512)) for i in range(_N)
)
_SEEN = frozenset(range(0, _N, 3))
_NAMES = {"k%d" % i: i for i in range(512)}


def _work():
    hits = 0
    for _ in range(2):
        for a, b, name in _ROWS:
            c = _TABLE[b]
            if c in _SEEN:
                hits += a + _NAMES[name]
            elif a > c % 97:
                hits -= 1
    return hits


def probe():
    """Thread CPU seconds of one unit of probe work."""
    begin = thread_time()
    _work()
    return thread_time() - begin


def host_time(wall, cpu, scale):
    """`wall` seconds, of which `cpu` on this process's CPUs, on a
    host `scale` times as fast as this one was."""
    # the GIL keeps the process's CPU time within the wall time; the
    # clamp keeps the result positive if threads overlap in C code
    return wall + min(cpu, wall) * (scale - 1.0)


def scale_of(samples):
    """How much faster the nominal host is than the probe `samples`
    (seconds) say this one was."""
    return NOMINAL_PROBE_S / statistics.fmean(samples)


class HostSpeed:
    """Probes the host between timed ops and rescales each op by the
    probes on both sides of it."""

    def __init__(self):
        #: every probe taken (seconds)
        self.samples = [probe()]

    def host_time(self, wall, cpu):
        """Call right after the op: `wall` seconds, of which `cpu` on
        this process's CPUs, rescaled to the nominal host."""
        self.samples.append(probe())
        return host_time(wall, cpu, scale_of(self.samples[-2:]))
