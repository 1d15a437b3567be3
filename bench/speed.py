"""The machine-speed reference that run times are adjusted by.

The benchmark's host is a shared virtual machine whose speed drifts by
±15 % over tens of seconds with the load of its neighbours; CPU time drifts
with wall time, so neither can be read as the program's own cost.  Each
repetition therefore times a fixed pure-Python loop just before and just
after the program's ``main()`` call, and the run time is reported as

    wall time × NOMINAL_S / (mean of the two reference times)

that is, in seconds of a machine on which the loop takes ``NOMINAL_S``.  The
loop does what entrokit's hot paths do (calls, tuple hashing, set lookups)
and runs with the cyclic collector off, so the size of the program's heap
cannot change its time; nothing the program does can change the reference.
"""

from __future__ import annotations

import gc
import time

# The loop's median time on the baseline machine (bench/README.md), so that
# adjusted times read close to wall times there.
NOMINAL_S = 0.028

LOOPS = 100_000


def reference_s() -> float:
    """Wall time of the fixed reference loop, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = {(i, i + 1) for i in range(1000)}
        hits = 0
        start = time.perf_counter()
        for i in range(LOOPS):
            if (i % 1000, i % 1000 + 1) in table:
                hits += 1
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if hits != LOOPS:
        raise RuntimeError("reference loop miscounted")
    return elapsed
