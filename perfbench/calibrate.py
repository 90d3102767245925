"""Reference kernel that calibrates the benchmark's timings.

The 2-core box the benchmark was built on runs the same CPU-bound
Python code up to twice as slow for stretches of tens of seconds, in
wall time and in CPU time alike, because of load outside the
container.  A fixed kernel timed right before every case slows down by
the same share: over 10-second windows a lift case varied by +-17%
while the ratio of its time to the kernel's varied by +-2%.

The kernel multiplies, adds and differentiates exact polynomials with
the generator's own arithmetic (Fraction-coefficient dicts), so no
change to the engine can change its cost.  A round's timings are
scaled by REF_SECONDS / (median kernel time of the round): they read
as seconds on a box where the kernel takes REF_SECONDS, about what it
takes on the 2-core x86-64 box when nothing else runs.
"""

import gc
import random
import time

import gen

REF_SECONDS = 0.0075

_rng = random.Random("calibration-kernel")
_NAMES = ("a", "b", "c", "d")
_P = gen.poly(_rng, _rng, _NAMES, 12, 3)
_Q = gen.poly(_rng, _rng, _NAMES, 12, 3)


def _kernel():
    x = _P
    for _ in range(3):
        x = gen.p_add(gen.p_mul(x, _Q), _P)
        x = dict(sorted(x.items())[:40])
    for name in _NAMES:
        gen.p_partial(x, name)


def measure():
    """(wall seconds, CPU seconds) of one kernel run.  The cyclic
    collector is paused: a collection would charge the kernel for the
    heap the cases left, not for the speed of the box."""
    gc.disable()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        gc.enable()
