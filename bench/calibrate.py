"""Host-speed calibration for the benchmark's timings.

A shared virtual machine runs the same Python code faster or slower by up to
1.4 times, in phases that last from seconds to minutes.  The guest reports
almost no steal time, so CPU time moves with wall time and cannot be used
instead.  A fixed kernel, independent of ``delsarte``, is therefore timed
every ``INTERVAL_S`` through each timed loop, and every op's wall time is
scaled by ``REFERENCE_S`` over the mean time of the kernel runs nearest to
it.  A scaled time is what the op would take on a host where the kernel
takes ``REFERENCE_S``.  The kernel and the program share one interpreter and
the same cores, so a gain in the program shows in full while the host's
phases cancel.

The kernel computes a small Groebner basis over QQ in sympy's sparse
polynomial ring: dicts of exponent tuples over Python-integer rationals, the
arithmetic that dominates the oracle and the elliptic stages with sympy's
``python`` ground types.  It uses no sympy cache.  The garbage collector is
off while it runs, so garbage the program left behind is not collected on the
kernel's clock.  On 2 cores of a shared virtual machine, a fixed set of
``picard`` ops run for 150 s had 10-second medians between 0.73 and 1.39
times their overall median; divided by the kernel's time they stayed
between 0.94 and 1.07.  A pure-integer kernel tracked those ops less well.
"""

from __future__ import annotations

import gc
import statistics
import time

from sympy import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.rings import ring

# The kernel's nominal wall time: scaled times are those of a host where one
# kernel run takes this long.
REFERENCE_S = 0.010
# A timed loop runs the kernel after the first op that ends this long after
# the previous kernel run.
INTERVAL_S = 0.2
# An op is scaled by this many kernel runs on either side of it.
WINDOW = 2

_RING, _X, _Y, _Z = ring("x,y,z", QQ)
_SYSTEM = [
    _X**2 + 2 * _X * _Y - _Z**2 + 1,
    _X * _Y - 3 * _Z + _Y**2,
    _X * _Z - _Y**2 + _X,
]
_BASIS_SIZE = 3


def kernel_seconds() -> float:
    """Wall time of one kernel run, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        basis = groebner(_SYSTEM, _RING)
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(basis) != _BASIS_SIZE:
        raise RuntimeError(f"calibration kernel gave a basis of {len(basis)}")
    return seconds


class Calibration:
    """Kernel runs spread evenly through one timed loop.

    The host changes speed within seconds, so each op is scaled by the
    kernel runs nearest to it: the ``WINDOW`` runs before it ended and the
    ``WINDOW`` after.
    """

    def __init__(self) -> None:
        self.kernel_s = [kernel_seconds()]
        self.last = time.perf_counter()

    def mark(self) -> int:
        """Called after each op: the index of the last kernel run before
        the op ended; then runs the kernel if it is due."""
        index = len(self.kernel_s) - 1
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.kernel_s.append(kernel_seconds())
            self.last = time.perf_counter()
        return index

    def factor(self, index: int) -> float:
        """Multiplier from wall to reference seconds for an op marked
        ``index``."""
        near = self.kernel_s[max(0, index + 1 - WINDOW) : index + 1 + WINDOW]
        return REFERENCE_S / statistics.fmean(near)
