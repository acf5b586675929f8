"""A fixed calibration kernel, timed next to every measured command.

The machine this benchmark was built on shares its cores with other jobs,
and the same deterministic command runs up to about 40 % faster or slower
from one minute to the next.  Medians over a run cannot remove that: the
slow and fast phases last seconds to minutes, as long as a run.  So the benchmark times
this kernel right before and right after each command and reports the
command's time scaled to the kernel's reference time (`kernel_time` is
the median of the kernel's timed bodies on either side):

    calibrated = seconds * K_REF / kernel_seconds

The kernel does the kinds of work `reachdec` does (an interpreted loop,
small dense products, sparse-by-dense products and a small matrix
exponential) with fixed inputs, and uses nothing from `reachdec`, so a
change to the program moves the command's time and not the kernel's.
A calibrated second is a second of a machine on which the kernel takes
`K_REF` seconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp

#: median `kernel_time` on the reference machine (2-vCPU virtual machine,
#: Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS on one thread), so that
#: calibrated seconds there read like wall seconds in a median phase; only
#: the scale of calibrated seconds depends on it
K_REF = 0.0125

_rng = np.random.default_rng(20240601)
_D = _rng.random((64, 64))
_S = sp.random_array((2000, 2000), density=0.003, format="csr", rng=_rng)
_V = _rng.random((2000, 8))
_E = 0.1 * _rng.random((60, 60))


def _once():
    start = time.perf_counter()
    acc = {}
    for i in range(20000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    for _ in range(200):
        _D @ _D
    for _ in range(25):
        _S @ _V
    for _ in range(10):
        scipy.linalg.expm(_E)
    return time.perf_counter() - start


def kernel():
    """Run the kernel body four times; return the wall times in seconds."""
    return [_once() for _ in range(4)]


def kernel_time(before, after):
    """The kernel time for a command between two `kernel` runs: the median
    of their bodies, so that one interrupted body does not move it."""
    return statistics.median(before + after)


def scaled(seconds, kernel_seconds):
    """``seconds`` in calibrated seconds, given the kernel's time next to it."""
    return seconds * K_REF / kernel_seconds
