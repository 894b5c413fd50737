"""A fixed calibration kernel that measures how fast the host is right now.

The benchmark's host is shared. Its speed moves between states about 1.6x
apart that last from seconds to minutes, so two runs of the same code can
differ by that much in wall time.  The kernel below exercises the same
libraries the verbs spend their time in (dense complex ``expm``, small
complex matrix products, sparse ``expm_multiply`` and plain Python
arithmetic) on fixed inputs, and imports nothing from jcdamp, so a change to
the program never changes it.  Timed right before and right after a verb
call, it tells which speed state the call ran in; ``scaled`` converts the
call's wall time to the seconds it would take on a host where one kernel
run takes ``REF_S``.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

# Seconds one kernel run takes on the reference host: the fast state of a
# 2-CPU x86-64 VM with one BLAS thread, where it measured 0.035-0.037 s.
REF_S = 0.036


class Kernel:
    """The calibration kernel's fixed inputs; ``seconds()`` times one run."""

    def __init__(self):
        rng = np.random.default_rng(20140211)
        self.dense = 0.1 * (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
        self.small = 0.1 * (rng.standard_normal((56, 56)) + 1j * rng.standard_normal((56, 56)))
        self.sparse = scipy.sparse.random(400, 400, density=0.02, random_state=2,
                                          format="csr") * (0.5 + 0.5j)
        self.vector = np.ones(400, dtype=complex)
        self.seconds()  # first calls: lazy imports and allocations

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            scipy.linalg.expm(self.dense)
        x = self.small
        for _ in range(300):
            x = 0.5 * (x @ self.small) + self.small - 0.1j * (self.small @ x)
        for _ in range(10):
            scipy.sparse.linalg.expm_multiply(self.sparse, self.vector)
        acc = 0.0
        for i in range(30000):
            acc += i * 0.5
        return time.perf_counter() - t0


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` of wall time, measured between two kernel runs, in
    seconds on the reference host."""
    return seconds * REF_S / (0.5 * (kernel_before + kernel_after))

