"""Host speed probe: a fixed piece of numpy work, timed while the program runs.

On a shared host the same code runs at speeds that drift by more than a
factor of 1.5 over minutes, as other tenants load the physical cores, and by
about 10% from one second to the next. A run's median iteration then says
more about the host's load at the time than about the program. The probe
measures that drift: it times a fixed kernel shaped like the workload's own
work, in samples of 7 to 16 ms. Both kernels start with the spin signs of
all 2^11 configurations of 12 ions, their Ising energies through a matmul and
``einsum``, and dense ``eigh`` at dimension 32. Then

- ``small`` (census, map) makes many numpy calls on vectors of length 32,
  as map does at every grid point;
- ``dense`` (gap, krylov) runs one dense ``eigh`` at dimension 256.

The load of other tenants slows interpreter-bound and BLAS-bound code by
different amounts, so each kernel tracks only its own kind of workload: on
krylov the ``small`` kernel over-corrected, and on map the ``dense`` one
tracked the drift only half as well.

During an iteration, ``Sampler`` takes a sample every ``PERIOD_S`` of wall
time, from a SIGALRM handler, so the samples see the host as the iteration
does. The iteration's time, less the time spent in the handler, is rescaled
to the reference host, where a sample takes ``REFERENCE_SAMPLE_S``:

    rescaled = (wall - sampling) * REFERENCE_SAMPLE_S / mean(sample times)

A measurement made in another process, as set-up is, gets a ``block`` of
samples before it and after it instead (``rescale``). The kernels are the
benchmark's own code and never call ionspins, so a change to ionspins moves
the measurements, never the samples.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# reference sample time of each kernel: about its mean sample time, run alone,
# on 2 vCPUs of an Intel Xeon VM, numpy 2.4.6 with OpenBLAS 0.3.31 on the
# workload's BLAS threads (one for small, two for dense), Python 3.11
REFERENCE_SAMPLE_S = {"small": 0.007, "dense": 0.016}
# wall time between samples during an iteration: sampling takes 4 to 8% of it
PERIOD_S = 0.2
# length of a block of samples around a measurement made in another process
BLOCK_S = 0.1

_N_IONS = 12
_INDICES = np.arange(1 << (_N_IONS - 1), dtype=np.int64)
_SHIFTS = np.arange(_N_IONS - 1, -1, -1, dtype=np.int64)
_RNG = np.random.default_rng(20101125)


def _symmetric(n):
    a = _RNG.standard_normal((n, n))
    return a + a.T


_J = _symmetric(_N_IONS)
_H32 = _symmetric(32)
_V32 = _RNG.standard_normal(32)
_H256 = _symmetric(256)


def sample(kernel):
    """Seconds one pass of ``kernel``, ``"small"`` or ``"dense"``, takes now."""
    t0 = perf_counter()
    for _ in range(10):
        z = 1.0 - 2.0 * ((_INDICES[:, None] >> _SHIFTS) & 1)
        e = np.einsum("si,si->s", z @ _J, z)
        np.nonzero(e <= e.min() + 1e-9)
    for _ in range(20):
        np.linalg.eigh(_H32)
    if kernel == "small":
        for i in range(150):
            row = _H32[i % 32] * _V32
            float(np.linalg.norm(row))
            (np.arange(32, dtype=np.int64) ^ 1).sum()
            min(abs(float(row[0])), 1.0)
    else:
        np.linalg.eigh(_H256)
    return perf_counter() - t0


def _at_reference(seconds, samples, kernel):
    return seconds * REFERENCE_SAMPLE_S[kernel] * len(samples) / sum(samples)


class Sampler:
    """Samples taken from a timer signal while the main thread runs an iteration.

    Python runs the handler between bytecodes of the main thread, so a sample
    never interrupts ionspins inside a numpy call; it waits for the call to
    return. ``samples`` keeps every sample time taken, ``rescaled`` each
    iteration's time at the reference host's speed.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.rescaled = []
        self._current = []
        self._spent = 0.0

    def _take(self, signum=None, frame=None):
        t0 = perf_counter()
        self._current.append(sample(self.kernel))
        self._spent += perf_counter() - t0

    def start(self):
        self._current, self._spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self, wall):
        """Stop sampling; return the iteration's time without the sampling.

        ``wall`` is the iteration's wall time, sampling included. An
        iteration shorter than the period gets one sample after it.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        measured = wall - self._spent
        if not self._current:
            self._take()
        self.samples += self._current
        self.rescaled.append(_at_reference(measured, self._current, self.kernel))
        return measured


def block(kernel):
    """Sample times of one block: samples until ``BLOCK_S`` have passed, at least one."""
    times = []
    start = perf_counter()
    while not times or perf_counter() - start < BLOCK_S:
        times.append(sample(kernel))
    return times


def rescale(measured, blocks, kernel):
    """Each of ``measured`` at the reference host's speed, from the blocks around it.

    ``blocks`` holds one more block than there are measurements: block i ran
    just before measurement i, and the last one after the last measurement.
    """
    if len(blocks) != len(measured) + 1:
        raise ValueError(f"{len(measured)} measurements need {len(measured) + 1} blocks, got {len(blocks)}")
    return [_at_reference(value, blocks[i] + blocks[i + 1], kernel) for i, value in enumerate(measured)]
