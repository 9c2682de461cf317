"""Host-speed calibration for the benchmark's timings.

The shared host the benchmark was written on (2 vCPUs, Intel Xeon) changes
speed by tens of percent over minutes, and one process can run at a
different speed from the next; no median within a run removes that.  Each
operation's child process therefore runs ``calibrate()`` between its import
and the CLI call, and ``bench.py`` scales that operation's times by
``REFERENCE_S`` over the calibration time.  Run in the child itself, the
calibration tracked the operation's speed far better than the same mix run
in ``bench.py`` between operations.
"""

import mmap
import time

import numpy as np

# Corrected times are the times the operations would have taken had their
# calibration taken this long (about its duration on that host).
REFERENCE_S = 0.28
# Bytes the matrix-vector part streams, whatever the matrix size.
STREAMED_BYTES = 100 * 2**20


def calibrate(rows: int) -> tuple[float, float]:
    """(wall, CPU) seconds this process takes for a fixed mix of the kinds
    of work the CLI does: interpreter loops (about 0.2 of the time), numpy
    calls on 64-element arrays (0.4), and products of reversed weights with
    a ``rows`` x 64 matrix, as in the history sum over ``rows`` steps on 64
    nodes (0.4).  The matrix is the size of the workload's history buffer,
    which the CLI call allocates too, so the calibration does not raise the
    child's peak RSS above the call's own."""
    vector = np.linspace(0.0, 1.0, 64)
    weights = np.exp(-np.arange(float(rows)) / 1024.0)[::-1]
    # A private mapping rather than malloc: freeing a large malloc block
    # raises glibc's mmap threshold, which would change how the CLI call's
    # own arrays are allocated and so its peak RSS.  The mapping goes away
    # with the last array that views it, when this function returns.
    matrix = np.frombuffer(mmap.mmap(-1, rows * 64 * 8), dtype=float)
    matrix = matrix.reshape(rows, 64)
    np.outer(np.arange(float(rows)), vector, out=matrix)
    np.sin(matrix, out=matrix)
    start, cpu_start = time.perf_counter(), time.process_time()
    total = 0
    for k in range(600_000):
        total += k * k % 7
    a = vector.copy()
    for _ in range(18_000):
        a = 0.5 * a + 0.25 * vector - 1e-3 * np.sqrt(a * a + 1.0)
    for _ in range(max(1, STREAMED_BYTES // matrix.nbytes)):
        a = weights @ matrix
    return time.perf_counter() - start, time.process_time() - cpu_start
