"""The reference kernels: fixed loops that measure how fast the host runs right now.

On a shared host an operation's time varies by up to 2x with what else the
cores run, and so does a fixed loop timed just before it.  The benchmark
therefore times a kernel right before each operation and reports the
operation's time divided by the kernel's slowdown (its time over its
reference time, the median on the machine the bounds were set on): the
median of these over many repeats is the time the operation takes on a host
as fast as that one.  The kernels are the benchmark's own code, so a change
to the package cannot move them.  This module imports nothing but ``time``
when loaded, so that set-up can be measured after it in a fresh interpreter.
"""

import time

LOOPS = 500
#: Median time of reference_kernel() on the machine the bounds were set on
#: (a 2-core VM, Python 3.11.7); single runs took 40-75 us there.
REFERENCE_KERNEL_S = 7.0e-5
#: Median time of threaded_reference_kernel() on the same machine.
THREADED_REFERENCE_KERNEL_S = 3.7e-4

_worker = None


def reference_kernel() -> float:
    """Seconds of one run of the kernel.

    The loop allocates no containers, so the program's heap cannot start a
    garbage collection inside it.
    """
    start = time.perf_counter()
    x, slots = 0.5, {}
    for k in range(LOOPS):
        x = x * 1.0000001 + 1e-9
        slots[k & 15] = x
    return time.perf_counter() - start


def threaded_reference_kernel() -> float:
    """Seconds to hand the kernel to an idle worker thread and wait for it.

    Operations that hand work to threads of their own (``sweep`` runs a
    thread pool) also pay for waking threads on other cores, which a shared
    host slows by other factors than it slows the interpreter loop; this
    kernel slows with them.
    """
    global _worker
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor
        _worker = ThreadPoolExecutor(1, thread_name_prefix="refkernel")
        _worker.submit(reference_kernel).result()  # start the thread, untimed
    start = time.perf_counter()
    _worker.submit(reference_kernel).result()
    return time.perf_counter() - start


def slowdown() -> float:
    """How much slower than the reference the host runs the kernel now."""
    return reference_kernel() / REFERENCE_KERNEL_S


def threaded_slowdown() -> float:
    """How much slower than the reference the host runs the threaded kernel now."""
    return threaded_reference_kernel() / THREADED_REFERENCE_KERNEL_S
