"""Host-speed calibration for the timed metrics.

On a shared virtual machine the same op runs 10-20 % slower or faster from
one minute to the next, because of load outside the machine.  A fixed
kernel that does the same kinds of work as the package (scalar complex
arithmetic in Python, small and 64x64 dense linear algebra in numpy) runs
between ops; its median time measures the host's speed during the run.
Op times are multiplied by REFERENCE_S / median kernel time, so runs made
at different host speeds compare.  The raw wall times are printed as well.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-vCPU Intel Xeon virtual machine where the
# benchmark's bounds were set; scaled times read as seconds on that host.
REFERENCE_S = 0.0098

_M = np.exp(1j * np.arange(64 * 64).reshape(64, 64) / 7.0) / 8.0


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    z = 0.3 + 0.1j
    for _ in range(20_000):
        z = z * z * 0.5 + (0.1 + 0.2j) / (1 + abs(z))
    for _ in range(40):
        _M @ _M
        np.linalg.solve(_M[:5, :5] + 2 * np.eye(5), _M[:5, 0])
    return time.perf_counter() - t0
