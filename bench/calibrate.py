"""Host-speed calibration: a fixed kernel timed next to every measurement.

The host this benchmark runs on is shared. Contention from outside the VM
slows everything by up to about 1.8x, in bursts of a second to tens of
seconds, while the other vCPU stays idle. That makes raw wall times of the
same code spread by 20-36% between 25-second runs. So this fixed kernel is
timed just before and just after every measured interval, and the interval
is reported as

    wall seconds x REFERENCE_S / (mean of the two kernel times)

which is the interval's length at the host speed where the kernel takes
REFERENCE_S. On a quiet host this is the wall time.

The kernel mixes the kinds of work reupsim does: small complex numpy arrays
as in the state-evolution kernel, a plain Python loop, and an inverse
incomplete-beta evaluation like the binomial quantile of the noisy backend.
It imports nothing that reupsim does not import itself.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

# Kernel time in the quietest stretches on the machine the baseline in
# bench/README.md was measured on.  Any constant works for comparing two
# commits; this one makes the reported seconds match wall time there.
REFERENCE_S = 0.0038


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.phi = rng.uniform(-3.0, 3.0, (4, 250))
        self.a = rng.uniform(1.0, 150.0, 250)
        self.b = rng.uniform(1.0, 150.0, 250)
        self.y = rng.uniform(0.01, 0.99, 250)

    def kernel_s(self) -> float:
        """Wall seconds of one pass of the fixed kernel."""
        start = time.perf_counter()
        for _ in range(30):
            alpha = np.ones(250, dtype=complex)
            beta = np.zeros(250, dtype=complex)
            for phi in self.phi:
                c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
                alpha, beta = c * alpha - s * beta, s * alpha + c * beta
                phase = np.exp(-0.5j * phi)
                alpha, beta = alpha * phase, beta * np.conj(phase)
        total = 0
        for i in range(10000):
            total += i
        for _ in range(4):
            special.betaincinv(self.a, self.b, self.y)
        return time.perf_counter() - start

    def around(self, fn):
        """Run fn() between two kernel passes.

        Returns fn's result and the factor that scales wall seconds measured
        inside fn to the reference host speed.
        """
        before = self.kernel_s()
        result = fn()
        after = self.kernel_s()
        return result, 2.0 * REFERENCE_S / (before + after)
