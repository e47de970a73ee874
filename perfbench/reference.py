"""A frozen reference computation that measures how fast the machine is right now.

On a shared virtual machine the speed of one vCPU drifts, by up to 1.8x
over minutes on the 2-vCPU VM this benchmark was tuned on, and no median
over a 20-second run hides that.  The benchmark therefore times this fixed
computation after every operation and reports pass time in units of it
(`wall_norm`).  It mirrors the two kinds of work the program does: an
interpreted union-find loop with random access over arrays as large as
those of the n = 1e5 chains (the replay kernels and the oracle enumerations) and vectorized float work (the Smoluchowski
integrand).  It must not change with the program: editing it changes the
unit of `wall_norm`.
"""

import numpy as np
from scipy.special import gammaln

_N = 100_000  # elements, as in the n = 1e5 chains
_STEPS = 40_000  # unions per run
_K = 1 << 15


class Reference:
    """Fixed inputs built once; `run()` is the timed computation."""

    def __init__(self):
        g = np.random.default_rng(20040601)
        self.elem = g.integers(0, _N, _STEPS)
        self.pick = g.random(_STEPS)
        self.ks = np.arange(1, _K + 1, dtype=np.float64)
        self.log_fact = gammaln(self.ks + 1.0)

    def run(self):
        parent = np.arange(_N)
        size = np.ones(_N, np.int64)
        for k in range(_STEPS):
            a = self.elem[k]
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            b = int(self.pick[k] * _N)
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
        # first moment of q(k, t) on a grid of t, as the Smoluchowski integrand does
        ks = self.ks
        total = 0.0
        for i in range(1, 181):
            t = 0.0125 * i
            w = -np.expm1(-t)
            total += float(np.dot(ks, np.exp((ks - 1.0) * np.log(ks * w) - t - ks * w - self.log_fact)))
        return total
