"""Additive coalescent chains and their merge-event streams.

Starting from n size-1 clusters, pairs merge until one cluster of mass n
remains; a pair of masses (x, y) merges with probability proportional to
x + y.  Three statistically equivalent generators are provided:

* the direct two-stage chain (size-biased predator pick, uniform prey),
* a uniform labeled tree with a uniform edge ordering,
* circular parking with linear probing.

Each of the n-1 merge events records the ordered sizes (s, S), the
size-biased side L and its complement R = s + S - L, an auxiliary
uniform u, and a displacement D uniform on {0, ..., L-1} (in the parking
model D is the physical probe distance).
"""

import enum

import numpy as np

from . import _replay


class Embedding(str, enum.Enum):
    """The three equivalent generators of the merge-event stream."""

    DIRECT = "direct"
    TREE = "tree"
    PARKING = "parking"


class EventBatch:
    """Columnar sequence of the n-1 merge events of one chain run."""

    __slots__ = ("n", "s", "S", "L", "R", "u", "D")

    def __init__(self, n, s, S, L, R, u, D):
        self.n = n
        self.s = s
        self.S = S
        self.L = L
        self.R = R
        self.u = u
        self.D = D

    def __len__(self):
        return self.n - 1

    def largest_cluster_at(self, step):
        """Size of the largest cluster after `step` merges (0 <= step <= n-1)."""
        if not 0 <= step <= len(self):
            raise ValueError(f"step must be in [0, {len(self)}]")
        if step == 0:
            return 1
        # merged sizes only ever grow, so the running max is the largest cluster
        return int(np.max(self.s[:step] + self.S[:step]))

    def spectrum_at(self, step):
        """Cluster-size spectrum {size: count} after `step` merges."""
        if not 0 <= step <= len(self):
            raise ValueError(f"step must be in [0, {len(self)}]")
        spectrum = {1: self.n}
        for i in range(step):
            for size in (int(self.s[i]), int(self.S[i])):
                left = spectrum[size] - 1
                if left:
                    spectrum[size] = left
                else:
                    del spectrum[size]
            merged = int(self.s[i] + self.S[i])
            spectrum[merged] = spectrum.get(merged, 0) + 1
        return spectrum


def _check_n(n):
    if n < 2:
        raise ValueError("simulation needs n >= 2")


def simulate_direct(n: int, rng) -> EventBatch:
    """Full direct-chain run.  Draw order: elements, prey picks, u, u'."""
    _check_n(n)
    elem = rng.integers(0, n, size=n - 1)
    prey_u = rng.random(n - 1)
    u = rng.random(n - 1)
    uprime = rng.random(n - 1)
    s, S, L, R, D = _replay.direct_chain_replay(n, elem, prey_u, uprime)
    return EventBatch(n, s, S, L, R, u, D)


def simulate_parking(n: int, rng) -> EventBatch:
    """Full parking run.  Draw order: first tries, u.

    D is the probed distance, 0 when the first try is empty.
    """
    _check_n(n)
    tries = rng.integers(0, n, size=n - 1)
    u = rng.random(n - 1)
    s, S, L, R, D = _replay.parking_replay(n, tries)
    return EventBatch(n, s, S, L, R, u, D)


def simulate_spanning_tree(n: int, rng) -> EventBatch:
    """Full spanning-tree run.  Draw order: Prufer sequence, edge order, u, u'.

    The tree is uniform over the n**(n-2) labeled trees (Prufer decode),
    the edge insertion order uniform over the (n-1)! permutations, and the
    tree is rooted at vertex 0 to orient bottom/top.
    """
    _check_n(n)
    prufer = rng.integers(0, n, size=max(0, n - 2))
    perm = rng.permutation(n - 1)
    u = rng.random(n - 1)
    uprime = rng.random(n - 1)
    par = _replay.tree_parents_from_prufer(n, prufer)
    s, S, L, R, D = _replay.tree_replay(n, par, perm, uprime)
    return EventBatch(n, s, S, L, R, u, D)


_SIMULATORS = {
    Embedding.DIRECT: simulate_direct,
    Embedding.TREE: simulate_spanning_tree,
    Embedding.PARKING: simulate_parking,
}


def simulate(n: int, rng, embedding=Embedding.DIRECT) -> EventBatch:
    return _SIMULATORS[Embedding(embedding)](n, rng)
