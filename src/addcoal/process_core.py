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
    """Columnar sequence of the n-1 merge events of one chain run.

    `simulate_rows` fills it with several runs, one per row of
    (runs, n-1) columns; `event_costs` reads either shape.  The snapshot
    methods read one run.
    """

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
        s, S = self.s[:step], self.S[:step]
        size_range = self.n + 1
        # each merge adds a cluster of size s + S and removes one each of sizes s and S
        counts = (np.bincount(s + S, minlength=size_range) - np.bincount(s, minlength=size_range)
                  - np.bincount(S, minlength=size_range))
        counts[1] += self.n
        return {int(size): int(counts[size]) for size in np.flatnonzero(counts)}


def _check_n(n):
    """Chain sizes are 2 <= n < 2**31, so the walks' int32 state (`_replay.COMPACT_N`)
    cannot wrap; checked before any draw."""
    if not 2 <= n < 1 << 31:
        raise ValueError(f"simulation needs 2 <= n < 2**31, got n = {n}")


def direct_picks(n: int, rng, shape=()):
    """The predator elements and prey uniforms: the first two draws of a direct run.

    L and R need only these; u and u' are drawn after them, so leaving
    those undrawn changes no value drawn before.  Both arrays have shape
    (*shape, n-1): a leading shape draws several runs' picks in two calls.
    """
    _check_n(n)
    return rng.integers(0, n, size=(*shape, n - 1)), rng.random((*shape, n - 1))


def direct_inputs(n: int, rng):
    """All draws of a direct run, in order: elements, prey picks, u, u'."""
    elem, prey_u = direct_picks(n, rng)
    return elem, prey_u, rng.random(n - 1), rng.random(n - 1)


_LOW32 = np.uint64(0xFFFFFFFF)


def _lemire32(raw, n):
    """numpy's bounded int64 draw on [0, n), 2 <= n < 2**32, applied to the
    uint32 halves of raw PCG64 words, low half first: (values, rejected),
    two entries per word along the last axis.

    `integers(0, n)` keeps the values not rejected, in order (Lemire's rule
    with numpy's threshold (2**32 - n) % n).
    """
    u32 = np.stack((raw & _LOW32, raw >> np.uint64(32)), axis=-1).reshape(*raw.shape[:-1], -1)
    scaled = u32 * np.uint64(n)
    return (scaled >> np.uint64(32)).astype(np.int64), (scaled & _LOW32) < (2**32 - n) % n


def direct_rows(n: int, rngs, uniforms: int):
    """`direct_picks` (uniforms=1) or `direct_inputs` (uniforms=3) of one
    run per generator, stacked: arrays of shape (len(rngs), n-1).

    Each generator gives one `random_raw` call of ceil((n-1)/2) words for
    the elements plus n-1 words per uniform array, and the block rebuilds
    numpy's values from them: the elements by `_lemire32`, each double as
    (word >> 11) * 2**-53.  A row with a rejected element draw (about 1e-8
    per draw at n = 50) is rewound and drawn again by numpy, so the values
    never depend on copying numpy's rejection loop.  The generators must
    not hold a buffered 32-bit half word, as fresh ones do not; they end
    where numpy's own draws leave them, without its buffered upper half of
    the last element word when n-1 is odd.
    """
    redraw = {1: direct_picks, 3: direct_inputs}[uniforms]
    _check_n(n)
    rngs = list(rngs)
    half = n // 2  # ceil((n-1)/2) words hold the n-1 uint32 element draws
    words = half + uniforms * (n - 1)
    raw = np.array([rng.bit_generator.random_raw(words) for rng in rngs], np.uint64)
    elem, rejected = _lemire32(raw[:, :half], n)
    elem = elem[:, :n - 1]
    doubles = (raw[:, half:] >> np.uint64(11)) * 2.0**-53
    out = (elem, *doubles.reshape(len(rngs), uniforms, n - 1).transpose(1, 0, 2))
    for row in np.flatnonzero(rejected[:, :n - 1].any(axis=1)):
        rngs[row].bit_generator.advance(-words)
        for col, values in zip(out, redraw(n, rngs[row])):
            col[row] = values
    return out


def simulate_direct(n: int, rng) -> EventBatch:
    """Full direct-chain run.  Draw order: elements, prey picks, u, u'."""
    elem, prey_u, u, uprime = direct_inputs(n, rng)
    s, S, L, R, D = _replay.direct_chain_replay(n, elem, prey_u, uprime)
    return EventBatch(n, s, S, L, R, u, D)


def parking_tries(n: int, rng) -> np.ndarray:
    """The n-1 cars' uniform first tries: the first draw of a parking run.

    Statistics that need only the tries (`_replay.parking_scan`) stop
    here: u is drawn after the tries, so leaving it undrawn changes no
    value drawn before it.
    """
    _check_n(n)
    return rng.integers(0, n, size=n - 1)


def simulate_parking(n: int, rng) -> EventBatch:
    """Full parking run.  Draw order: first tries, u.

    D is the probed distance, 0 when the first try is empty.
    """
    tries = parking_tries(n, rng)
    u = rng.random(n - 1)
    s, S, L, R, D = _replay.parking_replay(n, tries)
    return EventBatch(n, s, S, L, R, u, D)


def tree_inputs(n: int, rng):
    """All draws of a spanning-tree run, in order: Prufer sequence, edge order, u, u'."""
    _check_n(n)
    return (rng.integers(0, n, size=max(0, n - 2)), rng.permutation(n - 1),
            rng.random(n - 1), rng.random(n - 1))


def simulate_spanning_tree(n: int, rng) -> EventBatch:
    """Full spanning-tree run.  Draw order: Prufer sequence, edge order, u, u'.

    The tree is uniform over the n**(n-2) labeled trees (Prufer decode),
    the edge insertion order uniform over the (n-1)! permutations, and the
    tree is rooted at vertex 0 to orient bottom/top.
    """
    prufer, perm, u, uprime = tree_inputs(n, rng)
    par = _replay.tree_parents_from_prufer(n, prufer)
    s, S, L, R, D = _replay.tree_replay(n, par, perm, uprime)
    return EventBatch(n, s, S, L, R, u, D)


_SIMULATORS = {
    Embedding.DIRECT: simulate_direct,
    Embedding.TREE: simulate_spanning_tree,
    Embedding.PARKING: simulate_parking,
}

#: the embeddings that `simulate_rows` replays in lockstep
LOCKSTEP = frozenset({Embedding.DIRECT, Embedding.TREE})


def simulate(n: int, rng, embedding=Embedding.DIRECT) -> EventBatch:
    return _SIMULATORS[Embedding(embedding)](n, rng)


def simulate_rows(n: int, rngs, embedding) -> EventBatch:
    """Runs of a `LOCKSTEP` embedding in lockstep, one per generator, each
    drawn as `simulate` draws it: every column has shape (len(rngs), n-1),
    a row per run.

    Direct rows take their draws from one raw call per generator
    (`direct_rows`); tree rows call numpy per generator, since
    `permutation` draws with a varying range.
    """
    embedding = Embedding(embedding)
    if embedding not in LOCKSTEP:
        raise ValueError(f"{embedding.value} runs do not replay in lockstep")
    if embedding is Embedding.TREE:
        prufer, perm, u, uprime = (np.stack(col)
                                   for col in zip(*(tree_inputs(n, rng) for rng in rngs)))
        par = np.stack([_replay.tree_parents_from_prufer(n, row) for row in prufer])
        top = perm + 1
        s, S, L, R, D = _replay.tree_rows(n, np.take_along_axis(par, top, axis=1), top, uprime)
    else:
        elem, prey_u, u, uprime = direct_rows(n, rngs, 3)
        s, S, L, R, D = _replay.direct_chain_rows(n, elem, prey_u, uprime)
    return EventBatch(n, s, S, L, R, u, D)
