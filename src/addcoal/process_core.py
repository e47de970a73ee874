"""Additive coalescent chains and their merge-event streams.

Starting from n size-1 clusters, pairs merge until one cluster of mass n
remains; a pair of masses (x, y) merges with probability proportional to
x + y.  Three statistically equivalent generators are provided:

* the direct two-stage chain (size-biased predator pick, uniform prey),
* a uniform labeled tree with a uniform edge ordering,
* circular parking with linear probing.

Each of the n-1 merge events records its ordered split (L, R), the sizes
of the size-biased side and of the other side, an auxiliary uniform u,
and a displacement D uniform on {0, ..., L-1} given L: floor(u' L) for a
drawn uniform u' in the direct and tree runs, the physical probe distance
in the parking model.

`simulate_rows` is the one path from random streams to an `EventBatch`:
it draws a block of runs, one per PCG64 bit generator, replays them in
lockstep or one by one, and `simulate` reads one run as a one-row block.
Lockstep direct and parking blocks read raw words from the bit generators;
a `np.random.Generator` is wrapped around one only where a numpy
distribution method draws (walked rows, tree runs, a redrawn row).
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

    `simulate_rows` fills it with a block of runs, one per row of
    (runs, n-1) columns; `simulate` gives one run's 1-D columns.
    `event_costs` reads either shape.  The snapshot methods read one run
    and reject a batch of several.
    """

    __slots__ = ("n", "L", "R", "u", "D")

    def __init__(self, n, L, R, u, D):
        self.n = n
        self.L = L
        self.R = R
        self.u = u
        self.D = D

    def __len__(self):
        return self.n - 1

    def _check_snapshot(self, step):
        """Raise ValueError unless the batch holds one run and 0 <= step <= n-1."""
        if self.L.ndim != 1:
            raise ValueError(f"snapshots read one run, not a batch of shape {self.L.shape}")
        if not 0 <= step <= len(self):
            raise ValueError(f"step must be in [0, {len(self)}]")

    def largest_cluster_at(self, step):
        """Size of the largest cluster after `step` merges (0 <= step <= n-1)."""
        self._check_snapshot(step)
        if step == 0:
            return 1
        # merged sizes only ever grow, so the running max is the largest cluster
        return int(np.max(self.L[:step] + self.R[:step]))

    def spectrum_at(self, step):
        """Cluster-size spectrum {size: count} after `step` merges."""
        self._check_snapshot(step)
        L, R = self.L[:step], self.R[:step]
        size_range = self.n + 1
        # each merge adds a cluster of size L + R and removes one each of sizes L and R
        counts = (np.bincount(L + R, minlength=size_range) - np.bincount(L, minlength=size_range)
                  - np.bincount(R, minlength=size_range))
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


def _floor_displacement(uprime, L):
    """The direct and tree runs' D = floor(u' L), uniform on {0, ..., L-1} given L."""
    return (uprime * L).astype(np.int64)


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


def direct_rows(n: int, bits, uniforms: int):
    """`direct_picks` (uniforms=1) or `direct_inputs` (uniforms=3) of one
    run per PCG64 bit generator, stacked: arrays of shape (len(bits), n-1).

    Each bit generator gives one `random_raw` call of ceil((n-1)/2) words
    for the elements plus n-1 words per uniform array, and the block
    rebuilds numpy's values from them: the elements by `_lemire32`, each
    double as (word >> 11) * 2**-53.  No Generator is built unless a row
    has a rejected element draw (about 1e-8 per draw at n = 50): that row
    is rewound and drawn again by numpy through a Generator around its bit
    generator, so the values never depend on copying numpy's rejection
    loop.  The bit generators must not hold a buffered 32-bit half word,
    as fresh ones do not; they end where numpy's own draws leave them,
    without its buffered upper half of the last element word when n-1 is
    odd.
    """
    redraw = {1: direct_picks, 3: direct_inputs}[uniforms]
    _check_n(n)
    bits = list(bits)
    half = n // 2  # ceil((n-1)/2) words hold the n-1 uint32 element draws
    words = half + uniforms * (n - 1)
    raw = np.array([bit.random_raw(words) for bit in bits], np.uint64)
    elem, rejected = _lemire32(raw[:, :half], n)
    elem = elem[:, :n - 1]
    doubles = (raw[:, half:] >> np.uint64(11)) * 2.0**-53
    out = (elem, *doubles.reshape(len(bits), uniforms, n - 1).transpose(1, 0, 2))
    for row in np.flatnonzero(rejected[:, :n - 1].any(axis=1)):
        bits[row].advance(-words)
        for col, values in zip(out, redraw(n, np.random.Generator(bits[row]))):
            col[row] = values
    return out


def parking_tries(n: int, rng) -> np.ndarray:
    """The n-1 cars' uniform first tries: the first draw of a parking run.

    Statistics that need only the tries (`_replay.parking_scan`) stop
    here: u is drawn after the tries, so leaving it undrawn changes no
    value drawn before it.
    """
    _check_n(n)
    return rng.integers(0, n, size=n - 1)


def tree_inputs(n: int, rng):
    """All draws of a spanning-tree run, in order: Prufer sequence, edge order, u, u'."""
    _check_n(n)
    return (rng.integers(0, n, size=max(0, n - 2)), rng.permutation(n - 1),
            rng.random(n - 1), rng.random(n - 1))


def _stack(runs):
    """Per-run array tuples stacked on a new run axis; a lone run's as views `a[None]`."""
    runs = list(runs)
    if len(runs) == 1:
        return tuple(a[None] for a in runs[0])
    return tuple(np.stack(col) for col in zip(*runs))


def simulate_rows(n: int, bits, embedding) -> EventBatch:
    """Full runs of one embedding, one per PCG64 bit generator of the
    sequence bits: every column has shape (len(bits), n-1), a row per run.

    Each bit generator draws as `direct_inputs`, `tree_inputs` or, for
    parking, `direct_picks` does (a parking run's first tries and u).  A
    block of at least n rows replays in lockstep (`_replay.*_rows`, a
    tree's Prufer decode too: `prufer_rows`), direct and parking draws from
    one raw call per bit generator (`direct_rows`, which builds no
    Generator; a tree's `permutation` has a varying range); a smaller block
    replays each direct and parking row alone by its walk
    (`_replay.direct_chain_replay`, `parking_replay`) and decodes each tree
    row by the walk `tree_parents_from_prufer`.  Every tree block replays
    in one walk-free `tree_replay` call.  Walked rows and tree rows draw
    through a `np.random.Generator` wrapped around their bit generator.
    """
    embedding = Embedding(embedding)
    lockstep = len(bits) >= n
    if embedding is Embedding.PARKING:
        tries, u = (direct_rows(n, bits, 1) if lockstep
                    else _stack(direct_picks(n, np.random.Generator(bit)) for bit in bits))
        L, R, D = (_replay.parking_rows(n, tries) if lockstep
                   else _stack(_replay.parking_replay(n, row) for row in tries))
        return EventBatch(n, L, R, u, D)
    if embedding is Embedding.TREE:
        prufer, top, u, uprime = _stack(tree_inputs(n, np.random.Generator(bit))
                                        for bit in bits)
        top += 1  # the k-th inserted edge joins vertex perm[k] + 1 to its parent
        par = (_replay.prufer_rows(n, prufer) if lockstep
               else np.stack([_replay.tree_parents_from_prufer(n, p) for p in prufer]))
        bottom = np.take_along_axis(par, top, axis=1)
        del prufer, par  # freed before the replay, whose peak a long chain's run sets
        L, R = _replay.tree_replay(n, bottom, top)
    else:
        elem, prey_u, u, uprime = (direct_rows(n, bits, 3) if lockstep
                                   else _stack(direct_inputs(n, np.random.Generator(bit))
                                               for bit in bits))
        L, R = (_replay.direct_chain_rows(n, elem, prey_u) if lockstep
                else _stack(_replay.direct_chain_replay(n, e, p) for e, p in zip(elem, prey_u)))
    return EventBatch(n, L, R, u, _floor_displacement(uprime, L))


def simulate(n: int, rng, embedding=Embedding.DIRECT) -> EventBatch:
    """One full run drawn from the Generator rng: row 0 of a one-row
    `simulate_rows` block of its bit generator, as 1-D views.  rng ends
    where numpy's draws leave it."""
    batch = simulate_rows(n, [rng.bit_generator], embedding)
    return EventBatch(n, batch.L[0], batch.R[0], batch.u[0], batch.D[0])
